"""The package's three distances, and swap permutations encoded as bits.

Hamming distance counts mismatching positions. The swap distance and the
swap+Hamming distance are order-sensitive, and one greedy left-to-right
trace, ``_trace``, computes both. It visits the mismatching positions only:
at each one not yet covered it swaps if the 2-window is the reversal of the
target's and substitutes otherwise.

A swap exchanges two adjacent distinct symbols. The swap distance between
matching words is the size of the unique set of pairwise disjoint,
non-adjacent swaps that turns one into the other; between other words it is
infinite. Between matching words the trace substitutes nowhere and its swaps
are that set. Such a set is encoded as a binary string of length n-1 whose
bit p (1-based) marks a swap of positions (p, p+1); validity means no two
adjacent ones.

The swap+Hamming distance between s and t is the minimum, over all valid
swap permutations h applicable to s, of |h| plus the Hamming distance of the
swapped s to t. The trace computes it exactly: its swaps plus its
substitutions. Ties between equal-cost decompositions are resolved
canonically as the greedy witness.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import compress
from operator import ne

from .core import INF, LengthMismatch, NotMatching, Word, _Record

__all__ = [
    "hamming_distance",
    "SHWitness",
    "sh_distance",
    "sh_cost",
    "SwapStr",
    "swap_string",
    "apply_swaps",
    "swap_distance",
]


def hamming_distance(s: Word, t: Word) -> int:
    """Number of mismatching positions."""
    if len(s) != len(t):
        raise LengthMismatch(f"|s|={len(s)} vs |t|={len(t)}")
    return sum(map(ne, s, t))


class SwapStr(_Record):
    """A valid swap permutation: bits of length home_length-1, no "11".

    home_length is stored so length-1 words (empty bit sequence) remain
    representable.
    """

    __slots__ = ("bits", "home_length")

    def _check(self) -> None:
        bits, home_length = self.bits, self.home_length
        if len(bits) != home_length - 1:
            raise LengthMismatch(f"{len(bits)} bits for home length {home_length}")
        if bits.count("0") + bits.count("1") != len(bits):
            raise ValueError(f"non-binary swap string {bits!r}")
        if "11" in bits:
            raise ValueError(f"adjacent swaps in {bits!r}")

    def ones(self) -> tuple[int, ...]:
        """1-based swap positions."""
        return tuple(i + 1 for i, b in enumerate(self.bits) if b == "1")

    @property
    def popcount(self) -> int:
        return self.bits.count("1")

    def __str__(self) -> str:
        return self.bits


def _trace(s: Word, t: Word) -> tuple[list[int], list[int]]:
    """The greedy trace from s to t: its swaps' left ends and its substitutions.

    Both lists are ascending and 0-based. Raises LengthMismatch on unequal
    lengths. The trace swaps (i, i+1) at each uncovered mismatch i whose
    2-window is reversed in t and substitutes at every other one. For the
    swap distance the first uncovered mismatch forces the swap (i, i+1),
    which fails exactly where the trace substitutes; up to that point the
    two passes agree, so the first substitution is the first forced swap
    that fails, and no substitution means the swaps are the unique swap
    permutation from s to t.
    """
    n = len(s)
    if len(t) != n:
        raise LengthMismatch(f"|s|={n} vs |t|={len(t)}")
    swaps: list[int] = []
    subs: list[int] = []
    taken = -1  # right end of the last swap, already accounted for
    for i in compress(range(n), map(ne, s, t)):
        if i == taken:
            continue
        if i + 1 < n and s[i] == t[i + 1] and s[i + 1] == t[i]:
            # Reversed 2-window; symbols distinct since s[i+1] == t[i] != s[i],
            # so i+1 mismatches too and skipping it enforces "no swap right
            # after a swap".
            swaps.append(i)
            taken = i + 1
        else:
            subs.append(i)
    return swaps, subs


class SHWitness(_Record):
    """An optimal decomposition: swap positions and substitution positions.

    Both tuples are ascending and 1-based; swap positions are pairwise
    non-adjacent, and no substitution position is touched by a listed swap.
    Applying the swaps to the source and then substituting the target's
    symbols at the substitution positions yields the target.
    """

    __slots__ = ("swaps", "substitutions")

    @property
    def cost(self) -> int:
        return len(self.swaps) + len(self.substitutions)


def sh_distance(s: Word, t: Word) -> tuple[int, SHWitness]:
    """Swap+Hamming distance with the canonical greedy witness."""
    swaps, subs = _trace(s, t)
    w = SHWitness(tuple(i + 1 for i in swaps), tuple(i + 1 for i in subs))
    return w.cost, w


def sh_cost(s: Word, t: Word) -> int:
    """Distance only: the length of the greedy trace."""
    swaps, subs = _trace(s, t)
    return len(swaps) + len(subs)


def _apply(s: Word, at: Iterable[int]) -> Word:
    """s with (i, i+1) exchanged for each 0-based i in at."""
    out = list(s)
    # The positions are distinct and non-adjacent, so the exchanges commute.
    for i in at:
        out[i], out[i + 1] = out[i + 1], out[i]
    return "".join(out)


def _swap_str(at: Iterable[int], n: int) -> SwapStr:
    """The swap string of length n-1 with ones at the 0-based positions in at."""
    bits = bytearray(b"0") * (n - 1)
    for i in at:
        bits[i] = ord("1")
    return SwapStr(bits.decode(), n)  # validity checked


def swap_string(s: Word, t: Word) -> SwapStr:
    """The unique swap permutation transforming s into t.

    Raises LengthMismatch on unequal lengths and NotMatching (carrying the
    1-based position of the first forced swap that fails) when no swap
    permutation exists.
    """
    swaps, subs = _trace(s, t)
    if subs:
        raise NotMatching(subs[0] + 1)
    return _swap_str(swaps, len(s))


def apply_swaps(s: Word, h: SwapStr) -> Word:
    """Exchange every marked adjacent pair of s.

    Marked pairs may swap equal symbols; in that case h is not the swap string
    of (s, result) and callers wanting validity must check.
    """
    if h.home_length != len(s):
        raise LengthMismatch(f"swap string for length {h.home_length}, word of {len(s)}")
    return _apply(s, [i for i, b in enumerate(h.bits) if b == "1"])


def swap_distance(s: Word, t: Word) -> float:
    """Number of swaps between matching words, INF otherwise."""
    swaps, subs = _trace(s, t)
    return INF if subs else len(swaps)

