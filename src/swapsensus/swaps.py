"""Swap permutations encoded as binary strings, and the greedy trace.

A swap exchanges two adjacent distinct symbols. A set of pairwise disjoint,
non-adjacent swaps is encoded as a binary string of length n-1 whose bit p
(1-based) marks a swap of positions (p, p+1); validity means no two adjacent
ones.

One greedy left-to-right trace, ``_trace``, serves both of the package's
order-sensitive distances. It visits the mismatching positions only: at each
one not yet covered it swaps if the 2-window is the reversal of the target's
and substitutes otherwise. Between matching words it substitutes nowhere and
its swaps are the unique swap permutation; in general its swaps plus its
substitutions are the swap+Hamming distance (``sh_metric``).
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import compress
from operator import ne

from .core import INF, LengthMismatch, NotMatching, Word, _Record

__all__ = [
    "SwapStr",
    "swap_string",
    "apply_swaps",
    "swap_distance",
    "xor_compose",
]

# False/True, as bytes 0/1, to the characters "0"/"1".
_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


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


def _apply(s: Word, at: Iterable[int]) -> Word:
    """s with (i, i+1) exchanged for each 0-based i in at."""
    out = list(s)
    # The positions are distinct and non-adjacent, so the exchanges commute.
    for i in at:
        out[i], out[i + 1] = out[i + 1], out[i]
    return "".join(out)


def swap_string(s: Word, t: Word) -> SwapStr:
    """The unique swap permutation transforming s into t.

    Raises LengthMismatch on unequal lengths and NotMatching (carrying the
    1-based position of the first forced swap that fails) when no swap
    permutation exists.
    """
    swaps, subs = _trace(s, t)
    if subs:
        raise NotMatching(subs[0] + 1)
    bits = bytearray(b"0") * (len(s) - 1)
    for i in swaps:
        bits[i] = ord("1")
    return SwapStr(bits.decode(), len(s))


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


def xor_compose(h1: str | SwapStr, h2: str | SwapStr) -> str:
    """Position-wise XOR of two raw bit sequences.

    Deliberately returns a raw string, not a SwapStr: the composition of two
    valid swap strings may hold "11", and then it is not a valid one.
    """
    b1 = h1.bits if isinstance(h1, SwapStr) else h1
    b2 = h2.bits if isinstance(h2, SwapStr) else h2
    if len(b1) != len(b2):
        raise LengthMismatch(f"{len(b1)} vs {len(b2)} bits")
    return bytes(map(ne, b1, b2)).translate(_BIT_CHARS).decode()
