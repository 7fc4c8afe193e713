"""Swap permutations encoded as binary strings.

A swap exchanges two adjacent distinct symbols. A set of pairwise disjoint,
non-adjacent swaps is encoded as a binary string of length n-1 whose bit p
(1-based) marks a swap of positions (p, p+1); validity means no two adjacent
ones. Between matching words this encoding is unique and is found by one
left-to-right pass over the mismatching positions only: the first one forces
a swap there.
"""

from __future__ import annotations

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


def _forced_swaps(s: Word, t: Word) -> list[int]:
    """The 0-based left ends of the swaps that transform s into t.

    Raises LengthMismatch on unequal lengths and NotMatching (carrying the
    1-based position of the first forced swap that fails) when no swap
    permutation exists.
    """
    n = len(s)
    if len(t) != n:
        raise LengthMismatch(f"|s|={n} vs |t|={len(t)}")
    swaps: list[int] = []
    taken = -1  # right end of the last swap, already accounted for
    for i in compress(range(n), map(ne, s, t)):
        if i == taken:
            continue
        # First unmatched symbol: the swap (i, i+1) is forced.
        if i + 1 < n and s[i] == t[i + 1] and s[i + 1] == t[i]:
            # Symbols are distinct automatically: s[i+1] == t[i] != s[i], so
            # position i+1 mismatches too and is the next one drawn.
            swaps.append(i)
            taken = i + 1
            continue
        raise NotMatching(i + 1)
    return swaps


def swap_string(s: Word, t: Word) -> SwapStr:
    """The unique swap permutation transforming s into t.

    Raises LengthMismatch on unequal lengths and NotMatching (carrying the
    1-based position of the first forced swap that fails) when no swap
    permutation exists.
    """
    bits = bytearray(b"0") * (len(s) - 1)
    for i in _forced_swaps(s, t):
        bits[i] = ord("1")
    return SwapStr(bits.decode(), len(s))


def apply_swaps(s: Word, h: SwapStr) -> Word:
    """Exchange every marked adjacent pair of s.

    Marked pairs may swap equal symbols; in that case h is not the swap string
    of (s, result) and callers wanting validity must check.
    """
    if h.home_length != len(s):
        raise LengthMismatch(f"swap string for length {h.home_length}, word of {len(s)}")
    out = list(s)
    for i, b in enumerate(h.bits):
        if b == "1":
            out[i], out[i + 1] = out[i + 1], out[i]
    return "".join(out)


def swap_distance(s: Word, t: Word) -> float:
    """Number of swaps between matching words, INF otherwise."""
    try:
        return len(_forced_swaps(s, t))
    except NotMatching:
        return INF


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
