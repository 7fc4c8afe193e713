"""The swap+Hamming distance: cheapest mix of disjoint swaps and substitutions.

The distance between s and t is the minimum, over all valid swap permutations
h applicable to s, of |h| plus the Hamming distance of the swapped s to t.
One greedy left-to-right pass over the mismatches computes it exactly: at
each mismatch whose 2-window is the reversal of the target's window, take the
swap unless one was just taken at the previous position; every remaining
mismatch is a substitution. Ties between equal-cost decompositions are
resolved canonically as the greedy witness.
"""

from __future__ import annotations

from itertools import compress
from operator import ne

from .core import LengthMismatch, Word, _Record

__all__ = ["SHWitness", "sh_distance", "sh_cost"]


class SHWitness(_Record):
    """An optimal decomposition: swap positions and substitution positions.

    Both tuples are ascending and 1-based; swap positions are pairwise
    non-adjacent, and no substitution position is touched by a listed swap.
    Applying the swaps to the source and then substituting the target's
    symbols at the substitution positions yields the target.
    """

    __slots__ = ("swaps", "substitutions")

    def __init__(self, swaps: tuple[int, ...], substitutions: tuple[int, ...]) -> None:
        object.__setattr__(self, "swaps", swaps)
        object.__setattr__(self, "substitutions", substitutions)

    @property
    def cost(self) -> int:
        return len(self.swaps) + len(self.substitutions)


def sh_distance(s: Word, t: Word) -> tuple[int, SHWitness]:
    """Swap+Hamming distance with the canonical greedy witness."""
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
            swaps.append(i + 1)
            taken = i + 1
        else:
            subs.append(i + 1)
    w = SHWitness(tuple(swaps), tuple(subs))
    return w.cost, w


def sh_cost(s: Word, t: Word) -> int:
    """Distance only: the greedy pass of ``sh_distance``, counting its steps."""
    n = len(s)
    if len(t) != n:
        raise LengthMismatch(f"|s|={n} vs |t|={len(t)}")
    cost = 0
    taken = -1
    for i in compress(range(n), map(ne, s, t)):
        if i == taken:
            continue
        cost += 1
        if i + 1 < n and s[i] == t[i + 1] and s[i + 1] == t[i]:
            taken = i + 1
    return cost
