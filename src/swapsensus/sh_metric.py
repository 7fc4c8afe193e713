"""The swap+Hamming distance: cheapest mix of disjoint swaps and substitutions.

The distance between s and t is the minimum, over all valid swap permutations
h applicable to s, of |h| plus the Hamming distance of the swapped s to t.
The greedy trace of ``swaps._trace``, the same pass that finds the swap
distance, computes it exactly: it takes the swap at each reversed 2-window
not covered by the previous swap and substitutes at every other mismatch.
Ties between equal-cost decompositions are resolved canonically as the
greedy witness.
"""

from __future__ import annotations

from .core import Word, _Record
from .swaps import _trace

__all__ = ["SHWitness", "sh_distance", "sh_cost"]


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
