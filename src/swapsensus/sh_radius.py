"""Bounded search tree for radius consensus under the swap+substitution distance.

The candidate starts as the first input word and is repaired step by step: at
each node the first word farther than d is located, and the candidate is
rewritten at or next to one of their disagreements, copying symbols from that
word. Each rewrite is one level of the tree (the root is depth 0). Any
returned witness is re-certified from scratch.

The prunes rest on one invariant: for every witness t, some root-to-t path
keeps hamming(cand, t) <= 2d - depth, since the root is within Hamming
distance 2d of t and each step on that path fixes at least one position of
t. On that path every word w has hamming(cand, w) <= 4d - depth and, by
applying t's optimal swaps for w to cand, sh(cand, w) <= hamming(cand, t) +
sh(t, w) <= 3d - depth. So a node is cut when some word breaks either bound;
together they are exact per word, as the least hamming(cand, t) over all t
within d of w is max(hamming - 2d, sh - d). They also bound the depth by 2d:
at depth 2d a word with hamming > 2d breaks the first, one with d < hamming
<= 2d and sh > d the second, so a node there is cut or is a witness.
"""

from __future__ import annotations

from itertools import compress
from operator import ne
from typing import Iterable, Iterator

from .core import (
    ConsensusAnswer,
    Instance,
    SearchStats,
    Word,
    certified,
    check_bounds,
    timed,
)
from .hamming import _radius_search
from .swaps import hamming_distance, sh_cost

__all__ = ["radius_consensus_sh"]


def _moves(cand: Word, w: Word, d: int) -> Iterator[tuple[int, Word]]:
    """Children of ``cand`` that copy symbols from the violating word ``w``.

    Each child rewrites one window of the candidate: one symbol taken from
    ``w``, or two adjacent symbols of ``w`` in exchanged order; it comes
    with the first position of that window. A swap that would leave the
    candidate unchanged is not a child. Yielded lazily: the depth-first walk
    usually succeeds or fails on the first few children, and there can be
    3 * hamming(cand, w) of them.
    """
    n = len(cand)
    mism = list(compress(range(n), map(ne, cand, w)))
    ham = len(mism)
    if ham >= 2 * d + 1:
        # Any witness agrees with w on all but at most 2d of these, so some
        # of the first 2d+1 disagreements must be resolved by copying.
        for p in mism[: 2 * d + 1]:
            yield p, cand[:p] + w[p] + cand[p + 1 :]
        return
    assert d + 1 <= ham <= 2 * d
    for p in mism:
        yield p, cand[:p] + w[p] + cand[p + 1 :]
    for p in mism:
        if p + 1 < n and (cand[p], cand[p + 1]) != (w[p + 1], w[p]):
            yield p, cand[:p] + w[p + 1] + w[p] + cand[p + 2 :]
        if p - 1 >= 0 and (cand[p - 1], cand[p]) != (w[p], w[p - 1]):
            yield p - 1, cand[: p - 1] + w[p] + w[p - 1] + cand[p + 1 :]


@timed
def radius_consensus_sh(inst: Instance, d: int) -> ConsensusAnswer:
    """Find a word within swap+substitution distance d of every input.

    The search is rooted at the first input word and is complete, so a
    failed search proves infeasibility. The first witness found in the
    fixed branch order is returned, with all distances recomputed from
    scratch. A node at depth ``depth`` is cut when some word w has
    hamming(cand, w) > 4d - depth or sh(cand, w) > 3d - depth: on the way
    to any witness t some path keeps hamming(cand, t) <= 2d - depth, and
    there both bounds hold (see the module docstring). A witness has every
    sh <= d <= 3d - depth, so it is never cut. A node's subtree depends
    only on its candidate and depth (the children on the candidate alone,
    both prunes only tighten with depth and keep it at most 2d), so
    ``_radius_search`` may skip a candidate whose subtree it has already
    searched in vain at the same depth or a shallower one; it also derives
    each node's Hamming distances from its parent's in O(k).

    ``sh_cost`` runs only where the distance sandwich sh <= hamming <=
    2 * sh cannot decide: the second prune needs it only for words with
    hamming > 3d - depth, and of the words checked for the first violator,
    one within Hamming distance d is within d, one at Hamming distance
    2d + 1 or more is not, and only the words in between pay for it. Each
    distinct word pays at most once per node: both scans share their values,
    and a word that occurs twice is priced once.
    """
    check_bounds("radius", d, None)
    words = inst.words
    stats = SearchStats()

    def step(cand: Word, dists: list[int], depth: int) -> Iterable[tuple[int, Word]] | None:
        if max(dists) >= 4 * d - depth + 1:
            return ()
        # sh <= hamming, so only words beyond 3d - depth need sh_cost. Each
        # distinct word is priced once per node (sh[w]), by whichever scan
        # reaches it first.
        bound = 3 * d - depth
        sh: dict[Word, int] = {}
        for ham, w in zip(dists, words):
            if ham > bound:
                if w not in sh:
                    sh[w] = sh_cost(cand, w)
                if sh[w] > bound:
                    return ()
        for ham, w in zip(dists, words):
            if ham > d:
                if ham <= 2 * d:
                    if w not in sh:
                        sh[w] = sh_cost(cand, w)
                    if sh[w] <= d:
                        continue
                return _moves(cand, w, d)
        return None  # cand is a witness

    root_dists = [hamming_distance(words[0], w) for w in words]
    witness = _radius_search(words, root_dists, step, stats)
    if witness is None:
        return ConsensusAnswer.none(
            f"no word within swap+substitution radius {d} of all inputs", stats
        )
    return certified(words, witness, sh_cost, stats, d)
