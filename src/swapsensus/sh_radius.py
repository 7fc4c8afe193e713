"""Bounded search tree for radius consensus under the swap+substitution distance.

The candidate starts as the first input word and is repaired step by step: at
each node the first word farther than d is located, and the candidate is
rewritten at or next to one of their disagreements, copying symbols from that
word. Each rewrite consumes one unit of a 2d depth budget (the root counts as
depth 0). A node is trimmed when some word disagrees with the candidate in at
least 4d-depth+1 positions, since no completion within the remaining budget
can rescue it. Any returned witness is re-certified from scratch.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .core import (
    CertificationFailure,
    ConsensusAnswer,
    Instance,
    SearchStats,
    Timer,
    Word,
    depth_first,
)
from .hamming import hamming_distance
from .sh_metric import sh_cost

__all__ = ["radius_consensus_sh"]


def _moves(cand: Word, w: Word, d: int) -> Iterator[Word]:
    """Children of ``cand`` that copy symbols from the violating word ``w``.

    Each child rewrites one window of the candidate: one symbol taken from
    ``w``, or two adjacent symbols of ``w`` in exchanged order. Yielded
    lazily: the depth-first walk usually succeeds or fails on the first few
    children, and there can be 3 * hamming(cand, w) of them.
    """
    n = len(cand)
    mism = [p for p in range(n) if cand[p] != w[p]]
    ham = len(mism)
    if ham >= 2 * d + 1:
        # Any witness agrees with w on all but at most 2d of these, so some
        # of the first 2d+1 disagreements must be resolved by copying.
        for p in mism[: 2 * d + 1]:
            yield cand[:p] + w[p] + cand[p + 1 :]
        return
    assert d + 1 <= ham <= 2 * d
    for p in mism:
        yield cand[:p] + w[p] + cand[p + 1 :]
    for p in mism:
        if p + 1 < n:
            yield cand[:p] + w[p + 1] + w[p] + cand[p + 2 :]
        if p - 1 >= 0:
            yield cand[: p - 1] + w[p] + w[p - 1] + cand[p + 1 :]


def radius_consensus_sh(inst: Instance, d: int) -> ConsensusAnswer:
    """Find a word within swap+substitution distance d of every input.

    The search is rooted at the first input word and is complete, so a
    failed search proves infeasibility. The first witness found in the
    fixed branch order is returned, with all distances recomputed from
    scratch. A node's subtree depends only on its candidate and depth (the
    children on the candidate alone, the prune and the 2d cap only tighten
    with depth), so a candidate whose subtree was exhausted at depth d0 is
    not searched again at any depth >= d0; the table lives for this call.
    """
    if d < 0:
        raise ValueError("d must be non-negative")
    stats = SearchStats()

    def expand(cand: Word, depth: int) -> Iterable[Word] | None:
        stats.nodes_expanded += 1
        for w in inst.words:
            if hamming_distance(cand, w) >= 4 * d - depth + 1:
                return ()
        violating = None
        for idx, w in enumerate(inst.words):
            if sh_cost(cand, w) > d:
                violating = idx
                break
        if violating is None:
            return None  # cand is a witness
        if depth == 2 * d:
            return ()
        children = _moves(cand, inst.words[violating], d)
        return (child for child in children if child != cand)

    with Timer(stats):
        witness = depth_first(inst.words[0], expand, exhausted={})
    if witness is None:
        return ConsensusAnswer.none(
            f"no word within swap+substitution radius {d} of all inputs", stats
        )
    dists = tuple(float(sh_cost(w, witness)) for w in inst.words)
    if max(dists) > d:
        raise CertificationFailure(
            f"witness exceeds the radius: {int(max(dists))} > {d}"
        )
    return ConsensusAnswer.found(witness, dists, stats)
