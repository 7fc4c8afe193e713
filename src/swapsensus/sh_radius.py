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

from dataclasses import dataclass
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

__all__ = ["BranchMove", "radius_consensus_sh"]


@dataclass(frozen=True)
class BranchMove:
    """One child step: rewrite a window of the candidate from a violating word.

    ``kind`` is "substitute" (a one-symbol window) or "swap-in" (a two-symbol
    window receiving the word's symbols in exchanged order). ``position`` is
    the 1-based left edge of the window, ``symbols`` the replacement text, and
    ``source_string_index`` the 1-based index of the word copied from.
    """

    kind: str
    position: int
    symbols: str
    source_string_index: int


def _apply(cand: Word, move: BranchMove) -> Word:
    p = move.position - 1
    return cand[:p] + move.symbols + cand[p + len(move.symbols) :]


def _moves(cand: Word, w: Word, idx: int, d: int) -> Iterator[BranchMove]:
    """Branch moves for the violating word ``w`` (1-based index ``idx``).

    Yielded lazily: the depth-first walk usually succeeds or fails on the
    first few children, and there can be 3 * hamming(cand, w) moves.
    """
    n = len(cand)
    mism = [p for p in range(n) if cand[p] != w[p]]
    ham = len(mism)
    if ham >= 2 * d + 1:
        # Any witness agrees with w on all but at most 2d of these, so some
        # of the first 2d+1 disagreements must be resolved by copying.
        for p in mism[: 2 * d + 1]:
            yield BranchMove("substitute", p + 1, w[p], idx)
        return
    assert d + 1 <= ham <= 2 * d
    for p in mism:
        yield BranchMove("substitute", p + 1, w[p], idx)
    for p in mism:
        if p + 1 < n:
            yield BranchMove("swap-in", p + 1, w[p + 1] + w[p], idx)
        if p - 1 >= 0:
            yield BranchMove("swap-in", p, w[p] + w[p - 1], idx)


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
        moves = _moves(cand, inst.words[violating], violating + 1, d)
        return (child for child in (_apply(cand, m) for m in moves) if child != cand)

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
