"""Hamming-distance consensus solvers: column majority and budgeted branching.

The budgeted ("mixed") variants give each input word a consumed budget x_s, so
its effective radius slack is d - x_s; plain consensus is the all-zero-budget
case. The radius solver is the classic bounded search tree, on a search
routine that the swap+substitution radius tree shares; the radius+sum solver
is a complete depth-first search over column-restricted words with
admissible pruning. The distance itself, ``hamming_distance``, lives in
``swaps`` beside the other two.
"""

from __future__ import annotations

from itertools import accumulate, compress, islice
from operator import ne
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    ConsensusAnswer,
    Instance,
    SearchStats,
    Word,
    _Record,
    certified,
    check_bounds,
    columns,
    depth_first,
    timed,
)
from .swaps import hamming_distance

__all__ = [
    "MixedRadiusQuery",
    "MixedRadiusSumQuery",
    "sum_consensus_ham",
    "radius_consensus_ham_mixed",
    "rs_consensus_ham_mixed",
]


class MixedRadiusQuery(_Record):
    """Radius consensus where word s_i must end up within d - x_i (none if x_i > d)."""

    __slots__ = ("budgeted", "d")

    def _check(self) -> None:
        check_bounds("radius", self.d, None)


class MixedRadiusSumQuery(_Record):
    """Radius+sum consensus with per-string budgets x_i.

    Constraints on a witness t: hamming(s_i, t) <= d - x_i for every i, and
    sum_i hamming(s_i, t) <= D - sum_i x_i. Budgets beyond d or D leave none.
    """

    __slots__ = ("budgeted", "d", "D")

    def _check(self) -> None:
        check_bounds("radius-sum", self.d, self.D)


def _budgets_over(budgets: tuple[int, ...], d: int, D: int | None = None) -> str | None:
    """Why the consumed budgets alone already break the bounds, or None."""
    for i, x in enumerate(budgets):
        if x > d:
            return f"word {i + 1} has consumed budget {x} > d={d}"
    if D is not None and sum(budgets) > D:
        return f"consumed budgets alone sum to {sum(budgets)} > D={D}"
    return None


def _radius_search(
    words: Sequence[Word],
    root_dists: list[int],
    step: Callable[[Word, list[int], int], Iterable[tuple[int, str]] | None],
    stats: SearchStats,
) -> Word | None:
    """Depth-first bounded search tree from ``words[0]``.

    ``step(cand, dists, depth)`` gets a node's candidate, its Hamming
    distances to ``words`` and its depth, and returns None for a witness,
    ``()`` for a pruned node, or (p, window) moves: the child writes the one
    or two symbols of ``window`` over ``cand`` from position p on. A node is
    a (candidate, distances) pair: the caller computes ``root_dists``; a
    child's are its parent's, updated on the columns its window rewrote, in
    O(k) per column. Spelling a child and the step's scan for mismatches
    are O(n). Returns the candidate of the first witness in preorder, or
    None.

    Subtrees already searched in vain are not searched again, which is sound
    when ``step`` depends on (cand, depth) alone and only tightens with
    depth. Once a node's moves run out at depth t, ``exhausted[cand] = t``;
    a child drawn at a depth >= its entry is skipped before its distances
    are derived. A node is recorded when it is left, never when it is
    entered, so an ancestor still being searched is expanded again where it
    recurs, and the answer is the one the plain walk finds.
    """
    exhausted: dict[Word, int] = {}

    def children(cand: Word, dists: list[int], depth: int, moves) -> Iterator[tuple]:
        for p, window in moves:
            child = cand[:p] + window + cand[p + len(window) :]
            if exhausted.get(child, depth + 2) <= depth + 1:
                continue
            child_dists = dists
            # Each rewritten column moves a word's distance by at most one.
            for q, new in enumerate(window, p):
                if (old := cand[q]) != new:
                    child_dists = [
                        dist + (w[q] == old) - (w[q] == new)
                        for dist, w in zip(child_dists, words)
                    ]
            yield child, child_dists
        # No min(): a node is only expanded shallower than its entry.
        exhausted[cand] = depth

    def expand(node: tuple[Word, list[int]], depth: int) -> Iterator[tuple] | None:
        cand, dists = node
        stats.nodes_expanded += 1
        moves = step(cand, dists, depth)
        if moves is None:
            return None
        return children(cand, dists, depth, moves)

    found = depth_first((words[0], root_dists), expand)
    return None if found is None else found[0]


@timed
def sum_consensus_ham(inst: Instance) -> ConsensusAnswer:
    """Minimize the sum of Hamming distances: per-column majority.

    Ties go to the smaller symbol, which makes the result the lex-minimal
    optimum. Always feasible.
    """
    # max() keeps the first (smallest) symbol on count ties.
    solution = "".join(
        max(sorted(set(col)), key=col.count) for col in columns(inst.words)
    )
    return certified(inst.words, solution, hamming_distance)


@timed
def radius_consensus_ham_mixed(q: MixedRadiusQuery) -> ConsensusAnswer:
    """Bounded search tree for budgeted radius consensus.

    A budget above d is answered "infeasible" before any search. Otherwise
    the candidate starts at the first input word. At each node, the first word
    whose slack is violated drives the branching: copy its symbol at each of
    the first slack+1 mismatch positions. A node is pruned when some word's
    distance provably cannot reach its slack within the remaining d - depth
    steps, which bounds the depth by d: at depth d every violated word is
    cut. The witness is the first found under this canonical
    order (violated word by index, positions left to right). The children
    depend on the candidate alone and the prune only tightens with depth, so
    ``_radius_search`` may skip subtrees it has already exhausted; it also
    derives each node's distances from its parent's in O(k). The witness's
    distances are recomputed from scratch and checked against the slacks.
    """
    over = _budgets_over(q.budgeted.budgets, q.d)
    if over is not None:
        return ConsensusAnswer.none(over)
    inst = q.budgeted.instance
    words = inst.words
    slacks = [q.d - x for x in q.budgeted.budgets]
    stats = SearchStats()

    def step(cand: Word, dists: list[int], depth: int) -> Iterable[tuple[int, str]] | None:
        remaining = q.d - depth
        violated = -1
        for i, (dist, slack) in enumerate(zip(dists, slacks)):
            if dist > slack:
                if dist - slack > remaining:
                    return ()  # unreachable even if every move helps word i
                if violated < 0:
                    violated = i
        if violated < 0:
            return None  # cand is a witness
        # Copy the word's symbol at each of its first slack + 1 mismatches.
        w = words[violated]
        mism = compress(range(inst.n), map(ne, cand, w))
        return ((p, w[p]) for p in islice(mism, slacks[violated] + 1))

    root_dists = [hamming_distance(words[0], w) for w in words]
    witness = _radius_search(words, root_dists, step, stats)
    if witness is None:
        return ConsensusAnswer.none(
            f"no word within slack of every input at radius {q.d}", stats
        )
    return certified(words, witness, hamming_distance, stats, q.d, budgets=q.budgeted.budgets)


@timed
def rs_consensus_ham_mixed(q: MixedRadiusSumQuery) -> ConsensusAnswer:
    """Complete normalized search for budgeted radius+sum consensus.

    Budgets alone above d (for a word) or D (in total) are answered
    "infeasible" before any search. Otherwise, any solution may be normalized
    column-wise to symbols occurring in that column (replacing a foreign
    symbol by the column majority never increases any distance), so the
    search runs over column-restricted words only, depth-first in lex order
    with admissible pruning:

    * per-string: mismatches so far must not exceed the string's slack;
    * sum: mismatches so far plus the per-column minimum achievable on the
      remaining suffix must stay within the sum budget, within the sum of the
      slacks (every leaf has each word within its slack), and strictly under
      the best sum found so far (a tie can never beat an earlier, lex-smaller
      witness).

    Only the dirty columns, where the words disagree, are search levels: a
    clean column has one branch, which costs no word a mismatch, so every
    leaf holds its symbol there and the leaves keep their lex order. Its
    symbol is written back before the certificate, and the node count
    follows the dirty columns, not n.

    Returns the minimum-sum witness, lex-min among optima; its distances are
    recomputed from scratch and checked against the slacks and the sum budget.
    """
    over = _budgets_over(q.budgeted.budgets, q.d, q.D)
    if over is not None:
        return ConsensusAnswer.none(over)
    inst = q.budgeted.instance
    words = inst.words
    k = inst.k
    slacks = [q.d - x for x in q.budgeted.budgets]
    sum_budget = q.D - sum(q.budgeted.budgets)
    stats = SearchStats()

    cols = columns(words)
    at = [p for p, col in enumerate(cols) if col.count(col[0]) != k]  # the levels
    dirty = [cols[p] for p in at]
    branches = [sorted(set(col)) for col in dirty]  # branch order per level
    # suffix_min[p] = unavoidable mismatch count on levels p..: a column's
    # most frequent symbol mismatches the fewest words.
    col_min = [k - max(map(col.count, syms)) for col, syms in zip(dirty, branches)]
    suffix_min = list(accumulate(reversed(col_min), initial=0))[::-1]

    # No leaf's total exceeds the slacks' sum, so it caps the sum bound too.
    sum_cap = min(sum_budget, sum(slacks))
    best: tuple[int, str] | None = None
    prefix = [""] * (len(at) + 1)  # prefix[1..p] spells the node at depth p

    def expand(node: tuple[str, list[int], int], p: int) -> Iterator[tuple]:
        # node: its symbol at level p - 1, mismatches per word, total. A
        # generator: the walk runs this body when it first draws a child.
        nonlocal best
        prefix[p], mism, total = node
        stats.nodes_expanded += 1
        bound = sum_cap if best is None else min(sum_cap, best[0] - 1)
        if total + suffix_min[p] > bound:
            return
        if p == len(at):
            best = (total, "".join(prefix))
            return
        for b in branches[p]:
            new_mism = mism.copy()
            add = 0
            for i, c in enumerate(dirty[p]):
                if c != b:
                    new_mism[i] += 1
                    add += 1
                    if new_mism[i] > slacks[i]:
                        break
            else:
                yield b, new_mism, total + add

    depth_first(("", [0] * k, 0), expand)
    if best is None:
        return ConsensusAnswer.none(
            f"no word meets radius {q.d} slacks with sum within {sum_budget}", stats
        )
    chosen = dict(zip(at, best[1]))  # the clean columns keep word 1's symbols
    witness = "".join(chosen.get(p, c) for p, c in enumerate(words[0]))
    return certified(words, witness, hamming_distance, stats, q.d, q.D, q.budgeted.budgets)
