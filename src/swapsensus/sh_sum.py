"""Exact sum consensus under the swap plus substitution distance.

The solver is a dynamic program over candidate prefixes. After fixing a
prefix of length i+1, the only facts about it that influence the best
possible completion are its accumulated cost, its last symbol, and the set W
of input words whose greedy trace against it ends with a swap across the last
two positions. W uniquely determines the last two symbols whenever it is
nonempty, and the empty-W states are only ever extended with the per-column
plurality symbol, so keeping one best prefix per (row, W) key is lossless and
the table stays polynomial in size.

Extensions from a settled state append either one symbol that creates a new
swap for at least one word (the symbol must then occur in the column under
the swap's left position), or the plurality symbol when it creates no swap,
or two symbols forming a reversed occurring 2-gram, provided the first of
them alone creates no swap. Costs are maintained incrementally by counting
every new mismatch and crediting one unit back per confirmed swap; the final
answer is recomputed from scratch and cross-checked before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    CertificationFailure,
    ConsensusAnswer,
    Instance,
    OutOfRange,
    SearchStats,
    Timer,
    Word,
    decide_sum,
)
from .hamming import sum_consensus_ham
from .sh_metric import sh_cost, sh_distance

__all__ = ["DPState", "swap_set", "sum_consensus_sh"]


@dataclass(frozen=True)
class DPState:
    """One settled table entry: the best prefix reaching this swap set.

    ``row`` is 0-based and equals the prefix length minus one (also the
    1-based position of the pair the swap set refers to). ``swap_members``
    holds sorted 1-based word indices. ``cost`` is the accumulated sum of
    swap plus substitution distances between the prefix and the equal-length
    prefixes of the input words.
    """

    row: int
    swap_members: tuple[int, ...]
    prefix: Word
    cost: int


def swap_set(inst: Instance, t: Word, i: int) -> frozenset[int]:
    """Words whose greedy trace against prefix ``t`` swaps at 1-based position ``i``.

    ``t`` is compared with the equal-length prefix of every input word. A
    swap at position ``i`` exchanges positions ``i`` and ``i+1``, so ``t``
    must cover position ``i+1``. Returns 1-based word indices.
    """
    if i < 1 or len(t) < i + 1 or len(t) > inst.n:
        raise OutOfRange(
            f"position {i} needs a prefix of length between {i + 1} and {inst.n}"
        )
    members = set()
    for j, w in enumerate(inst.words, start=1):
        _, witness = sh_distance(w[: len(t)], t)
        if i in witness.swaps:
            members.add(j)
    return frozenset(members)


def _new_swaps(
    words: tuple[Word, ...], skip: frozenset[int], b: str, pos: int, last: str
) -> frozenset[int]:
    """Words forming a swap across 0-based (pos-1, pos) when ``b`` lands at ``pos``.

    ``last`` is the prefix symbol already at pos-1 and ``skip`` holds 0-based
    indices of words whose previous swap consumed that position.
    """
    if b == last:
        return frozenset()
    return frozenset(
        j
        for j, w in enumerate(words)
        if j not in skip and w[pos - 1] == b and w[pos] == last
    )


def _settle(
    row: dict[frozenset[int], tuple[int, Word]],
    members: frozenset[int],
    cost: int,
    prefix: Word,
) -> None:
    held = row.get(members)
    if held is None or (cost, prefix) < held:
        row[members] = (cost, prefix)


def _run_dp(
    inst: Instance, stats: SearchStats
) -> tuple[Word, int, tuple[DPState, ...]]:
    words = inst.words
    k, n = inst.k, inst.n
    s_h = sum_consensus_ham(inst).solution
    assert s_h is not None
    empty: frozenset[int] = frozenset()

    # rows[r] maps a swap set (0-based indices) to its best (cost, prefix).
    rows: list[dict[frozenset[int], tuple[int, Word]]] = [dict() for _ in range(n)]
    rows[0][empty] = (sum(1 for w in words if w[0] != s_h[0]), s_h[0])

    # Row 1 is seeded directly rather than extended from row 0: one state per
    # distinct unequal-lettered opening 2-gram (reversed, it swaps exactly the
    # words carrying it), plus the plurality prefix when that creates no swap.
    for g in sorted({w[0:2] for w in words if w[0] != w[1]}):
        members = frozenset(j for j, w in enumerate(words) if w[0:2] == g)
        cost = (
            sum(1 for w in words if w[0] != g[1])
            + sum(1 for w in words if w[1] != g[0])
            - len(members)
        )
        _settle(rows[1], members, cost, g[1] + g[0])
    if not _new_swaps(words, empty, s_h[1], 1, s_h[0]):
        cost = sum(1 for w in words if w[0] != s_h[0]) + sum(
            1 for w in words if w[1] != s_h[1]
        )
        _settle(rows[1], empty, cost, s_h[0:2])

    for r in range(n - 1):
        L = r + 1  # settled prefix length; position L is appended next
        for members, (cost, prefix) in list(rows[r].items()):
            last = prefix[-1]
            if r >= 1:
                # One appended symbol creating at least one new swap. The
                # swap forces the symbol to occur in column L-1.
                for b in inst.column(L - 1):
                    created = _new_swaps(words, members, b, L, last)
                    if not created:
                        continue
                    new_cost = (
                        cost + sum(1 for w in words if w[L] != b) - len(created)
                    )
                    _settle(rows[r + 1], created, new_cost, prefix + b)
                # The plurality symbol, allowed only when it creates no swap.
                b = s_h[L]
                if not _new_swaps(words, members, b, L, last):
                    new_cost = cost + sum(1 for w in words if w[L] != b)
                    _settle(rows[r + 1], empty, new_cost, prefix + b)
            if L + 1 <= n - 1:
                # Two appended symbols forming a reversed occurring 2-gram,
                # provided the first alone creates no swap. The landing swap
                # set is exactly the words carrying the gram.
                for g in sorted({w[L : L + 2] for w in words if w[L] != w[L + 1]}):
                    if _new_swaps(words, members, g[1], L, last):
                        continue
                    swappers = frozenset(
                        j for j, w in enumerate(words) if w[L : L + 2] == g
                    )
                    new_cost = (
                        cost
                        + sum(1 for w in words if w[L] != g[1])
                        + sum(1 for w in words if w[L + 1] != g[0])
                        - len(swappers)
                    )
                    _settle(rows[r + 2], swappers, new_cost, prefix + g[1] + g[0])

    for r, row in enumerate(rows):
        nonempty = sum(1 for m in row if m)
        if nonempty > k * r or len(row) > k * r + 1:
            raise CertificationFailure(
                f"row {r} holds {len(row)} states ({nonempty} with swaps), "
                f"exceeding the reachability bound"
            )
        stats.dp_states += len(row)

    final = rows[n - 1]
    if not final:
        raise CertificationFailure("the table's last row is empty")
    best_cost, best_word = min(final.values())

    table = tuple(
        DPState(r, tuple(sorted(j + 1 for j in m)), p, c)
        for r, row in enumerate(rows)
        for m, (c, p) in sorted(row.items(), key=lambda kv: tuple(sorted(kv[0])))
    )
    return best_word, best_cost, table


def sum_consensus_sh(
    inst: Instance, D: int | None = None
) -> tuple[ConsensusAnswer, tuple[DPState, ...]]:
    """Minimize the total swap plus substitution distance to all words.

    Always feasible as an optimization problem; with ``D`` given, the answer
    additionally decides whether the optimal sum is within ``D``. Returns the
    answer plus the full settled table (empty for the k=1 and n=1 bypasses,
    which need no search).
    """
    stats = SearchStats()
    table: tuple[DPState, ...] = ()
    with Timer(stats):
        if inst.k == 1:
            witness = inst.words[0]
        elif inst.n == 1:
            ham = sum_consensus_ham(inst)
            assert ham.solution is not None
            witness = ham.solution
        else:
            witness, best_cost, table = _run_dp(inst, stats)
            recomputed = sum(sh_cost(w, witness) for w in inst.words)
            if recomputed != best_cost:
                raise CertificationFailure(
                    f"table cost {best_cost} != recomputed sum {recomputed}"
                )
    dists = tuple(float(sh_cost(w, witness)) for w in inst.words)
    return decide_sum(ConsensusAnswer.found(witness, dists, stats), D), table
