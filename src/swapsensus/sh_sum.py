"""Exact sum consensus under the swap plus substitution distance.

The solver is a dynamic program over candidate prefixes. After fixing a
prefix of length i+1, the only facts about it that influence the best
possible completion are its accumulated cost, its last symbol, and the set W
of input words whose greedy trace against it ends with a swap across the last
two positions. W uniquely determines the last two symbols whenever it is
nonempty, and the empty-W states are only ever extended with the per-column
plurality symbol, so keeping one best prefix per (row, W) key is lossless and
the table stays polynomial in size.

The table starts from the empty prefix, and every settled state, that one
included, is extended by the same three rules: append one symbol that
creates a new swap for at least one word (the symbol must then occur in the
column under the swap's left position), or the plurality symbol when it
creates no swap, or two symbols forming a reversed occurring 2-gram,
provided the first of them alone creates no swap. The last two rules add a
cost and a suffix that do not depend on the state, so each takes one source
per row: the first state it allows in the row's (cost, prefix) order. Costs
are maintained incrementally from per-column symbol counts, counting every
new mismatch and crediting one unit back per confirmed swap; the final
answer is recomputed from scratch and cross-checked before it is returned.

Sets of words are bit masks (bit j stands for word j). Each column is read
once into one mask per symbol, and those masks price every extension: a
symbol's count is its mask's popcount, a 2-gram's carriers are the AND of
two neighbouring columns' masks, and the words a new swap adds are those
carriers minus the state's members. The returned table is built when it is
first read; only then do masks become its sorted 1-based index tuples.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import cached_property
from itertools import compress, count
from operator import itemgetter

from .core import (
    CertificationFailure,
    ConsensusAnswer,
    Instance,
    SearchStats,
    Word,
    _Record,
    check_bounds,
    decide_sum,
    timed,
)
from .sh_metric import sh_cost

__all__ = ["DPState", "sum_consensus_sh"]


class DPState(_Record):
    """One settled table entry: the best prefix reaching this swap set.

    ``row`` is 0-based and equals the prefix length minus one (also the
    1-based position of the pair the swap set refers to). ``swap_members``
    holds sorted 1-based word indices. ``cost`` is the accumulated sum of
    swap plus substitution distances between the prefix and the equal-length
    prefixes of the input words.
    """

    __slots__ = ("row", "swap_members", "prefix", "cost")

    def __init__(
        self, row: int, swap_members: tuple[int, ...], prefix: Word, cost: int
    ) -> None:
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "swap_members", swap_members)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "cost", cost)


# The characters "0"/"1" to the bytes 0/1, which compress() reads as selectors.
_SELECT = bytes.maketrans(b"01", b"\x00\x01")


def _members(mask: int) -> tuple[int, ...]:
    """The sorted 1-based word indices of a swap set held as a bit mask."""
    # Through a list: tuple() on a bare iterator over-allocates and shrinks,
    # and those tuples held about 0.9 MB more after 105 library sum DPs.
    return tuple([*compress(count(1), bin(mask)[:1:-1].encode().translate(_SELECT))])


def _settle(
    row: dict[int, tuple[int, Word]], members: int, cost: int, prefix: Word
) -> None:
    held = row.get(members)
    if held is None or (cost, prefix) < held:
        row[members] = (cost, prefix)


Rows = list[dict[int, tuple[int, Word]]]


class _Table(Sequence[DPState]):
    """The settled states of ``rows[1:]``, sorted by row and swap members.

    The ``DPState`` tuple is built when the table is first read, so a caller
    that reads only the answer never pays for it.
    """

    def __init__(self, rows: Rows):
        self._rows = rows

    @cached_property
    def _states(self) -> tuple[DPState, ...]:
        rows = self._rows[1:]
        # Rows share few distinct swap sets; name each one once.
        names = {m: _members(m) for m in set().union(*rows)}
        return tuple(
            DPState(r, members, p, c)
            for r, row in enumerate(rows)
            for members, (c, p) in sorted((names[m], held) for m, held in row.items())
        )

    def __len__(self) -> int:
        return len(self._states)

    def __getitem__(self, i):
        return self._states[i]

    def __iter__(self) -> Iterator[DPState]:
        return iter(self._states)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, _Table)):
            return self._states == tuple(other)
        return NotImplemented


def _run_dp(inst: Instance, stats: SearchStats) -> tuple[Word, int, Rows]:
    words = inst.words
    k, n = inst.k, inst.n
    # masks[p] maps each symbol of column p to the words carrying it there:
    # the column, read from word k-1 down to word 0, as a binary numeral with
    # ones where the symbol stands, so bit j is word j (0-based).
    symbols = set().union(*words)
    marks = {b: {ord(c): "01"[c == b] for c in symbols} for b in symbols}
    # have[p] counts the symbols of column p; b costs k - have[p].get(b, 0) there.
    masks: list[dict[str, int]] = []
    have: list[dict[str, int]] = []
    plurality: list[str] = []
    everyone = (1 << k) - 1
    for col in map("".join, zip(*reversed(words))):
        b = col[0]
        if col.count(b) == k:
            # Most columns are clean: one symbol, carried by every word.
            masks.append({b: everyone})
            have.append({b: k})
            plurality.append(b)
            continue
        ms = {c: int(col.translate(marks[c]), 2) for c in set(col)}
        h = {c: m.bit_count() for c, m in ms.items()}
        masks.append(ms)
        have.append(h)
        # max() keeps the first (smallest) symbol on count ties.
        plurality.append(max(sorted(h), key=h.__getitem__))
    # grams[p] maps each unequal 2-gram at columns (p-1, p) to the words
    # carrying it; grams[0] and grams[n] are empty. ending[p] indexes the
    # same grams by their last symbol: ending[p][b] lists (a, carriers).
    grams: list[dict[str, int]] = [{} for _ in range(n + 1)]
    ending: list[dict[str, list[tuple[str, int]]]] = [{} for _ in range(n + 1)]
    for p in range(1, n):
        for a, left in masks[p - 1].items():
            for b, right in masks[p].items():
                if a != b and (carriers := left & right):
                    grams[p][a + b] = carriers
                    ending[p].setdefault(b, []).append((a, carriers))

    def source(p: int, b: str, order: list) -> tuple[int, Word] | None:
        # The first (cost, prefix) in order that b extends at p creating no
        # new swap: no word outside the members (which already spent p-1 on
        # their previous swap) carries the gram b + last at (p-1, p).
        for members, held in order:
            if not grams[p].get(b + held[1][-1:], 0) & ~members:
                return held
        return None

    # rows[L] maps a swap set to the best (cost, prefix) of length L; the
    # empty prefix is the one state of rows[0].
    rows: Rows = [{} for _ in range(n + 1)]
    rows[0][0] = (0, "")
    for L in range(n):  # extend prefixes of length L at position L
        # All prefixes of row L have length L, so appending one suffix keeps
        # their (cost, prefix) order.
        order = sorted(rows[L].items(), key=itemgetter(1))
        for members, (cost, prefix) in order:
            # One symbol creating at least one new swap: the reversed gram
            # must end with last, so the symbol occurs in column L-1.
            for a, carriers in ending[L].get(prefix[-1:], ()):
                if swappers := carriers & ~members:
                    new_cost = cost + k - have[L].get(a, 0) - swappers.bit_count()
                    _settle(rows[L + 1], swappers, new_cost, prefix + a)
        # The other two rules add a cost and a suffix that do not depend on
        # the state, so each takes one source: the first state in order to
        # which the rule's first symbol b adds no swap. The plurality symbol,
        # allowed only when it creates no swap:
        b = plurality[L]
        if (held := source(L, b, order)) is not None:
            _settle(rows[L + 1], 0, held[0] + k - have[L][b], held[1] + b)
        # Two symbols b, a forming a reversed occurring 2-gram a+b, provided b
        # alone creates no swap; the gram's carriers swap.
        for b, pairs in ending[L + 1].items():
            if (held := source(L, b, order)) is not None:
                base = held[0] + 2 * k - have[L].get(b, 0)
                for a, swappers in pairs:
                    new_cost = base - have[L + 1].get(a, 0) - swappers.bit_count()
                    _settle(rows[L + 2], swappers, new_cost, held[1] + b + a)

    # The table's row r holds prefixes of length r+1. Row 0 is one swap-free
    # state; every later row holds at most k states with swaps plus one without.
    for r, row in enumerate(rows[1:]):
        limit = k if r else 0
        nonempty = sum(1 for m in row if m)
        if nonempty > limit or len(row) > limit + 1:
            raise CertificationFailure(
                f"row {r} holds {len(row)} states ({nonempty} with swaps), "
                f"exceeding the reachability bound"
            )
        stats.dp_states += len(row)

    final = rows[n]
    if not final:
        raise CertificationFailure("the table's last row is empty")
    best_cost, best_word = min(final.values())
    return best_word, best_cost, rows


@timed
def sum_consensus_sh(
    inst: Instance, D: int | None = None
) -> tuple[ConsensusAnswer, Sequence[DPState]]:
    """Minimize the total swap plus substitution distance to all words.

    Always feasible as an optimization problem; with ``D`` given, the answer
    additionally decides whether the optimal sum is within ``D``. Returns the
    answer plus the full settled table, for k=1 and n=1 too; the table is a
    read-only sequence of ``DPState`` that is built when first read. The
    witness's distances are recomputed from scratch and must sum to the
    table's cost.
    """
    check_bounds("sum", None, D)
    stats = SearchStats()
    witness, best_cost, rows = _run_dp(inst, stats)
    dists = tuple(sh_cost(w, witness) for w in inst.words)
    if sum(dists) != best_cost:
        raise CertificationFailure(
            f"table cost {best_cost} != recomputed sum {sum(dists)}"
        )
    answer = ConsensusAnswer.found(witness, tuple(map(float, dists)), stats)
    return decide_sum(answer, D), _Table(rows)
