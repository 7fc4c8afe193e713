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

Sets of words are bit masks (bit j stands for word j). A column's one table
is a mask per symbol, and a symbol's count is its mask's popcount. The
carriers of a 2-gram, the AND of two neighbouring columns' masks, are indexed
once, by the gram's last symbol; the words a new swap adds are those carriers
minus the state's members.

The work follows the columns where the words disagree (the dirty ones), not
the length. Row L is stepped by the rules when column L-1, L or L+1 is
dirty. The dirty columns are read into masks up front; a clean column gets
its one mask, all words, when a stepped row first reads it.
Across the other rows, a quiet stretch, the table settles in closed form
once only the swap-free state and the swap set of all words are alive: the
swap-free state appends the first word's symbols, and the all-words set
reverses the first word's last two symbols at cost k. A quiet row where other
swap sets live on (along a periodic stretch, say) is stepped by the rules.
The returned table is built when it is first read; only then are the rows
inside the stretches written out and the masks turned into sorted 1-based
index tuples.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import cached_property
from itertools import compress, count
from operator import itemgetter, ne

from .core import (
    CertificationFailure,
    ConsensusAnswer,
    Instance,
    SearchStats,
    Word,
    _Record,
    certified,
    check_bounds,
    columns,
    decide_sum,
    timed,
)
from .swaps import sh_cost

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
# A quiet stretch entered at row L from the swap-free state (cost, prefix),
# up to the next stepped row b: (L, b, cost, prefix).
Stretch = tuple[int, int, int, Word]


def _quiet_row(w0: Word, k: int, stretch: Stretch, r: int) -> dict[int, tuple[int, Word]]:
    """Row r (L+2 <= r <= b+1) of a quiet stretch, in closed form.

    The swap-free state appends the first word's symbols; the all-words swap
    set sits where the first word's last two symbols differ, reached from
    row r-2 by their reversal at cost k.
    """
    L, _, c, P = stretch
    row = {0: (c, P + w0[L:r])}
    if w0[r - 2] != w0[r - 1]:
        row[(1 << k) - 1] = (c + k, P + w0[L : r - 2] + w0[r - 1] + w0[r - 2])
    return row


class _Table(Sequence[DPState]):
    """The settled states of ``rows[1:]``, sorted by row and swap members.

    The ``DPState`` tuple is built when the table is first read, so a caller
    that reads only the answer never pays for it; so are the rows inside the
    quiet stretches, which the DP settles in closed form.
    """

    def __init__(self, rows: Rows, stretches: list[Stretch], w0: Word, k: int):
        self._rows = rows
        self._stretches = stretches
        self._w0 = w0
        self._k = k

    @cached_property
    def _states(self) -> tuple[DPState, ...]:
        for stretch in self._stretches:
            L, b = stretch[:2]
            for r in range(L + 2, b):
                self._rows[r] = _quiet_row(self._w0, self._k, stretch, r)
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


def _run_dp(inst: Instance, stats: SearchStats) -> tuple[Word, int, _Table]:
    words = inst.words
    k, n = inst.k, inst.n
    w0 = words[0]
    everyone = (1 << k) - 1
    # masks[p] maps each symbol of column p to the words carrying it there:
    # the column, read from word k-1 down to word 0, as a binary numeral with
    # ones where the symbol stands, so bit j is word j (0-based); b costs
    # k - masks[p][b].bit_count() at p. ending[p][b][a] is the words carrying
    # the unequal 2-gram a+b at columns (p-1, p); ending[0] and ending[n] are
    # empty. A column is dirty when its words disagree. The dirty columns are
    # read here; the clean ones get their tables when a stepped row first
    # reads them (fill).
    symbols = set().union(*words)
    marks = {b: {ord(c): "01"[c == b] for c in symbols} for b in symbols}
    masks: list[dict[str, int] | None] = [None] * n
    plurality = list(w0)
    ending: list[dict[str, dict[str, int]] | None] = [None] * n + [{}]
    dirty: list[int] = []
    for p, col in enumerate(columns(reversed(words))):
        if col.count(col[0]) == k:
            continue
        dirty.append(p)
        ms = masks[p] = {c: int(col.translate(marks[c]), 2) for c in dict.fromkeys(col)}
        top = 0  # the plurality symbol: the smallest of the most frequent
        for c, m in ms.items():
            if (got := m.bit_count()) > top or got == top and c < plurality[p]:
                top, plurality[p] = got, c
    # Row L is stepped when column L-1, L or L+1 is dirty. The other rows are
    # quiet: until[L] is the next stepped row (or n).
    until = [0] * n
    for lo, hi in zip([-3, *dirty], [*dirty, n + 2]):
        if hi - lo > 3:  # rows lo+2 .. hi-2 are quiet
            a, b = max(lo + 2, 0), min(hi - 1, n)
            until[a:b] = [b] * (b - a)

    def fill(p: int) -> None:
        # Give column p its tables if it is clean: one symbol, the first word's,
        # carried by every word. Then index the 2-grams at (p-1, p); a column p-1
        # without tables carries none. That is p = 0, or a row p ending a steady
        # stretch, whose columns p-1, p are clean and whose two states those grams
        # cannot extend: the all-words set masks out every carrier, and the swap-free
        # one ends with w0[p-1], the last symbol of no unequal gram there.
        if masks[p] is None:
            masks[p] = {w0[p]: everyone}
        e = ending[p] = {}
        if p and (lefts := masks[p - 1]):
            for a, left in lefts.items():
                for b, right in masks[p].items():
                    if a != b and (carriers := left & right):
                        e.setdefault(b, {})[a] = carriers

    def source(p: int, b: str, order: list) -> tuple[int, Word] | None:
        # The first (cost, prefix) in order that b extends at p creating no
        # new swap: no word outside the members (which already spent p-1 on
        # their previous swap) carries the gram b + last at (p-1, p).
        for members, held in order:
            if not ending[p].get(held[1][-1:], {}).get(b, 0) & ~members:
                return held
        return None

    # rows[L] maps a swap set to the best (cost, prefix) of length L; the
    # empty prefix is the one state of rows[0]. The table's row r holds
    # prefixes of length r+1: row 0 is one swap-free state, and every later
    # row holds at most k states with swaps plus one without.
    rows: Rows = [{} for _ in range(n + 1)]
    rows[0][0] = (0, "")
    stretches: list[Stretch] = []
    L = 0
    while L < n:  # extend prefixes of length L at position L
        row, nxt = rows[L], rows[L + 1]
        if b := until[L]:
            # Quiet row: columns L-1..L+1 are clean, and row L-1 was stepped
            # (or L is 0). A clean column's symbol extends every state
            # without a swap, so row L holds the swap-free state (c, P): row
            # L-1's best plus column L-1's symbol, which starts no swap. The
            # all-words swap set E, in row L or L+1, costs k more than its
            # source, which could have taken that symbol instead: E is worse.
            # So when E is the only other state (the steady form), every rule
            # up to row b takes (c, P) as its source; see _quiet_row. Where
            # other swap sets from the dirty rows live on (as along a periodic
            # stretch), the row is stepped by the rules.
            if len(row) == 1 + (everyone in row):
                c, P = row[0]
                stretch = (L, b, c, P)
                nxt[0] = (c, P + w0[L])
                if b > L + 1:
                    rows[b] = _quiet_row(w0, k, stretch, b)
                if b < n and w0[b - 1] != w0[b]:
                    rows[b + 1][everyone] = _quiet_row(w0, k, stretch, b + 1)[everyone]
                if b > L + 2:
                    stretches.append(stretch)
                L = b
                continue
        # Row L reads columns L-1 to L+1; a stepped row L-1 built ending[L].
        if ending[L] is None:
            fill(L)
        if L + 1 < n:
            fill(L + 1)
        # All prefixes of row L have length L, so appending one suffix keeps
        # their (cost, prefix) order.
        order = sorted(row.items(), key=itemgetter(1))
        here, ends = masks[L], ending[L]
        for members, (cost, prefix) in order:
            # One symbol creating at least one new swap: the reversed gram
            # must end with last, so the symbol occurs in column L-1.
            if grams := ends.get(prefix[-1:]):
                for a, carriers in grams.items():
                    if swappers := carriers & ~members:
                        new_cost = cost + k - here.get(a, 0).bit_count() - swappers.bit_count()
                        _settle(nxt, swappers, new_cost, prefix + a)
        # The other two rules add a cost and a suffix that do not depend on
        # the state, so each takes one source: the first state in order to
        # which the rule's first symbol b adds no swap. The plurality symbol,
        # allowed only when it creates no swap:
        b = plurality[L]
        if (held := source(L, b, order)) is not None:
            _settle(nxt, 0, held[0] + k - here[b].bit_count(), held[1] + b)
        # Two symbols b, a forming a reversed occurring 2-gram a+b, provided b
        # alone creates no swap; the gram's carriers swap.
        for b, pairs in ending[L + 1].items():
            if (held := source(L, b, order)) is not None:
                base = held[0] + 2 * k - here.get(b, 0).bit_count()
                for a, swappers in pairs.items():
                    new_cost = base - masks[L + 1].get(a, 0).bit_count() - swappers.bit_count()
                    _settle(rows[L + 2], swappers, new_cost, held[1] + b + a)
        # Row L+1 is complete: rows L-1 and L were its only writers.
        if (swapping := len(nxt) - (0 in nxt)) > (k if L else 0):
            raise CertificationFailure(
                f"row {L} holds {len(nxt)} states ({swapping} with swaps), "
                f"exceeding the reachability bound"
            )
        L += 1

    # Every row but the empty prefix's, with those inside the stretches,
    # which _Table builds: each holds the swap-free state, and the all-words
    # swap set where the first word's last two symbols differ.
    stats.dp_states += sum(map(len, rows)) - 1
    for L, b, _, _ in stretches:
        stats.dp_states += b - L - 2 + sum(map(ne, w0[L : b - 2], w0[L + 1 : b - 1]))
    final = rows[n]
    if not final:
        raise CertificationFailure("the table's last row is empty")
    best_cost, best_word = min(final.values())
    return best_word, best_cost, _Table(rows, stretches, w0, k)


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
    witness, best_cost, table = _run_dp(inst, stats)
    answer = certified(inst.words, witness, sh_cost, stats)
    if answer.sum_distance != best_cost:
        raise CertificationFailure(
            f"table cost {best_cost} != recomputed sum {answer.sum_distance:g}"
        )
    return decide_sum(answer, D), table
