"""Sum consensus under swap+substitution distance: the prefix table solver."""

from __future__ import annotations

import hashlib
import math
import random
import statistics

import pytest

import reference as ref
from conftest import best_of, count_calls, random_words
from reference import OutOfRange, swap_set
from swapsensus import (
    CertificationFailure,
    DPState,
    Instance,
    gen_planted,
    sh_cost,
    sh_sum,
    solve,
    sum_consensus_sh,
)

WORDS = ("baba", "cabc", "abca")

# Every settled state for the three-word example, written as
# (row, swap members, prefix, cost) and verified by hand from the
# definition: cost is the sum of swap+substitution distances between the
# prefix and the input prefixes, and the members are the words whose greedy
# trace ends with a swap across the last two positions.
EXPECTED_TABLE = {
    (0, (), "a", 2),
    (1, (), "aa", 3),
    (1, (1,), "ab", 3),
    (1, (2,), "ac", 4),
    (1, (3,), "ba", 2),
    (2, (), "bab", 3),
    (2, (2,), "aba", 5),
    (2, (3,), "acb", 4),
    (3, (), "baba", 4),
    (3, (1,), "abab", 7),
    (3, (2,), "bacb", 6),
    (3, (3,), "abac", 6),
}


def as_list(table) -> list[tuple]:
    return [(s.row, s.swap_members, s.prefix, s.cost) for s in table]


def as_tuples(table) -> set[tuple]:
    return set(as_list(table))


class TestSwapSet:
    def test_examples(self):
        inst = Instance(("bab", "aab"))
        assert swap_set(inst, "aba", 2) == {2}
        assert swap_set(inst, "bba", 2) == {1, 2}
        assert swap_set(inst, "ab", 1) == {1}

    def test_empty_when_no_word_swaps(self):
        inst = Instance(("abc", "abc"))
        assert swap_set(inst, "ab", 1) == frozenset()

    def test_out_of_range(self):
        inst = Instance(("bab", "aab"))
        with pytest.raises(OutOfRange):
            swap_set(inst, "ab", 0)
        with pytest.raises(OutOfRange):
            swap_set(inst, "a", 1)  # prefix too short to cover the pair
        with pytest.raises(OutOfRange):
            swap_set(inst, "abab", 2)  # longer than the instance words


class TestThreeWordExample:
    def test_full_table(self):
        ans, table = sum_consensus_sh(Instance(WORDS))
        assert as_tuples(table) == EXPECTED_TABLE
        assert len(table) == 12

    def test_conflicting_swap_pair_is_unreachable(self):
        _, table = sum_consensus_sh(Instance(WORDS))
        assert not any(s.row == 2 and s.swap_members == (1, 2) for s in table)

    def test_answer(self):
        ans, _ = sum_consensus_sh(Instance(WORDS))
        assert ans.feasible
        assert ans.solution == "baba"
        assert ans.sum_distance == 4
        assert ans.per_string_distances == (0, 2, 2)

    def test_table_is_sorted(self):
        _, table = sum_consensus_sh(Instance(WORDS))
        assert list(table) == sorted(table, key=lambda s: (s.row, s.swap_members))


class TestStateIntegrity:
    """Every settled state is exactly what its definition says it is."""

    def check_table(self, inst: Instance, table) -> None:
        k = inst.k
        for state in table:
            length = state.row + 1
            assert len(state.prefix) == length
            recomputed = sum(sh_cost(w[:length], state.prefix) for w in inst.words)
            assert recomputed == state.cost, (inst.words, state)
            if state.row == 0:
                assert state.swap_members == ()
            else:
                expect = swap_set(inst, state.prefix, state.row)
                assert frozenset(state.swap_members) == expect, (inst.words, state)
        by_row: dict[int, list[DPState]] = {}
        for state in table:
            by_row.setdefault(state.row, []).append(state)
        for row, states in by_row.items():
            keys = [s.swap_members for s in states]
            assert len(keys) == len(set(keys)), "one state per swap set"
            # Row 0 is the one swap-free prefix; later rows hold at most k
            # states with swaps plus the swap-free one.
            limit = k if row else 0
            nonempty = sum(1 for s in states if s.swap_members)
            assert nonempty <= limit
            assert len(states) <= limit + 1

    def test_three_word_example(self):
        inst = Instance(WORDS)
        _, table = sum_consensus_sh(inst)
        self.check_table(inst, table)

    def test_swap_sets_wider_than_a_machine_word(self):
        # k=70: swap-set masks reach past bit 63, and states name words 65+.
        inst, _ = gen_planted(0, 40, 70, 4, 4)
        ans, table = sum_consensus_sh(inst)
        self.check_table(inst, table)
        assert any(s.swap_members and s.swap_members[-1] > 64 for s in table)
        assert ans.sum_distance == sum(sh_cost(w, ans.solution) for w in inst.words)

    def test_random_instances(self):
        rng = random.Random(601)
        for _ in range(250):
            inst = Instance(random_words(rng, min_n=2, min_k=2))
            _, table = sum_consensus_sh(inst)
            self.check_table(inst, table)


class TestAgainstEnumeration:
    def check_optimum(self, inst: Instance) -> None:
        ans, _ = sum_consensus_sh(inst)
        best: tuple[int, str] | None = None
        for t in ref.all_words("".join(inst.alphabet), inst.n):
            total = sum(sh_cost(w, t) for w in inst.words)
            if best is None or total < best[0]:
                best = (total, t)
        assert best is not None
        assert ans.feasible
        assert ans.sum_distance == best[0], inst.words
        assert ans.solution == best[1], inst.words
        assert ans.per_string_distances == tuple(
            sh_cost(w, ans.solution) for w in inst.words
        )

    def test_exact_minimum_and_lex_min_witness(self):
        rng = random.Random(602)
        for _ in range(300):
            self.check_optimum(Instance(random_words(rng)))

    def test_digit_and_non_ascii_symbols(self):
        # The column masks translate symbols to "0"/"1"; words whose own
        # symbols are those digits, or lie outside ASCII, must not mix them up.
        rng = random.Random(603)
        digits = str.maketrans("abc", "10\u00e9")
        for _ in range(150):
            words = tuple(w.translate(digits) for w in random_words(rng))
            inst = Instance(words)
            self.check_optimum(inst)
            TestStateIntegrity().check_table(inst, sum_consensus_sh(inst)[1])


class TestDecisionBound:
    def test_bound_met(self):
        ans, _ = sum_consensus_sh(Instance(WORDS), D=4)
        assert ans.feasible

    def test_bound_exceeded(self):
        ans, table = sum_consensus_sh(Instance(WORDS), D=3)
        assert not ans.feasible
        assert ans.reason == "minimum distance sum is 4 > 3"
        assert len(table) == 12, "the settled table is still reported"


def test_table_cost_is_certified(monkeypatch):
    monkeypatch.setattr(sh_sum, "sh_cost", lambda s, t: sh_cost(s, t) + 1)
    with pytest.raises(CertificationFailure, match="table cost 4 != recomputed sum 7"):
        sum_consensus_sh(Instance(WORDS))


class TestTableOnFirstRead:
    """The settled table is built only when a caller reads it."""

    def test_answer_alone_builds_no_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the table was built")

        monkeypatch.setattr(sh_sum, "DPState", refuse)
        inst = Instance(WORDS)
        ans, table = sum_consensus_sh(inst, D=4)
        assert (ans.solution, ans.sum_distance, ans.feasible) == ("baba", 4, True)
        assert solve("swap-hamming", "sum", inst)[0].solution == "baba"
        with pytest.raises(AssertionError, match="the table was built"):
            len(table)

    def test_answer_alone_expands_no_stretch(self, monkeypatch):
        # The DP settles the first and last rows of each quiet stretch; the
        # rows between them are built only when the table is read.
        calls = count_calls(monkeypatch, sh_sum, "_quiet_row")
        inst, _ = gen_planted(0, 200, 3, 4, 4)
        ans, table = sum_consensus_sh(inst, D=10**6)
        assert solve("swap-hamming", "sum", inst)[0].solution == ans.solution
        assert calls and all(r >= stretch[1] for _, _, stretch, r in calls)
        len(table)
        assert any(r < stretch[1] for _, _, stretch, r in calls)

    def test_built_table_equals_its_tuple(self):
        _, table = sum_consensus_sh(Instance(WORDS))
        first = tuple(table)
        assert table == first
        assert tuple(table) == first == tuple(table[i] for i in range(len(table)))
        assert as_tuples(table) == EXPECTED_TABLE


# sha1 of repr([(row, swap_members, prefix, cost) for each state]) and the
# state count of gen_planted(0, 200, k, 4, 4), recorded from the solver
# that settled every state from every source; a changed tie-break changes them.
LIBRARY_SIZE_TABLES = {
    3: ("71966b1cabcefef5bf03c58e8433b416cf353f93", 362),
    20: ("6bb631a4d0554a5d8b2833633ade8b0724d1122d", 427),
    60: ("e323f4d79e76425851073480ece46ea68ddf0dec", 568),
}


@pytest.mark.parametrize("k", sorted(LIBRARY_SIZE_TABLES))
def test_full_tables_at_library_sizes(k):
    inst, _ = gen_planted(0, 200, k, 4, 4)
    ans, table = sum_consensus_sh(inst)
    cells = repr([(s.row, s.swap_members, s.prefix, s.cost) for s in table])
    digest = hashlib.sha1(cells.encode()).hexdigest()
    assert (digest, ans.stats.dp_states) == LIBRARY_SIZE_TABLES[k]


def edited_words(rng: random.Random, centre: str, k: int, edits: int, symbols: str):
    """k copies of centre, each with up to ``edits`` random swaps or substitutions."""
    words = []
    for _ in range(k):
        w = list(centre)
        for _ in range(rng.randint(0, edits)):
            p = rng.randrange(len(w))
            if p + 1 < len(w) and rng.random() < 0.5:
                w[p], w[p + 1] = w[p + 1], w[p]
            else:
                w[p] = rng.choice(symbols)
        words.append("".join(w))
    return tuple(words)


def quiet_runs(words: tuple[str, ...]) -> list[tuple[int, int]]:
    """The runs [a, b) of rows whose column and both neighbours are clean."""
    n = len(words[0])
    dirty = [p for p, col in enumerate(zip(*words)) if len(set(col)) > 1]
    runs = []
    for lo, hi in zip([-2, *dirty], [*dirty, n + 1]):
        if hi - lo > 3:
            runs.append((lo + 2, hi - 1))
    return runs


def differential_instances(rng: random.Random):
    """Seeded instances for comparing the DP with the every-row reference."""
    for _ in range(400):  # few edits on random, periodic and run-heavy centres
        n, k = rng.randint(1, 60), rng.randint(1, 6)
        symbols = rng.choice(("ab", "abc", "abcd", "10\u00e9"))
        centre = rng.choice((
            "".join(rng.choice(symbols) for _ in range(n)),
            (symbols[:2] * n)[:n],
            (symbols[:3] * n)[:n],
            "".join(c * 3 for c in symbols * n)[:n],
        ))
        yield edited_words(rng, centre, k, rng.randint(0, 3), symbols)
    for gap in (4, 5, 6):  # quiet stretches of exactly 1, 2 and 3 rows
        for _ in range(40):
            n, k = rng.randint(gap + 1, 30), rng.randint(2, 5)
            centre = "".join(rng.choice("abc") for _ in range(n))
            p = rng.randrange(n - gap)
            words = [centre] * k
            for q in (p, p + gap):
                j = rng.randrange(1, k)
                words[j] = words[j][:q] + "abc".replace(centre[q], "")[0] + words[j][q + 1 :]
            yield tuple(words)
    for _ in range(200):  # tiny instances, k=1 included
        yield random_words(rng, max_n=3, max_k=3)


def test_tables_match_the_every_row_reference():
    rng = random.Random(604)
    seen, cases = set(), 0
    for words in differential_instances(rng):
        inst = Instance(words)
        ans, table = sum_consensus_sh(inst)
        witness, cost, expect, states = ref.scan_sum_dp(words)
        assert as_list(table) == expect, words
        assert (ans.solution, ans.sum_distance, ans.stats.dp_states) == (
            witness, cost, states), words
        assert ans.per_string_distances == tuple(sh_cost(w, witness) for w in words)
        cases += 1
        runs = quiet_runs(words)
        seen.update(b - a for a, b in runs)
        if any(a == 0 for a, _ in runs):
            seen.add("from row 0")
        if any(b == inst.n for _, b in runs):
            seen.add("to row n-1")
        if inst.k == 1:
            seen.add("k=1")
        if inst.n <= 2:
            seen.add("n<=2")
    assert cases == 720
    assert {1, 2, 3, "from row 0", "to row n-1", "k=1", "n<=2"} <= seen


def test_only_rows_next_to_a_dirty_column_are_stepped(monkeypatch):
    # gen_planted(0, 200, 3, 4, 4) disagrees in 8 columns (0, 5, 6, 25, 26,
    # 35, 145, 146), so 17 rows are next to one, and 5 quiet stretches lie
    # between them. Each stepped row sorts its states once; a quiet row is
    # stepped too when it fails the entry check, and then fills the tables
    # of its next column.
    sorts = 0

    def counted(*args, **kwargs):
        nonlocal sorts
        sorts += 1
        return sorted(*args, **kwargs)

    monkeypatch.setattr(sh_sum, "sorted", counted, raising=False)
    fills = count_calls(monkeypatch, sh_sum, "_fill")
    inst, _ = gen_planted(0, 200, 3, 4, 4)
    assert len(quiet_runs(inst.words)) == 5
    ans, table = sum_consensus_sh(inst)
    fallbacks = len(fills) - 1  # the first fills the columns near dirty ones
    assert 17 <= sorts <= 17 + fallbacks < 200
    assert ans.stats.dp_states == len(table) == 362


class TestSmallTables:
    """k=1 and n=1 run the same table as every other instance."""

    def test_single_word(self):
        inst = Instance(("abcab",))
        ans, table = sum_consensus_sh(inst)
        assert ans.solution == "abcab"
        assert ans.sum_distance == 0
        assert as_tuples(table) == {
            (0, (), "a", 0),
            (1, (), "ab", 0),
            (1, (1,), "ba", 1),
            (2, (), "abc", 0),
            (2, (1,), "acb", 1),
            (3, (), "abca", 0),
            (3, (1,), "abac", 1),
            (4, (), "abcab", 0),
            (4, (1,), "abcba", 1),
        }
        assert ans.stats.dp_states == len(table) == 9
        TestStateIntegrity().check_table(inst, table)

    def test_single_column(self):
        ans, table = sum_consensus_sh(Instance(("a", "b", "b")))
        assert ans.solution == "b"
        assert ans.sum_distance == 1
        assert table == (DPState(0, (), "b", 1),)


def test_time_per_state_is_sublinear_in_k():
    # n=200 from one planted centre; each state's extensions read per-column
    # tables instead of rescanning all k words, so time per state grows well
    # below linearly in k (a rescan per state gives ~0.95). The DP steps only
    # the rows next to a disagreeing column and settles the quiet stretches
    # in closed form; those are longest at small k, which therefore gains
    # most, and the slope measures about 0.3-0.4.
    sizes = (10, 30, 100, 300)
    states, per_state = [], []
    for k in sizes:
        inst, _ = gen_planted(97, 200, k, 4, 4)
        elapsed, (ans, _) = best_of(3, lambda: sum_consensus_sh(inst))
        states.append(ans.stats.dp_states)
        per_state.append(max(elapsed, 1e-6) / ans.stats.dp_states)
    assert tuple(states) == (400, 477, 715, 1110)
    fit = statistics.linear_regression(
        [math.log(k) for k in sizes], [math.log(t) for t in per_state]
    )
    assert fit.slope <= 0.75, f"log-log slope {fit.slope:.2f} exceeds 0.75 ({per_state})"
