"""Sum consensus under swap+substitution distance: the prefix table solver."""

from __future__ import annotations

import math
import random
import statistics

import pytest

import reference as ref
from conftest import best_of, random_words
from swapsensus import (
    CertificationFailure,
    DPState,
    Instance,
    OutOfRange,
    gen_planted,
    sh_cost,
    sh_sum,
    sum_consensus_sh,
    swap_set,
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


def as_tuples(table) -> set[tuple]:
    return {(s.row, s.swap_members, s.prefix, s.cost) for s in table}


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

    def test_random_instances(self):
        rng = random.Random(601)
        for _ in range(250):
            inst = Instance(random_words(rng, min_n=2, min_k=2))
            _, table = sum_consensus_sh(inst)
            self.check_table(inst, table)


class TestAgainstEnumeration:
    def test_exact_minimum_and_lex_min_witness(self):
        rng = random.Random(602)
        for _ in range(300):
            inst = Instance(random_words(rng))
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
    # below linearly in k (a rescan per state gives ~0.95).
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
