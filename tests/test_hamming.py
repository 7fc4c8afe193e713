"""Hamming consensus solvers (plain and budgeted) versus direct enumeration."""

from __future__ import annotations

import random

import pytest

import reference as ref
from conftest import (
    count_calls,
    plain_graph_walk,
    radius_graph_search,
    random_instance,
)
from swapsensus import (
    hamming,
    BudgetedInstance,
    CertificationFailure,
    Instance,
    LengthMismatch,
    MixedRadiusQuery,
    MixedRadiusSumQuery,
    ReservedSymbolPresent,
    hamming_distance,
    pad_mixed,
    radius_consensus_ham_mixed,
    rs_consensus_ham_mixed,
    sum_consensus_ham,
)


def ham(a: str, b: str) -> int:
    return sum(x != y for x, y in zip(a, b))


def candidates(inst: Instance):
    return ref.all_words("".join(inst.alphabet), inst.n)


def ref_radius_feasible(inst: Instance, slacks) -> bool:
    return any(
        all(ham(t, w) <= sl for w, sl in zip(inst.words, slacks))
        for t in candidates(inst)
    )


def ref_min_sum(inst: Instance) -> tuple[int, str]:
    best: tuple[int, str] | None = None
    for t in candidates(inst):
        total = sum(ham(t, w) for w in inst.words)
        if best is None or total < best[0]:
            best = (total, t)
    assert best is not None
    return best


def ref_rs(inst: Instance, slacks, sum_budget) -> tuple[int, str] | None:
    best: tuple[int, str] | None = None
    for t in candidates(inst):
        if any(ham(t, w) > sl for w, sl in zip(inst.words, slacks)):
            continue
        total = sum(ham(t, w) for w in inst.words)
        if total <= sum_budget and (best is None or total < best[0]):
            best = (total, t)
    return best


def zero_radius_query(words, d: int) -> MixedRadiusQuery:
    inst = Instance(tuple(words))
    return MixedRadiusQuery(BudgetedInstance(inst, (0,) * inst.k), d)


def zero_rs_query(words, d: int, big_d: int) -> MixedRadiusSumQuery:
    inst = Instance(tuple(words))
    return MixedRadiusSumQuery(BudgetedInstance(inst, (0,) * inst.k), d, big_d)


class TestHammingDistance:
    def test_basics(self):
        assert hamming_distance("abc", "abc") == 0
        assert hamming_distance("abc", "abd") == 1
        assert hamming_distance("abc", "xyz") == 3

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            hamming_distance("ab", "abc")


class TestSumConsensus:
    def test_tie_goes_to_smaller_symbol(self):
        ans = sum_consensus_ham(Instance(("ab", "ba")))
        assert ans.feasible
        assert ans.solution == "aa"
        assert ans.sum_distance == 2

    def test_majority_column(self):
        ans = sum_consensus_ham(Instance(("aab", "abb", "bbb")))
        assert ans.solution == "abb"
        assert ans.sum_distance == 2
        assert ans.per_string_distances == (1, 0, 1)

    def test_single_word(self):
        ans = sum_consensus_ham(Instance(("xyz",)))
        assert ans.solution == "xyz"
        assert ans.sum_distance == 0

    def test_matches_enumeration_exactly(self):
        rng = random.Random(301)
        for _ in range(400):
            inst = random_instance(rng)
            ans = sum_consensus_ham(inst)
            expect_sum, expect_wit = ref_min_sum(inst)
            assert ans.feasible
            assert ans.sum_distance == expect_sum, inst.words
            assert ans.solution == expect_wit, inst.words  # lex-min optimum
            assert ans.per_string_distances == tuple(
                ham(w, ans.solution) for w in inst.words
            )


class TestRadiusQueriesValidation:
    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            zero_radius_query(("ab",), -1)

    def test_budget_above_radius_rejected(self):
        # A budget above d is an answer ("infeasible"), given before any
        # search, not an invalid query.
        inst = Instance(("ab", "ba"))
        ans = radius_consensus_ham_mixed(MixedRadiusQuery(BudgetedInstance(inst, (0, 2)), 1))
        assert not ans.feasible
        assert ans.reason == "word 2 has consumed budget 2 > d=1"
        assert ans.stats.nodes_expanded == 0
        rs = rs_consensus_ham_mixed(MixedRadiusSumQuery(BudgetedInstance(inst, (3, 2)), 1, 9))
        assert not rs.feasible
        assert rs.reason == "word 1 has consumed budget 3 > d=1"

    def test_rs_budget_sum_above_total_rejected(self):
        inst = Instance(("ab", "ba"))
        ans = rs_consensus_ham_mixed(MixedRadiusSumQuery(BudgetedInstance(inst, (1, 1)), 1, 1))
        assert not ans.feasible
        assert ans.reason == "consumed budgets alone sum to 2 > D=1"
        assert ans.stats.nodes_expanded == 0
        # The per-word check comes first when both bounds are broken.
        both = rs_consensus_ham_mixed(MixedRadiusSumQuery(BudgetedInstance(inst, (2, 2)), 1, 1))
        assert both.reason == "word 1 has consumed budget 2 > d=1"

    def test_rs_negative_bounds_rejected(self):
        with pytest.raises(ValueError):
            zero_rs_query(("ab",), 1, -1)


class TestRadiusConsensus:
    def test_canonical_first_found_witness(self):
        ans = radius_consensus_ham_mixed(zero_radius_query(("aa", "bb"), 1))
        assert ans.feasible
        assert ans.solution == "ba"
        assert ans.max_distance == 1

    def test_infeasible_zero_radius(self):
        ans = radius_consensus_ham_mixed(zero_radius_query(("ab", "ba"), 0))
        assert not ans.feasible
        assert ans.reason == "no word within slack of every input at radius 0"

    def test_exact_radius_zero_on_identical_words(self):
        ans = radius_consensus_ham_mixed(zero_radius_query(("abc", "abc"), 0))
        assert ans.feasible and ans.solution == "abc"

    def test_bit_rows_with_budgets(self):
        rows = (
            "00000000000000000",
            "10000001000000010",
            "10000001001000000",
        )
        q = MixedRadiusQuery(BudgetedInstance(Instance(rows), (2, 3, 2)), 4)
        ans = radius_consensus_ham_mixed(q)
        assert ans.feasible
        assert ans.solution == "10000001000000000"
        for dist, x in zip(ans.per_string_distances, (2, 3, 2)):
            assert dist + x <= 4

    def test_bit_rows_with_transposed_budgets(self):
        # Same rows with the budget vector (2, 1, 2): still feasible, but the
        # canonical search returns a different witness.
        rows = (
            "00000000000000000",
            "10000001000000010",
            "10000001001000000",
        )
        q = MixedRadiusQuery(BudgetedInstance(Instance(rows), (2, 1, 2)), 4)
        ans = radius_consensus_ham_mixed(q)
        assert ans.feasible
        assert ans.solution == "10000000000000000"

    def test_witness_stays_within_depth_of_first_word(self):
        rng = random.Random(302)
        for _ in range(300):
            inst = random_instance(rng)
            d = rng.randint(0, 3)
            ans = radius_consensus_ham_mixed(zero_radius_query(inst.words, d))
            if ans.feasible:
                assert ham(inst.words[0], ans.solution) <= d

    def test_feasibility_matches_enumeration(self):
        rng = random.Random(303)
        feasible_seen = 0
        infeasible_seen = 0
        for _ in range(500):
            inst = random_instance(rng)
            d = rng.randint(0, 3)
            budgets = tuple(rng.randint(0, d) for _ in range(inst.k))
            q = MixedRadiusQuery(BudgetedInstance(inst, budgets), d)
            ans = radius_consensus_ham_mixed(q)
            slacks = [d - x for x in budgets]
            expect = ref_radius_feasible(inst, slacks)
            assert ans.feasible == expect, (inst.words, budgets, d)
            if ans.feasible:
                feasible_seen += 1
                for w, dist, sl in zip(inst.words, ans.per_string_distances, slacks):
                    assert dist == ham(w, ans.solution)
                    assert dist <= sl
            else:
                infeasible_seen += 1
        assert feasible_seen > 50 and infeasible_seen > 50


class TestRadiusSumConsensus:
    def test_known_values(self):
        ans = rs_consensus_ham_mixed(zero_rs_query(("ab", "ba"), 1, 2))
        assert ans.feasible
        assert ans.solution == "aa"
        assert ans.sum_distance == 2

    def test_identical_words_zero_bounds(self):
        ans = rs_consensus_ham_mixed(zero_rs_query(("xy", "xy"), 0, 0))
        assert ans.feasible and ans.solution == "xy"

    def test_sum_bound_binds(self):
        ans = rs_consensus_ham_mixed(zero_rs_query(("ab", "ba"), 1, 1))
        assert not ans.feasible
        assert ans.reason == "no word meets radius 1 slacks with sum within 1"

    def test_budgeted_example(self):
        inst = Instance(("ab", "ab"))
        q = MixedRadiusSumQuery(BudgetedInstance(inst, (1, 0)), 1, 1)
        ans = rs_consensus_ham_mixed(q)
        assert ans.feasible
        assert ans.solution == "ab"
        assert ans.sum_distance == 0

    def test_matches_enumeration_exactly(self):
        rng = random.Random(304)
        feasible_seen = 0
        infeasible_seen = 0
        for _ in range(500):
            inst = random_instance(rng)
            d = rng.randint(0, 3)
            big_d = rng.randint(0, 8)
            budgets = tuple(rng.randint(0, d) for _ in range(inst.k))
            if sum(budgets) > big_d:
                continue
            q = MixedRadiusSumQuery(BudgetedInstance(inst, budgets), d, big_d)
            ans = rs_consensus_ham_mixed(q)
            slacks = [d - x for x in budgets]
            expect = ref_rs(inst, slacks, big_d - sum(budgets))
            if expect is None:
                infeasible_seen += 1
                assert not ans.feasible, (inst.words, budgets, d, big_d)
            else:
                feasible_seen += 1
                assert ans.feasible, (inst.words, budgets, d, big_d)
                assert ans.sum_distance == expect[0]
                assert ans.solution == expect[1]  # lex-min optimum
        assert feasible_seen > 50 and infeasible_seen > 20


class TestPadMixed:
    def test_example_pads(self):
        inst = Instance(("ab", "cd"))
        q = MixedRadiusQuery(BudgetedInstance(inst, (1, 0)), 1)
        padded, d = pad_mixed(q)
        assert padded.words == ("ab01", "cd00", "ab10", "cd00")
        assert d == 1

    def test_zero_budgets_duplicate_without_pads(self):
        inst = Instance(("ab", "cd"))
        q = MixedRadiusQuery(BudgetedInstance(inst, (0, 0)), 1)
        padded, d = pad_mixed(q)
        assert padded.words == ("ab", "cd", "ab", "cd")
        assert d == 1

    def test_rs_query_doubles_sum_bound(self):
        inst = Instance(("ab", "cd"))
        q = MixedRadiusSumQuery(BudgetedInstance(inst, (1, 0)), 2, 3)
        padded, d, big_d = pad_mixed(q)
        assert d == 2 and big_d == 6
        assert padded.k == 4

    def test_reserved_symbols_rejected(self):
        inst = Instance(("a0", "aa"))
        q = MixedRadiusQuery(BudgetedInstance(inst, (0, 0)), 1)
        with pytest.raises(ReservedSymbolPresent):
            pad_mixed(q)

    def test_radius_feasibility_equivalence(self):
        rng = random.Random(305)
        trials = 0
        while trials < 500:
            inst = random_instance(rng, max_n=5, max_k=3)
            d = rng.randint(0, 2)
            budgets = tuple(rng.randint(0, d) for _ in range(inst.k))
            q = MixedRadiusQuery(BudgetedInstance(inst, budgets), d)
            mixed = radius_consensus_ham_mixed(q)
            padded, pd = pad_mixed(q)
            plain = radius_consensus_ham_mixed(
                MixedRadiusQuery(BudgetedInstance(padded, (0,) * padded.k), pd)
            )
            assert mixed.feasible == plain.feasible, (inst.words, budgets, d)
            trials += 1

    def test_rs_feasibility_equivalence(self):
        rng = random.Random(306)
        trials = 0
        while trials < 500:
            inst = random_instance(rng, max_n=5, max_k=3)
            d = rng.randint(0, 2)
            big_d = rng.randint(0, 8)
            budgets = tuple(rng.randint(0, d) for _ in range(inst.k))
            if sum(budgets) > big_d:
                continue
            q = MixedRadiusSumQuery(BudgetedInstance(inst, budgets), d, big_d)
            mixed = rs_consensus_ham_mixed(q)
            padded, pd, pD = pad_mixed(q)
            plain = rs_consensus_ham_mixed(
                MixedRadiusSumQuery(BudgetedInstance(padded, (0,) * padded.k), pd, pD)
            )
            assert mixed.feasible == plain.feasible, (inst.words, budgets, d, big_d)
            trials += 1


class TestRadiusSearch:
    def test_exhausted_subtrees_are_not_searched_again(self):
        found, calls = radius_graph_search()
        assert found is None
        assert calls == [
            ("r", 0),
            ("a", 1),
            ("n", 2),
            ("n", 3),  # n at depth 2 is still being searched: expanded again
            ("b", 1),
            ("c", 2),
            # n at depth 3 under c: exhausted at depth 2, skipped
            ("n", 1),  # shallower than its entry: expanded
            # its child n at depth 2: exhausted at depth 2, skipped
        ]
        _, plain = plain_graph_walk()
        assert plain == calls[:6] + [("n", 3), ("n", 1), ("n", 2), ("n", 3)]


class TestCertification:
    def test_radius_witness_beyond_a_slack(self, monkeypatch):
        monkeypatch.setattr(hamming, "_radius_search", lambda *args: "bb")
        q = MixedRadiusQuery(BudgetedInstance(Instance(("aa", "ab")), (0, 1)), 1)
        with pytest.raises(CertificationFailure, match="word 1: .* 2 > slack 1"):
            radius_consensus_ham_mixed(q)

    def test_radius_sum_witness_beyond_the_sum_budget(self, monkeypatch):
        # The search scores columns itself; hamming_distance only certifies.
        monkeypatch.setattr(hamming, "hamming_distance", lambda s, t: 1)
        q = MixedRadiusSumQuery(BudgetedInstance(Instance(("ab", "ab")), (0, 0)), 1, 1)
        with pytest.raises(CertificationFailure, match="recomputed distance sum 2 > 1"):
            rs_consensus_ham_mixed(q)


class TestDeepSearches:
    """Search depths far beyond Python's default recursion limit of 1000."""

    def test_radius_search_depth_1200(self):
        inst = Instance(("a" * 2400, "b" * 2400))
        ans = radius_consensus_ham_mixed(zero_radius_query(inst.words, 1200))
        assert ans.feasible
        assert ans.solution == "b" * 1200 + "a" * 1200
        assert ans.per_string_distances == (1200, 1200)
        assert ans.stats.nodes_expanded == 1201

    def test_radius_search_computes_distances_at_the_root_only(self, monkeypatch):
        # Each child rewrites one column, so its distances come from its
        # parent's in O(k): two calls at the root and two to certify the
        # witness, not two more for each of the 1,200 other nodes.
        calls = count_calls(monkeypatch, hamming, "hamming_distance")
        ans = radius_consensus_ham_mixed(zero_radius_query(("a" * 2400, "b" * 2400), 1200))
        assert ans.stats.nodes_expanded == 1201
        assert len(calls) == 4

    def test_radius_sum_search_over_1400_columns(self):
        words = ("ab" * 700, "ba" * 700)
        ans = rs_consensus_ham_mixed(zero_rs_query(words, 700, 1400))
        assert ans.feasible
        assert ans.solution == "a" * 1400
        assert ans.per_string_distances == (700, 700)
        # One path down to the first leaf, then every "b" sibling on the way
        # back is pruned by the sum bound that leaf sets.
        assert ans.stats.nodes_expanded == 1401 + 1399

    @pytest.mark.parametrize("m", [10, 700])
    def test_radius_sum_infeasible_by_the_slack_sum(self, m):
        # Every column costs one mismatch, so each leaf totals 2m, above the
        # 2(m - 1) the two slacks allow: the root is pruned.
        words = ("ab" * m, "ba" * m)
        ans = rs_consensus_ham_mixed(zero_rs_query(words, m - 1, 2 * m))
        assert not ans.feasible
        assert ans.reason == (
            f"no word meets radius {m - 1} slacks with sum within {2 * m}"
        )
        assert ans.stats.nodes_expanded == 1
