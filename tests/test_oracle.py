"""Brute-force reference solver, padding reductions, and planted generator."""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest

from conftest import random_words
from swapsensus import (
    BudgetedInstance,
    CapExceeded,
    DEFAULT_CAP,
    Instance,
    LengthMismatch,
    MixedRadiusQuery,
    OracleQuery,
    Radius,
    RadiusSum,
    ReservedSymbolPresent,
    Sum,
    brute_force,
    dollar_pad,
    gen_planted,
    radius_consensus_ham_mixed,
    radius_consensus_sh,
    sh_cost,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


class TestQueryValidation:
    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            OracleQuery(Instance(("ab",)), "levenshtein", Sum())

    def test_budget_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            OracleQuery(Instance(("ab", "ba")), "hamming", Sum(), budgets=(1,))

    def test_negative_budget(self):
        with pytest.raises(ValueError):
            OracleQuery(Instance(("ab", "ba")), "hamming", Sum(), budgets=(0, -1))

    def test_cap_exceeded(self):
        # 4 symbols at n=11 are 4,194,304 words, above the cap of 2,000,000.
        assert DEFAULT_CAP == 2_000_000
        with pytest.raises(CapExceeded, match="4194304 words exceeds the cap of 2000000"):
            OracleQuery(Instance(("abcdabcdabc", "dcbadcbadcb")), "hamming", Sum())

    def test_default_cap_is_permissive_at_desk_scale(self):
        # 4 symbols at n=10 are 1,048,576 words, within the cap.
        q = OracleQuery(Instance(("abcdabcdab", "dcbadcbadc")), "hamming", Radius(10))
        assert brute_force(q).stats.oracle_enumerated == 1


class TestBruteForce:
    def test_sum_swap_hamming(self):
        ans = brute_force(
            OracleQuery(Instance(("baba", "cabc", "abca")), "swap-hamming", Sum())
        )
        assert ans.feasible
        assert ans.solution == "baba"
        assert ans.sum_distance == 4

    def test_sum_single_word(self):
        ans = brute_force(OracleQuery(Instance(("abab",)), "hamming", Sum()))
        assert ans.solution == "abab" and ans.sum_distance == 0

    def test_radius_returns_lex_min(self):
        ans = brute_force(OracleQuery(Instance(("aa", "bb")), "hamming", Radius(1)))
        assert ans.feasible
        assert ans.solution == "ab"
        assert ans.stats.oracle_enumerated == 2  # stopped at the witness

    def test_radius_infeasible_swap(self):
        ans = brute_force(OracleQuery(Instance(("aa", "bb")), "swap", Radius(1)))
        assert not ans.feasible
        assert ans.reason == "no word within swap radius 1"

    def test_sum_with_no_finite_total(self):
        ans = brute_force(OracleQuery(Instance(("abc", "bca", "cab")), "swap", Sum()))
        assert not ans.feasible
        assert ans.reason == "no word at finite total distance"

    def test_sum_swap_pair_meets_in_the_middle(self):
        ans = brute_force(OracleQuery(Instance(("abc", "bca")), "swap", Sum()))
        assert ans.feasible
        assert ans.solution == "bac"
        assert ans.sum_distance == 2

    def test_radius_sum_bound_decision(self):
        inst = Instance(("ab", "ba"))
        tight = brute_force(OracleQuery(inst, "hamming", RadiusSum(1, 1)))
        assert not tight.feasible
        assert tight.reason == "minimum total within radius 1 is 2 > 1"
        loose = brute_force(OracleQuery(inst, "hamming", RadiusSum(1, 2)))
        assert loose.feasible
        assert loose.solution == "aa"
        assert loose.sum_distance == 2

    def test_sum_enumerates_everything(self):
        ans = brute_force(OracleQuery(Instance(("aa", "bb")), "hamming", Sum()))
        assert ans.stats.oracle_enumerated == 4

    def test_budgets_shift_distances(self):
        inst = Instance(("ab", "ba"))
        no = brute_force(
            OracleQuery(inst, "hamming", Radius(1), budgets=(1, 0))
        )
        assert not no.feasible
        yes = brute_force(OracleQuery(inst, "hamming", Radius(1), budgets=(0, 0)))
        assert yes.feasible and yes.solution == "aa"

    def test_budgeted_distances_reported_with_offset(self):
        inst = Instance(("ab", "ab"))
        ans = brute_force(OracleQuery(inst, "hamming", Radius(2), budgets=(2, 0)))
        assert ans.feasible
        assert ans.solution == "ab"
        assert ans.per_string_distances == (2.0, 0.0)
        assert ans.max_distance == 2


class TestDollarPad:
    def test_example(self):
        assert dollar_pad(Instance(("ab", "ba"))).words == ("a$b", "b$a")

    def test_single_column_unchanged(self):
        assert dollar_pad(Instance(("a",))).words == ("a",)

    def test_reserved_symbol_rejected(self):
        with pytest.raises(ReservedSymbolPresent):
            dollar_pad(Instance(("a$", "aa")))

    def test_padded_radius_matches_hamming_radius(self):
        rng = random.Random(801)
        mixed_feasible = 0
        for _ in range(300):
            inst = Instance(random_words(rng, max_n=4))
            d = rng.randint(0, 3)
            padded = dollar_pad(inst)
            via_pad = radius_consensus_sh(padded, d)
            plain = radius_consensus_ham_mixed(
                MixedRadiusQuery(BudgetedInstance(inst, (0,) * inst.k), d)
            )
            assert via_pad.feasible == plain.feasible, (inst.words, d)
            mixed_feasible += via_pad.feasible
        assert 0 < mixed_feasible < 300

    def test_padded_radius_matches_at_oracle_level(self):
        rng = random.Random(802)
        for _ in range(150):
            inst = Instance(random_words(rng, max_n=4))
            d = rng.randint(0, 3)
            padded = dollar_pad(inst)
            a = brute_force(OracleQuery(padded, "swap-hamming", Radius(d)))
            b = brute_force(OracleQuery(inst, "hamming", Radius(d)))
            assert a.feasible == b.feasible, (inst.words, d)


class TestGenPlanted:
    def test_deterministic(self):
        a = gen_planted(42, 10, 3, 4, 3)
        b = gen_planted(42, 10, 3, 4, 3)
        assert a == b

    def test_zero_ops_copies_center(self):
        inst, center = gen_planted(9, 7, 4, 3, 0)
        assert inst.words == (center,) * 4

    def test_words_within_ops_budget(self):
        rng = random.Random(803)
        for _ in range(60):
            seed = rng.randint(0, 10**9)
            n = rng.randint(1, 12)
            k = rng.randint(1, 5)
            sigma = rng.randint(2, 5)
            ops = rng.randint(0, 4)
            inst, center = gen_planted(seed, n, k, sigma, ops)
            assert inst.k == k and inst.n == n
            allowed = set("abcdefghijklmnopqrstuvwxyz"[:sigma])
            for w in inst.words:
                assert set(w) <= allowed
                assert sh_cost(center, w) <= ops

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_planted(1, 5, 2, 1, 1)  # alphabet too small
        with pytest.raises(ValueError):
            gen_planted(1, 5, 2, 27, 1)  # alphabet too large
        with pytest.raises(ValueError):
            gen_planted(1, 5, 2, 3, -1)
        with pytest.raises(ValueError):
            gen_planted(1, 0, 2, 3, 1)
        with pytest.raises(ValueError):
            gen_planted(1, 5, 0, 3, 1)

    @pytest.mark.parametrize("seed", [7, 20260816, 1])
    def test_golden_instances(self, seed):
        payload = json.loads((GOLDEN_DIR / f"gen_planted_{seed}.json").read_text())
        inst, center = gen_planted(
            payload["seed"],
            payload["n"],
            payload["k"],
            payload["sigma"],
            payload["ops_budget"],
        )
        assert list(inst.words) == payload["words"]
        assert center == payload["center"]


def test_infinite_distances_never_win_sum():
    ans = brute_force(OracleQuery(Instance(("ab", "ba")), "swap", Sum()))
    assert ans.feasible
    assert not math.isinf(ans.sum_distance)
    assert ans.solution in ("ab", "ba")
    assert ans.sum_distance == 1
