"""Swap-distance consensus pipeline: solve on encodings, certify on words.

Reference values come from enumerating every word over the instance alphabet
and scoring it with swap_distance, which test_swaps.py certifies against a
from-scratch enumeration of exchange sets.
"""

from __future__ import annotations

import math
import random

import pytest

import reference as ref
from conftest import random_words
from swapsensus import (
    INF,
    CertificationFailure,
    Instance,
    SwapPipelineTrace,
    apply_swaps,
    pipeline,
    radius_consensus_swap,
    rs_consensus_swap,
    sum_consensus_ham,
    sum_consensus_swap,
    swap_distance,
    swap_string,
    xor_compose,
)

TANGLED_LONG = (
    "abgabcahidabdefeda",
    "bagcaabihdabefddea",
    "bagcabaihdbaefdeda",
)
TANGLED_SHORT = ("gabcahi", "gcaabih", "gcabaih")


def check_trace(inst: Instance, answer, trace: SwapPipelineTrace) -> None:
    dz = trace.disentanglement
    assert trace.encoded[0].popcount == 0, "first encoding must be all zeros"
    union = {p for h in trace.encoded for p in h.ones()}
    for p in union:
        assert p + 1 not in union, "encoded swap positions must not be adjacent"
    assert set(trace.h_star.ones()) <= union
    assert trace.decoded == apply_swaps(dz.strings_prime[0], trace.h_star)
    if answer.feasible:
        assert answer.solution == trace.decoded
        for w, x, h, dist in zip(
            inst.words, dz.budgets, trace.encoded, answer.per_string_distances
        ):
            gap = xor_compose(h, trace.h_star).count("1")
            assert swap_distance(w, trace.decoded) == x + gap == dist


def ref_distances(inst: Instance, t: str) -> list[float]:
    return [swap_distance(w, t) for w in inst.words]


def ref_min_sum(inst: Instance) -> float:
    best = INF
    for t in ref.all_words("".join(inst.alphabet), inst.n):
        total = sum(ref_distances(inst, t))
        best = min(best, total)
    return best


def ref_radius_feasible(inst: Instance, d: int) -> bool:
    return any(
        max(ref_distances(inst, t)) <= d
        for t in ref.all_words("".join(inst.alphabet), inst.n)
    )


def ref_rs_min_sum(inst: Instance, d: int) -> float:
    best = INF
    for t in ref.all_words("".join(inst.alphabet), inst.n):
        dists = ref_distances(inst, t)
        if max(dists) <= d:
            best = min(best, sum(dists))
    return best


class TestSumConsensus:
    def test_two_words(self):
        ans, trace = sum_consensus_swap(Instance(("ab", "ba")))
        assert ans.feasible
        assert ans.solution == "ab"
        assert ans.sum_distance == 1
        check_trace(Instance(("ab", "ba")), ans, trace)

    def test_identical_words(self):
        ans, _ = sum_consensus_swap(Instance(("abcab",) * 3))
        assert ans.solution == "abcab" and ans.sum_distance == 0

    def test_no_common_match(self):
        ans, trace = sum_consensus_swap(Instance(("ababc", "abbca", "abacb")))
        assert not ans.feasible
        assert trace is None
        assert ans.reason.startswith("no common matching word:")
        assert "column 3" in ans.reason

    def test_single_column_words(self):
        inst = Instance(("a", "a"))
        for ans, trace in (
            sum_consensus_swap(inst),
            radius_consensus_swap(inst, 0),
            rs_consensus_swap(inst, 0, 0),
        ):
            assert ans.feasible and ans.solution == "a" and ans.sum_distance == 0
            assert trace.h_star.bits == ""
            check_trace(inst, ans, trace)

    def test_decision_bound(self):
        ok, _ = sum_consensus_swap(Instance(("ab", "ba")), D=1)
        assert ok.feasible
        no, trace = sum_consensus_swap(Instance(("ab", "ba")), D=0)
        assert not no.feasible
        assert no.reason == "minimum sum of swap distances is 1 > 0"
        assert trace is not None, "the minimizing trace is still reported"

    def test_matches_enumeration(self):
        rng = random.Random(501)
        feasible_seen = 0
        for _ in range(300):
            inst = Instance(random_words(rng))
            ans, trace = sum_consensus_swap(inst)
            expect = ref_min_sum(inst)
            if math.isinf(expect):
                assert not ans.feasible, inst.words
            else:
                feasible_seen += 1
                assert ans.feasible, inst.words
                assert ans.sum_distance == expect, inst.words
                check_trace(inst, ans, trace)
        assert feasible_seen > 60


class TestRadiusConsensus:
    def test_eighteen_letter_instance(self):
        inst = Instance(TANGLED_LONG)
        ans, trace = radius_consensus_swap(inst, 4)
        assert ans.feasible
        assert ans.solution == "bagacbaihdabedfeda"
        assert ans.per_string_distances == (4, 4, 3)
        assert [h.bits for h in trace.encoded] == [
            "00000000000000000",
            "10000001000000010",
            "10000001001000000",
        ]
        assert trace.h_star.bits == "10000001000000000"
        check_trace(inst, ans, trace)

    def test_identical_words_zero_radius(self):
        ans, _ = radius_consensus_swap(Instance(("xyx", "xyx")), 0)
        assert ans.feasible and ans.solution == "xyx"

    def test_zero_radius_infeasible(self):
        ans, _ = radius_consensus_swap(Instance(("abab", "baba")), 0)
        assert not ans.feasible
        assert ans.reason == "no common match within swap radius 0"

    def test_radius_one_splits_the_difference(self):
        ans, trace = radius_consensus_swap(Instance(("abab", "baba")), 1)
        assert ans.feasible
        assert max(ans.per_string_distances) == 1
        check_trace(Instance(("abab", "baba")), ans, trace)

    def test_necessary_swaps_exceed_radius(self):
        ans, trace = radius_consensus_swap(Instance(TANGLED_SHORT), 1)
        assert not ans.feasible
        assert trace is None
        assert ans.reason == "word 2 needs 2 necessary swaps > d=1"

    def test_no_common_match(self):
        ans, _ = radius_consensus_swap(Instance(("abc", "bca", "cab")), 3)
        assert not ans.feasible
        assert ans.reason.startswith("no common matching word:")

    def test_matches_enumeration(self):
        rng = random.Random(502)
        feasible_seen = 0
        infeasible_seen = 0
        for _ in range(300):
            inst = Instance(random_words(rng))
            d = rng.randint(0, 3)
            ans, trace = radius_consensus_swap(inst, d)
            expect = ref_radius_feasible(inst, d)
            assert ans.feasible == expect, (inst.words, d)
            if ans.feasible:
                feasible_seen += 1
                assert ans.max_distance <= d
                check_trace(inst, ans, trace)
            else:
                infeasible_seen += 1
        assert feasible_seen > 50 and infeasible_seen > 50


class TestRadiusSumConsensus:
    def test_eighteen_letter_instance(self):
        inst = Instance(TANGLED_LONG)
        ans, trace = rs_consensus_swap(inst, 4, 11)
        assert ans.feasible
        assert ans.sum_distance == 11
        assert ans.max_distance <= 4
        check_trace(inst, ans, trace)

    def test_sum_bound_binds(self):
        ans, _ = rs_consensus_swap(Instance(("abab", "baba")), 2, 1)
        assert not ans.feasible
        assert ans.reason == "no common match within swap radius 2 and sum 1"

    def test_necessary_swaps_exceed_sum_bound(self):
        ans, _ = rs_consensus_swap(Instance(TANGLED_SHORT), 2, 3)
        assert not ans.feasible
        assert ans.reason == "necessary swaps alone sum to 4 > D=3"

    def test_radius_precheck_fires_first(self):
        ans, _ = rs_consensus_swap(Instance(TANGLED_SHORT), 1, 3)
        assert not ans.feasible
        assert ans.reason == "word 2 needs 2 necessary swaps > d=1"

    def test_matches_enumeration(self):
        rng = random.Random(503)
        feasible_seen = 0
        infeasible_seen = 0
        for _ in range(300):
            inst = Instance(random_words(rng))
            d = rng.randint(0, 3)
            big_d = rng.randint(0, 8)
            ans, trace = rs_consensus_swap(inst, d, big_d)
            expect = ref_rs_min_sum(inst, d)
            if math.isinf(expect) or expect > big_d:
                infeasible_seen += 1
                assert not ans.feasible, (inst.words, d, big_d)
            else:
                feasible_seen += 1
                assert ans.feasible, (inst.words, d, big_d)
                assert ans.sum_distance == expect
                assert ans.max_distance <= d
                check_trace(inst, ans, trace)
        assert feasible_seen > 40 and infeasible_seen > 40


def test_elapsed_covers_early_exits():
    # stats.elapsed times the whole call, so answers that stop right after
    # disentanglement or its budget precheck still report their time.
    no_match = Instance(("ababc", "abbca", "abacb"))
    for ans, _ in (
        sum_consensus_swap(no_match),
        radius_consensus_swap(no_match, 3),
        rs_consensus_swap(no_match, 3, 9),
    ):
        assert ans.reason.startswith("no common matching word:")
        assert ans.stats.elapsed > 0
    for ans, _ in (
        radius_consensus_swap(Instance(TANGLED_SHORT), 1),
        rs_consensus_swap(Instance(TANGLED_SHORT), 1, 3),
    ):
        assert ans.reason == "word 2 needs 2 necessary swaps > d=1"
        assert ans.stats.elapsed > 0


class TestCertification:
    def test_distances_must_be_budget_plus_encoded_hamming(self, monkeypatch):
        monkeypatch.setattr(pipeline, "swap_distance", lambda s, t: 5)
        with pytest.raises(CertificationFailure, match="word 1: recomputed swap"):
            sum_consensus_swap(Instance(("ab", "ba")))

    def test_witness_must_meet_the_bounds(self):
        # A bit solver that ignores d returns the sum optimum "ab", which is
        # one swap from "ba": beyond radius 0.
        with pytest.raises(CertificationFailure, match="violates bounds: max 1"):
            pipeline._solve(
                Instance(("ab", "ba")), 0, None, lambda b: sum_consensus_ham(b.instance)
            )
