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
from conftest import random_words, slow_calls
from reference import xor_compose
from swapsensus import (
    INF,
    BudgetedInstance,
    CertificationFailure,
    ConsensusAnswer,
    Infeasible,
    Instance,
    MixedRadiusQuery,
    MixedRadiusSumQuery,
    SwapPipelineTrace,
    apply_swaps,
    disentangle,
    hamming,
    pipeline,
    radius_consensus_ham_mixed,
    radius_consensus_sh,
    radius_consensus_swap,
    rs_consensus_ham_mixed,
    rs_consensus_swap,
    sh_radius,
    solve,
    sum_consensus_swap,
    swap_distance,
    swap_string,
)

TANGLED_LONG = (
    "abgabcahidabdefeda",
    "bagcaabihdabefddea",
    "bagcabaihdbaefdeda",
)
TANGLED_SHORT = ("gabcahi", "gcaabih", "gcabaih")


def check_trace(inst: Instance, answer, trace: SwapPipelineTrace) -> None:
    dz = trace.disentanglement
    assert dz.encoded[0].popcount == 0, "first encoding must be all zeros"
    union = {p for h in dz.encoded for p in h.ones()}
    for p in union:
        assert p + 1 not in union, "encoded swap positions must not be adjacent"
    assert set(trace.h_star.ones()) <= union
    assert trace.decoded == apply_swaps(dz.strings_prime[0], trace.h_star)
    if answer.feasible:
        assert answer.solution == trace.decoded
        for w, x, h, dist in zip(
            inst.words, dz.budgets, dz.encoded, answer.per_string_distances
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
        assert [h.bits for h in trace.disentanglement.encoded] == [
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


def test_trace_encoding_is_the_certified_one():
    # The pipeline solves on the swap strings disentangle certified, with
    # no second encoding pass.
    rng = random.Random(503)
    checked = 0
    for words in [TANGLED_SHORT, TANGLED_LONG] + [random_words(rng) for _ in range(200)]:
        inst = Instance(words)
        dz = disentangle(inst)
        if isinstance(dz, Infeasible):
            continue
        base = dz.strings_prime[0]
        assert dz.encoded == tuple(swap_string(base, w) for w in dz.strings_prime)
        _, trace = sum_consensus_swap(inst)
        assert trace.disentanglement == dz
        checked += 1
    assert checked > 40


def test_bit_stage_sees_the_dirty_bit_columns_only(monkeypatch):
    # A bit column is dirty where some encoding holds a one. The Hamming
    # solvers get rows only that wide (no bit stage runs when none is
    # dirty), and the answers are still the certified ones.
    widths: list[int] = []

    def spy(name, instance_of):
        real = getattr(hamming, name)

        def logged(arg):
            widths.append(instance_of(arg).n)
            return real(arg)

        monkeypatch.setattr(hamming, name, logged)

    spy("sum_consensus_ham", lambda inst: inst)
    spy("radius_consensus_ham_mixed", lambda q: q.budgeted.instance)
    spy("rs_consensus_ham_mixed", lambda q: q.budgeted.instance)
    rng = random.Random(504)
    cut = 0
    for _ in range(60):
        centre = "".join(rng.choice("abc") for _ in range(rng.randint(2, 40)))
        words = []
        for _ in range(rng.randint(1, 6)):  # proper swap sets on one centre
            bits: list[str] = []
            for p in range(len(centre) - 1):
                can = (not bits or bits[-1] == "0") and centre[p] != centre[p + 1]
                bits.append("1" if can and rng.random() < 0.1 else "0")
            words.append(ref.apply_bits(centre, "".join(bits)))
        inst = Instance(tuple(words))
        dz = disentangle(inst)
        dirty = {p for h in dz.encoded for p in h.ones()}
        for solver, args in (
            (sum_consensus_swap, ()),
            (radius_consensus_swap, (len(centre),)),
            (rs_consensus_swap, (len(centre), len(centre) * len(words))),
        ):
            widths.clear()
            ans, trace = solver(inst, *args)
            assert ans.feasible
            check_trace(inst, ans, trace)
            assert widths == ([len(dirty)] if dirty else [])
            cut += inst.n - 1 > len(dirty)
    assert cut > 100


def test_elapsed_covers_early_exits(monkeypatch):
    # stats.elapsed times the whole call, so answers that stop right after
    # disentanglement or a budget precheck still report their time, and so
    # do root distances and the certification of a witness.
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
    over = BudgetedInstance(Instance(("ab", "ba")), (2, 0))
    for ans in (
        radius_consensus_ham_mixed(MixedRadiusQuery(over, 1)),
        rs_consensus_ham_mixed(MixedRadiusSumQuery(over, 1, 5)),
    ):
        assert ans.reason == "word 1 has consumed budget 2 > d=1"
        assert ans.stats.elapsed > 0
    inst = Instance(("abcab", "abcba", "bbcab"))
    zero = BudgetedInstance(inst, (0, 0, 0))
    radius_q, rs_q = MixedRadiusQuery(zero, 2), MixedRadiusSumQuery(zero, 2, 4)
    for module, name, call in (
        (hamming, "hamming_distance", lambda: radius_consensus_ham_mixed(radius_q)),
        (hamming, "hamming_distance", lambda: rs_consensus_ham_mixed(rs_q)),
        (sh_radius, "sh_cost", lambda: radius_consensus_sh(inst, 1)),
    ):
        with monkeypatch.context() as patch:
            calls = slow_calls(patch, module, name, 0.002)
            ans = call()
        assert ans.feasible and calls
        assert ans.stats.elapsed >= 0.002 * len(calls), (name, len(calls))


class TestCertification:
    def test_distances_must_be_budget_plus_encoded_hamming(self, monkeypatch):
        monkeypatch.setattr(pipeline, "swap_distance", lambda s, t: 5)
        with pytest.raises(CertificationFailure, match="word 1: recomputed swap"):
            sum_consensus_swap(Instance(("ab", "ba")))

    def test_witness_must_meet_the_bounds(self, monkeypatch):
        # A bit stage that ignores d returns the sum optimum "ab", which is
        # one swap from "ba": beyond radius 0.
        def rogue(metric, objective, rows, d, D, budgets):
            return solve(metric, "sum", rows, None, None, budgets)

        monkeypatch.setattr(pipeline, "solve", rogue)
        with pytest.raises(CertificationFailure, match=r"^word 2: recomputed distance 1 > slack 0$"):
            radius_consensus_swap(Instance(("ab", "ba")), 0)

    def test_distances_are_checked_against_the_bit_stage(self, monkeypatch):
        # The certificate compares each recomputed swap distance with the
        # bit stage's budget + Hamming distance, so a bit stage that
        # misreports one distance is caught, and the message stays in
        # whole numbers. Word 1 has budget 1 and swap distance 2.
        def misreport(*args):
            ans, detail = solve(*args)
            dists = (ans.per_string_distances[0] + 1,) + ans.per_string_distances[1:]
            return ConsensusAnswer.found(ans.solution, dists, ans.stats), detail

        monkeypatch.setattr(pipeline, "solve", misreport)
        with pytest.raises(
            CertificationFailure,
            match=r"^word 1: recomputed swap distance 2 != budget 1 \+ encoded Hamming 2$",
        ):
            radius_consensus_swap(Instance(TANGLED_SHORT), 2)
