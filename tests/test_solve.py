"""The solve table versus the brute-force oracle, entry by entry."""

from __future__ import annotations

import math
import random
import statistics

import pytest

from conftest import random_instance
from swapsensus import (
    BudgetedInstance,
    CertificationFailure,
    Instance,
    InvalidQuery,
    MixedRadiusSumQuery,
    OracleQuery,
    Radius,
    RadiusSum,
    Sum,
    brute_force,
    gen_planted,
    hamming_distance,
    radius_consensus_swap,
    rs_consensus_ham_mixed,
    rs_consensus_swap,
    sh_cost,
    solve,
    sum_consensus_sh,
    sum_consensus_swap,
    swap_distance,
)
from swapsensus import hamming

ENTRIES = [
    ("hamming", "radius"),
    ("hamming", "sum"),
    ("hamming", "radius-sum"),
    ("swap", "radius"),
    ("swap", "sum"),
    ("swap", "radius-sum"),
    ("swap-hamming", "radius"),
    ("swap-hamming", "sum"),
]

DISTANCE = {"hamming": hamming_distance, "swap": swap_distance, "swap-hamming": sh_cost}


@pytest.mark.parametrize("metric,objective", ENTRIES)
def test_entry_agrees_with_brute_force(metric, objective):
    rng = random.Random(f"solve {metric} {objective}")
    verdicts = set()
    for _ in range(400):
        inst = random_instance(rng)
        d = rng.randint(0, 3) if objective != "sum" else None
        if objective == "radius-sum":
            D: int | None = rng.randint(0, 8)
        elif objective == "sum":
            D = rng.choice((None, rng.randint(0, 8)))
        else:
            D = None
        budgets = (
            tuple(rng.randint(0, 2) for _ in range(inst.k)) if metric == "hamming" else None
        )
        answer, _ = solve(metric, objective, inst, d, D, budgets)

        obj = {"radius": Radius(d), "sum": Sum(), "radius-sum": RadiusSum(d, D)}[objective]
        ref = brute_force(OracleQuery(inst, metric, obj, budgets))
        expect = ref.feasible and (D is None or ref.sum_distance <= D)
        where = (inst.words, d, D, budgets)
        assert answer.feasible == expect, where
        verdicts.add(expect)
        if not expect:
            continue
        offsets = budgets or (0,) * inst.k
        assert all(type(x) is float for x in answer.per_string_distances), where
        assert answer.per_string_distances == tuple(
            x + DISTANCE[metric](w, answer.solution) for w, x in zip(inst.words, offsets)
        ), where
        if objective != "sum":
            assert answer.max_distance <= d, where
        if objective != "radius":
            assert answer.sum_distance == ref.sum_distance, where
    assert verdicts == {True, False}


def test_open_problem_and_misuse_raise():
    inst = Instance(("ab", "ba"))
    with pytest.raises(ValueError):
        solve("swap-hamming", "radius-sum", inst, 1, 2)
    with pytest.raises(ValueError):
        solve("swap", "radius", inst, 1, budgets=(0, 0))
    with pytest.raises(ValueError):
        solve("hamming", "radius", inst)
    with pytest.raises(ValueError):
        solve("hamming", "radius-sum", inst, 1)
    with pytest.raises(ValueError):
        solve("hamming", "sum", inst, 1)
    with pytest.raises(ValueError):
        solve("hamming", "radius", inst, 1, 2)


@pytest.mark.parametrize("metric,objective", ENTRIES)
def test_negative_bound_is_an_invalid_query(metric, objective):
    # Not an infeasible answer: the question itself is malformed.
    bounds = {
        "radius": [(-1, None, "-d must be non-negative")],
        "sum": [(None, -1, "-D must be non-negative")],
        "radius-sum": [
            (-1, 1, "-d must be non-negative"),
            (1, -1, "-D must be non-negative"),
        ],
    }[objective]
    for d, D, message in bounds:
        with pytest.raises(InvalidQuery) as excinfo:
            solve(metric, objective, Instance(("ab", "ba")), d, D)
        assert str(excinfo.value) == message


AB_BA = Instance(("ab", "ba"))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: radius_consensus_swap(AB_BA, -1), "-d must be non-negative"),
        (lambda: sum_consensus_swap(AB_BA, -1), "-D must be non-negative"),
        (lambda: rs_consensus_swap(AB_BA, 1, -1), "-D must be non-negative"),
        (lambda: sum_consensus_sh(AB_BA, -1), "-D must be non-negative"),
        (
            lambda: brute_force(OracleQuery(AB_BA, "hamming", Radius(-1))),
            "-d must be non-negative",
        ),
    ],
    ids=["swap-radius", "swap-sum", "swap-radius-sum", "sh-sum", "oracle"],
)
def test_entry_points_reject_a_negative_bound(call, message):
    # Called directly, each entry point checks its bounds as solve does.
    with pytest.raises(InvalidQuery) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_query_errors_carry_the_cli_messages():
    inst = Instance(("ab", "ba"))
    for args, kwargs, message in [
        (("swap-hamming", "radius-sum", inst, 1, 2), {}, "unsupported: open problem"),
        (("swap", "hamming", inst), {}, "no solver for swap hamming consensus"),
        (("hamming", "radius", inst), {}, "--objective radius requires -d"),
        (("hamming", "radius-sum", inst, 1), {}, "--objective radius-sum requires -D"),
        (("hamming", "radius", inst, 1, 2), {}, "-D is not valid with --objective radius"),
        (("hamming", "sum", inst, 1), {}, "-d is not valid with --objective sum"),
        (
            ("swap", "radius", inst, 1),
            {"budgets": (0, 0)},
            "--budgets is only supported with --distance hamming",
        ),
    ]:
        with pytest.raises(InvalidQuery) as excinfo:
            solve(*args, **kwargs)
        assert str(excinfo.value) == message


def test_detail_shapes():
    inst = Instance(("abab", "baba"))
    _, trace = solve("swap", "radius", inst, 1)
    assert trace.decoded == "baab"
    _, early_exit = solve("swap", "radius", Instance(("ab", "cd")), 1)
    assert early_exit is None
    _, table = solve("swap-hamming", "sum", inst)
    assert {"abab", "baba"} & {state.prefix for state in table}
    assert solve("hamming", "sum", inst, D=4)[1] is None


def test_budgets_and_sum_decision():
    inst = Instance(("aa", "bb"))
    answer, _ = solve("hamming", "radius", inst, 2, budgets=(1, 0))
    assert answer.solution == "aa" and answer.per_string_distances == (1, 2)
    over, _ = solve("hamming", "radius", inst, 1, budgets=(3, 0))
    assert over.reason == "word 1 has consumed budget 3 > d=1"
    # The sum decision sees budget + Hamming per word: (1 + 0) + (2 + 2) = 5.
    no, _ = solve("hamming", "sum", inst, D=4, budgets=(1, 2))
    assert no.reason == "minimum distance sum is 5 > 4"
    yes, _ = solve("hamming", "sum", inst, D=5, budgets=(1, 2))
    assert yes.per_string_distances == (1, 4)


def test_hamming_answers_are_the_solvers_on_the_full_words():
    # solve hands every Hamming question to its solver on the full words,
    # clean columns included, and adds the budgets to the distances; the
    # answers agree with brute_force under the same budgets. Sum and
    # radius-sum both return the lex-min optimum, so their witnesses agree
    # too; the radius tree returns the first witness it finds.
    rng = random.Random(811)
    clean_seen = all_clean = 0
    for _ in range(400):
        n, k = rng.randint(1, 9), rng.randint(1, 5)
        centre = "".join(rng.choice("abc") for _ in range(n))
        words = tuple(
            "".join(c if rng.random() < 0.8 else rng.choice("abc") for c in centre)
            for _ in range(k)
        )
        inst = Instance(words)
        budgets = tuple(rng.randint(0, 1) for _ in range(k))
        d, D = rng.randint(0, 3), rng.randint(0, 3 * k)
        where = (words, budgets, d, D)
        # Within radius d every total is at most k * d, so this one query
        # finds the radius verdict and the radius-sum optimum for every D.
        near = brute_force(OracleQuery(inst, "hamming", RadiusSum(d, k * d), budgets))
        best = brute_force(OracleQuery(inst, "hamming", Sum(), budgets))
        radius, _ = solve("hamming", "radius", inst, d, None, budgets)
        rs, _ = solve("hamming", "radius-sum", inst, d, D, budgets)
        total, _ = solve("hamming", "sum", inst, None, None, budgets)
        assert radius.feasible == near.feasible, where
        assert rs.feasible == (near.feasible and near.sum_distance <= D), where
        assert total.feasible == best.feasible, where
        for ans, ref in ((rs, near), (total, best)):
            if ans.feasible:
                assert (ans.solution, ans.per_string_distances) == (
                    ref.solution, ref.per_string_distances), where
        clean = sum(len(set(col)) == 1 for col in zip(*words))
        clean_seen += 0 < clean < n
        all_clean += clean == n
    assert clean_seen > 100 and all_clean > 20


def test_a_rogue_symbol_in_a_clean_column_is_caught(monkeypatch):
    # The certificate runs on the words solve was given, so a search that
    # rewrites a column where every word agrees cannot slip past it.
    real_search = hamming._radius_search

    def rogue(words, *args):
        witness = list(real_search(words, *args))
        for p, col in enumerate(zip(*words)):
            if len(set(col)) == 1:
                witness[p] = "z"
        return "".join(witness)

    monkeypatch.setattr(hamming, "_radius_search", rogue)
    with pytest.raises(
        CertificationFailure, match=r"^word 2: recomputed distance 2 > slack 1$"
    ):
        solve("hamming", "radius", Instance(("ac", "bc")), 1)


def test_radius_sum_nodes_do_not_grow_with_n():
    # At fixed d and k, the radius-sum search's nodes are a function of the
    # dirty columns, not of n: clean columns add no search level, whether
    # the search is reached through solve or called directly.
    def direct(inst):
        zero = BudgetedInstance(inst, (0,) * inst.k)
        return rs_consensus_ham_mixed(MixedRadiusSumQuery(zero, 3, 24))

    def by_solve(inst):
        return solve("hamming", "radius-sum", inst, 3, 24)[0]

    ns = (25, 50, 100, 200, 400, 800)
    for call in (by_solve, direct):
        medians = []
        for n in ns:
            nodes = []
            for seed in range(6):
                inst, _ = gen_planted(seed, n, 8, 4, 3)
                nodes.append(call(inst).stats.nodes_expanded)
            medians.append(statistics.median(nodes))
        fit = statistics.linear_regression(
            [math.log(n) for n in ns], [math.log(m) for m in medians]
        )
        assert fit.slope <= 0.5, (call.__name__, fit.slope, medians)
