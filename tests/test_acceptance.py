"""End-to-end acceptance checks, one test per delivery requirement.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per requirement: the two worked walkthroughs, the recorded prefix table,
the distance anchors, brute-force agreement for every solver, the invariant
sweeps, a scaling smoke test, the padding equivalence, and the node counts
of both radius trees against the paper's FPT claim.
"""

from __future__ import annotations

import math
import random
import statistics
from collections import Counter
from time import perf_counter

import reference as ref
from conftest import best_of, random_words
from reference import Blocked, Matching, pad_mixed, swap_set, three_way_match, xor_compose
from swapsensus import (
    INF,
    BudgetedInstance,
    Instance,
    MixedRadiusQuery,
    MixedRadiusSumQuery,
    OracleQuery,
    Radius,
    RadiusSum,
    Sum,
    SwapStr,
    apply_swaps,
    brute_force,
    disentangle,
    dollar_pad,
    gen_planted,
    hamming_distance,
    radius_consensus_ham_mixed,
    radius_consensus_sh,
    radius_consensus_swap,
    sh_cost,
    solve,
    sum_consensus_sh,
    swap_distance,
    swap_string,
)

# Shared seed for the randomized agreement sweeps; test 08 replays the very
# same instance stream as test 05.
SWEEP_SEED = 20260816

WALK_WORDS = (
    "abgabcahidabdefeda",
    "bagcaabihdabefddea",
    "bagcabaihdbaefdeda",
)
WALK_PRIME = (
    "abgacbahidabedfeda",
    "bagacbaihdabedfdea",
    "bagacbaihdbaedfeda",
)
WALK_ENCODED = [
    "00000000000000000",
    "10000001000000010",
    "10000001001000000",
]
WALK_H_STAR = "10000001000000000"
WALK_WITNESS = "bagacbaihdabedfeda"

# Recorded reference states for the three-word prefix-table example, as
# (row, swap members, prefix) keys.
#
# Erratum: the row-2 cell for member set {3} was first recorded as "abc".
# That prefix cannot hold key (2, {3}): it equals word 3's own length-3
# prefix, so word 3's greedy trace against it is empty and
# swap_set(inst, "abc", 2) is the empty set. Over {a, b, c} the length-3
# prefixes whose swap set at position 2 is exactly {3} are "acb", "bcb" and
# "ccb", with summed swap+substitution distances 4, 5 and 5 to the input
# prefixes (bab, cab, abc). So the cell holds "acb" at cost 4: two
# substitutions against "bab" plus one swap each against "cab" and "abc".
# test_sh_sum.EXPECTED_TABLE, verified by hand, records the same state. The
# other eleven cells are as first recorded; test_03 re-derives every cell
# from the definition before comparing the solver with it.
RECORDED_TABLE = {
    (0, (), "a"),
    (1, (), "aa"),
    (1, (1,), "ab"),
    (1, (2,), "ac"),
    (1, (3,), "ba"),
    (2, (), "bab"),
    (2, (2,), "aba"),
    (2, (3,), "acb"),
    (3, (), "baba"),
    (3, (1,), "abab"),
    (3, (2,), "bacb"),
    (3, (3,), "abac"),
}


def draw_query_params(rng: random.Random, k: int):
    """One draw of (d, D, radius budgets, radius+sum budgets).

    Tests 05 and 08 must consume the random stream identically so they see
    the same instances, hence a single shared helper.
    """
    d = rng.randint(0, 3)
    big_d = rng.randint(0, 8)
    r_budgets = tuple(rng.randint(0, d) for _ in range(k))
    rs_budgets = []
    left = big_d
    for _ in range(k):
        b = rng.randint(0, min(d, left))
        rs_budgets.append(b)
        left -= b
    return d, big_d, r_budgets, tuple(rs_budgets)


def test_01_radius_pipeline_walkthrough():
    inst = Instance(WALK_WORDS)
    start = perf_counter()
    ans, trace = radius_consensus_swap(inst, 4)
    elapsed = perf_counter() - start
    assert ans.feasible
    assert ans.solution == WALK_WITNESS
    assert ans.per_string_distances == (4, 4, 3)
    assert trace.disentanglement.strings_prime == WALK_PRIME
    assert [h.bits for h in trace.disentanglement.encoded] == WALK_ENCODED
    assert trace.h_star.bits == WALK_H_STAR
    assert elapsed < 1.0, f"solve took {elapsed:.3f}s, bound is 1s"


def test_02_disentangle_walkthrough():
    inst = Instance(("gabcahi", "gcaabih", "gcabaih"))
    elapsed, dz = best_of(5, lambda: disentangle(inst))
    assert dz.strings_prime == ("gacbahi", "gacbaih", "gacbaih")
    assert dz.budgets == (1, 2, 1)
    assert dz.total == 4
    assert len(dz.tangled_intervals) == 1
    assert elapsed < 0.010, f"disentangle took {elapsed * 1000:.2f}ms, bound is 10ms"


def best_prefixes_by_swap_set(inst: Instance, row: int) -> dict:
    """Cheapest, then lexicographically least, prefix of each swap set at ``row``.

    Enumerates every word of length row+1 over the instance alphabet, keys it
    by its swap set at 1-based position ``row`` (row 0 has no members), and
    scores it by its summed exhaustive swap+substitution distance to the input
    prefixes. Shares no code with the prefix-table solver. Maps the sorted
    member tuple to (cost, prefix).
    """
    length = row + 1
    best: dict[tuple[int, ...], tuple[int, str]] = {}
    for t in ref.all_words("".join(inst.alphabet), length):
        members = tuple(sorted(swap_set(inst, t, row))) if row else ()
        cost = sum(ref.exhaustive_sh_distance(w[:length], t) for w in inst.words)
        if members not in best or (cost, t) < best[members]:
            best[members] = (cost, t)
    return best


def test_03_prefix_table_walkthrough():
    inst = Instance(("baba", "cabc", "abca"))
    # The fixture must itself follow from the definition, independently of
    # the solver it is compared with below.
    optima = {row: best_prefixes_by_swap_set(inst, row) for row in range(inst.n)}
    for cell in sorted(RECORDED_TABLE):
        row, members, prefix = cell
        if row:
            got = tuple(sorted(swap_set(inst, prefix, row)))
            assert got == members, f"cell {cell}: swap set of {prefix!r} is {got}"
        else:
            assert members == (), f"cell {cell}: row 0 has no swap members"
        want = optima[row].get(members)
        assert want is not None and want[1] == prefix, (
            f"cell {cell}: the best prefix with this swap set is {want}"
        )
    elapsed, (ans, table) = best_of(5, lambda: sum_consensus_sh(inst))
    assert ans.feasible
    assert ans.solution == "baba"
    assert ans.sum_distance == 4
    assert len(table) == 12
    assert elapsed < 0.010, f"solve took {elapsed * 1000:.2f}ms, bound is 10ms"
    stored = {(s.row, s.swap_members, s.prefix) for s in table}
    assert stored == RECORDED_TABLE


def test_04_distance_anchors():
    assert swap_distance("abab", "baba") == 2
    assert swap_string("abab", "baba").bits == "101"
    assert swap_distance("abcd", "badc") == 2
    assert swap_distance("abc", "bca") == INF
    assert swap_string("ababc", "babac").bits == "1010"
    assert swap_string("babac", "abbca").bits == "1001"
    assert swap_string("abbac", "ababc").bits == "0010"
    assert apply_swaps("abbac", SwapStr("0010", 5)) == "ababc"
    assert swap_string("abbac", "abbca").bits == "0001"
    composed = xor_compose(
        swap_string("ababc", "babac"), swap_string("babac", "abbca")
    )
    assert composed == "0011"


# Every (metric, objective) pair that ``solve`` answers, with the distance
# that certifies its witness.
SWEEP_PAIRS = (
    ("swap", "sum", swap_distance),
    ("swap", "radius", swap_distance),
    ("swap", "radius-sum", swap_distance),
    ("swap-hamming", "sum", sh_cost),
    ("swap-hamming", "radius", sh_cost),
    ("hamming", "sum", hamming_distance),
    ("hamming", "radius", hamming_distance),
    ("hamming", "radius-sum", hamming_distance),
)


def test_05_solvers_agree_with_brute_force():
    rng = random.Random(SWEEP_SEED)
    start = perf_counter()
    for trial in range(1000):
        inst = Instance(random_words(rng))
        d, big_d, r_budgets, rs_budgets = draw_query_params(rng, inst.k)
        # objective -> (bounds, the oracle's objective, Hamming budgets)
        queries = {
            "sum": ((), Sum(), None),
            "radius": ((d,), Radius(d), r_budgets),
            "radius-sum": ((d, big_d), RadiusSum(d, big_d), rs_budgets),
        }
        feasible = {}
        for metric, objective, dist in SWEEP_PAIRS:
            bounds, target, budgets = queries[objective]
            if metric != "hamming":
                budgets = None
            ctx = (trial, inst.words, metric, objective, d, big_d, budgets)
            got, _ = solve(metric, objective, inst, *bounds, budgets=budgets)
            want = brute_force(OracleQuery(inst, metric, target, budgets))
            assert got.feasible == want.feasible, ctx
            feasible[metric, objective] = got.feasible
            if not got.feasible:
                continue
            # Hamming answers include the budgets, as the oracle's do.
            dists = [
                x + dist(w, got.solution)
                for w, x in zip(inst.words, budgets or (0,) * inst.k)
            ]
            assert list(got.per_string_distances) == dists, ctx
            if objective != "sum":
                assert max(dists) <= d, ctx
            if objective != "radius":
                assert got.sum_distance == want.sum_distance, ctx

        padded, pad_d = pad_mixed(
            MixedRadiusQuery(BudgetedInstance(inst, r_budgets), d)
        )
        plain, _ = solve("hamming", "radius", padded, pad_d)
        assert plain.feasible == feasible["hamming", "radius"], (trial, r_budgets)
        padded, pad_d, pad_sum = pad_mixed(
            MixedRadiusSumQuery(BudgetedInstance(inst, rs_budgets), d, big_d)
        )
        plain, _ = solve("hamming", "radius-sum", padded, pad_d, pad_sum)
        assert plain.feasible == feasible["hamming", "radius-sum"], (trial, rs_budgets)
    elapsed = perf_counter() - start
    assert elapsed < 300.0, f"sweep took {elapsed:.0f}s, bound is 300s"


def test_06_invariant_sweeps():
    rng = random.Random(606)

    # Sandwich against mismatch count, the weakened triangle bound, and the
    # bound behind the swap+substitution tree's prune: t's optimal swaps for
    # u, applied to s, cost no more than t's plus one per mismatch of s and t.
    for _ in range(10_000):
        n = rng.randint(1, 8)
        s = "".join(rng.choice("abc") for _ in range(n))
        t = "".join(rng.choice("abc") for _ in range(n))
        u = "".join(rng.choice("abc") for _ in range(n))
        mism = sum(1 for a, b in zip(s, t) if a != b)
        st = sh_cost(s, t)
        assert st <= mism <= 2 * st, (s, t)
        tu = sh_cost(t, u)
        su = sh_cost(s, u)
        assert su <= min(2 * st + tu, st + 2 * tu), (s, t, u)
        assert su <= mism + tu, (s, t, u)

    # Reachable-state bound on every prefix-table run: row 0 is one swap-free
    # state, later rows hold at most k states with swaps plus one without.
    for _ in range(300):
        inst = Instance(random_words(rng))
        _, table = sum_consensus_sh(inst)
        with_members = Counter(s.row for s in table if s.swap_members)
        for row, count in with_members.items():
            assert count <= (inst.k if row else 0), inst.words
        per_row = Counter(s.row for s in table)
        for row, count in per_row.items():
            assert count <= (inst.k if row else 0) + 1, inst.words

    # Swap-string round trip, and prefix multisets agree exactly at zero bits.
    for _ in range(10_000):
        n = rng.randint(2, 12)
        s = "".join(rng.choice("abcd") for _ in range(n))
        bits = _random_proper_bits(rng, s)
        t = apply_swaps(s, SwapStr(bits, n))
        assert swap_string(s, t).bits == bits, (s, bits)
        seen_s: Counter[str] = Counter()
        seen_t: Counter[str] = Counter()
        for p in range(n - 1):
            seen_s[s[p]] += 1
            seen_t[t[p]] += 1
            assert (bits[p] == "0") == (seen_s == seen_t), (s, bits, p)

    # Blocked three-way verdicts are confirmed exhaustively.
    blocked_seen = 0
    for _ in range(400):
        n = rng.randint(3, 8)
        s1 = "".join(rng.choice("ab") for _ in range(n))
        s2 = apply_swaps(s1, SwapStr(_random_proper_bits(rng, s1), n))
        s3 = apply_swaps(s2, SwapStr(_random_proper_bits(rng, s2), n))
        verdict = three_way_match(s1, s2, s3)
        exhaustive = ref.exhaustive_swap_distance(s1, s3)
        if isinstance(verdict, Matching):
            assert exhaustive == verdict.h.popcount, (s1, s2, s3)
            assert apply_swaps(s1, verdict.h) == s3, (s1, s2, s3)
        else:
            assert isinstance(verdict, Blocked)
            blocked_seen += 1
            assert exhaustive is None, (s1, s2, s3)
    assert blocked_seen > 0


def test_07_sum_solver_scaling():
    # Measured slopes on a 2-vCPU host: 0.88-0.95 when idle, up to 1.51 with
    # two test suites running beside it; a solver quadratic in n gives about 2.
    sizes = (50, 100, 200, 400)
    times = []
    for n in sizes:
        inst, _ = gen_planted(97, n, 3, 3, 5)
        elapsed, _ = best_of(3, lambda: sum_consensus_sh(inst))
        times.append(max(elapsed, 1e-6))
    fit = statistics.linear_regression(
        [math.log(n) for n in sizes], [math.log(t) for t in times]
    )
    assert fit.slope <= 2.0, f"log-log slope {fit.slope:.2f} exceeds 2.0 ({times})"


def test_08_padding_equivalence():
    rng = random.Random(SWEEP_SEED)
    feasible_seen = 0
    for trial in range(1000):
        inst = Instance(random_words(rng))
        d, _, _, _ = draw_query_params(rng, inst.k)
        padded = dollar_pad(inst)
        via_pad, _ = solve("swap-hamming", "radius", padded, d)
        plain, _ = solve("hamming", "radius", inst, d)
        assert via_pad.feasible == plain.feasible, (trial, inst.words, d)
        feasible_seen += via_pad.feasible
    assert 0 < feasible_seen < 1000


def test_09_radius_trees_are_fpt_in_d():
    # Node counts are deterministic, so this checks the paper's FPT claim on
    # counters, not on wall time: the trees' sizes are bounded by functions
    # of d alone, and the swap+substitution tree's does not grow with n or k.
    ns = (25, 50, 100, 200, 400, 800)
    ks = (4, 8, 16, 32, 64)
    sh_nodes = {}
    for d in (2, 3):
        ham_bound = sum((d + 1) ** i for i in range(d + 1))
        sh_bound = sum((6 * d) ** i for i in range(2 * d + 1))
        for n in ns:
            for k in ks:
                for seed in range(6):
                    inst, _ = gen_planted(seed, n, k, 4, 3)
                    zero = BudgetedInstance(inst, (0,) * k)
                    ham = radius_consensus_ham_mixed(MixedRadiusQuery(zero, d))
                    sh = radius_consensus_sh(inst, d)
                    assert ham.stats.nodes_expanded <= ham_bound, (d, n, k, seed)
                    assert sh.stats.nodes_expanded <= sh_bound, (d, n, k, seed)
                    sh_nodes[n, k, d, seed] = sh.stats.nodes_expanded
    for axis, values in ((0, ns), (1, ks)):
        medians = [
            statistics.median(v for key, v in sh_nodes.items() if key[axis] == x)
            for x in values
        ]
        fit = statistics.linear_regression(
            [math.log(x) for x in values], [math.log(m) for m in medians]
        )
        assert abs(fit.slope) <= 0.5, (axis, fit.slope, medians)


def _random_proper_bits(rng: random.Random, s: str) -> str:
    bits: list[str] = []
    for p in range(len(s) - 1):
        can = (not bits or bits[-1] == "0") and s[p] != s[p + 1]
        bits.append("1" if can and rng.random() < 0.4 else "0")
    return "".join(bits)
