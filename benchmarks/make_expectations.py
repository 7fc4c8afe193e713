"""Record the optimal values the benchmark checks large answers against.

Run from the repository root:

    python3 benchmarks/make_expectations.py

It first cross-checks every query kind against ``brute_force`` on small
instances drawn by the same generators, with the independent checker's
distance functions confirming every witness. Only if all of that agrees does
it solve the benchmark's pools (too large for the oracle) and write their
thresholds to ``benchmarks/expectations.json``.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from swapsensus import (  # noqa: E402
    BudgetedInstance,
    Infeasible,
    Instance,
    MixedRadiusQuery,
    MixedRadiusSumQuery,
    disentangle,
    gen_planted,
    radius_consensus_ham_mixed,
    radius_consensus_sh,
    radius_consensus_swap,
    rs_consensus_ham_mixed,
    rs_consensus_swap,
    sum_consensus_sh,
    sum_consensus_swap,
)

import check  # noqa: E402
import workloads as wl  # noqa: E402

BIG = 10**9


def _total(answer, metric: str, words: tuple[str, ...]) -> int:
    """The witness's total, recomputed by the checker's own distance."""
    dist = check.DISTANCES[metric]
    total = sum(dist(w, answer.solution) for w in words)
    if total != answer.sum_distance:
        raise SystemExit(f"reported total {answer.sum_distance} != recomputed {total}")
    return int(total)


def swap_thresholds(words: tuple[str, ...]) -> dict:
    inst = Instance(words)
    dz = disentangle(inst)
    if isinstance(dz, Infeasible):
        return {"match": False}
    r = max(dz.budgets)
    while not radius_consensus_swap(inst, r)[0].feasible:
        r += 1
    s = _total(sum_consensus_swap(inst)[0], "swap", words)
    rs = _total(rs_consensus_swap(inst, r, BIG)[0], "swap", words)
    return {"radius": r, "sum": s, "rs": rs}


def sh_sum_thresholds(words: tuple[str, ...]) -> dict:
    return {"sum": _total(sum_consensus_sh(Instance(words))[0], "sh", words)}


def sh_radius_thresholds(words: tuple[str, ...], ops: int) -> dict:
    inst = Instance(words)
    r = next(d for d in range(ops + 1) if radius_consensus_sh(inst, d).feasible)
    return {"radius": r}


def _ham(words):
    return BudgetedInstance(Instance(words), (0,) * len(words))


def ham_thresholds(words: tuple[str, ...]) -> dict:
    r = 0
    while not radius_consensus_ham_mixed(MixedRadiusQuery(_ham(words), r)).feasible:
        r += 1
    ans = rs_consensus_ham_mixed(MixedRadiusSumQuery(_ham(words), r, BIG))
    return {"radius": r, "rs": _total(ans, "ham", words)}


def cross_check(trials: int = 40) -> None:
    """Every threshold kind agrees with brute force on small instances."""
    rng = random.Random(20260816)
    for t in range(trials):
        sigma = rng.choice((3, 4))
        for family, gen, n, sig in (
            ("planted", wl.gen_swap_planted, 7, sigma),
            ("nomatch", wl.gen_nomatch, 7, sigma),
            ("late", wl.gen_late_conflict, 10, 3),
        ):
            words, centre = gen(rng, n, rng.randint(3, 4), sig, 2)
            got, want = swap_thresholds(words), wl.oracle_thresholds(words, "swap")
            assert got == want, (family, words, got, want)
            if family == "planted":
                check.check_planted(words, centre, 2)
            else:
                assert want == {"match": False}, (family, words, want)
        inst, _ = gen_planted(rng.randrange(2**31), rng.randint(4, 7), rng.randint(2, 4), 3, 2)
        w = inst.words
        want_sh, want_ham = wl.oracle_thresholds(w, "sh"), wl.oracle_thresholds(w, "ham")
        assert sh_sum_thresholds(w)["sum"] == want_sh["sum"], w
        assert sh_radius_thresholds(w, len(w[0]))["radius"] == want_sh["radius"], w
        assert ham_thresholds(w) == {"radius": want_ham["radius"], "rs": want_ham["rs"]}, w
        padded = Instance(tuple("$".join(x) for x in w))
        for d in (1, 2):
            assert radius_consensus_sh(padded, d).feasible == (want_ham["radius"] <= d), w
    print(f"cross-check: {trials} rounds agree with brute_force", flush=True)


def main() -> None:
    cross_check()
    out: dict[str, dict] = {}
    for name, build in wl.POOLS.items():
        for cell in build():
            for base in cell:
                kind = base.kind
                if name == "swap-wide":
                    got = swap_thresholds(base.words)
                    assert (got == {"match": False}) == (kind in ("nomatch", "late")), base.bid
                    if "radius" in got:
                        assert 1 <= got["radius"] <= base.ops, base.bid
                elif name == "sh-sum":
                    got = sh_sum_thresholds(base.words)
                elif kind == "shrad":
                    got = sh_radius_thresholds(base.words, base.ops)
                elif kind == "ham":
                    got = ham_thresholds(base.words)
                    assert got["radius"] >= 1, base.bid
                else:
                    continue  # padded instances are settled by brute force
                out[base.bid] = {"digest": base.digest, **got}
        print(f"{name}: thresholds recorded", flush=True)
    path = HERE / "expectations.json"
    path.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(out)} entries to {path}")


if __name__ == "__main__":
    main()
