"""swapsensus benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root, with the package sources in ``src/``:

    python3 benchmarks/run.py --workload library --seed 1 --seconds 45 --trace 0

Workloads: library (solver calls from the swap-wide, sh-sum and
radius-search pools, mixed; each pool also runs alone under its own name) and
cli (one ``python -m swapsensus.cli`` child at a time). All load comes from
this one process: a closed loop with one caller. Every answer is checked by
``check.py``; README.md in this directory describes workloads and metrics.

``--trace 0`` makes passes over the seed's draw of at least MIN_OPS distinct
operations for ``--seconds`` of solve time and prints the end-to-end metrics.
``--trace 1`` solves every operation of the draw once untraced and once
traced, and the two pinned radius cases once, and prints the per-layer
metrics; its spans go to ``benchmarks/out/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

MIN_OPS = 100  # distinct operations, so that ten lie beyond the 90th percentile
MIN_RUNS, MAX_RUNS = 2, 10  # runs of each operation, for its best-of time
OP_BUDGET_S = 0.1  # an operation is repeated past MIN_RUNS until it used this much
SETUP_REPEATS = 7
PROBE_REPEATS = 5
CLI_BLOCKS = 4
CHILD_TIMEOUT_S = 60

LAYERS = ("core", "swaps", "sh_metric", "hamming", "disentangle", "pipeline",
          "sh_sum", "sh_radius", "oracle", "cli")


# ---------------------------------------------------------------- library


class Library:
    """Solver calls in this process, on the draw of one pool or of all three."""

    def __init__(self, name: str, seed: int, sw) -> None:
        self.sw = sw
        expect = json.loads((HERE / "expectations.json").read_text())
        self.queries: list[wl.Query] = []
        for pool, b in wl.draw(name, seed):
            e = expect.get(b.bid, {})
            if b.kind != "padded" and e.get("digest") != b.digest:
                raise SystemExit(f"error: {b.bid} differs from expectations.json")
            if b.kind not in ("nomatch", "late"):  # those two are built to have no match
                check.check_planted(
                    b.words, b.centre, b.ops, "swap" if pool == "swap-wide" else "sh")
            self.queries.extend(wl.queries_for(b, e))
        self.texts = list(dict.fromkeys(q.base.text for q in self.queries))
        self.verified: set = set()

    def parse(self) -> None:
        self.instances = {t: self.sw.parse_instance(t) for t in self.texts}

    def _solve(self, q: wl.Query, inst):
        sw, s = self.sw, q.solver
        if s == "swap-radius":
            return sw.radius_consensus_swap(inst, q.d)[0]
        if s == "swap-sum":
            return sw.sum_consensus_swap(inst, q.D)[0]
        if s == "swap-rs":
            return sw.rs_consensus_swap(inst, q.d, q.D)[0]
        if s == "sh-sum":
            return sw.sum_consensus_sh(inst, q.D)[0]
        if s == "sh-radius":
            return sw.radius_consensus_sh(inst, q.d)
        zero = sw.BudgetedInstance(inst, (0,) * inst.k)
        if s == "ham-radius":
            return sw.radius_consensus_ham_mixed(sw.MixedRadiusQuery(zero, q.d))
        return sw.rs_consensus_ham_mixed(sw.MixedRadiusSumQuery(zero, q.d, q.D))

    def _check(self, i: int, ans) -> str | None:
        key = (i, ans.feasible, ans.solution, ans.per_string_distances)
        if key in self.verified:
            return None
        q = self.queries[i]
        err = check.check_answer(
            q.base.words, q.metric, q.d, q.D, q.feasible, q.value,
            ans.feasible, ans.solution, ans.per_string_distances,
        )
        if err is None:
            self.verified.add(key)
        return err and f"{q.base.bid} {q.solver} d={q.d} D={q.D}: {err}"

    def run(self, i: int) -> tuple[float, bool | None, str | None]:
        q = self.queries[i]
        inst = self.instances[q.base.text]
        t0 = time.perf_counter()
        try:
            ans = self._solve(q, inst)
        except Exception as exc:  # a raising solver is a failed operation
            return time.perf_counter() - t0, None, f"{q.base.bid}: {exc!r}"
        dt = time.perf_counter() - t0
        return dt, ans.feasible, self._check(i, ans)

    # -- traced pass

    def install(self, tr: tracing.Tracer) -> None:
        from swapsensus import hamming, sh_radius, sh_sum

        self.tr = tr
        self.meters = {
            "sh_radius.sh_cost": tracing.CallMeter(sh_radius, "sh_cost", "sh_metric"),
            "sh_radius.hamming_distance": tracing.CallMeter(
                sh_radius, "hamming_distance", "hamming", distinct=True),
            "hamming.hamming_distance": tracing.CallMeter(hamming, "hamming_distance", "hamming"),
            "sh_sum.sh_cost": tracing.CallMeter(sh_sum, "sh_cost", "sh_metric"),
        }

    def run_traced(self, i: int) -> tuple[float, bool | None, str | None]:
        """One traced operation; the call meters are in place only meanwhile."""
        for m in self.meters.values():
            m.install()
        try:
            return self._run_traced(i)
        finally:
            for m in self.meters.values():
                m.remove()

    def _run_traced(self, i: int) -> tuple[float, bool | None, str | None]:
        q, tr, sw = self.queries[i], self.tr, self.sw
        tr.op = i
        inst = self.instances[q.base.text]
        layer = {"swap": "pipeline", "sh": "sh_sum" if q.solver == "sh-sum" else "sh_radius",
                 "ham": "hamming"}[q.metric]
        table = ()
        with tr.span(layer, q.solver) as sid:
            if q.solver == "sh-sum":
                ans, table = sw.sum_consensus_sh(inst, q.D)
            else:
                ans = self._solve(q, inst)
        dt = tr.duration(sid)
        if layer == "pipeline":
            self.meters["hamming.hamming_distance"].harvest()  # the replay measures it
            self._replay_pipeline(q, inst, sid)
        elif layer == "sh_sum":
            tr.attach(self.meters["sh_sum.sh_cost"], sid)
            tr.counts["sh_sum.dp_states"] += ans.stats.dp_states
            rows = Counter(st.row for st in table)
            tr.counts["sh_sum.max_row_states"] = max(
                tr.counts["sh_sum.max_row_states"], max(rows.values(), default=0))
        elif layer == "sh_radius":
            tr.attach(self.meters["sh_radius.sh_cost"], sid)
            _, _, distinct = tr.attach(self.meters["sh_radius.hamming_distance"], sid)
            tr.counts["sh_radius.nodes"] += ans.stats.nodes_expanded
            tr.counts["sh_radius.distinct"] += distinct
        else:
            self._count_hamming(ans, sid)
        return dt, ans.feasible, self._check(i, ans)

    def _count_hamming(self, ans, sid: int) -> None:
        self.tr.attach(self.meters["hamming.hamming_distance"], sid)
        self.tr.counts["hamming.nodes"] += ans.stats.nodes_expanded

    def _replay_pipeline(self, q: wl.Query, inst, parent: int) -> None:
        """Replay the swap pipeline's stages through public functions.

        The stage spans are children of the pipeline call's span, so the
        pipeline's self time is the call minus its replayed stages.
        """
        sw, tr = self.sw, self.tr
        with tr.span("disentangle", parent=parent):
            dz = sw.disentangle(inst)
        if isinstance(dz, sw.Infeasible):
            tr.counts["disentangle.infeasible"] += 1
            return
        if q.d is not None and max(dz.budgets) > q.d:
            return
        if q.solver == "swap-rs" and dz.total > q.D:
            return
        with tr.span("swaps", "encode", parent):
            base = dz.strings_prime[0]
            encoded = [sw.swap_string(base, w) for w in dz.strings_prime]
        rows = sw.Instance(tuple(h.bits for h in encoded))
        budgeted = sw.BudgetedInstance(rows, dz.budgets)
        with tr.span("hamming", q.solver, parent) as sid:
            if q.solver == "swap-sum":
                ham = sw.sum_consensus_ham(rows)
            elif q.solver == "swap-radius":
                ham = sw.radius_consensus_ham_mixed(sw.MixedRadiusQuery(budgeted, q.d))
            else:
                ham = sw.rs_consensus_ham_mixed(sw.MixedRadiusSumQuery(budgeted, q.d, q.D))
        self._count_hamming(ham, sid)
        if not ham.feasible:
            return
        with tr.span("swaps", "decode", parent):
            union = {i for h in encoded for i, b in enumerate(h.bits) if b == "1"}
            bits = "".join(b if i in union else "0" for i, b in enumerate(ham.solution))
            witness = sw.apply_swaps(base, sw.SwapStr(bits, len(base)))
        with tr.span("swaps", "certify", parent):
            for w in inst.words:
                sw.swap_distance(w, witness)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------- cli


def spawn(cmd: list[str], env: dict) -> tuple[float, int, int, str, str]:
    """Run one child to completion: wall seconds, exit code, peak RSS (KiB), out, err."""
    out_path, err_path = OUT / "child.out", OUT / "child.err"
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        dt = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return dt, proc.returncode, usage.ru_maxrss, out_path.read_text(), err_path.read_text()


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


class Cli:
    """The swapsensus command: one child process per operation."""

    METRIC_FLAG = {"swap": "swap", "sh": "swap-hamming", "ham": "hamming"}
    SOLVER_LAYER = {"swap": "pipeline", "ham": "hamming"}

    def __init__(self, seed: int, sw) -> None:
        self.sw = sw
        self.env = child_env()
        self.work = OUT / "cli"
        self.work.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        # (argv, expected exit code, output check, layer whose time it reports)
        self.queries: list[tuple[list[str], int, object, str]] = []
        self.texts: list[str] = []
        for b in range(CLI_BLOCKS):
            words: tuple[str, ...] = ()
            while len(set(words)) < 2:
                words, centre = wl.gen_swap_planted(
                    rng, rng.randint(6, 7), rng.randint(3, 4), 3, 2)
            check.check_planted(words, centre, 2)
            broken, _ = wl.gen_nomatch(rng, 6, 3, 3, 2)
            self._block(b, words, broken, rng.randrange(2**31))
        self.maxrss_kib = 0

    def _write(self, name: str, words: tuple[str, ...]) -> str:
        text = "\n".join(words) + "\n"
        self.texts.append(text)
        path = self.work / name
        path.write_text(text)
        return str(path)

    def _block(self, b: int, words: tuple[str, ...], broken: tuple[str, ...], gen_seed: int) -> None:
        path = self._write(f"words-{b}.txt", words)
        bad = self._write(f"broken-{b}.txt", broken)
        add = self.queries.append
        best = {m: wl.oracle_thresholds(words, m) for m in self.METRIC_FLAG}
        for metric, objectives in (("swap", ("radius", "sum", "radius-sum")),
                                   ("sh", ("radius", "sum")),
                                   ("ham", ("radius", "sum", "radius-sum"))):
            r, s, rs = best[metric]["radius"], best[metric]["sum"], best[metric]["rs"]
            for objective in objectives:
                layer = self.SOLVER_LAYER.get(metric) or (
                    "sh_sum" if objective == "sum" else "sh_radius")
                cases = {
                    "radius": ((r, None, True, None), (r - 1, None, False, None)),
                    "sum": ((None, None, True, s), (None, s - 1, False, None)),
                    "radius-sum": ((r, rs, True, rs), (r, rs - 1, False, None)),
                }[objective]
                for d, D, feasible, total in cases:
                    argv = ["consensus", "--distance", self.METRIC_FLAG[metric],
                            "--objective", objective]
                    argv += ["-d", str(d)] if d is not None else []
                    argv += ["-D", str(D)] if D is not None else []
                    add((argv + ["--output", "json", path], 0 if feasible else 1,
                         self._consensus(words, metric, d, D, feasible, total), layer))
        r = best["swap"]["radius"]
        add((["consensus", "--distance", "swap", "--objective", "radius", "-d", str(r), "--trace",
              "--output", "json", path], 0, self._consensus(words, "swap", r, None, True, None),
             "pipeline"))
        s = best["sh"]["sum"]
        add((["consensus", "--distance", "swap-hamming", "--objective", "sum", "--dump-table",
              "--output", "json", path], 0, self._consensus(words, "sh", None, None, True, s),
             "sh_sum"))
        add((["disentangle", "--output", "json", path], 0, self._disentangled(words), ""))
        add((["disentangle", "--output", "json", bad], 1,
             lambda p: None if p["status"] == "infeasible" else "expected infeasible", ""))
        for metric in ("swap", "sh", "ham"):
            add((["distance", "--metric", self.METRIC_FLAG[metric], "--output", "json",
                  words[0], words[1]], 0, self._distance(words[0], words[1], metric), ""))
        for metric, below in (("swap", 0), ("ham", 1)):  # one feasible, one infeasible
            d = best[metric]["radius"] - below
            ref = self.sw.brute_force(self.sw.OracleQuery(
                self.sw.Instance(words), self.METRIC_FLAG[metric], self.sw.Radius(d)))
            add((["oracle", "--metric", self.METRIC_FLAG[metric], "--objective", "radius",
                  "-d", str(d), "--output", "json", path], 0 if ref.feasible else 1,
                 self._oracle(words, metric, d, ref), "oracle"))
        out = str(self.work / f"gen-{b}.txt")
        add((["gen", "--seed", str(gen_seed), "-n", "8", "-k", "3", "--sigma", "3",
              "--ops-budget", "2", "--output", "json", out], 0, self._generated(out), ""))

    @staticmethod
    def _dists(p: dict):
        v = p.get("per_string_distances")
        return None if v is None else tuple(check.INF if x == "inf" else x for x in v)

    def _consensus(self, words, metric, d, D, feasible, total):
        def verify(p: dict) -> str | None:
            return check.check_answer(words, metric, d, D, feasible, total,
                                      p["status"] == "feasible", p["witness"], self._dists(p))
        return verify

    @staticmethod
    def _disentangled(words):
        def verify(p: dict) -> str | None:
            out, budgets = p["disentangled"], p["budgets"]
            if [check.swap(w, x) for w, x in zip(words, out)] != budgets:
                return "budgets differ from the swap distances to the disentangled words"
            if any(check.swap(out[0], x) == check.INF for x in out):
                return "disentangled words do not pairwise match"
            return None if p["necessary_total"] == sum(budgets) else "wrong necessary_total"
        return verify

    @staticmethod
    def _distance(s, t, metric):
        want = check.DISTANCES[metric](s, t)
        want = "inf" if want == check.INF else want

        def verify(p: dict) -> str | None:
            return None if p["distance"] == want else f"distance {p['distance']} != {want}"
        return verify

    def _oracle(self, words, metric, d, ref):
        def verify(p: dict) -> str | None:
            if p["witness"] != ref.solution:
                return f"oracle witness {p['witness']} != {ref.solution}"
            return check.check_answer(words, metric, d, None, ref.feasible, None,
                                      p["status"] == "feasible", p["witness"], self._dists(p))
        return verify

    @staticmethod
    def _generated(out: str):
        def verify(p: dict) -> str | None:
            words = Path(out).read_text().split()
            meta = json.loads(Path(out + ".meta.json").read_text())
            if len(words) != 3 or any(len(w) != 8 or set(w) - set("abc") for w in words):
                return f"generated instance has the wrong shape: {words}"
            check.check_planted(words, meta["center"], 2, "sh")
            return None
        return verify

    def parse(self) -> None:
        for t in self.texts:
            self.sw.parse_instance(t)

    def _call(self, i: int) -> tuple[float, int, dict | None, str | None]:
        argv, want_exit, verify, _ = self.queries[i]
        dt, code, rss, out, err = spawn(
            [sys.executable, "-m", "swapsensus.cli", *argv], self.env)
        self.maxrss_kib = max(self.maxrss_kib, rss)
        if code != want_exit:
            return dt, code, None, f"{' '.join(argv)}: exit {code}, expected {want_exit}: {err[-300:]}"
        try:
            payload = json.loads(out)
            problem = verify(payload)
        except (ValueError, KeyError, TypeError, AssertionError) as exc:
            return dt, code, None, f"{' '.join(argv)}: bad output {exc!r}"
        return dt, code, payload, problem and f"{' '.join(argv)}: {problem}"

    def run(self, i: int) -> tuple[float, bool | None, str | None]:
        dt, code, _, err = self._call(i)
        return dt, (code == 0 if code in (0, 1) else None), err

    def install(self, tr: tracing.Tracer) -> None:
        self.tr = tr

    def run_traced(self, i: int) -> tuple[float, bool | None, str | None]:
        tr, layer = self.tr, self.queries[i][3]
        tr.op = i
        with tr.span("cli", self.queries[i][0][0]) as sid:
            dt, code, payload, err = self._call(i)
        if payload is not None and layer:
            stats = payload["stats"]
            tr.aggregate(layer, stats["elapsed"], sid)
            tr.counts["oracle.enumerated"] += stats["oracle_enumerated"]
        return dt, (code == 0 if code in (0, 1) else None), err

    def probes(self) -> tuple[float, float]:
        """Best seconds of a bare interpreter and of importing swapsensus.cli.

        Best of PROBE_REPEATS, like the operations' own times.
        """
        code = ("import time; t = time.perf_counter(); import swapsensus.cli; "
                "print(time.perf_counter() - t)")
        bare = min(spawn([sys.executable, "-c", "pass"], self.env)[0]
                   for _ in range(PROBE_REPEATS))
        imported = min(float(spawn([sys.executable, "-c", code], self.env)[3])
                       for _ in range(PROBE_REPEATS))
        return bare, imported

    def peak_rss_mb(self) -> float:
        return self.maxrss_kib / 1024


# ---------------------------------------------------------------- measuring


def setup_seconds(texts: list[str], env: dict) -> float:
    """Median over fresh interpreters of first ``import swapsensus`` plus parsing."""
    path = OUT / "texts.json"
    path.write_text(json.dumps(texts))
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(path)]
    times = []
    for _ in range(SETUP_REPEATS):
        _, code, _, out, err = spawn(probe, env)
        if code != 0:
            raise SystemExit(f"error: setup probe failed: {err[-300:]}")
        times.append(float(out))
    return statistics.median(times)


def end_to_end(wk, args) -> tuple[dict, int, list[str]]:
    """Passes over the draw until every operation has its runs and ``--seconds`` are spent.

    Each operation's time is its best over its runs, which are spread over
    the whole measurement, so a burst of contention from other tenants of
    the host does not reach the percentiles. Every operation runs at least
    MIN_RUNS times and cheap ones up to MAX_RUNS times; if that takes less
    than ``--seconds``, whole passes follow. The samples are the distinct
    operations of the draw.
    """
    setup = setup_seconds(wk.texts, child_env())
    runs: list[list[float]] = [[] for _ in wk.queries]
    verdicts: list[bool | None] = [None] * len(wk.queries)
    failures: list[str] = []
    spent = 0.0
    while True:
        todo = [i for i, ts in enumerate(runs) if len(ts) < MIN_RUNS
                or (len(ts) < MAX_RUNS and sum(ts) < OP_BUDGET_S)]
        if not todo:
            if spent >= args.seconds:
                break
            todo = list(range(len(runs)))
        for i in todo:
            dt, feasible, err = wk.run(i)
            spent += dt
            runs[i].append(dt)
            if err:
                failures.append(err)
            elif verdicts[i] is None:
                verdicts[i] = feasible
    best = [min(ts) for ts in runs]
    ms = 1000.0
    metrics = {
        "solve_p50_ms": (statistics.median(best) * ms, "ms"),
        "solve_p90_ms": (statistics.quantiles(best, n=10)[8] * ms, "ms"),
        "ops_per_s": (len(best) / sum(best), "1/s"),
        "feasible_p50_ms": (statistics.median(
            t for t, f in zip(best, verdicts) if f is True) * ms, "ms"),
        "infeasible_p50_ms": (statistics.median(
            t for t, f in zip(best, verdicts) if f is False) * ms, "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (wk.peak_rss_mb(), "MB"),
    }
    executed = sum(map(len, runs))
    print(f"# {len(best)} distinct operations, each the best of {min(map(len, runs))} to "
          f"{max(map(len, runs))} runs; {executed} runs in {spent:.2f} s of solve time; "
          f"failed_frac {len(failures) / executed:.4f} ratio")
    return metrics, executed, failures


def pinned_nodes(sw) -> tuple[dict, list[str]]:
    """Node counts of the two radius cases pinned in ROADMAP.md, solved untraced."""
    cases = {
        "sh_radius.pinned_padded_nodes": sw.dollar_pad(
            sw.Instance(("aabbcb", "bccabc", "abacca"))),
        "sh_radius.pinned_planted_nodes": sw.gen_planted(11, 40, 5, 4, 4)[0],
    }
    out, failures = {}, []
    for name, inst in cases.items():
        ans = sw.radius_consensus_sh(inst, 3)
        out[name] = (ans.stats.nodes_expanded, "count")
        if ans.feasible:  # both are infeasible at d=3
            failures.append(f"{name}: feasible at d=3, expected infeasible")
    return out, failures


def per_layer(wk, args, sw) -> tuple[dict, int, list[str]]:
    tr = tracing.Tracer()
    for text in wk.texts:
        with tr.span("core", "parse"):
            sw.parse_instance(text)
    wk.install(tr)
    # Each operation runs untraced, then traced right after, so the two times
    # of a pair see the same host load and their difference is the overhead.
    base, traced, failures = [], [], []
    for i in range(len(wk.queries)):
        for times, run in ((base, wk.run), (traced, wk.run_traced)):
            dt, _, err = run(i)
            times.append(dt)
            if err:
                failures.append(err)
    pinned, pinned_failures = pinned_nodes(sw)
    failures += pinned_failures

    c, ms, us = tr.counts, 1000.0, 1e6
    busy = {layer: tr.busy(layer) for layer in LAYERS}
    self_time = tr.self_times()
    sh_metric = [a for a in tr.aggregates if a[0] == "sh_metric"]

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "core.parse_ms": (busy["core"] * ms, "ms"),
        "disentangle.busy_ms": (busy["disentangle"] * ms, "ms"),
        "disentangle.share": (per(busy["disentangle"], busy["pipeline"]), "ratio"),
        "disentangle.infeasible": (c["disentangle.infeasible"], "count"),
        "swaps.encode_ms": (tr.busy("swaps", "encode") * ms, "ms"),
        "swaps.decode_ms": (tr.busy("swaps", "decode") * ms, "ms"),
        "swaps.certify_ms": (tr.busy("swaps", "certify") * ms, "ms"),
        "pipeline.busy_ms": (busy["pipeline"] * ms, "ms"),
        "hamming.busy_ms": (busy["hamming"] * ms, "ms"),
        "hamming.nodes": (c["hamming.nodes"], "count"),
        "hamming.us_per_node": (per(busy["hamming"] * us, c["hamming.nodes"]), "us"),
        "sh_radius.busy_ms": (busy["sh_radius"] * ms, "ms"),
        "sh_radius.nodes": (c["sh_radius.nodes"], "count"),
        "sh_radius.distinct_frac": (per(c["sh_radius.distinct"], c["sh_radius.nodes"]), "ratio"),
        "sh_radius.us_per_node": (per(busy["sh_radius"] * us, c["sh_radius.nodes"]), "us"),
        **pinned,
        "sh_metric.calls": (sum(a[2] for a in sh_metric), "count"),
        "sh_metric.busy_ms": (sum(a[1] for a in sh_metric) * ms, "ms"),
        "sh_sum.busy_ms": (busy["sh_sum"] * ms, "ms"),
        "sh_sum.dp_states": (c["sh_sum.dp_states"], "count"),
        "sh_sum.max_row_states": (c["sh_sum.max_row_states"], "count"),
        "sh_sum.us_per_state": (per(busy["sh_sum"] * us, c["sh_sum.dp_states"]), "us"),
        "oracle.enumerated": (c["oracle.enumerated"], "count"),
        "oracle.busy_ms": (self_time["oracle"] * ms, "ms"),
        "cli.busy_ms": (busy["cli"] * ms, "ms"),
    }
    if isinstance(wk, Cli):
        bare, imported = wk.probes()
        calls = len(wk.queries)
        metrics["cli.interp_ms"] = (bare * calls * ms, "ms")
        metrics["cli.import_ms"] = (imported * calls * ms, "ms")
    else:
        metrics["cli.interp_ms"] = (0.0, "ms")
        metrics["cli.import_ms"] = (0.0, "ms")
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (self_time[layer] * ms, "ms")
    overhead = sum(traced) - sum(base)
    metrics["trace.overhead_ms"] = (overhead * ms, "ms")
    metrics["trace.overhead_share"] = (per(overhead, sum(base)), "ratio")

    (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
        **run_info(args),
        "span_fields": ["id", "layer", "stage", "start", "end", "parent", "op"],
        "aggregate_fields": ["layer", "busy", "calls", "distinct", "parent", "op"],
        "spans": tr.spans,
        "aggregates": tr.aggregates,
    }))
    return metrics, len(base) + len(traced) + len(pinned), failures


def run_info(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "swapsensus" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import swapsensus as sw

    if Path(sw.__file__).resolve().parent != (SRC / "swapsensus").resolve():
        print(f"error: swapsensus imported from {sw.__file__}, not {SRC}", file=sys.stderr)
        return 2
    check.self_test()
    OUT.mkdir(exist_ok=True)
    wk = Cli(args.seed, sw) if args.workload == "cli" else Library(args.workload, args.seed, sw)
    if len(wk.queries) < MIN_OPS:
        raise SystemExit(f"error: the draw has {len(wk.queries)} operations, fewer than {MIN_OPS}")
    wk.parse()
    gc.collect()
    gc.freeze()  # keep collections during timed calls from scanning the benchmark's own objects
    wk.run(0)  # let lazy set-up (bytecode caches) finish before timing
    info = run_info(args)
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    if args.trace:
        metrics, attempted, failures = per_layer(wk, args, sw)
    else:
        metrics, attempted, failures = end_to_end(wk, args)
    for err in failures[:20]:
        print(f"# FAILED {err}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
