"""Command-line surface for all solvers, the oracle, and the generator.

``consensus`` checks its question with ``solve.check_query`` before it reads
any file, then asks ``solve``, whose table picks the solver; budgets beyond
the bounds come back as answers. Each command imports the solver modules it
runs when it runs, so start-up loads nothing else.

Exit codes separate answers from errors: 0 means solved or feasible, 1 means
a certified "no" (infeasible is a legitimate answer), 2 means a usage or
input error (argparse prints its own ``usage:`` text for flags it rejects)
or a run that ran out of memory.
JSON output has a stable schema; every distance in it is recomputed from the
reported witness, and infinite values are rendered as the string "inf"
because strict JSON has no infinity literal.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from .core import (
    ConsensusAnswer,
    INF,
    Instance,
    InvalidQuery,
    METRICS,
    NotMatching,
    SwapsensusError,
    check_bounds,
    format_instance,
    parse_instance,
)

if TYPE_CHECKING:
    from .disentangle import Disentanglement
    from .pipeline import SwapPipelineTrace

EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2

_OBJECTIVES = ["radius", "sum", "radius-sum"]


def _fail(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(EXIT_USAGE)


def _load_instance(path: str) -> Instance:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        _fail(str(exc))
    except UnicodeDecodeError as exc:
        _fail(f"{path}: {exc}")
    try:
        return parse_instance(text)
    except SwapsensusError as exc:
        _fail(f"{path}: {exc}")


def _load_budgets(path: str, k: int) -> tuple[int, ...]:
    try:
        budgets = tuple(int(part) for part in Path(path).read_text().split())
    except OSError as exc:
        _fail(str(exc))
    except ValueError as exc:
        _fail(f"budgets file {path}: {exc}")
    if len(budgets) != k:
        _fail(f"budgets file {path} lists {len(budgets)} values for {k} words")
    if any(b < 0 for b in budgets):
        _fail(f"budgets file {path} contains a negative value")
    return budgets


def _num(v: float | int | None) -> int | float | str | None:
    """JSON-safe number: integral floats become ints, infinity becomes 'inf'."""
    if v is None:
        return None
    if v == INF:
        return "inf"
    if isinstance(v, float) and v.is_integer():
        return int(v)
    return v


def _emit(payload: dict, output: str, human_lines: list[str]) -> None:
    if output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _answer_payload(answer: ConsensusAnswer) -> dict:
    dists = answer.per_string_distances
    return {
        "status": answer.status,
        "witness": answer.solution,
        "per_string_distances": None if dists is None else [_num(v) for v in dists],
        "max_distance": _num(answer.max_distance),
        "sum_distance": _num(answer.sum_distance),
        "stats": answer.stats.as_dict(),
        "reason": answer.reason,
    }


def _answer_lines(answer: ConsensusAnswer) -> list[str]:
    lines = [f"status: {answer.status}"]
    if answer.feasible:
        assert answer.solution is not None and answer.per_string_distances is not None
        lines.append(f"witness: {answer.solution}")
        lines.append(
            "distances: " + " ".join(str(_num(v)) for v in answer.per_string_distances)
        )
        lines.append(f"max: {_num(answer.max_distance)} sum: {_num(answer.sum_distance)}")
    else:
        lines.append(f"reason: {answer.reason}")
    return lines


def _disentanglement_payload(dz: Disentanglement) -> dict:
    return {
        "disentangled": list(dz.strings_prime),
        "budgets": list(dz.budgets),
        "necessary_total": dz.total,
        "tangled_intervals": [list(iv) for iv in dz.tangled_intervals],
    }


def _trace_payload(trace: SwapPipelineTrace) -> dict:
    return {
        **_disentanglement_payload(trace.disentanglement),
        "encoded": [str(h) for h in trace.disentanglement.encoded],
        "consensus_bits": str(trace.h_star),
        "decoded": trace.decoded,
    }


def _finish(answer: ConsensusAnswer, output: str, extra: dict | None = None) -> NoReturn:
    payload = _answer_payload(answer)
    lines = _answer_lines(answer)
    for key, value in (extra or {}).items():
        payload[key] = value
        lines.append(f"{key}: {json.dumps(value)}")
    _emit(payload, output, lines)
    sys.exit(EXIT_FEASIBLE if answer.feasible else EXIT_INFEASIBLE)


def distance(metric: str, output: str, word1: str, word2: str) -> NoReturn:
    """Distance between two words, with the operation witness."""
    from .swaps import hamming_distance, sh_distance, swap_string

    if not word1 or not word2:
        _fail("words must be non-empty")
    if len(word1) != len(word2):
        _fail("words must have equal length")
    witness: dict | None
    if metric == "hamming":
        value: float = hamming_distance(word1, word2)
        witness = {
            "mismatch_positions": [
                p + 1 for p in range(len(word1)) if word1[p] != word2[p]
            ]
        }
    elif metric == "swap":
        try:
            h = swap_string(word1, word2)
            value = h.popcount
            witness = {"swap_string": str(h), "swaps": list(h.ones())}
        except NotMatching:
            value = INF
            witness = None
    else:
        cost, wit = sh_distance(word1, word2)
        value = cost
        witness = {
            "swaps": list(wit.swaps),
            "substitutions": list(wit.substitutions),
        }
    payload = {"metric": metric, "distance": _num(value), "witness": witness}
    lines = [f"distance: {_num(value)}"]
    if witness is not None:
        for key, val in witness.items():
            lines.append(f"{key}: {val}")
    _emit(payload, output, lines)
    sys.exit(EXIT_FEASIBLE)


def consensus(
    metric: str,
    objective: str,
    d: int | None,
    big_d: int | None,
    budgets_path: str | None,
    trace: bool,
    dump_table: bool,
    output: str,
    input_path: str,
) -> NoReturn:
    """Solve a consensus problem on the words in INPUT_PATH."""
    from .solve import check_query, solve

    try:
        check_query(metric, objective, d, big_d, budgets_path is not None)
    except InvalidQuery as exc:
        _fail(str(exc))
    if trace and metric != "swap":
        _fail("--trace is only supported with --distance swap")
    if dump_table and not (metric == "swap-hamming" and objective == "sum"):
        _fail("--dump-table is only supported with --distance swap-hamming --objective sum")

    inst = _load_instance(input_path)
    budgets = _load_budgets(budgets_path, inst.k) if budgets_path is not None else None
    answer, detail = solve(metric, objective, inst, d, big_d, budgets)
    extra = None
    if trace and detail is not None:
        extra = {"trace": _trace_payload(detail)}
    elif dump_table:
        extra = {"table": [st.as_dict() for st in detail]}
    _finish(answer, output, extra)


def disentangle_cmd(output: str, input_path: str) -> NoReturn:
    """Apply all necessary swaps, reporting budgets and tangled intervals."""
    from .disentangle import Infeasible, disentangle

    inst = _load_instance(input_path)
    result = disentangle(inst)
    if isinstance(result, Infeasible):
        payload = {
            "status": "infeasible",
            "reason": result.reason,
            "column": result.column,
        }
        lines = ["status: infeasible", f"reason: {result.reason}"]
        _emit(payload, output, lines)
        sys.exit(EXIT_INFEASIBLE)
    payload = {"status": "feasible", **_disentanglement_payload(result)}
    lines = [
        "status: feasible",
        "disentangled: " + " ".join(result.strings_prime),
        "budgets: " + " ".join(str(x) for x in result.budgets),
        f"necessary_total: {result.total}",
        "tangled_intervals: " + " ".join(f"[{a},{b}]" for a, b in result.tangled_intervals),
    ]
    _emit(payload, output, lines)
    sys.exit(EXIT_FEASIBLE)


def oracle(
    metric: str,
    objective: str,
    d: int | None,
    big_d: int | None,
    budgets_path: str | None,
    output: str,
    input_path: str,
) -> NoReturn:
    """Brute-force ground truth over the instance alphabet (small inputs)."""
    from .oracle import OracleQuery, Radius, RadiusSum, Sum, brute_force

    if big_d is not None and objective != "radius-sum":
        _fail("-D is only valid with --objective radius-sum")
    try:
        check_bounds(objective, d, big_d)
    except InvalidQuery as exc:
        _fail(str(exc))
    inst = _load_instance(input_path)
    budgets = (
        _load_budgets(budgets_path, inst.k) if budgets_path is not None else None
    )
    if objective == "sum":
        obj: Radius | Sum | RadiusSum = Sum()
    else:
        obj = Radius(d) if objective == "radius" else RadiusSum(d, big_d)
    try:
        query = OracleQuery(inst, metric, obj, budgets=budgets)
    except SwapsensusError as exc:
        _fail(str(exc))
    _finish(brute_force(query), output)


def gen(
    seed: int, n: int, k: int, sigma: int, ops_budget: int, output: str, out_path: str
) -> NoReturn:
    """Write a planted instance to OUT_PATH plus a sidecar meta JSON."""
    from .oracle import gen_planted

    try:
        inst, center = gen_planted(seed, n, k, sigma, ops_budget)
    except ValueError as exc:
        _fail(str(exc))
    meta_path = out_path + ".meta.json"
    try:
        Path(out_path).write_text(format_instance(inst))
        Path(meta_path).write_text(
            json.dumps(
                {
                    "seed": seed,
                    "n": n,
                    "k": k,
                    "sigma": sigma,
                    "ops_budget": ops_budget,
                    "center": center,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
    except OSError as exc:
        _fail(str(exc))
    payload = {
        "instance_path": out_path,
        "meta_path": meta_path,
        "center": center,
        "seed": seed,
    }
    lines = [f"wrote {out_path} and {meta_path} (center {center})"]
    _emit(payload, output, lines)
    sys.exit(EXIT_FEASIBLE)


def _parser() -> argparse.ArgumentParser:
    """One subparser per command; each flag's dest is a keyword of its command."""
    main_parser = argparse.ArgumentParser(
        prog="swapsensus",
        description="Consensus-string solvers under swap and swap+substitution distances.",
        add_help=False,
        allow_abbrev=False,
    )
    main_parser.add_argument("--help", action="help", help="show this message and exit")
    commands = main_parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(run, name: str | None = None) -> argparse.ArgumentParser:
        sub = commands.add_parser(
            name or run.__name__,
            help=run.__doc__,
            description=run.__doc__,
            add_help=False,
            allow_abbrev=False,
        )
        sub.add_argument("--help", action="help", help="show this message and exit")
        sub.add_argument("--output", choices=("human", "json"), default="human")
        sub.set_defaults(run=run)
        return sub

    def question(sub, metric_flag: str, budgets_help: str) -> None:
        sub.add_argument(metric_flag, dest="metric", choices=METRICS, required=True)
        sub.add_argument("--objective", choices=_OBJECTIVES, required=True)
        sub.add_argument("-d", metavar="d", type=int, help="radius bound")
        sub.add_argument("-D", dest="big_d", metavar="D", type=int, help="sum bound")
        sub.add_argument("--budgets", dest="budgets_path", metavar="PATH", help=budgets_help)

    sub = command(distance)
    sub.add_argument("--metric", choices=METRICS, required=True)
    sub.add_argument("word1", metavar="WORD1")
    sub.add_argument("word2", metavar="WORD2")

    sub = command(consensus)
    question(sub, "--distance", "per-word consumed budgets (hamming only)")
    sub.add_argument("--trace", action="store_true", help="include the swap pipeline trace")
    sub.add_argument("--dump-table", action="store_true", help="include the sum DP table")
    sub.add_argument("input_path", metavar="INPUT_PATH")

    sub = command(disentangle_cmd, "disentangle")
    sub.add_argument("input_path", metavar="INPUT_PATH")

    sub = command(oracle)
    question(sub, "--metric", "per-word consumed budgets added to every distance")
    sub.add_argument("input_path", metavar="INPUT_PATH")

    sub = command(gen)
    sub.add_argument("--seed", type=int, required=True, help="PRNG seed (required)")
    sub.add_argument("-n", type=int, required=True, help="word length")
    sub.add_argument("-k", type=int, required=True, help="word count")
    sub.add_argument("--sigma", type=int, required=True, help="alphabet size (2..26)")
    sub.add_argument("--ops-budget", type=int, required=True, help="max operations per word")
    sub.add_argument("out_path", metavar="OUT_PATH")
    return main_parser


def main(argv: list[str] | None = None) -> NoReturn:
    """Run the command named in ``argv`` (default ``sys.argv[1:]``); always exits."""
    args = vars(_parser().parse_args(argv))
    del args["command"]
    try:
        args.pop("run")(**args)
    except MemoryError:
        _fail("out of memory")


if __name__ == "__main__":
    main()
