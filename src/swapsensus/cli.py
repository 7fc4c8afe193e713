"""Command-line surface for all solvers, the oracle, and the generator.

``consensus`` checks its question with ``solve.check_query`` before it reads
any file, then asks ``solve``, whose table picks the solver; budgets beyond
the bounds come back as answers.

Exit codes separate answers from errors: 0 means solved or feasible, 1 means
a certified "no" (infeasible is a legitimate answer), 2 means a usage or
input error. JSON output has a stable schema; every distance in it is
recomputed from the reported witness, and infinite values are rendered as
the string "inf" because strict JSON has no infinity literal.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import NoReturn

import click

from .core import (
    ConsensusAnswer,
    INF,
    Instance,
    InvalidQuery,
    NotMatching,
    SwapsensusError,
    check_bounds,
    format_instance,
    parse_instance,
)
from .disentangle import Disentanglement, Infeasible, disentangle
from .hamming import hamming_distance
from .oracle import (
    METRICS,
    OracleQuery,
    Radius,
    RadiusSum,
    Sum,
    brute_force,
    gen_planted,
)
from .pipeline import SwapPipelineTrace
from .sh_metric import sh_distance
from .solve import check_query, solve
from .swaps import swap_string

EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2

_OBJECTIVES = ["radius", "sum", "radius-sum"]


def _fail(message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
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
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            click.echo(line)


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
        "encoded": [str(h) for h in trace.encoded],
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


@click.group()
def main() -> None:
    """Consensus-string solvers under swap and swap+substitution distances."""


@main.command()
@click.option("--metric", type=click.Choice(METRICS), required=True)
@click.option("--output", type=click.Choice(["human", "json"]), default="human")
@click.argument("word1")
@click.argument("word2")
def distance(metric: str, output: str, word1: str, word2: str) -> None:
    """Distance between two words, with the operation witness."""
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


@main.command()
@click.option("--distance", "metric", type=click.Choice(METRICS), required=True)
@click.option("--objective", type=click.Choice(_OBJECTIVES), required=True)
@click.option("-d", "d", type=int, default=None, help="radius bound")
@click.option("-D", "big_d", type=int, default=None, help="sum bound")
@click.option(
    "--budgets",
    "budgets_path",
    type=click.Path(),
    default=None,
    help="per-word consumed budgets (hamming only)",
)
@click.option("--trace", is_flag=True, help="include the swap pipeline trace")
@click.option("--dump-table", is_flag=True, help="include the sum DP table")
@click.option("--output", type=click.Choice(["human", "json"]), default="human")
@click.argument("input_path", type=click.Path())
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
) -> None:
    """Solve a consensus problem on the words in INPUT_PATH."""
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
        extra = {"table": [asdict(st) for st in detail]}
    _finish(answer, output, extra)


@main.command("disentangle")
@click.option("--output", type=click.Choice(["human", "json"]), default="human")
@click.argument("input_path", type=click.Path())
def disentangle_cmd(output: str, input_path: str) -> None:
    """Apply all necessary swaps, reporting budgets and tangled intervals."""
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


@main.command()
@click.option("--metric", type=click.Choice(METRICS), required=True)
@click.option("--objective", type=click.Choice(_OBJECTIVES), required=True)
@click.option("-d", "d", type=int, default=None, help="radius bound")
@click.option("-D", "big_d", type=int, default=None, help="sum bound")
@click.option(
    "--budgets",
    "budgets_path",
    type=click.Path(),
    default=None,
    help="per-word consumed budgets added to every distance",
)
@click.option("--output", type=click.Choice(["human", "json"]), default="human")
@click.argument("input_path", type=click.Path())
def oracle(
    metric: str,
    objective: str,
    d: int | None,
    big_d: int | None,
    budgets_path: str | None,
    output: str,
    input_path: str,
) -> None:
    """Brute-force ground truth over the instance alphabet (small inputs)."""
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


@main.command()
@click.option("--seed", type=int, required=True, help="PRNG seed (required)")
@click.option("-n", "n", type=int, required=True, help="word length")
@click.option("-k", "k", type=int, required=True, help="word count")
@click.option("--sigma", type=int, required=True, help="alphabet size (2..26)")
@click.option("--ops-budget", type=int, required=True, help="max operations per word")
@click.option("--output", type=click.Choice(["human", "json"]), default="human")
@click.argument("out_path", type=click.Path())
def gen(
    seed: int, n: int, k: int, sigma: int, ops_budget: int, output: str, out_path: str
) -> None:
    """Write a planted instance to OUT_PATH plus a sidecar meta JSON."""
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


if __name__ == "__main__":
    main()
