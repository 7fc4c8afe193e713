"""One table that says which solver answers each (metric, objective) question.

Eight of the nine pairs have a solver; swap+substitution radius-sum is an
open problem and has no entry. ``check_query`` is the one check of a
question's shape, for the library and the CLI alike.
"""

from __future__ import annotations

from functools import cache
from importlib import import_module
from typing import Any

from .core import (
    BudgetedInstance,
    ConsensusAnswer,
    Instance,
    InvalidQuery,
    check_bounds,
    decide_sum,
    timed,
)

__all__ = ["check_query", "solve"]

# (metric, objective) -> (module, f(module, instance, d, D) -> (answer, detail));
# the module is imported on the pair's first use. The Hamming entries get the
# instance with its budgets and return the answer alone.
_SOLVERS = {
    ("swap", "radius"): ("pipeline", lambda m, inst, d, D: m.radius_consensus_swap(inst, d)),
    ("swap", "sum"): ("pipeline", lambda m, inst, d, D: m.sum_consensus_swap(inst, D)),
    ("swap", "radius-sum"): ("pipeline", lambda m, inst, d, D: m.rs_consensus_swap(inst, d, D)),
    ("swap-hamming", "radius"): (
        "sh_radius",
        lambda m, inst, d, D: (m.radius_consensus_sh(inst, d), None),
    ),
    ("swap-hamming", "sum"): ("sh_sum", lambda m, inst, d, D: m.sum_consensus_sh(inst, D)),
    ("hamming", "radius"): (
        "hamming",
        lambda m, b, d, D: m.radius_consensus_ham_mixed(m.MixedRadiusQuery(b, d)),
    ),
    ("hamming", "sum"): ("hamming", lambda m, b, d, D: m.sum_consensus_ham(b.instance)),
    ("hamming", "radius-sum"): (
        "hamming",
        lambda m, b, d, D: m.rs_consensus_ham_mixed(m.MixedRadiusSumQuery(b, d, D)),
    ),
}


@cache
def _module(name: str):
    return import_module(f".{name}", __package__)


def check_query(
    metric: str, objective: str, d: int | None, D: int | None, budgeted: bool
) -> None:
    """Raise InvalidQuery unless the table has a solver for this question.

    Checks, in order: the pair has an entry (swap+substitution radius-sum is
    an open problem), the bounds fit the objective (``check_bounds``), and
    per-word budgets come with the Hamming metric only.
    """
    if (metric, objective) not in _SOLVERS:
        if (metric, objective) == ("swap-hamming", "radius-sum"):
            raise InvalidQuery("unsupported: open problem")
        raise InvalidQuery(f"no solver for {metric} {objective} consensus")
    check_bounds(objective, d, D)
    if budgeted and metric != "hamming":
        raise InvalidQuery("--budgets is only supported with --distance hamming")


@timed
def solve(
    metric: str,
    objective: str,
    inst: Instance,
    d: int | None = None,
    D: int | None = None,
    budgets: tuple[int, ...] | None = None,
) -> tuple[ConsensusAnswer, Any]:
    """Answer one consensus question with the solver the table names for it.

    ``d`` bounds the radius (radius, radius-sum), ``D`` the sum (radius-sum;
    optional with sum, which then decides it). Per-word ``budgets`` go with
    the Hamming metric only, whose answers then report budget + Hamming
    distance per word, as ``brute_force`` does. Returns ``(answer, detail)``:
    ``detail`` is the ``SwapPipelineTrace`` for the swap metric (None on its
    early exits), the settled DP table for swap+substitution sum (built when
    first read), else None. Raises InvalidQuery (a ValueError) where
    ``check_query`` does, with the CLI's messages.
    """
    check_query(metric, objective, d, D, budgets is not None)
    module, entry = _SOLVERS[metric, objective]
    m = _module(module)
    if metric != "hamming":
        return entry(m, inst, d, D)
    b = BudgetedInstance(inst, budgets or (0,) * inst.k)
    answer = entry(m, b, d, D)
    if answer.feasible:
        dists = tuple(x + v for x, v in zip(b.budgets, answer.per_string_distances))
        answer = ConsensusAnswer.found(answer.solution, dists, answer.stats)
    return (decide_sum(answer, D) if objective == "sum" else answer), None
