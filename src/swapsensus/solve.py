"""One table that says which solver answers each (metric, objective) question.

Eight of the nine pairs have a solver; swap+substitution radius-sum is an
open problem and has no entry.
"""

from __future__ import annotations

from typing import Any

from .core import BudgetedInstance, ConsensusAnswer, Instance, decide_sum
from .hamming import (
    MixedRadiusQuery,
    MixedRadiusSumQuery,
    hamming_distance,
    radius_consensus_ham_mixed,
    rs_consensus_ham_mixed,
    sum_consensus_ham,
)
from .pipeline import radius_consensus_swap, rs_consensus_swap, sum_consensus_swap
from .sh_radius import radius_consensus_sh
from .sh_sum import sum_consensus_sh

__all__ = ["solve"]

# (metric, objective) -> f(instance, d, D) -> (answer, detail); the Hamming
# entries get the instance with its budgets and return the answer alone.
_SOLVERS = {
    ("swap", "radius"): lambda inst, d, D: radius_consensus_swap(inst, d),
    ("swap", "sum"): lambda inst, d, D: sum_consensus_swap(inst, D),
    ("swap", "radius-sum"): lambda inst, d, D: rs_consensus_swap(inst, d, D),
    ("swap-hamming", "radius"): lambda inst, d, D: (radius_consensus_sh(inst, d), None),
    ("swap-hamming", "sum"): lambda inst, d, D: sum_consensus_sh(inst, D),
    ("hamming", "radius"): lambda b, d, D: radius_consensus_ham_mixed(MixedRadiusQuery(b, d)),
    ("hamming", "sum"): lambda b, d, D: sum_consensus_ham(b.instance),
    ("hamming", "radius-sum"): lambda b, d, D: rs_consensus_ham_mixed(
        MixedRadiusSumQuery(b, d, D)
    ),
}


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
    first read), else None.
    Raises ValueError for a pair without a solver, budgets with another
    metric, or a bound the objective lacks or does not take.
    """
    entry = _SOLVERS.get((metric, objective))
    if entry is None:
        raise ValueError(f"no solver for {metric} {objective} consensus")
    if budgets is not None and metric != "hamming":
        raise ValueError("budgets are supported with the hamming metric only")
    d_fits = (d is None) == (objective == "sum")
    D_fits = objective == "sum" or (D is None) == (objective == "radius")
    if not (d_fits and D_fits):
        raise ValueError(f"wrong bounds for the {objective} objective: d={d}, D={D}")
    if metric != "hamming":
        return entry(inst, d, D)
    b = BudgetedInstance(inst, budgets or (0,) * inst.k)
    answer = entry(b, d, D)
    if answer.feasible and any(b.budgets):
        dists = tuple(
            float(x + hamming_distance(w, answer.solution))
            for w, x in zip(inst.words, b.budgets)
        )
        answer = ConsensusAnswer.found(answer.solution, dists, answer.stats)
    return (decide_sum(answer, D) if objective == "sum" else answer), None
