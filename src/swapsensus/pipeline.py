"""Consensus under the swap distance: disentangle, encode, solve bits, decode.

Every solver runs the same stages in one shared helper. (1) Disentangle the
instance into pairwise-matching words, consuming per-string budgets of
necessary swaps; ``disentangle`` certifies the pairwise matching, which makes
every bit string whose ones lie in the union of the encodings' ones a valid
swap string. Prechecks on those budgets end hopeless radius and radius-sum
queries early. (2) Encode each word as its swap string against the first
disentangled word: these are the strings ``disentangle`` computed and
certified, so no stage encodes again. Budget additivity makes swap distances
to any common match equal to the budget plus the Hamming distance between
encodings.
(3) Solve the corresponding budgeted Hamming problem on the encodings; the
objective's solver is the only stage that differs. Each Hamming solver only
returns symbols that occur in its input column, so the chosen ones stay in
that union. (4) Decode the winning bit string back into a word and certify
every distance from scratch, together with the radius and sum bounds; a
disagreement raises CertificationFailure, which always means an
implementation bug.
"""

from __future__ import annotations

from typing import Callable

from .core import (
    BudgetedInstance,
    CertificationFailure,
    ConsensusAnswer,
    Instance,
    SearchStats,
    Word,
    _Record,
    check_bounds,
    decide_sum,
    timed,
)
from .disentangle import Disentanglement, Infeasible, disentangle
from .hamming import (
    MixedRadiusQuery,
    MixedRadiusSumQuery,
    radius_consensus_ham_mixed,
    rs_consensus_ham_mixed,
    sum_consensus_ham,
)
from .swaps import SwapStr, apply_swaps, swap_distance, xor_compose

__all__ = [
    "SwapPipelineTrace",
    "sum_consensus_swap",
    "radius_consensus_swap",
    "rs_consensus_swap",
]


class SwapPipelineTrace(_Record):
    """The full pipeline state of a solve: the output of stages 1 to 4."""

    __slots__ = ("disentanglement", "encoded", "h_star", "decoded")

    def __init__(
        self,
        disentanglement: Disentanglement,
        encoded: tuple[SwapStr, ...],
        h_star: SwapStr,
        decoded: Word,
    ) -> None:
        object.__setattr__(self, "disentanglement", disentanglement)
        object.__setattr__(self, "encoded", encoded)
        object.__setattr__(self, "h_star", h_star)
        object.__setattr__(self, "decoded", decoded)


def _certify_budget_additivity(
    inst: Instance,
    dz: Disentanglement,
    encoded: tuple[SwapStr, ...],
    h_star: SwapStr,
    decoded: Word,
) -> tuple[float, ...]:
    """Recompute all swap distances from scratch and check the bit-level identity.

    For every input word: swap distance to the decoded witness must equal the
    consumed budget plus the Hamming weight of the XOR of its encoding with
    the chosen bits.
    """
    dists = tuple(swap_distance(w, decoded) for w in inst.words)
    for i, (dist, h, x) in enumerate(zip(dists, encoded, dz.budgets)):
        expected = x + xor_compose(h, h_star).count("1")
        if dist != expected:
            raise CertificationFailure(
                f"word {i + 1}: recomputed swap distance {dist} != budget {x} "
                f"+ encoded Hamming {expected - x}"
            )
    return dists


def _solve(
    inst: Instance,
    d: int | None,
    D: int | None,
    solve_bits: Callable[[BudgetedInstance], ConsensusAnswer],
) -> tuple[ConsensusAnswer, SwapPipelineTrace | None]:
    """Run every stage around ``solve_bits``; d, D: radius and sum bounds, or None."""
    dz = disentangle(inst)
    if isinstance(dz, Infeasible):
        return ConsensusAnswer.none(f"no common matching word: {dz.reason}"), None
    if d is not None and any(x > d for x in dz.budgets):
        worst = max(range(inst.k), key=lambda j: dz.budgets[j])
        return (
            ConsensusAnswer.none(
                f"word {worst + 1} needs {dz.budgets[worst]} necessary swaps > d={d}"
            ),
            None,
        )
    if D is not None and dz.total > D:
        return (
            ConsensusAnswer.none(f"necessary swaps alone sum to {dz.total} > D={D}"),
            None,
        )

    base, encoded = dz.strings_prime[0], dz.encoded
    if inst.n == 1:  # empty bit rows: the only candidate is the disentangled word
        stats, bits = SearchStats(), ""
    else:
        rows = Instance(tuple(h.bits for h in encoded))
        ham = solve_bits(BudgetedInstance(rows, dz.budgets))
        if not ham.feasible:
            bounds = f"swap radius {d}" + ("" if D is None else f" and sum {D}")
            return ConsensusAnswer.none(f"no common match within {bounds}", ham.stats), None
        stats, bits = ham.stats, ham.solution

    h_star = SwapStr(bits, len(base))  # validity checked
    decoded = apply_swaps(base, h_star)
    dists = _certify_budget_additivity(inst, dz, encoded, h_star, decoded)
    if (d is not None and max(dists) > d) or (D is not None and sum(dists) > D):
        raise CertificationFailure(
            f"decoded witness violates bounds: max {max(dists)}, sum {sum(dists)}"
        )
    answer = ConsensusAnswer.found(decoded, dists, stats)
    return answer, SwapPipelineTrace(dz, encoded, h_star, decoded)


@timed
def sum_consensus_swap(
    inst: Instance, D: int | None = None
) -> tuple[ConsensusAnswer, SwapPipelineTrace | None]:
    """Minimize the sum of swap distances (optionally deciding a bound D).

    The optimal bits are the per-position majority of the encodings (ties to
    0), which is exactly the Hamming sum-consensus of the bit rows.
    """
    check_bounds("sum", None, D)
    answer, trace = _solve(inst, None, None, lambda b: sum_consensus_ham(b.instance))
    return decide_sum(answer, D, "sum of swap distances"), trace


@timed
def radius_consensus_swap(
    inst: Instance, d: int
) -> tuple[ConsensusAnswer, SwapPipelineTrace | None]:
    """Find a word within swap distance d of every input, if one exists."""
    check_bounds("radius", d, None)
    return _solve(
        inst, d, None, lambda b: radius_consensus_ham_mixed(MixedRadiusQuery(b, d))
    )


@timed
def rs_consensus_swap(
    inst: Instance, d: int, D: int
) -> tuple[ConsensusAnswer, SwapPipelineTrace | None]:
    """Radius d and sum D simultaneously; minimum-sum witness when feasible."""
    check_bounds("radius-sum", d, D)
    return _solve(
        inst, d, D, lambda b: rs_consensus_ham_mixed(MixedRadiusSumQuery(b, d, D))
    )
