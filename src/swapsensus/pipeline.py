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
encodings. (3) Solve the corresponding budgeted Hamming problem on the
encodings with the solver in ``solve``'s table, which reports each word's
budget plus Hamming distance. The pipeline cuts the bit rows to the union
of the encodings' ones, the dirty bit columns, before it asks ``solve``, and
puts the clean columns' zeroes back into the bit witness. Each Hamming
solver only returns symbols that occur in its input column, so the chosen
ones stay in that union. (4) Decode
the winning bit string back into a word and certify it with
``core.certified``, which recomputes every swap distance from scratch and
checks the radius and sum bounds; each distance must then equal the bit
stage's. A disagreement raises CertificationFailure, which always means an
implementation bug.
"""

from __future__ import annotations

from operator import itemgetter

from .core import (
    CertificationFailure,
    ConsensusAnswer,
    Instance,
    SearchStats,
    _Record,
    certified,
    check_bounds,
    decide_sum,
    timed,
)
from .disentangle import Infeasible, disentangle
from .solve import solve
from .swaps import SwapStr, apply_swaps, swap_distance

__all__ = [
    "SwapPipelineTrace",
    "sum_consensus_swap",
    "radius_consensus_swap",
    "rs_consensus_swap",
]


class SwapPipelineTrace(_Record):
    """The full pipeline state of a solve: the output of stages 1 to 4."""

    __slots__ = ("disentanglement", "encoded", "h_star", "decoded")


def _solve(
    inst: Instance, objective: str, d: int | None, D: int | None
) -> tuple[ConsensusAnswer, SwapPipelineTrace | None]:
    """Run every stage for the objective; d, D: radius and sum bounds, or None."""
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
        stats, bits, bit_dists = SearchStats(), "", dz.budgets
    else:
        # Cut the rows to the dirty bit columns, the union of the encodings'
        # ones (the first encoding is all zeros); one column is kept when
        # none is dirty. A clean column is 0 in every row and in the bit
        # witness, so it adds 0 to every distance.
        union = 0
        for h in {h.bits for h in encoded}:
            union |= int(h, 2)
        at = [p for p, b in enumerate(f"{union:0{inst.n - 1}b}") if b == "1"] or [0]
        pick = itemgetter(*at)
        rows = Instance(tuple("".join(pick(h.bits)) for h in encoded))
        ham, _ = solve("hamming", objective, rows, d, D, dz.budgets)
        if not ham.feasible:
            bounds = f"swap radius {d}" + ("" if D is None else f" and sum {D}")
            return ConsensusAnswer.none(f"no common match within {bounds}", ham.stats), None
        chosen = dict(zip(at, ham.solution))
        bits = "".join(chosen.get(p, "0") for p in range(inst.n - 1))
        stats, bit_dists = ham.stats, ham.per_string_distances

    h_star = SwapStr(bits, len(base))  # validity checked
    decoded = apply_swaps(base, h_star)
    answer = certified(inst.words, decoded, swap_distance, stats, d, D)
    # Budget additivity: each swap distance is the word's consumed budget
    # plus its encoded Hamming distance, as the bit stage reported.
    dists = answer.per_string_distances
    for i, (dist, x, expected) in enumerate(zip(dists, dz.budgets, bit_dists)):
        if dist != expected:
            raise CertificationFailure(
                f"word {i + 1}: recomputed swap distance {dist:g} != budget {x} "
                f"+ encoded Hamming {int(expected) - x}"
            )
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
    answer, trace = _solve(inst, "sum", None, None)
    return decide_sum(answer, D, "sum of swap distances"), trace


@timed
def radius_consensus_swap(
    inst: Instance, d: int
) -> tuple[ConsensusAnswer, SwapPipelineTrace | None]:
    """Find a word within swap distance d of every input, if one exists."""
    check_bounds("radius", d, None)
    return _solve(inst, "radius", d, None)


@timed
def rs_consensus_swap(
    inst: Instance, d: int, D: int
) -> tuple[ConsensusAnswer, SwapPipelineTrace | None]:
    """Radius d and sum D simultaneously; minimum-sum witness when feasible."""
    check_bounds("radius-sum", d, D)
    return _solve(inst, "radius-sum", d, D)
