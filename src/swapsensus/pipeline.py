"""Consensus under the swap distance: disentangle, encode, solve bits, decode.

Every solver runs the same stages in one shared helper. (1) Disentangle the
instance into pairwise-matching words, consuming per-string budgets of
necessary swaps. ``disentangle`` reports its bit columns, pairwise
non-adjacent, and certifies that every encoding has its ones among them; so
every bit string whose ones lie there is a valid swap string. Prechecks on
those budgets end hopeless radius and radius-sum queries early. (2) Encode
each word as its swap string against the first disentangled word: these are
the strings ``disentangle`` read off its bit columns and certified, so no
stage encodes again. Budget additivity makes swap distances to any common
match equal to the budget plus the Hamming distance between encodings. (3)
Solve the corresponding budgeted Hamming problem with the solver in
``solve``'s table, which reports each word's budget plus Hamming distance.
Its rows are the encodings cut to the bit columns, where every other column
is 0. With no bit column every word disentangled to the same word, the only
candidate, and no bit stage runs. (4) Decode: the bit columns where the
witness holds a one are the swaps that turn the first disentangled word into
the answer. Certify it with ``core.certified``, which recomputes every swap
distance from scratch and checks the radius and sum bounds; each distance
must then equal the bit stage's. A disagreement raises CertificationFailure,
which always means an implementation bug.
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
from .swaps import _apply, _swap_str, swap_distance

__all__ = [
    "SwapPipelineTrace",
    "sum_consensus_swap",
    "radius_consensus_swap",
    "rs_consensus_swap",
]


class SwapPipelineTrace(_Record):
    """Stages 1 to 4 of a solve; the encodings are ``disentanglement.encoded``."""

    __slots__ = ("disentanglement", "h_star", "decoded")


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

    base, at = dz.strings_prime[0], dz.bit_columns
    if not at:  # no benign pair: every word disentangled to base
        stats, ones, bit_dists = SearchStats(), [], dz.budgets
    else:
        pick = itemgetter(*at)
        rows = Instance(tuple("".join(pick(h.bits)) for h in dz.encoded))
        ham, _ = solve("hamming", objective, rows, d, D, dz.budgets)
        if not ham.feasible:
            bounds = f"swap radius {d}" + ("" if D is None else f" and sum {D}")
            return ConsensusAnswer.none(f"no common match within {bounds}", ham.stats), None
        ones = [p for p, b in zip(at, ham.solution) if b == "1"]
        stats, bit_dists = ham.stats, ham.per_string_distances

    h_star = _swap_str(ones, inst.n)
    decoded = _apply(base, ones)
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
    return answer, SwapPipelineTrace(dz, h_star, decoded)


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
