"""Consensus-string solvers under swap and swap+substitution distances.

The package answers radius, sum, and radius+sum consensus questions for
three distances between equal-length words: plain Hamming distance, the swap
distance (adjacent transpositions only, infinite between non-matching
words), and the swap+substitution distance. Every solver's output is
certified by recomputing all distances from scratch, and a brute-force
oracle provides independent ground truth at small scale.
"""

from .core import (
    BudgetedInstance,
    CapExceeded,
    CertificationFailure,
    ConsensusAnswer,
    EmptyInstance,
    INF,
    Instance,
    InvalidSymbol,
    LengthMismatch,
    NotMatching,
    ReservedSymbolPresent,
    SearchStats,
    SwapsensusError,
    UnequalLengths,
    Word,
    format_instance,
    parse_instance,
)
from .disentangle import Disentanglement, Infeasible, disentangle
from .hamming import (
    MixedRadiusQuery,
    MixedRadiusSumQuery,
    hamming_distance,
    pad_mixed,
    radius_consensus_ham_mixed,
    rs_consensus_ham_mixed,
    sum_consensus_ham,
)
from .oracle import (
    DEFAULT_CAP,
    OracleQuery,
    Radius,
    RadiusSum,
    Sum,
    brute_force,
    dollar_pad,
    gen_planted,
)
from .pipeline import (
    SwapPipelineTrace,
    radius_consensus_swap,
    rs_consensus_swap,
    sum_consensus_swap,
)
from .sh_metric import SHWitness, sh_cost, sh_distance
from .sh_radius import radius_consensus_sh
from .sh_sum import DPState, sum_consensus_sh
from .solve import solve
from .swaps import (
    SwapStr,
    apply_swaps,
    swap_distance,
    swap_string,
    xor_compose,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetedInstance",
    "CapExceeded",
    "CertificationFailure",
    "ConsensusAnswer",
    "EmptyInstance",
    "INF",
    "Instance",
    "InvalidSymbol",
    "LengthMismatch",
    "NotMatching",
    "ReservedSymbolPresent",
    "SearchStats",
    "SwapsensusError",
    "UnequalLengths",
    "Word",
    "format_instance",
    "parse_instance",
    "Disentanglement",
    "Infeasible",
    "disentangle",
    "MixedRadiusQuery",
    "MixedRadiusSumQuery",
    "hamming_distance",
    "pad_mixed",
    "radius_consensus_ham_mixed",
    "rs_consensus_ham_mixed",
    "sum_consensus_ham",
    "DEFAULT_CAP",
    "OracleQuery",
    "Radius",
    "RadiusSum",
    "Sum",
    "brute_force",
    "dollar_pad",
    "gen_planted",
    "SwapPipelineTrace",
    "radius_consensus_swap",
    "rs_consensus_swap",
    "sum_consensus_swap",
    "SHWitness",
    "sh_cost",
    "sh_distance",
    "radius_consensus_sh",
    "DPState",
    "sum_consensus_sh",
    "solve",
    "SwapStr",
    "apply_swaps",
    "swap_distance",
    "swap_string",
    "xor_compose",
    "__version__",
]
