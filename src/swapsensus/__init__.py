"""Consensus-string solvers under swap and swap+substitution distances.

The package answers radius, sum, and radius+sum consensus questions for
three distances between equal-length words: plain Hamming distance, the swap
distance (adjacent transpositions only, infinite between non-matching
words), and the swap+substitution distance. Every solver's output is
certified by recomputing all distances from scratch, and a brute-force
oracle provides independent ground truth at small scale.

The public names are the union of the submodules' ``__all__`` lists.
"""

from . import core, disentangle, hamming, oracle, pipeline, sh_metric, sh_radius, sh_sum, solve, swaps

__version__ = "0.1.0"

# Built before the star imports, which rebind ``disentangle`` and ``solve``
# to the functions of those names.
__all__ = [
    name
    for module in (core, disentangle, hamming, oracle, pipeline)
    + (sh_metric, sh_radius, sh_sum, solve, swaps)
    for name in module.__all__
] + ["__version__"]

from .core import *
from .disentangle import *
from .hamming import *
from .oracle import *
from .pipeline import *
from .sh_metric import *
from .sh_radius import *
from .sh_sum import *
from .solve import *
from .swaps import *
