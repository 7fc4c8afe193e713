"""Consensus-string solvers under swap and swap+substitution distances.

The package answers radius, sum, and radius+sum consensus questions for
three distances between equal-length words: plain Hamming distance, the swap
distance (adjacent transpositions only, infinite between non-matching
words), and the swap+substitution distance. Every solver's output is
certified by recomputing all distances from scratch, and a brute-force
oracle provides independent ground truth at small scale.

The public names are the union of the submodules' ``__all__`` lists. A
submodule is imported when one of its names is first read (PEP 562), so
``import swapsensus`` alone loads none of them.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# The submodules whose ``__all__`` lists make the public names. A name is
# looked up in them in this order, each loaded until one lists it.
_SUBMODULES = (
    "core", "disentangle", "hamming", "oracle", "pipeline",
    "sh_radius", "sh_sum", "solve", "swaps",
)


class _Package(ModuleType):
    def __setattr__(self, name, value):
        # The import system binds each loaded submodule to its name here. A
        # submodule that exports a name of its own (disentangle, solve) leaves
        # that export as the package attribute, whichever is imported first.
        if isinstance(value, ModuleType) and name in getattr(value, "__all__", ()):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


def _submodules():
    for name in _SUBMODULES:
        yield import_module(f".{name}", __name__)


def __getattr__(name):
    if name in _SUBMODULES:
        import_module(f".{name}", __name__)  # bound to its name through _Package
        return globals()[name]
    if name == "__all__":
        value = [n for m in _submodules() for n in m.__all__] + ["__version__"]
    else:
        owner = next((m for m in _submodules() if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    # Reading __all__ first loads every submodule, which binds its name here.
    exported = __getattr__("__all__")
    return sorted(set(globals()) | set(exported))
