"""Ground truth by enumeration, a padding gadget, and reproducible generators.

The brute-force solver shares nothing with the real solvers except the
distance functions themselves, so agreement between the two is meaningful
evidence. Enumeration is restricted to the instance alphabet: a solution
under the swap distance must use exactly each word's symbols, and under the
Hamming and swap+substitution distances any out-of-instance symbol in a
candidate is dominated by an in-instance one.
"""

from __future__ import annotations

import itertools
import random
import string

from .core import (
    BudgetedInstance,
    CapExceeded,
    ConsensusAnswer,
    INF,
    Instance,
    METRICS,
    ReservedSymbolPresent,
    SearchStats,
    Word,
    _Record,
    check_bounds,
    timed,
)
from .hamming import hamming_distance
from .sh_metric import sh_cost
from .swaps import swap_distance

__all__ = [
    "DEFAULT_CAP",
    "Radius",
    "Sum",
    "RadiusSum",
    "OracleQuery",
    "brute_force",
    "dollar_pad",
    "gen_planted",
]

DEFAULT_CAP = 2_000_000

_DISTANCE = {
    "hamming": hamming_distance,
    "swap": swap_distance,
    "swap-hamming": sh_cost,
}


class Radius(_Record):
    """Decide whether some word is within distance d of every input."""

    __slots__ = ("d",)


class Sum(_Record):
    """Minimize the total distance to all inputs."""

    __slots__ = ()


class RadiusSum(_Record):
    """Within radius d, minimize the total distance and compare it to D."""

    __slots__ = ("d", "D")


class OracleQuery(_Record):
    """A fully specified question for the brute-force reference solver.

    ``metric`` is one of ``METRICS`` and ``objective`` a ``Radius``, ``Sum``
    or ``RadiusSum``. Optional per-word budgets are added to every computed
    distance, mirroring the budgeted problems left behind by disentanglement.
    The query is rejected up front when the enumeration space exceeds
    ``DEFAULT_CAP``.
    """

    __slots__ = ("instance", "metric", "objective", "budgets")
    _defaults = {"budgets": None}

    def _check(self) -> None:
        instance, metric, objective, budgets = self._values()
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}")
        if isinstance(objective, Radius):
            check_bounds("radius", objective.d, None)
        elif isinstance(objective, RadiusSum):
            check_bounds("radius-sum", objective.d, objective.D)
        if budgets is not None:
            BudgetedInstance(instance, budgets)  # validates the budgets
        space = len(instance.alphabet) ** instance.n
        if space > DEFAULT_CAP:
            raise CapExceeded(
                f"enumeration of {space} words exceeds the cap of {DEFAULT_CAP}"
            )


@timed
def brute_force(q: OracleQuery) -> ConsensusAnswer:
    """Enumerate every word over the instance alphabet, in lexicographic order.

    Radius queries return the first (hence lex-min) satisfying word. Sum and
    radius+sum queries keep the strictly best total seen, which again makes
    the reported witness lex-min among the optima.
    """
    inst = q.instance
    obj = q.objective
    dist = _DISTANCE[q.metric]
    budgets = q.budgets or (0,) * inst.k
    # Distances are whole numbers or infinite, so "within radius d" is
    # "below d + 1", and a Sum query still drops an infinite distance.
    limit = INF if isinstance(obj, Sum) else obj.d + 1
    stats = SearchStats()
    best: tuple[float, Word, tuple[float, ...]] | None = None
    for tup in itertools.product(inst.alphabet, repeat=inst.n):
        t = "".join(tup)
        stats.oracle_enumerated += 1
        dists = tuple(x + dist(w, t) for w, x in zip(inst.words, budgets))
        if max(dists) >= limit:
            continue
        if isinstance(obj, Radius):
            return ConsensusAnswer.found(t, tuple(map(float, dists)), stats)
        total = sum(dists)
        if best is None or total < best[0]:
            best = (total, t, dists)
    if best is None:
        if isinstance(obj, Sum):
            return ConsensusAnswer.none("no word at finite total distance", stats)
        return ConsensusAnswer.none(f"no word within {q.metric} radius {obj.d}", stats)
    total, t, dists = best
    if isinstance(obj, RadiusSum) and total > obj.D:
        return ConsensusAnswer.none(
            f"minimum total within radius {obj.d} is {int(total)} "
            f"> {obj.D}",
            stats,
        )
    return ConsensusAnswer.found(t, tuple(map(float, dists)), stats)


def dollar_pad(inst: Instance) -> Instance:
    """Interleave a '$' column between every pair of adjacent columns.

    The padding makes swaps useless (any swap would displace a '$'), so
    radius feasibility under the swap+substitution distance on the output
    coincides with plain Hamming radius feasibility on the input.
    """
    if "$" in inst.alphabet:
        raise ReservedSymbolPresent("the instance already uses the symbol '$'")
    return Instance(tuple("$".join(w) for w in inst.words))


def gen_planted(
    seed: int, n: int, k: int, sigma: int, ops_budget: int
) -> tuple[Instance, Word]:
    """Derive k words from a random center by disjoint random operations.

    Each word applies at most ``ops_budget`` operations to the center, every
    operation being a substitution or a swap of adjacent distinct symbols,
    all touching pairwise disjoint positions. That keeps every word within
    swap+substitution distance ``ops_budget`` of the center. Deterministic
    for a fixed argument tuple; the alphabet is the first ``sigma`` lowercase
    letters.
    """
    if not 2 <= sigma <= len(string.ascii_lowercase):
        raise ValueError("sigma must be between 2 and 26")
    if ops_budget < 0:
        raise ValueError("ops_budget must be non-negative")
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    rng = random.Random(seed)
    alphabet = string.ascii_lowercase[:sigma]
    center = "".join(rng.choice(alphabet) for _ in range(n))
    words = []
    for _ in range(k):
        w = list(center)
        blocked: set[int] = set()
        for _ in range(rng.randint(0, ops_budget)):
            if rng.random() < 0.5:
                pairs = [
                    p
                    for p in range(n - 1)
                    if p not in blocked and p + 1 not in blocked and w[p] != w[p + 1]
                ]
                if pairs:
                    p = rng.choice(pairs)
                    w[p], w[p + 1] = w[p + 1], w[p]
                    blocked.update((p, p + 1))
                    continue
                # No swap is available; fall back to a substitution.
            free = [p for p in range(n) if p not in blocked]
            if not free:
                break
            p = rng.choice(free)
            w[p] = rng.choice([c for c in alphabet if c != w[p]])
            blocked.add(p)
        words.append("".join(w))
    return Instance(tuple(words)), center
