"""Instance pools and seeded draws for the benchmark workloads.

The ``library`` workload solves the draws of three pools in one mixed,
seed-ordered sequence; each pool can also be run alone under its own name.
A pool is a fixed set of instances built from parameter ranges with fixed
pool seeds. A run's ``--seed`` picks which replicas of each pool cell it
solves and in what order; every cell is always represented, so each run
covers the whole parameter range. The pools are fixed because the answers of
their large instances are checked against ``expectations.json``, recorded
once by ``make_expectations.py``.

The solvers only ever see the generated words.
"""

from __future__ import annotations

import hashlib
import random
import string
from dataclasses import dataclass

POOL_NAMES = ("swap-wide", "sh-sum", "radius-search")
WORKLOADS = ("library", "cli") + POOL_NAMES


@dataclass(frozen=True)
class Base:
    """One pool instance: its words and how they were drawn."""

    bid: str  # key into expectations.json
    kind: str  # which queries it serves; see queries_for
    words: tuple[str, ...]
    centre: str  # the word the generator derived every input from
    ops: int  # per-word operation budget used by the generator

    @property
    def text(self) -> str:
        return "\n".join(self.words) + "\n"

    @property
    def digest(self) -> str:
        """Fingerprint recorded with the expectations, to catch pool drift."""
        return hashlib.sha1(self.text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Query:
    """One operation: a solver call on a base instance, with the expected verdict.

    ``value`` is the optimal total the witness must reach when the query is
    feasible and optimizes a sum; None where only the bounds are checked.
    """

    base: Base
    solver: str
    d: int | None
    D: int | None
    feasible: bool
    value: int | None = None

    @property
    def metric(self) -> str:
        return self.solver.split("-")[0]


# ---------------------------------------------------------------- generators


def gen_swap_planted(
    rng: random.Random, n: int, k: int, sigma: int, ops: int, guard: int = 0
) -> tuple[tuple[str, ...], str]:
    """k words, each its centre with 1..ops disjoint swaps of distinct symbols.

    Swap positions of one word are at least two apart, so they form one valid
    swap permutation and the word lies at swap distance exactly its swap count
    from the centre. ``guard`` keeps the last ``guard`` positions unswapped.
    """
    alphabet = string.ascii_lowercase[:sigma]
    centre = "".join(rng.choice(alphabet) for _ in range(n))
    sites = [p for p in range(n - 1 - guard) if centre[p] != centre[p + 1]]
    words = []
    for _ in range(k):
        want = rng.randint(1, ops)
        chosen: list[int] = []
        for _ in range(8 * want if sites else 0):
            p = rng.choice(sites)
            if all(abs(p - q) >= 2 for q in chosen):
                chosen.append(p)
                if len(chosen) == want:
                    break
        w = list(centre)
        for p in chosen:
            w[p], w[p + 1] = w[p + 1], w[p]
        words.append("".join(w))
    return tuple(words), centre


def gen_late_conflict(
    rng: random.Random, n: int, k: int, sigma: int, ops: int
) -> tuple[tuple[str, ...], str]:
    """Swap-planted words with no common match, the conflict in the last 3 columns.

    The centre ends in three distinct symbols xyz that no swap touches; two
    words carry the rotations yzx and zxy there instead. The three windows
    have no common match, but every symbol multiset still agrees, so
    disentanglement scans the whole word before it finds the conflict.
    """
    words, centre = gen_swap_planted(rng, n - 3, k, sigma, ops, guard=4)
    x, y, z = rng.sample(string.ascii_lowercase[:sigma], 3)
    centre += x + y + z
    tails = [x + y + z] * k
    a, b = rng.sample(range(k), 2)
    tails[a], tails[b] = y + z + x, z + x + y
    return tuple(w + t for w, t in zip(words, tails)), centre


def gen_nomatch(
    rng: random.Random, n: int, k: int, sigma: int, ops: int
) -> tuple[tuple[str, ...], str]:
    """Swap-planted words where one word has one symbol substituted."""
    words, centre = gen_swap_planted(rng, n, k, sigma, ops)
    j, p = rng.randrange(k), rng.randrange(n)
    w = words[j]
    sub = rng.choice([c for c in string.ascii_lowercase[:sigma] if c != w[p]])
    words = words[:j] + (w[:p] + sub + w[p + 1 :],) + words[j + 1 :]
    return words, centre


# ---------------------------------------------------------------- pools
#
# A pool is a list of cells and a cell a list of REPLICAS instances drawn
# from the same parameter ranges with fixed pool seeds. A run solves PICK
# replicas of every cell, so it always spans every range. In swap-wide and
# sh-sum a cell is one query kind at one fixed k: the k values of all cells
# together run from the bottom of the range to its top, denser at small k,
# and are dealt out to the kinds in turn, so every kind spans the whole range.
# Solve time grows about as k squared, so the thinning at large k keeps one
# pass over a draw near one second while keeping more than 100 operations.

REPLICAS = {"swap-wide": 3, "sh-sum": 3, "radius-search": 8}
# radius-search solves its whole pool: its per-instance cost spans four orders
# of magnitude, so a subsample would move its tail percentiles past any bound.
PICK = {"swap-wide": 1, "sh-sum": 1, "radius-search": 8}

SWAP_KINDS = ("radius", "radius-below", "sum", "sum-below", "rs", "nomatch", "late")
SH_SUM_KINDS = ("dp", "dp-at", "dp-below")
SHRAD_SHAPES = tuple((n, k) for n in (14, 16, 18, 20, 22) for k in (4, 6))
HAM_SHAPES = ((24, 6), (32, 8))
PADDED_SHAPES = ((6, 3), (7, 4))


def k_grid(lo: int, hi: int, points: int) -> tuple[int, ...]:
    """``points`` integers from lo to hi, log-spaced and thinning toward hi."""
    return tuple(round(lo * (hi / lo) ** ((i / (points - 1)) ** 2)) for i in range(points))


Pool = list[list[Base]]


def _rng(pool: str, cell: int, rep: int) -> random.Random:
    return random.Random(1_000_003 * POOL_NAMES.index(pool) + 1009 * cell + rep)


def swap_wide_pool() -> Pool:
    gens = {"nomatch": gen_nomatch, "late": gen_late_conflict}
    cells = []
    for c, k in enumerate(k_grid(10, 100, 15 * len(SWAP_KINDS))):
        kind = SWAP_KINDS[c % len(SWAP_KINDS)]
        cell = []
        for r in range(REPLICAS["swap-wide"]):
            rng = _rng("swap-wide", c, r)
            sigma, ops = 3 + c // len(SWAP_KINDS) % 2, 2 + c % 4
            words, centre = gens.get(kind, gen_swap_planted)(rng, 200, k, sigma, ops)
            cell.append(Base(f"sw-{c}-{r}", kind, words, centre, ops))
        cells.append(cell)
    return cells


def sh_sum_pool() -> Pool:
    from swapsensus import gen_planted

    cells = []
    for c, k in enumerate(k_grid(3, 60, 35 * len(SH_SUM_KINDS))):
        cell = []
        for r in range(REPLICAS["sh-sum"]):
            rng = _rng("sh-sum", c, r)
            inst, centre = gen_planted(rng.randrange(2**31), 200, k, 4, 4)
            cell.append(Base(f"ss-{c}-{r}", SH_SUM_KINDS[c % 3], inst.words, centre, 4))
        cells.append(cell)
    return cells


def radius_search_pool() -> Pool:
    from swapsensus import gen_planted

    groups = (
        ("shrad", SHRAD_SHAPES, lambda rng: (4, 3)),
        ("ham", HAM_SHAPES, lambda rng: (4, rng.randint(4, 5))),
        ("padded", PADDED_SHAPES, lambda rng: (rng.randint(2, 3), 2)),
    )
    cells = []
    for kind, shapes, params in groups:
        for n, k in shapes:
            c = len(cells)
            cell = []
            for r in range(REPLICAS["radius-search"]):
                rng = _rng("radius-search", c, r)
                sigma, ops = params(rng)
                inst, centre = gen_planted(rng.randrange(2**31), n, k, sigma, ops)
                cell.append(Base(f"rs-{c}-{r}", kind, inst.words, centre, ops))
            cells.append(cell)
    return cells


POOLS = {
    "swap-wide": swap_wide_pool,
    "sh-sum": sh_sum_pool,
    "radius-search": radius_search_pool,
}


def queries_for(base: Base, expect: dict) -> list[Query]:
    """The operations a base instance contributes, from its recorded thresholds.

    Padded instances are small enough that their expected verdicts come from
    brute force: padded swap+substitution radius equals plain Hamming radius.
    """
    kind = base.kind
    if kind == "nomatch":
        return [Query(base, "swap-sum", None, None, False)]
    if kind == "late":
        return [Query(base, "swap-radius", base.ops, None, False)]
    if kind == "padded":
        padded = Base(base.bid, kind, tuple("$".join(w) for w in base.words),
                      "$".join(base.centre), base.ops)
        r = oracle_thresholds(base.words, "ham")["radius"]
        return [Query(padded, "sh-radius", d, None, r <= d) for d in (1, 2)]
    r, s, rs = expect.get("radius"), expect.get("sum"), expect.get("rs")
    if kind == "radius":
        return [Query(base, "swap-radius", r, None, True)]
    if kind == "radius-below":
        return [Query(base, "swap-radius", r - 1, None, False)]
    if kind == "sum":
        return [Query(base, "swap-sum", None, None, True, s)]
    if kind == "sum-below":
        return [Query(base, "swap-sum", None, s - 1, False)]
    if kind == "rs":
        return [Query(base, "swap-rs", r, rs, True, rs)]
    if kind == "dp":
        return [Query(base, "sh-sum", None, None, True, s)]
    if kind == "dp-at":
        return [Query(base, "sh-sum", None, s, True, s)]
    if kind == "dp-below":
        return [Query(base, "sh-sum", None, s - 1, False)]
    if kind == "shrad":
        return [Query(base, "sh-radius", d, None, r <= d) for d in (base.ops - 1, base.ops)]
    if kind == "ham":
        return [
            Query(base, "ham-radius", r - 1, None, False),
            Query(base, "ham-radius", r, None, True),
            Query(base, "ham-rs", r, rs, True, rs),
        ]
    raise ValueError(f"unknown kind {kind!r}")


def oracle_thresholds(words: tuple[str, ...], metric: str) -> dict:
    """Radius, sum and radius-sum optimum by enumeration (small instances only).

    ``radius`` is the least feasible radius, ``rs`` the least total within
    it; an instance without any finite answer gives ``{"match": False}``.
    """
    from swapsensus import Instance, OracleQuery, Radius, RadiusSum, Sum, brute_force

    name = {"swap": "swap", "sh": "swap-hamming", "ham": "hamming"}[metric]
    inst = Instance(words)

    def solve(objective):
        return brute_force(OracleQuery(inst, name, objective))

    best = solve(Sum())
    if not best.feasible:
        return {"match": False}
    r = next(d for d in range(len(words[0]) + 1) if solve(Radius(d)).feasible)
    rs = solve(RadiusSum(r, 10**9)).sum_distance
    return {"radius": r, "sum": int(best.sum_distance), "rs": int(rs)}


def draw(workload: str, seed: int) -> list[tuple[str, Base]]:
    """(pool, instance) pairs: PICK replicas of every cell, ordered by the seed."""
    rng = random.Random(seed)
    names = POOL_NAMES if workload == "library" else (workload,)
    picked = [(name, b) for name in names for cell in POOLS[name]()
              for b in rng.sample(cell, PICK[name])]
    rng.shuffle(picked)
    return picked
