"""Answer checker that shares no code with the solvers.

Its swap and swap+substitution distances are short prefix dynamic programs
written from the definitions, not the greedy scans the package uses; Hamming
distance is a direct count. Nothing here imports swapsensus.
Every feasible answer's witness is re-scored from scratch against every
input word; verdicts and optimal totals are compared with what the query
expects (from ``expectations.json`` or from brute force).
"""

from __future__ import annotations

INF = float("inf")


def ham(s: str, t: str) -> int:
    return sum(a != b for a, b in zip(s, t))


def _prefix_dp(s: str, t: str, substitute: bool) -> float:
    """Cheapest disjoint adjacent swaps (plus substitutions) turning s into t.

    best[i] is the cost of turning s[:i] into t[:i]; position i either
    matches, is substituted, or starts a swap of two distinct symbols.
    """
    n = len(s)
    best = [INF] * (n + 1)
    best[0] = 0
    for i in range(n):
        if best[i] == INF:
            continue
        step = 0 if s[i] == t[i] else (1 if substitute else INF)
        best[i + 1] = min(best[i + 1], best[i] + step)
        if i + 1 < n and s[i] != s[i + 1] and s[i] == t[i + 1] and s[i + 1] == t[i]:
            best[i + 2] = min(best[i + 2], best[i] + 1)
    return best[n]


def swap(s: str, t: str) -> float:
    return _prefix_dp(s, t, substitute=False)


def sh(s: str, t: str) -> float:
    return _prefix_dp(s, t, substitute=True)


DISTANCES = {"swap": swap, "sh": sh, "ham": ham}


def check_planted(words, centre: str, ops: int, metric: str = "swap") -> None:
    """Generator self-check: the planted centre is within ``ops`` of every word."""
    dist = DISTANCES[metric]
    far = [j for j, w in enumerate(words) if dist(centre, w) > ops]
    if far:
        raise AssertionError(f"planted centre farther than {ops} from word {far[0] + 1}")


def check_answer(
    words,
    metric: str,
    d: int | None,
    D: int | None,
    want_feasible: bool,
    want_total: int | None,
    feasible: bool,
    witness: str | None,
    reported: tuple | None,
) -> str | None:
    """None if the answer is right, else what is wrong with it."""
    if feasible != want_feasible:
        return f"verdict {'feasible' if feasible else 'infeasible'}, expected the opposite"
    if not feasible:
        return None
    if witness is None or len(witness) != len(words[0]):
        return f"witness {witness!r} has the wrong length"
    dist = DISTANCES[metric]
    dists = tuple(dist(w, witness) for w in words)
    if reported is not None and tuple(reported) != dists:
        return f"reported distances {tuple(reported)} != recomputed {dists}"
    if d is not None and max(dists) > d:
        return f"witness at distance {max(dists)} > d={d}"
    if D is not None and sum(dists) > D:
        return f"witness total {sum(dists)} > D={D}"
    if want_total is not None and sum(dists) != want_total:
        return f"witness total {sum(dists)} != optimum {want_total}"
    return None


def self_test() -> None:
    """The checker must accept a right answer and reject two wrong ones."""
    words = ("abab", "baba")  # swap radius 1, witness baab at distances (1, 1)
    args = (words, "swap", 1, None, True, None)
    if check_answer(*args, True, "baab", (1, 1)) is not None:
        raise AssertionError("checker rejects a correct witness")
    if check_answer(*args, True, "bbaa", (1, 1)) is None:
        raise AssertionError("checker accepts a corrupted witness")
    if check_answer(*args, False, None, None) is None:
        raise AssertionError("checker accepts a flipped verdict")
    if check_answer(words, "swap", None, None, True, 2, True, "baab", (1, 1)) is not None:
        raise AssertionError("checker rejects an optimal total")
    if check_answer(words, "sh", None, None, True, 2, True, "aabb", (1, 2)) is None:
        raise AssertionError("checker accepts a suboptimal total")
