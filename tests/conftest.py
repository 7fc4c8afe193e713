"""Shared helpers for the test suite."""

from __future__ import annotations

import math
import random
from time import perf_counter

from swapsensus import Instance


def random_words(
    rng: random.Random,
    max_n: int = 6,
    max_k: int = 4,
    max_sigma: int = 3,
    min_n: int = 1,
    min_k: int = 1,
    min_sigma: int = 1,
) -> tuple[str, ...]:
    """Draw a tuple of equal-length lowercase words from a seeded generator."""
    n = rng.randint(min_n, max_n)
    k = rng.randint(min_k, max_k)
    sigma = rng.randint(min_sigma, max_sigma)
    letters = "abcdefghijklmnopqrstuvwxyz"[:sigma]
    return tuple("".join(rng.choice(letters) for _ in range(n)) for _ in range(k))


def best_of(repeats: int, fn):
    """Smallest wall time over several runs; returns (best_seconds, result)."""
    best = math.inf
    result = None
    for _ in range(repeats):
        start = perf_counter()
        result = fn()
        best = min(best, perf_counter() - start)
    return best, result


def random_instance(rng: random.Random, **kwargs) -> Instance:
    """Draw a random Instance; keyword arguments pass through to random_words."""
    return Instance(random_words(rng, **kwargs))


def count_calls(monkeypatch, module, name: str) -> list[tuple]:
    """Log every call of ``module.name`` (looked up at call time); returns the log."""
    log: list[tuple] = []
    real = getattr(module, name)

    def logged(*args):
        log.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, logged)
    return log
