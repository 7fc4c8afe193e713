"""Shared helpers for the test suite."""

from __future__ import annotations

import io
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, sleep

import pytest

import swapsensus
from swapsensus import Instance, SearchStats
from swapsensus.cli import main
from swapsensus.core import depth_first
from swapsensus.hamming import _radius_search

# Children by one-letter node. Expansion stops at depth 3, so a node's
# subtree depends on (node, depth) alone and shrinks as the depth grows. "n"
# is its own child, and is reached again under "c" and directly from "r".
GRAPH = {"r": "abn", "a": "n", "b": "c", "c": "n", "n": "n"}


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


def check_move(cand: str, w: str, move) -> None:
    """Assert that a radius-tree move is a window of ``w`` that changes ``cand``.

    A move is (p, window): ``w[p]``, or ``w[p + 1] + w[p]``, written over
    ``cand`` from position p on.
    """
    assert isinstance(move, tuple) and len(move) == 2, move
    p, window = move
    assert 1 <= len(window) <= 2 and 0 <= p and p + len(window) <= len(cand), move
    assert window in (w[p], w[p + 1 : p + 2] + w[p]), (cand, w, move)
    assert cand[:p] + window + cand[p + len(window) :] != cand, (cand, w, move)


def count_calls(monkeypatch, module, name: str) -> list[tuple]:
    """Log every call of ``module.name`` (looked up at call time); returns the log."""
    log: list[tuple] = []
    real = getattr(module, name)

    def logged(*args):
        log.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, logged)
    return log


def slow_calls(monkeypatch, module, name: str, seconds: float) -> list[tuple]:
    """Make every call of ``module.name`` sleep ``seconds`` first; returns its log."""
    real = getattr(module, name)

    def slow(*args):
        sleep(seconds)
        return real(*args)

    monkeypatch.setattr(module, name, slow)
    return count_calls(monkeypatch, module, name)


def plain_graph_walk(answer=None) -> tuple[str | None, list[tuple]]:
    """Walk GRAPH from "r" with ``depth_first``; returns (found, expand log)."""
    calls: list[tuple] = []

    def expand(node, depth):
        calls.append((node, depth))
        if node == answer:
            return None
        return GRAPH[node] if depth < 3 else ()

    return depth_first("r", expand), calls


def radius_graph_search(answer=None) -> tuple[str | None, list[tuple]]:
    """Search GRAPH from "r" with ``_radius_search``; returns (found, step log)."""
    calls: list[tuple] = []

    def step(cand, dists, depth):
        calls.append((cand, depth))
        if cand == answer:
            return None
        return [(0, c) for c in GRAPH[cand]] if depth < 3 else ()

    return _radius_search(("r",), [0], step, SearchStats()), calls


@dataclass(frozen=True)
class CliResult:
    exit_code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliResult:
    """Run the command line's ``main(argv)`` in this process, capturing its streams.

    Every command ends in SystemExit; any other exception propagates.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exited:
        main(argv)
    return CliResult(exited.value.code, out.getvalue(), err.getvalue())


def child_env() -> dict[str, str]:
    """This environment, with this checkout's package first on PYTHONPATH."""
    src = str(Path(swapsensus.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
