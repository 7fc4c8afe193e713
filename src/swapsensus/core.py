"""Shared data model: words, instances, answers, and the error hierarchy.

Words are plain ``str`` objects over single-character symbols; the canonical
symbol order is code-point order, which makes Python's default string
comparison the lexicographic order used for every tie-break in the package.
Positions are 1-based in all public diagnostics and CLI output; internal code
indexes 0-based.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, TypeVar

__all__ = [
    "SwapsensusError",
    "UnequalLengths",
    "EmptyInstance",
    "InvalidSymbol",
    "LengthMismatch",
    "NotMatching",
    "ReservedSymbolPresent",
    "OutOfRange",
    "CapExceeded",
    "CertificationFailure",
    "Word",
    "Instance",
    "BudgetedInstance",
    "SearchStats",
    "ConsensusAnswer",
    "parse_instance",
    "format_instance",
    "INF",
]

# Words are plain strings; the alias documents intent in signatures.
Word = str

#: Infinite distance value (swap distance of non-matching words).
INF = float("inf")


class SwapsensusError(Exception):
    """Base class for all package errors."""


class UnequalLengths(SwapsensusError):
    """Words of differing lengths where equal lengths are required.

    ``line`` is the 1-based line/word index at which the mismatch was seen.
    """

    def __init__(self, line: int, message: str | None = None):
        self.line = line
        super().__init__(message or f"word at line {line} has a different length")


class EmptyInstance(SwapsensusError):
    """No words found, or a zero-length word."""


class InvalidSymbol(SwapsensusError):
    """A symbol the file format cannot represent (whitespace inside a word)."""

    def __init__(self, line: int, symbol: str):
        self.line = line
        self.symbol = symbol
        super().__init__(f"invalid symbol {symbol!r} in word at line {line}")


class LengthMismatch(SwapsensusError):
    """Two operands of an operation have incompatible lengths."""


class NotMatching(SwapsensusError):
    """No swap permutation transforms one word into the other.

    ``position`` is the 1-based position at which the forced swap fails.
    """

    def __init__(self, position: int):
        self.position = position
        super().__init__(f"words do not match: forced swap fails at position {position}")


class ReservedSymbolPresent(SwapsensusError):
    """The instance already uses a symbol reserved by a padding construction."""


class OutOfRange(SwapsensusError):
    """A position argument is outside the valid range."""


class CapExceeded(SwapsensusError):
    """A brute-force enumeration would exceed its configured cap."""


class CertificationFailure(SwapsensusError):
    """A recomputed-from-scratch check disagreed with a solver's result.

    This always signals an implementation bug, never a property of the input.
    """


@dataclass(frozen=True)
class Instance:
    """k equal-length words; the alphabet is exactly the symbols they use."""

    words: tuple[Word, ...]

    def __post_init__(self) -> None:
        if not self.words:
            raise EmptyInstance("instance contains no words")
        n = len(self.words[0])
        if n == 0:
            raise EmptyInstance("zero-length word at line 1")
        for idx, w in enumerate(self.words):
            if len(w) == 0:
                raise EmptyInstance(f"zero-length word at line {idx + 1}")
            if len(w) != n:
                raise UnequalLengths(idx + 1)

    @property
    def k(self) -> int:
        return len(self.words)

    @property
    def n(self) -> int:
        return len(self.words[0])

    @property
    def alphabet(self) -> tuple[str, ...]:
        """All symbols occurring in the words, in canonical (code point) order."""
        return tuple(sorted({c for w in self.words for c in w}))

    def column(self, p: int) -> tuple[str, ...]:
        """Distinct symbols of 0-based column ``p``, in canonical order."""
        return tuple(sorted({w[p] for w in self.words}))


@dataclass(frozen=True)
class BudgetedInstance:
    """An instance with per-string consumed budgets, aligned with the words."""

    instance: Instance
    budgets: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.budgets) != self.instance.k:
            raise LengthMismatch(
                f"{len(self.budgets)} budgets for {self.instance.k} words"
            )
        if any(x < 0 for x in self.budgets):
            raise ValueError("budgets must be non-negative")


@dataclass
class SearchStats:
    """Counters reported by solvers; all costs are recomputed, never these."""

    nodes_expanded: int = 0
    dp_states: int = 0
    oracle_enumerated: int = 0
    elapsed: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "nodes_expanded": self.nodes_expanded,
            "dp_states": self.dp_states,
            "oracle_enumerated": self.oracle_enumerated,
            "elapsed": self.elapsed,
        }


def _check_stats(stats: SearchStats) -> SearchStats:
    if min(stats.nodes_expanded, stats.dp_states, stats.oracle_enumerated) < 0:
        raise ValueError("negative counter in search stats")
    return stats


@dataclass(frozen=True)
class ConsensusAnswer:
    """Outcome of a consensus solve: a certified witness or an infeasibility report.

    When feasible, ``per_string_distances`` (and therefore ``max_distance`` and
    ``sum_distance``) are recomputed from the solution by the relevant distance
    function; they are never echoed from internal search state.
    """

    feasible: bool
    solution: Word | None
    per_string_distances: tuple[float, ...] | None
    max_distance: float | None
    sum_distance: float | None
    stats: SearchStats = field(default_factory=SearchStats)
    reason: str | None = None

    @property
    def status(self) -> str:
        return "feasible" if self.feasible else "infeasible"

    @staticmethod
    def found(
        solution: Word,
        per_string_distances: tuple[float, ...],
        stats: SearchStats | None = None,
    ) -> "ConsensusAnswer":
        return ConsensusAnswer(
            feasible=True,
            solution=solution,
            per_string_distances=per_string_distances,
            max_distance=max(per_string_distances),
            sum_distance=sum(per_string_distances),
            stats=_check_stats(stats or SearchStats()),
        )

    @staticmethod
    def none(reason: str, stats: SearchStats | None = None) -> "ConsensusAnswer":
        return ConsensusAnswer(
            feasible=False,
            solution=None,
            per_string_distances=None,
            max_distance=None,
            sum_distance=None,
            stats=_check_stats(stats or SearchStats()),
            reason=reason,
        )


def decide_sum(
    answer: ConsensusAnswer, D: int | None, what: str = "distance sum"
) -> ConsensusAnswer:
    """Turn a minimum-sum answer into the answer to "is the sum within D?"."""
    if D is None or not answer.feasible or answer.sum_distance <= D:
        return answer
    return ConsensusAnswer.none(
        f"minimum {what} is {int(answer.sum_distance)} > {D}", answer.stats
    )


class Timer:
    """Tiny context manager writing wall time into a SearchStats."""

    def __init__(self, stats: SearchStats):
        self.stats = stats

    def __enter__(self) -> "Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.stats.elapsed = time.perf_counter() - self._t0


Node = TypeVar("Node")


def depth_first(
    root: Node, expand: Callable[[Node, int], Iterable[Node] | None]
) -> Node | None:
    """Preorder depth-first search on an explicit stack, so any depth works.

    ``expand(node, depth)`` returns None if ``node`` is the answer, or else an
    iterable of its children, drawn lazily one at a time (a node is never
    None). Returns the answer, or None once the tree is exhausted.
    """
    stack = [iter((root,))]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        children = expand(node, len(stack) - 1)
        if children is None:
            return node
        stack.append(iter(children))
    return None


def parse_instance(text: str) -> Instance:
    """Parse the line-oriented instance format.

    One word per line; blank lines are ignored; lines starting with ``#`` are
    comments. Raises UnequalLengths (with the offending line number),
    EmptyInstance, or InvalidSymbol (whitespace inside a word).
    """
    words: list[str] = []
    expected: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        for ch in line:
            if ch.isspace():
                raise InvalidSymbol(lineno, ch)
        if expected is None:
            expected = len(line)
        elif len(line) != expected:
            raise UnequalLengths(lineno)
        words.append(line)
    if not words:
        raise EmptyInstance("no words in input")
    return Instance(tuple(words))


def format_instance(inst: Instance) -> str:
    """Inverse of parse_instance (modulo comments and blank lines)."""
    return "\n".join(inst.words) + "\n"
