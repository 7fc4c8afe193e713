"""Shared data model: words, instances, answers, and the error hierarchy.

Words are plain ``str`` objects over single-character symbols; the canonical
symbol order is code-point order, which makes Python's default string
comparison the lexicographic order used for every tie-break in the package.
Positions are 1-based in all public diagnostics and CLI output; internal code
indexes 0-based.
"""

from __future__ import annotations

import time
from functools import wraps
from typing import Callable, Iterable, TypeVar

__all__ = [
    "SwapsensusError",
    "UnequalLengths",
    "EmptyInstance",
    "InvalidSymbol",
    "LengthMismatch",
    "NotMatching",
    "ReservedSymbolPresent",
    "CapExceeded",
    "CertificationFailure",
    "InvalidQuery",
    "check_bounds",
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

#: The three distances, as the CLI and ``OracleQuery`` name them.
METRICS = ("hamming", "swap", "swap-hamming")


class SwapsensusError(Exception):
    """Base class for all package errors."""


class UnequalLengths(SwapsensusError):
    """Words of differing lengths where equal lengths are required.

    ``line`` is the 1-based line/word index at which the mismatch was seen.
    """

    def __init__(self, line: int):
        self.line = line
        super().__init__(f"word at line {line} has a different length")


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


class CapExceeded(SwapsensusError):
    """A brute-force enumeration would exceed its fixed cap."""


class CertificationFailure(SwapsensusError):
    """A recomputed-from-scratch check disagreed with a solver's result.

    This always signals an implementation bug, never a property of the input.
    """


class InvalidQuery(SwapsensusError, ValueError):
    """A question that cannot be asked: a bound missing, extra or negative.

    Messages name the bounds by the CLI's flags, ``-d`` and ``-D``.
    """


def check_bounds(objective: str, d: int | None, D: int | None) -> None:
    """Check the radius bound d and sum bound D against the objective.

    Radius needs d, radius-sum needs both, sum takes D alone and only
    optionally (it then decides the sum); each given bound is non-negative.
    """
    if objective != "sum" and d is None:
        raise InvalidQuery(f"--objective {objective} requires -d")
    if objective == "radius-sum" and D is None:
        raise InvalidQuery("--objective radius-sum requires -D")
    if objective == "radius" and D is not None:
        raise InvalidQuery("-D is not valid with --objective radius")
    if objective == "sum" and d is not None:
        raise InvalidQuery("-d is not valid with --objective sum")
    if d is not None and d < 0:
        raise InvalidQuery("-d must be non-negative")
    if D is not None and D < 0:
        raise InvalidQuery("-D must be non-negative")


# Sets a field of a read-only record; one global lookup, not two, per field.
_set_field = object.__setattr__


class _Record:
    """Value semantics for the package's records, written out so importing is cheap.

    A subclass lists its fields in order as ``__slots__`` and the values of
    its optional ones in ``_defaults``. The one ``__init__`` here binds its
    arguments to the fields as a signature with those defaults would, sets
    them with ``object.__setattr__``, since a record is read-only (assigning
    or deleting a field raises ``AttributeError``), and then runs the
    subclass's ``_check``. Records are equal when their types and field
    values are, hash over their fields and print as ``Name(field=value, ...)``.
    """

    __slots__ = ()
    _defaults: dict[str, object] = {}

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            _set_field(self, name, value)
        self._check()

    def _bind(self, args: tuple, kwargs: dict[str, object]) -> tuple:
        """The field values in order, or the ``TypeError`` a call would raise."""
        names, call = self.__slots__, f"{type(self).__name__}()"
        if len(args) > len(names):
            raise TypeError(
                f"{call} takes {len(names)} positional arguments but {len(args)} were given"
            )
        values = {**self._defaults, **dict(zip(names, args))}
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{call} got an unexpected keyword argument {name!r}")
            if name in names[: len(args)]:
                raise TypeError(f"{call} got multiple values for argument {name!r}")
            values[name] = value
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeError(f"{call} missing required arguments: {', '.join(missing)}")
        return tuple(values[name] for name in names)

    def _check(self) -> None:
        """Reject invalid field values; records with a rule override this."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.as_dict().items())
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # Rebuild through __init__: the default pickling assigns the fields.
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def as_dict(self) -> dict[str, object]:
        """The fields by name, in order."""
        return {name: getattr(self, name) for name in self.__slots__}


class Instance(_Record):
    """k equal-length words; the alphabet is exactly the symbols they use."""

    __slots__ = ("words",)

    def _check(self) -> None:
        words = self.words
        if not words:
            raise EmptyInstance("instance contains no words")
        n = len(words[0])
        if n == 0:
            raise EmptyInstance("zero-length word at line 1")
        for idx, w in enumerate(words):
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


class BudgetedInstance(_Record):
    """An instance with per-string consumed budgets, aligned with the words."""

    __slots__ = ("instance", "budgets")

    def _check(self) -> None:
        instance, budgets = self.instance, self.budgets
        if len(budgets) != instance.k:
            raise LengthMismatch(f"{len(budgets)} budgets for {instance.k} words")
        if any(x < 0 for x in budgets):
            raise ValueError("budgets must be non-negative")


class SearchStats(_Record):
    """Counters reported by solvers; all costs are recomputed, never these.

    ``elapsed`` is the wall time in seconds of the whole public call that
    returned the answer, early exits and certification included.
    """

    __slots__ = ("nodes_expanded", "dp_states", "oracle_enumerated", "elapsed")

    # The counters are bumped once per search node, so they are assigned
    # directly, and a mutable record has no hash. Every solve builds a bare
    # SearchStats(), which the base's keyword binder would make more than ten
    # times dearer, so the record keeps its own __init__.
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        nodes_expanded: int = 0,
        dp_states: int = 0,
        oracle_enumerated: int = 0,
        elapsed: float = 0.0,
    ) -> None:
        self.nodes_expanded = nodes_expanded
        self.dp_states = dp_states
        self.oracle_enumerated = oracle_enumerated
        self.elapsed = elapsed


class ConsensusAnswer(_Record):
    """Outcome of a consensus solve: a certified witness or an infeasibility report.

    When feasible, ``per_string_distances`` (and therefore ``max_distance`` and
    ``sum_distance``) are recomputed from the solution by the relevant distance
    function; they are never echoed from internal search state. ``stats``
    defaults to fresh counters; a negative counter raises ``ValueError``.
    """

    __slots__ = (
        "feasible",
        "solution",
        "per_string_distances",
        "max_distance",
        "sum_distance",
        "stats",
        "reason",
    )

    _defaults = {"stats": None, "reason": None}

    def _check(self) -> None:
        stats = self.stats
        if stats is None:
            _set_field(self, "stats", SearchStats())
        elif min(stats.nodes_expanded, stats.dp_states, stats.oracle_enumerated) < 0:
            raise ValueError("negative counter in search stats")

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
            True,
            solution,
            per_string_distances,
            max(per_string_distances),
            sum(per_string_distances),
            stats,
            None,
        )

    @staticmethod
    def none(reason: str, stats: SearchStats | None = None) -> "ConsensusAnswer":
        return ConsensusAnswer(False, None, None, None, None, stats, reason)


def decide_sum(
    answer: ConsensusAnswer, D: int | None, what: str = "distance sum"
) -> ConsensusAnswer:
    """Turn a minimum-sum answer into the answer to "is the sum within D?"."""
    if D is None or not answer.feasible or answer.sum_distance <= D:
        return answer
    return ConsensusAnswer.none(
        f"minimum {what} is {int(answer.sum_distance)} > {D}", answer.stats
    )


Node = TypeVar("Node")
Solver = TypeVar("Solver", bound=Callable)


def timed(solver: Solver) -> Solver:
    """Set ``answer.stats.elapsed`` to the wall time of each whole call.

    ``solver`` returns an answer or an ``(answer, detail)`` pair. A solver
    that returns an inner solver's stats shares them, so when timed calls
    nest, the outermost call's time is the one kept.
    """

    @wraps(solver)
    def run(*args, **kwargs):
        start = time.perf_counter()
        out = solver(*args, **kwargs)
        answer = out[0] if isinstance(out, tuple) else out
        answer.stats.elapsed = time.perf_counter() - start
        return out

    return run


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


def columns(words: Iterable[Word]) -> list[str]:
    """The words' columns: column p spells the words' symbols at p, in order."""
    return list(map("".join, zip(*words)))


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
        # split() breaks exactly where str.isspace() holds, so a stripped
        # line splits in two or more exactly when it holds whitespace.
        if len(line.split()) > 1:
            raise InvalidSymbol(lineno, next(ch for ch in line if ch.isspace()))
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
