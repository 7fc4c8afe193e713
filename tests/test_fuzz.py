"""Fuzzing the command line and the instance parser: never a traceback.

Every ``consensus`` and ``oracle`` run on arbitrary file contents and flag
combinations must end in exit 0 (feasible), 1 (infeasible) or 2 (usage or
input error, reported on stderr as ``error: ...``).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from conftest import run_cli
from swapsensus import Instance, SwapsensusError, parse_instance

# Each example runs the command line's main in this process, so no
# per-example deadline; derandomized, with no example database, so every run
# draws the same examples.
FUZZ = settings(deadline=None, derandomize=True, database=None, max_examples=400)

symbols = st.one_of(st.sampled_from("abc \t#"), st.characters(codec="utf-8"))
lines = st.lists(st.text(symbols, max_size=6), max_size=4).map("\n".join)
words = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.text(st.sampled_from("abc"), min_size=n, max_size=n), min_size=1, max_size=4
    )
).map("\n".join)
# Well-formed instances twice as often as other text or bytes.
file_bytes = st.one_of(
    words.map(str.encode),
    words.map(str.encode),
    lines.map(str.encode),
    st.binary(max_size=30),
)
budget_bytes = st.one_of(
    st.lists(st.integers(-1, 3), max_size=5).map(lambda xs: " ".join(map(str, xs)).encode()),
    st.binary(max_size=8),
)
# Most runs pass no budgets file: it is valid with the Hamming metric only.
budgets_files = st.one_of(st.none(), st.none(), budget_bytes)
value = st.one_of(st.integers(-2, 3), st.just(1000))
bound = st.one_of(st.none(), value)
metrics = st.sampled_from(["hamming", "swap", "swap-hamming"])
objectives = st.sampled_from(["radius", "sum", "radius-sum"])


def bounds_for(command: str, objective: str):
    """Mostly the bounds the objective takes (maybe negative), else any."""
    d = st.none() if objective == "sum" else value
    sum_big_d = bound if command == "consensus" else st.none()
    big_d = {"radius": st.none(), "sum": sum_big_d, "radius-sum": value}[objective]
    fitting = st.tuples(d, big_d)
    return st.one_of(fitting, fitting, fitting, st.tuples(bound, bound))


@st.composite
def questions(draw, command: str) -> list[str]:
    metric, objective = draw(metrics), draw(objectives)
    d, big_d = draw(bounds_for(command, objective))
    argv = [command, "--distance" if command == "consensus" else "--metric", metric]
    argv += ["--objective", objective, "--output", draw(st.sampled_from(["human", "json"]))]
    argv += ["-d", str(d)] if d is not None else []
    argv += ["-D", str(big_d)] if big_d is not None else []
    if command == "consensus":
        argv += draw(st.sampled_from([[], [], [], ["--trace"], ["--dump-table"]]))
    return argv


def run(argv: list[str], instance: bytes, budgets: bytes | None):
    with tempfile.TemporaryDirectory() as tmp:
        inst_path = Path(tmp) / "inst.txt"
        inst_path.write_bytes(instance)
        if budgets is not None:
            budgets_path = Path(tmp) / "budgets.txt"
            budgets_path.write_bytes(budgets)
            argv = [*argv, "--budgets", str(budgets_path)]
        return run_cli([*argv, str(inst_path)])


def assert_clean_exit(result) -> None:
    # run_cli lets any exception but SystemExit propagate, failing the example.
    assert result.exit_code in (0, 1, 2), result.stdout + result.stderr
    if result.exit_code == 2:
        assert result.stderr.startswith("error:"), result.stderr


@FUZZ
@given(argv=questions("consensus"), instance=file_bytes, budgets=budgets_files)
def test_consensus_never_crashes(argv, instance, budgets):
    assert_clean_exit(run(argv, instance, budgets))


@FUZZ
@given(argv=questions("oracle"), instance=file_bytes, budgets=budgets_files)
def test_oracle_never_crashes(argv, instance, budgets):
    assert_clean_exit(run(argv, instance, budgets))


@FUZZ
@given(text=st.one_of(st.text(), lines, words))
def test_parse_instance_answers_or_raises_its_own_error(text):
    try:
        inst = parse_instance(text)
    except SwapsensusError:
        return
    assert isinstance(inst, Instance)
