"""Data model, instance file format, and error hierarchy."""

from __future__ import annotations

import ast
import importlib
import json
import math
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import GRAPH, child_env, plain_graph_walk, radius_graph_search
import swapsensus
from swapsensus import (
    INF,
    BudgetedInstance,
    ConsensusAnswer,
    EmptyInstance,
    Instance,
    InvalidSymbol,
    LengthMismatch,
    SearchStats,
    UnequalLengths,
    format_instance,
    parse_instance,
)


@st.composite
def instances(draw) -> Instance:
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 5))
    words = tuple(
        "".join(draw(st.sampled_from("abcxyz")) for _ in range(n)) for _ in range(k)
    )
    return Instance(words)


class TestInstance:
    def test_basic_properties(self):
        inst = Instance(("abca", "bbca", "acba"))
        assert inst.k == 3
        assert inst.n == 4
        assert inst.alphabet == ("a", "b", "c")

    def test_alphabet_is_sorted_and_distinct(self):
        inst = Instance(("zya", "azz"))
        assert inst.alphabet == ("a", "y", "z")

    def test_no_words_rejected(self):
        with pytest.raises(EmptyInstance):
            Instance(())

    def test_zero_length_word_rejected(self):
        with pytest.raises(EmptyInstance):
            Instance(("",))
        with pytest.raises(EmptyInstance, match="zero-length word at line 2"):
            Instance(("ab", ""))

    def test_unequal_lengths_rejected_with_word_index(self):
        with pytest.raises(UnequalLengths) as exc:
            Instance(("ab", "abc"))
        assert exc.value.line == 2

    def test_single_word_instance_allowed(self):
        inst = Instance(("q",))
        assert inst.k == 1 and inst.n == 1 and inst.alphabet == ("q",)


class TestBudgetedInstance:
    def test_budget_count_must_match_word_count(self):
        inst = Instance(("ab", "ba"))
        with pytest.raises(LengthMismatch):
            BudgetedInstance(inst, (1,))

    def test_negative_budget_rejected(self):
        inst = Instance(("ab", "ba"))
        with pytest.raises(ValueError):
            BudgetedInstance(inst, (1, -1))

    def test_valid_budgets_accepted(self):
        inst = Instance(("ab", "ba"))
        bi = BudgetedInstance(inst, (0, 2))
        assert bi.budgets == (0, 2)


class TestParseFormat:
    def test_parse_simple(self):
        inst = parse_instance("ab\nba\n")
        assert inst.words == ("ab", "ba")

    def test_parse_skips_blank_lines_and_comments(self):
        text = "# a comment\n\nab\n\n# another\nba\n"
        assert parse_instance(text).words == ("ab", "ba")

    def test_parse_handles_crlf_and_surrounding_space(self):
        assert parse_instance("ab\r\n  ba  \r\n").words == ("ab", "ba")

    def test_parse_empty_input_rejected(self):
        with pytest.raises(EmptyInstance):
            parse_instance("# only a comment\n\n")

    def test_parse_unequal_lengths_reports_file_line(self):
        text = "# header\nab\n\nabc\n"
        with pytest.raises(UnequalLengths) as exc:
            parse_instance(text)
        assert exc.value.line == 4

    def test_parse_inner_whitespace_rejected(self):
        with pytest.raises(InvalidSymbol) as exc:
            parse_instance("ab cd\nabcd\n")
        assert exc.value.line == 1
        assert exc.value.symbol == " "

    @given(instances())
    def test_round_trip(self, inst: Instance):
        assert parse_instance(format_instance(inst)) == inst

    @given(instances())
    def test_format_ends_with_newline(self, inst: Instance):
        text = format_instance(inst)
        assert text.endswith("\n")
        assert text.splitlines() == list(inst.words)


class TestConsensusAnswer:
    def test_found_recomputes_aggregates(self):
        ans = ConsensusAnswer.found("ab", (1, 2, 0))
        assert ans.feasible
        assert ans.status == "feasible"
        assert ans.solution == "ab"
        assert ans.max_distance == 2
        assert ans.sum_distance == 3
        assert ans.reason is None

    def test_none_carries_reason(self):
        ans = ConsensusAnswer.none("because")
        assert not ans.feasible
        assert ans.status == "infeasible"
        assert ans.solution is None
        assert ans.per_string_distances is None
        assert ans.max_distance is None
        assert ans.sum_distance is None
        assert ans.reason == "because"

    def test_stats_dict_keys(self):
        keys = set(SearchStats().as_dict())
        assert keys == {"nodes_expanded", "dp_states", "oracle_enumerated", "elapsed"}


def _records() -> dict[str, tuple[type, dict]]:
    """One valid record of each kind: its class and its fields in order."""
    inst = Instance(("ab", "ba"))
    budgeted = BudgetedInstance(inst, (0, 1))
    enc = (swapsensus.SwapStr("1", 2), swapsensus.SwapStr("0", 2))
    dz = swapsensus.Disentanglement(("ab", "ab"), (1, 0), 1, ((1, 2),), enc)
    fields = {
        Instance: {"words": ("a",)},
        BudgetedInstance: {"instance": inst, "budgets": (0, 1)},
        SearchStats: {"nodes_expanded": 1, "dp_states": 2, "oracle_enumerated": 3, "elapsed": 0.5},
        ConsensusAnswer: {
            "feasible": True,
            "solution": "ab",
            "per_string_distances": (0, 1),
            "max_distance": 1,
            "sum_distance": 1,
            "stats": SearchStats(nodes_expanded=4),
            "reason": None,
        },
        swapsensus.Disentanglement: {
            "strings_prime": ("ab", "ab"),
            "budgets": (1, 0),
            "total": 1,
            "tangled_intervals": ((1, 2),),
            "encoded": enc,
        },
        swapsensus.Infeasible: {"reason": "column 2", "column": 2},
        swapsensus.MixedRadiusQuery: {"budgeted": budgeted, "d": 1},
        swapsensus.MixedRadiusSumQuery: {"budgeted": budgeted, "d": 1, "D": 2},
        swapsensus.Radius: {"d": 1},
        swapsensus.Sum: {},
        swapsensus.RadiusSum: {"d": 1, "D": 1},
        swapsensus.OracleQuery: {
            "instance": inst,
            "metric": "swap",
            "objective": swapsensus.Radius(1),
            "budgets": (0, 1),
        },
        swapsensus.SwapPipelineTrace: {
            "disentanglement": dz,
            "encoded": enc,
            "h_star": swapsensus.SwapStr("0", 2),
            "decoded": "ab",
        },
        swapsensus.SHWitness: {"swaps": (1,), "substitutions": (3,)},
        swapsensus.DPState: {"row": 1, "swap_members": (2,), "prefix": "ba", "cost": 1},
        swapsensus.SwapStr: {"bits": "010", "home_length": 4},
    }
    return {cls.__name__: (cls, f) for cls, f in fields.items()}


RECORDS = list(_records())
# SearchStats can change and ConsensusAnswer holds one, so neither hashes.
UNHASHABLE = {"SearchStats", "ConsensusAnswer"}
REPRS = {
    "Instance": "Instance(words=('a',))",
    "SHWitness": "SHWitness(swaps=(1,), substitutions=(3,))",  # as in the README
}


class TestRecords:
    @pytest.mark.parametrize("name", RECORDS)
    def test_records_keep_value_semantics(self, name):
        cls, fields = _records()[name]
        rec = cls(**fields)
        twin = cls(**_records()[name][1])  # equal fields, other objects
        assert list(rec.as_dict().items()) == list(fields.items())
        assert rec == twin and not rec != twin
        assert rec != tuple(fields.values())
        # Radius(1) and RadiusSum(1, 1) among them
        others = [c(**f) for other, (c, f) in _records().items() if other != name]
        assert all(rec != o and o != rec for o in others)
        assert pickle.loads(pickle.dumps(rec)) == rec
        inner = ", ".join(f"{k}={v!r}" for k, v in fields.items())
        assert repr(rec) == REPRS.get(name, f"{name}({inner})")
        field = next(iter(fields), "d")
        if name == "SearchStats":
            rec.nodes_expanded += 1
            rec.elapsed = 2.0
            assert rec.as_dict() == {**fields, "nodes_expanded": 2, "elapsed": 2.0}
            assert rec != twin
        else:
            with pytest.raises(AttributeError):
                setattr(rec, field, None)
            with pytest.raises(AttributeError):
                delattr(rec, field)
            assert rec == twin
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(rec)
        else:
            assert hash(rec) == hash(twin)


class TestMisc:
    def test_inf_constant(self):
        assert math.isinf(INF) and INF > 0

    def test_package_exports_are_the_submodules_exports(self):
        exported = swapsensus.__all__
        assert len(exported) == len(set(exported))
        for name in exported:
            assert hasattr(swapsensus, name), name
        submodules = [
            importlib.import_module(f"swapsensus.{info.name}")
            for info in pkgutil.iter_modules(swapsensus.__path__)
        ]
        union = {name for mod in submodules for name in getattr(mod, "__all__", ())}
        assert set(exported) - {"__version__"} == union

    def test_names_the_benchmark_uses_exist(self):
        # Read from the benchmark's source, not imported: its package names,
        # and the module attributes its traced run patches with CallMeter.
        names, patched = set(), set()
        for path in (Path(__file__).parent.parent / "benchmarks").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.module == "swapsensus":
                    names.update(alias.name for alias in node.names)
                elif isinstance(node, ast.Attribute):
                    owner = node.value  # sw.<name> or self.sw.<name>
                    if "sw" in (getattr(owner, "id", None), getattr(owner, "attr", None)):
                        names.add(node.attr)
                elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "CallMeter":
                    module, name = node.args[:2]
                    patched.add((module.id, name.value))
        assert {"OracleQuery", "brute_force", "gen_planted", "sh_radius"} <= names
        for name in names:  # the package imports every submodule
            assert hasattr(swapsensus, name), name
        assert patched == {
            ("hamming", "hamming_distance"),
            ("sh_radius", "hamming_distance"),
            ("sh_radius", "sh_cost"),
            ("sh_sum", "sh_cost"),
        }
        for module, name in patched:
            assert hasattr(importlib.import_module(f"swapsensus.{module}"), name)

    def test_function_names_hold_in_every_import_order(self):
        # Importing a submodule binds it on the package by its name; the
        # names disentangle and solve still give the functions.
        code = (
            "import json, swapsensus.cli, swapsensus.disentangle, swapsensus.solve\n"
            "import swapsensus as sw\n"
            "from swapsensus import disentangle, hamming, solve\n"
            "print(json.dumps([type(x).__name__ for x in "
            "(sw.disentangle, sw.solve, disentangle, solve, hamming)]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == ["function"] * 4 + ["module"]
        assert swapsensus.disentangle.__module__ == "swapsensus.disentangle"
        assert swapsensus.solve.__module__ == "swapsensus.solve"


class TestDepthFirst:
    def test_answer_is_the_plain_walks(self):
        # The radius search skips subtrees it has exhausted, yet it finds the
        # answer the plain walk finds.
        for answer in [None, *GRAPH]:
            found = radius_graph_search(answer)[0]
            assert found == plain_graph_walk(answer)[0] == answer
