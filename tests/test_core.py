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
    CertificationFailure,
    ConsensusAnswer,
    EmptyInstance,
    Instance,
    InvalidSymbol,
    LengthMismatch,
    SearchStats,
    UnequalLengths,
    format_instance,
    hamming_distance,
    parse_instance,
    swap_distance,
)
from swapsensus.core import certified


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
        # Two different whitespace symbols: the error names the first.
        with pytest.raises(InvalidSymbol) as exc:
            parse_instance("abcde\na\tb c\n")
        assert exc.value.line == 2
        assert exc.value.symbol == "\t"
        assert str(exc.value) == "invalid symbol '\\t' in word at line 2"

    @pytest.mark.parametrize(
        "symbol", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_parse_breaks_lines_at_newline_only(self, symbol):
        # str.splitlines() breaks at each of these too; inside a word they
        # are whitespace, on the line they stand on.
        for text in (f"ab{symbol}cd\nef\ngh\n", f"ab{symbol}cd\nabcd\n"):
            with pytest.raises(InvalidSymbol) as exc:
                parse_instance(text)
            assert (exc.value.line, exc.value.symbol) == (1, symbol)

    def test_split_breaks_exactly_at_isspace(self):
        # parse_instance finds inner whitespace with str.split(); on every
        # code point, split() must break where str.isspace() holds, and
        # nowhere else.
        differ = [
            c for c in map(chr, range(sys.maxunicode + 1))
            if (len(("a" + c + "b").split()) == 2) != c.isspace()
        ]
        assert differ == []
        assert sum(map(str.isspace, map(chr, range(sys.maxunicode + 1)))) == 29

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

    def test_negative_counter_rejected_however_built(self):
        builds = (
            lambda stats: ConsensusAnswer.found("ab", (1, 0), stats),
            lambda stats: ConsensusAnswer.none("because", stats),
            lambda stats: ConsensusAnswer(False, None, None, None, None, stats),
        )
        for build in builds:
            with pytest.raises(ValueError, match="negative counter"):
                build(SearchStats(nodes_expanded=-1))
            assert build(SearchStats(nodes_expanded=1)).stats.nodes_expanded == 1


class TestCertified:
    WORDS = ("aa", "ab", "bb")

    def test_distances_at_their_bounds_pass(self):
        # Distances 1, 0, 1 to "ab"; slacks 2-1, 2-0, 2-1 and sum 4-2.
        stats = SearchStats(nodes_expanded=3)
        ans = certified(self.WORDS, "ab", hamming_distance, stats, 2, 4, (1, 0, 1))
        assert ans == ConsensusAnswer.found("ab", (1.0, 0.0, 1.0), stats)
        assert all(type(x) is float for x in ans.per_string_distances)
        assert certified(self.WORDS, "ab", hamming_distance, d=1, D=2).feasible

    def test_a_word_beyond_its_slack_is_named(self):
        with pytest.raises(
            CertificationFailure, match=r"^word 3: recomputed distance 2 > slack 1$"
        ):
            certified(self.WORDS, "aa", hamming_distance, d=2, budgets=(0, 0, 1))

    def test_a_sum_beyond_the_sum_slack(self):
        # Distances 1, 0, 1: sum 2 > 3 - (1 + 0 + 1).
        with pytest.raises(CertificationFailure, match=r"^recomputed distance sum 2 > 1$"):
            certified(self.WORDS, "ab", hamming_distance, D=3, budgets=(1, 0, 1))

    def test_an_infinite_distance_fails_certification(self):
        with pytest.raises(
            CertificationFailure, match=r"^word 2: recomputed distance inf > slack 5$"
        ):
            certified(("ab", "bb"), "ab", swap_distance, d=5)
        with pytest.raises(CertificationFailure, match=r"^recomputed distance sum inf > 5$"):
            certified(("ab", "bb"), "ab", swap_distance, D=5)

    def test_the_distance_runs_once_per_word(self):
        calls = []

        def distance(w, t):
            calls.append((w, t))
            return hamming_distance(w, t)

        certified(self.WORDS, "ab", distance, d=2, D=4)
        assert calls == [(w, "ab") for w in self.WORDS]


def _records() -> dict[str, tuple[type, dict]]:
    """One valid record of each kind: its class and its fields in order."""
    inst = Instance(("ab", "ba"))
    budgeted = BudgetedInstance(inst, (0, 1))
    enc = (swapsensus.SwapStr("1", 2), swapsensus.SwapStr("0", 2))
    dz = swapsensus.Disentanglement(("ab", "ab"), (1, 0), 1, ((1, 2),), enc, (0,))
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
            "bit_columns": (0,),
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
# The optional fields and their defaults; a ConsensusAnswer built without
# stats gets fresh counters of its own.
DEFAULTS = {
    "SearchStats": {"nodes_expanded": 0, "dp_states": 0, "oracle_enumerated": 0, "elapsed": 0.0},
    "ConsensusAnswer": {"stats": SearchStats(), "reason": None},
    "Infeasible": {"column": None},
    "OracleQuery": {"budgets": None},
}
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
        # Arguments bind to the fields as a signature with defaults would.
        values = list(fields.values())
        assert cls(*values) == twin
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(TypeError):
            cls(**fields, unknown=None)
        defaults = DEFAULTS.get(name, {})
        required = {k: v for k, v in fields.items() if k not in defaults}
        if fields:
            with pytest.raises(TypeError):
                cls(values[0], **fields)
        if required:
            with pytest.raises(TypeError):
                cls(**dict(list(required.items())[1:]))
        bare = cls(**required)
        assert bare.as_dict() == {**fields, **defaults}
        assert all(getattr(bare, k) is None for k, v in defaults.items() if v is None)
        assert cls(*required.values()) == bare
        if name == "ConsensusAnswer":
            assert bare.stats is not cls(**required).stats

    def test_records_are_built_only_by_the_base(self):
        # One __init__ in core sets every read-only record's fields; only
        # the mutable SearchStats assigns its own.
        setters, inits, records = set(), set(), set()
        for path in Path(swapsensus.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "__setattr__"
                    and getattr(node.value, "id", None) == "object"
                ):
                    setters.add(path.name)
                elif isinstance(node, ast.ClassDef) and any(
                    getattr(base, "id", None) == "_Record" for base in node.bases
                ):
                    records.add(node.name)
                    if any(
                        isinstance(item, ast.FunctionDef) and item.name == "__init__"
                        for item in node.body
                    ):
                        inits.add(node.name)
        assert records == set(RECORDS)
        assert setters == {"core.py"}
        assert inits == {"SearchStats"}


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

    def test_dir_lists_the_exports_and_submodules(self):
        # The names the package resolves: its exports and the submodules
        # whose __all__ lists make them. The first dir() of a fresh
        # interpreter, before any submodule is loaded, lists them too.
        names = set(swapsensus.__all__) | {
            info.name
            for info in pkgutil.iter_modules(swapsensus.__path__)
            if hasattr(importlib.import_module(f"swapsensus.{info.name}"), "__all__")
        }
        listed = dir(swapsensus)
        assert listed == sorted(listed)
        assert names <= set(listed)
        proc = subprocess.run(
            [sys.executable, "-c", "import json, swapsensus; print(json.dumps(dir(swapsensus)))"],
            capture_output=True,
            text=True,
            timeout=60,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        fresh = json.loads(proc.stdout)
        assert fresh == sorted(fresh)
        assert names <= set(fresh), sorted(names - set(fresh))

    def test_every_imported_name_is_used(self):
        # No linter runs here, so the package's stale imports are caught by
        # this walk: a name a module binds by import is read in it or
        # exported through its __all__.
        for path in Path(swapsensus.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text())
            bound, read, exported = set(), set(), set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    bound.update((a.asname or a.name).split(".")[0] for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    bound.update(a.asname or a.name for a in node.names)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets
                ):
                    exported.update(ast.literal_eval(node.value))
            assert bound <= read | exported, (path.name, sorted(bound - read - exported))

    def test_every_private_helper_is_read_in_the_package(self):
        # A private top-level function or class that no module of the
        # package reads, by name or as a module attribute, is dead code or
        # kept alive by its tests alone. Dunders (a module's __getattr__ and
        # __dir__) are read by Python itself.
        defined, read = {}, set()
        for path in Path(swapsensus.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text())
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and (
                    node.name[0] == "_" and not node.name.startswith("__")
                ):
                    defined[node.name] = path.name
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
        assert defined
        unread = {name: module for name, module in defined.items() if name not in read}
        assert not unread, unread

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
