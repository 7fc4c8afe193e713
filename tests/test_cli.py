"""Command-line interface: exit codes, JSON schemas, and flag validation."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import swapsensus
from swapsensus.cli import main

TANGLED_LONG = (
    "abgabcahidabdefeda",
    "bagcaabihdabefddea",
    "bagcabaihdbaefdeda",
)


@pytest.fixture
def runner() -> CliRunner:
    return CliRunner()


def write_lines(tmp_path, name, lines) -> str:
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def invoke_json(runner, args):
    result = runner.invoke(main, args + ["--output", "json"])
    payload = json.loads(result.stdout) if result.stdout.strip() else None
    return result, payload


class TestDistanceCommand:
    def test_hamming_human(self, runner):
        result = runner.invoke(main, ["distance", "--metric", "hamming", "abc", "abd"])
        assert result.exit_code == 0
        assert "distance: 1" in result.stdout

    def test_swap_json(self, runner):
        result, payload = invoke_json(
            runner, ["distance", "--metric", "swap", "abab", "baba"]
        )
        assert result.exit_code == 0
        assert payload == {
            "distance": 2,
            "metric": "swap",
            "witness": {"swap_string": "101", "swaps": [1, 3]},
        }

    def test_swap_non_matching_is_an_answer_not_an_error(self, runner):
        result, payload = invoke_json(
            runner, ["distance", "--metric", "swap", "abc", "bca"]
        )
        assert result.exit_code == 0
        assert payload["distance"] == "inf"
        assert payload["witness"] is None

    def test_swap_hamming_json(self, runner):
        result, payload = invoke_json(
            runner, ["distance", "--metric", "swap-hamming", "baba", "abca"]
        )
        assert result.exit_code == 0
        assert payload["distance"] == 2
        assert payload["witness"] == {"swaps": [1], "substitutions": [3]}

    def test_unequal_lengths_usage_error(self, runner):
        result = runner.invoke(main, ["distance", "--metric", "hamming", "ab", "abc"])
        assert result.exit_code == 2
        assert "error: words must have equal length" in result.stderr

    def test_empty_word_usage_error(self, runner):
        result = runner.invoke(main, ["distance", "--metric", "hamming", "", ""])
        assert result.exit_code == 2
        assert "error: words must be non-empty" in result.stderr

    def test_unknown_metric_rejected_by_parser(self, runner):
        result = runner.invoke(main, ["distance", "--metric", "edit", "ab", "ba"])
        assert result.exit_code == 2


class TestConsensusCommand:
    def test_swap_radius_with_trace(self, runner, tmp_path):
        path = write_lines(tmp_path, "inst.txt", TANGLED_LONG)
        result, payload = invoke_json(
            runner,
            [
                "consensus",
                "--distance",
                "swap",
                "--objective",
                "radius",
                "-d",
                "4",
                "--trace",
                path,
            ],
        )
        assert result.exit_code == 0
        assert payload["status"] == "feasible"
        assert payload["witness"] == "bagacbaihdabedfeda"
        assert payload["per_string_distances"] == [4, 4, 3]
        assert payload["max_distance"] == 4
        assert payload["sum_distance"] == 11
        assert payload["reason"] is None
        assert set(payload["stats"]) == {
            "nodes_expanded",
            "dp_states",
            "oracle_enumerated",
            "elapsed",
        }
        trace = payload["trace"]
        assert trace["disentangled"] == [
            "abgacbahidabedfeda",
            "bagacbaihdabedfdea",
            "bagacbaihdbaedfeda",
        ]
        assert trace["budgets"] == [2, 3, 2]
        assert trace["necessary_total"] == 7
        assert trace["tangled_intervals"] == [[4, 7], [13, 15]]
        assert trace["encoded"] == [
            "00000000000000000",
            "10000001000000010",
            "10000001001000000",
        ]
        assert trace["consensus_bits"] == "10000001000000000"
        assert trace["decoded"] == "bagacbaihdabedfeda"

    def test_swap_sum_infeasible(self, runner, tmp_path):
        path = write_lines(tmp_path, "inst.txt", ("ababc", "abbca", "abacb"))
        result, payload = invoke_json(
            runner, ["consensus", "--distance", "swap", "--objective", "sum", path]
        )
        assert result.exit_code == 1
        assert payload["status"] == "infeasible"
        assert payload["witness"] is None
        assert payload["reason"].startswith("no common matching word:")

    def test_swap_hamming_radius_sum_unsupported(self, runner, tmp_path):
        path = write_lines(tmp_path, "inst.txt", ("ab", "ba"))
        result = runner.invoke(
            main,
            [
                "consensus",
                "--distance",
                "swap-hamming",
                "--objective",
                "radius-sum",
                "-d",
                "1",
                "-D",
                "2",
                path,
            ],
        )
        assert result.exit_code == 2
        assert "error: unsupported: open problem" in result.stderr

    def test_swap_hamming_sum_with_table(self, runner, tmp_path):
        path = write_lines(tmp_path, "inst.txt", ("baba", "cabc", "abca"))
        result, payload = invoke_json(
            runner,
            [
                "consensus",
                "--distance",
                "swap-hamming",
                "--objective",
                "sum",
                "--dump-table",
                path,
            ],
        )
        assert result.exit_code == 0
        assert payload["witness"] == "baba"
        assert payload["sum_distance"] == 4
        table = payload["table"]
        assert len(table) == 12
        assert {"row", "swap_members", "prefix", "cost"} == set(table[0])
        assert {"row": 3, "swap_members": [], "prefix": "baba", "cost": 4} in table

    def test_swap_hamming_radius(self, runner, tmp_path):
        path = write_lines(tmp_path, "inst.txt", ("baba", "cabc", "abca"))
        result, payload = invoke_json(
            runner,
            [
                "consensus",
                "--distance",
                "swap-hamming",
                "--objective",
                "radius",
                "-d",
                "2",
                path,
            ],
        )
        assert result.exit_code == 0
        assert payload["witness"] == "baba"
        assert payload["max_distance"] == 2

    def test_hamming_radius_with_budgets(self, runner, tmp_path):
        inst = write_lines(tmp_path, "inst.txt", ("aa", "bb"))
        budgets = write_lines(tmp_path, "budgets.txt", ("1", "0"))
        result, payload = invoke_json(
            runner,
            [
                "consensus",
                "--distance",
                "hamming",
                "--objective",
                "radius",
                "-d",
                "2",
                "--budgets",
                budgets,
                inst,
            ],
        )
        assert result.exit_code == 0
        assert payload["witness"] == "aa"
        assert payload["per_string_distances"] == [1, 2]
        assert payload["max_distance"] == 2

    def test_hamming_budget_exceeding_radius_is_infeasible(self, runner, tmp_path):
        inst = write_lines(tmp_path, "inst.txt", ("aa", "bb"))
        budgets = write_lines(tmp_path, "budgets.txt", ("3", "0"))
        result, payload = invoke_json(
            runner,
            [
                "consensus",
                "--distance",
                "hamming",
                "--objective",
                "radius",
                "-d",
                "1",
                "--budgets",
                budgets,
                inst,
            ],
        )
        assert result.exit_code == 1
        assert payload["reason"] == "word 1 has consumed budget 3 > d=1"

    def test_hamming_rs_budget_sum_precheck(self, runner, tmp_path):
        inst = write_lines(tmp_path, "inst.txt", ("aa", "bb"))
        budgets = write_lines(tmp_path, "budgets.txt", ("1", "1"))
        result, payload = invoke_json(
            runner,
            [
                "consensus",
                "--distance",
                "hamming",
                "--objective",
                "radius-sum",
                "-d",
                "1",
                "-D",
                "1",
                "--budgets",
                budgets,
                inst,
            ],
        )
        assert result.exit_code == 1
        assert payload["reason"] == "consumed budgets alone sum to 2 > D=1"

    def test_hamming_sum_decision(self, runner, tmp_path):
        inst = write_lines(tmp_path, "inst.txt", ("ab", "ba"))
        ok, payload = invoke_json(
            runner,
            ["consensus", "--distance", "hamming", "--objective", "sum", "-D", "2", inst],
        )
        assert ok.exit_code == 0 and payload["sum_distance"] == 2
        no, payload = invoke_json(
            runner,
            ["consensus", "--distance", "hamming", "--objective", "sum", "-D", "1", inst],
        )
        assert no.exit_code == 1
        assert payload["reason"] == "minimum distance sum is 2 > 1"

    @pytest.mark.parametrize(
        "args,fragment",
        [
            (["--distance", "swap", "--objective", "radius"], "requires -d"),
            (
                ["--distance", "swap", "--objective", "radius-sum", "-d", "1"],
                "requires -D",
            ),
            (
                ["--distance", "swap", "--objective", "sum", "-d", "1"],
                "-d is not valid with --objective sum",
            ),
            (
                ["--distance", "swap", "--objective", "radius", "-d", "1", "-D", "2"],
                "-D is not valid with --objective radius",
            ),
            (
                ["--distance", "swap", "--objective", "radius", "-d", "-1"],
                "-d must be non-negative",
            ),
            (
                ["--distance", "hamming", "--objective", "radius", "-d", "1", "--trace"],
                "--trace is only supported with --distance swap",
            ),
            (
                ["--distance", "swap", "--objective", "sum", "--dump-table"],
                "--dump-table is only supported",
            ),
            (
                ["--distance", "swap", "--objective", "sum", "-D", "-1"],
                "-D must be non-negative",
            ),
        ],
    )
    def test_flag_validation(self, runner, tmp_path, args, fragment):
        path = write_lines(tmp_path, "inst.txt", ("ab", "ba"))
        result = runner.invoke(main, ["consensus", *args, path])
        assert result.exit_code == 2
        assert fragment in result.stderr

    @pytest.mark.parametrize(
        "args,message",
        [
            (
                ["--distance", "swap-hamming", "--objective", "radius-sum", "-d", "1"],
                "unsupported: open problem",
            ),
            (
                ["--distance", "swap", "--objective", "radius", "-d", "-1"],
                "-d must be non-negative",
            ),
            (
                ["--distance", "swap", "--objective", "sum", "-D", "-1"],
                "-D must be non-negative",
            ),
            (
                ["--distance", "swap", "--objective", "sum", "--budgets", "missing.txt"],
                "--budgets is only supported with --distance hamming",
            ),
        ],
    )
    def test_flag_errors_come_before_file_errors(self, runner, tmp_path, args, message):
        # The input file does not exist, yet the flag error is the one reported.
        missing = str(tmp_path / "missing.txt")
        result = runner.invoke(main, ["consensus", *args, missing])
        assert result.exit_code == 2
        assert result.stderr == f"error: {message}\n"

    def test_budgets_only_with_hamming(self, runner, tmp_path):
        inst = write_lines(tmp_path, "inst.txt", ("ab", "ba"))
        budgets = write_lines(tmp_path, "budgets.txt", ("0", "0"))
        result = runner.invoke(
            main,
            [
                "consensus",
                "--distance",
                "swap",
                "--objective",
                "radius",
                "-d",
                "1",
                "--budgets",
                budgets,
                inst,
            ],
        )
        assert result.exit_code == 2
        assert "--budgets is only supported with --distance hamming" in result.stderr

    def test_budgets_file_errors(self, runner, tmp_path):
        inst = write_lines(tmp_path, "inst.txt", ("ab", "ba"))
        short = write_lines(tmp_path, "short.txt", ("1",))
        result = runner.invoke(
            main,
            [
                "consensus",
                "--distance",
                "hamming",
                "--objective",
                "radius",
                "-d",
                "1",
                "--budgets",
                short,
                inst,
            ],
        )
        assert result.exit_code == 2
        assert "lists 1 values for 2 words" in result.stderr
        negative = write_lines(tmp_path, "neg.txt", ("1", "-1"))
        result = runner.invoke(
            main,
            [
                "consensus",
                "--distance",
                "hamming",
                "--objective",
                "radius",
                "-d",
                "1",
                "--budgets",
                negative,
                inst,
            ],
        )
        assert result.exit_code == 2
        assert "negative" in result.stderr
        result = runner.invoke(
            main,
            [
                "consensus",
                "--distance",
                "hamming",
                "--objective",
                "radius",
                "-d",
                "1",
                "--budgets",
                str(tmp_path / "missing.txt"),
                inst,
            ],
        )
        assert result.exit_code == 2
        assert result.stderr.startswith("error: [Errno 2] ")

    def test_missing_input_file(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "consensus",
                "--distance",
                "swap",
                "--objective",
                "sum",
                str(tmp_path / "missing.txt"),
            ],
        )
        assert result.exit_code == 2
        assert result.stderr.startswith("error:")

    def test_malformed_instance_file(self, runner, tmp_path):
        path = write_lines(tmp_path, "bad.txt", ("ab", "abc"))
        result = runner.invoke(
            main, ["consensus", "--distance", "swap", "--objective", "sum", path]
        )
        assert result.exit_code == 2
        assert "line 2" in result.stderr


class TestLongInputs:
    """Searches deeper than Python's default recursion limit end in an answer."""

    @pytest.mark.parametrize(
        "distance,sum_distance", [("hamming", 1400), ("swap", 700)]
    )
    def test_radius_sum_over_1400_columns(self, runner, tmp_path, distance, sum_distance):
        path = write_lines(tmp_path, "inst.txt", ("ab" * 700, "ba" * 700))
        result, payload = invoke_json(
            runner,
            [
                "consensus",
                "--distance",
                distance,
                "--objective",
                "radius-sum",
                "-d",
                "700",
                "-D",
                "1400",
                path,
            ],
        )
        assert result.exit_code == 0
        assert payload["max_distance"] == 700
        assert payload["sum_distance"] == sum_distance

    @pytest.mark.parametrize("distance,d", [("hamming", 699), ("swap", 349)])
    def test_infeasible_radius_sum_over_1400_columns(self, runner, tmp_path, distance, d):
        # The two words are 1400 substitutions or 700 swaps apart, so a
        # radius just under half of that leaves no word within the sum bound.
        path = write_lines(tmp_path, "inst.txt", ("ab" * 700, "ba" * 700))
        result, payload = invoke_json(
            runner,
            [
                "consensus",
                "--distance",
                distance,
                "--objective",
                "radius-sum",
                "-d",
                str(d),
                "-D",
                "1400",
                path,
            ],
        )
        assert result.exit_code == 1
        assert payload["status"] == "infeasible"

    def test_hamming_radius_at_depth_1200(self, runner, tmp_path):
        path = write_lines(tmp_path, "inst.txt", ("a" * 2400, "b" * 2400))
        result, payload = invoke_json(
            runner,
            ["consensus", "--distance", "hamming", "--objective", "radius", "-d", "1200", path],
        )
        assert result.exit_code == 0
        assert payload["per_string_distances"] == [1200, 1200]


@pytest.mark.parametrize(
    "args",
    [
        ["consensus", "--distance", "swap", "--objective", "sum"],
        ["oracle", "--metric", "hamming", "--objective", "sum"],
        ["disentangle"],
    ],
)
def test_non_utf8_instance_is_a_usage_error(runner, tmp_path, args):
    path = tmp_path / "inst.txt"
    path.write_bytes(b"\xff\xfeab\nba\n")
    result = runner.invoke(main, [*args, str(path)])
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: {path}: ")
    assert "can't decode byte 0xff" in result.stderr


class TestDisentangleCommand:
    def test_feasible(self, runner, tmp_path):
        path = write_lines(tmp_path, "inst.txt", ("gabcahi", "gcaabih", "gcabaih"))
        result, payload = invoke_json(runner, ["disentangle", path])
        assert result.exit_code == 0
        assert payload == {
            "status": "feasible",
            "disentangled": ["gacbahi", "gacbaih", "gacbaih"],
            "budgets": [1, 2, 1],
            "necessary_total": 4,
            "tangled_intervals": [[2, 5]],
        }

    def test_infeasible(self, runner, tmp_path):
        path = write_lines(tmp_path, "inst.txt", ("ababc", "abbca", "abacb"))
        result, payload = invoke_json(runner, ["disentangle", path])
        assert result.exit_code == 1
        assert payload["status"] == "infeasible"
        assert payload["column"] == 3
        assert "column 3" in payload["reason"]


ONLY_RADIUS_SUM = "-D is only valid with --objective radius-sum"


class TestOracleCommand:
    def test_hamming_radius(self, runner, tmp_path):
        path = write_lines(tmp_path, "inst.txt", ("aa", "bb"))
        result, payload = invoke_json(
            runner,
            ["oracle", "--metric", "hamming", "--objective", "radius", "-d", "1", path],
        )
        assert result.exit_code == 0
        assert payload["witness"] == "ab"

    def test_swap_radius_sum(self, runner, tmp_path):
        path = write_lines(tmp_path, "inst.txt", ("abab", "baba"))
        result, payload = invoke_json(
            runner,
            [
                "oracle",
                "--metric",
                "swap",
                "--objective",
                "radius-sum",
                "-d",
                "2",
                "-D",
                "2",
                path,
            ],
        )
        assert result.exit_code == 0
        assert payload["witness"] == "abab"
        assert payload["sum_distance"] == 2

    def test_big_d_requires_radius_sum(self, runner, tmp_path):
        path = write_lines(tmp_path, "inst.txt", ("ab",))
        result = runner.invoke(
            main,
            ["oracle", "--metric", "hamming", "--objective", "sum", "-D", "2", path],
        )
        assert result.exit_code == 2
        assert "-D is only valid with --objective radius-sum" in result.stderr

    @pytest.mark.parametrize(
        "args,message",
        [
            # -D outside radius-sum is named even when -d is missing too.
            (["--objective", "radius", "-D", "2"], ONLY_RADIUS_SUM),
            (["--objective", "radius", "-d", "1", "-D", "2"], ONLY_RADIUS_SUM),
            (["--objective", "sum", "-D", "2"], ONLY_RADIUS_SUM),
            (["--objective", "radius"], "--objective radius requires -d"),
            (["--objective", "radius-sum", "-d", "1"], "--objective radius-sum requires -D"),
            (["--objective", "sum", "-d", "1"], "-d is not valid with --objective sum"),
            (["--objective", "radius", "-d", "-1"], "-d must be non-negative"),
            (["--objective", "radius-sum", "-d", "1", "-D", "-1"], "-D must be non-negative"),
        ],
    )
    def test_flag_errors(self, runner, tmp_path, args, message):
        missing = str(tmp_path / "missing.txt")
        result = runner.invoke(main, ["oracle", "--metric", "hamming", *args, missing])
        assert result.exit_code == 2
        assert result.stderr == f"error: {message}\n"

    def test_cap_environment_variable(self, runner, tmp_path):
        # The cap is fixed: 4 symbols at n=11 are 4,194,304 words, above it.
        path = write_lines(tmp_path, "inst.txt", ("abcdabcdabc", "dcbadcbadcb"))
        result = runner.invoke(
            main, ["oracle", "--metric", "hamming", "--objective", "sum", path]
        )
        assert result.exit_code == 2
        assert result.stderr == (
            "error: enumeration of 4194304 words exceeds the cap of 2000000\n"
        )

    def test_oracle_infeasible_exit(self, runner, tmp_path):
        path = write_lines(tmp_path, "inst.txt", ("aa", "bb"))
        result, payload = invoke_json(
            runner,
            ["oracle", "--metric", "swap", "--objective", "radius", "-d", "3", path],
        )
        assert result.exit_code == 1
        assert payload["reason"] == "no word within swap radius 3"


class TestGenCommand:
    def test_writes_instance_and_sidecar(self, runner, tmp_path):
        out = tmp_path / "inst.txt"
        result, payload = invoke_json(
            runner,
            [
                "gen",
                "--seed",
                "7",
                "-n",
                "6",
                "-k",
                "3",
                "--sigma",
                "3",
                "--ops-budget",
                "2",
                str(out),
            ],
        )
        assert result.exit_code == 0
        assert payload["center"] == "babcaa"
        assert payload["instance_path"] == str(out)
        words = out.read_text().split()
        assert words == ["abbaaa", "babcaa", "bbacaa"]
        meta = json.loads((tmp_path / "inst.txt.meta.json").read_text())
        assert meta == {
            "seed": 7,
            "n": 6,
            "k": 3,
            "sigma": 3,
            "ops_budget": 2,
            "center": "babcaa",
        }

    def test_seed_is_required(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "gen",
                "-n",
                "4",
                "-k",
                "2",
                "--sigma",
                "2",
                "--ops-budget",
                "1",
                str(tmp_path / "x.txt"),
            ],
        )
        assert result.exit_code == 2

    def test_invalid_sigma(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "gen",
                "--seed",
                "1",
                "-n",
                "4",
                "-k",
                "2",
                "--sigma",
                "1",
                "--ops-budget",
                "1",
                str(tmp_path / "x.txt"),
            ],
        )
        assert result.exit_code == 2
        assert "sigma" in result.stderr

    def test_output_directory_missing(self, runner, tmp_path):
        out = tmp_path / "missing" / "x.txt"
        result = runner.invoke(
            main,
            [
                "gen",
                "--seed",
                "1",
                "-n",
                "4",
                "-k",
                "2",
                "--sigma",
                "2",
                "--ops-budget",
                "1",
                str(out),
            ],
        )
        assert result.exit_code == 2
        assert result.stderr.startswith("error: [Errno 2] ")
        assert not out.parent.exists()


def test_installed_entry_point():
    exe = shutil.which("swapsensus")
    if exe is None:
        cmd = [sys.executable, "-m", "swapsensus.cli"]
    else:
        cmd = [exe]
    # The child imports this checkout's package, whether or not it is installed.
    src = str(Path(swapsensus.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        cmd + ["distance", "--metric", "swap", "--output", "json", "abab", "baba"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["distance"] == 2
