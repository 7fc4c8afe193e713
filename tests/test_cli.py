"""Command-line interface: exit codes, JSON schemas, and flag validation."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from importlib import import_module

import pytest

from conftest import child_env, run_cli
from swapsensus import gen_planted

TANGLED_LONG = (
    "abgabcahidabdefeda",
    "bagcaabihdabefddea",
    "bagcabaihdbaefdeda",
)


def write_lines(tmp_path, name, lines) -> str:
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def invoke_json(args):
    result = run_cli(args + ["--output", "json"])
    payload = json.loads(result.stdout) if result.stdout.strip() else None
    return result, payload


class TestDistanceCommand:
    def test_hamming_human(self):
        result = run_cli(["distance", "--metric", "hamming", "abc", "abd"])
        assert result.exit_code == 0
        assert "distance: 1" in result.stdout

    def test_swap_json(self):
        result, payload = invoke_json(
            ["distance", "--metric", "swap", "abab", "baba"]
        )
        assert result.exit_code == 0
        assert payload == {
            "distance": 2,
            "metric": "swap",
            "witness": {"swap_string": "101", "swaps": [1, 3]},
        }

    def test_swap_non_matching_is_an_answer_not_an_error(self):
        result, payload = invoke_json(
            ["distance", "--metric", "swap", "abc", "bca"]
        )
        assert result.exit_code == 0
        assert payload["distance"] == "inf"
        assert payload["witness"] is None

    def test_swap_hamming_json(self):
        result, payload = invoke_json(
            ["distance", "--metric", "swap-hamming", "baba", "abca"]
        )
        assert result.exit_code == 0
        assert payload["distance"] == 2
        assert payload["witness"] == {"swaps": [1], "substitutions": [3]}

    def test_unequal_lengths_usage_error(self):
        result = run_cli(["distance", "--metric", "hamming", "ab", "abc"])
        assert result.exit_code == 2
        assert "error: words must have equal length" in result.stderr

    def test_empty_word_usage_error(self):
        result = run_cli(["distance", "--metric", "hamming", "", ""])
        assert result.exit_code == 2
        assert "error: words must be non-empty" in result.stderr

    def test_unknown_metric_rejected_by_parser(self):
        result = run_cli(["distance", "--metric", "edit", "ab", "ba"])
        assert result.exit_code == 2


class TestConsensusCommand:
    def test_swap_radius_with_trace(self, tmp_path):
        path = write_lines(tmp_path, "inst.txt", TANGLED_LONG)
        result, payload = invoke_json(
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

    @pytest.mark.parametrize(
        "words,bound",
        [
            (("ab", "cd"), "1"),  # disentangle: the symbol multisets differ
            (("abab", "baba"), "0"),  # the bit stage: no bit row within radius 0
        ],
    )
    def test_trace_of_an_early_exit_is_left_out(self, tmp_path, words, bound):
        path = write_lines(tmp_path, "inst.txt", words)
        args = ["consensus", "--distance", "swap", "--objective", "radius", "-d", bound,
                "--trace", path]
        result, payload = invoke_json(args)
        assert result.exit_code == 1
        assert payload["status"] == "infeasible"
        assert "trace" not in payload
        result = run_cli(args)
        assert result.exit_code == 1
        assert result.stdout.startswith("status: infeasible\n")
        assert "trace:" not in result.stdout

    def test_identical_words_run_no_bit_stage(self, tmp_path):
        # No benign pair, so no bit column: every word disentangles to the
        # same word, the only candidate, and no bit row is searched.
        path = write_lines(tmp_path, "inst.txt", ("abcab",) * 3)
        result, payload = invoke_json(
            ["consensus", "--distance", "swap", "--objective", "radius", "-d", "0",
             "--trace", path]
        )
        assert result.exit_code == 0
        assert payload["witness"] == "abcab"
        assert payload["per_string_distances"] == [0, 0, 0]
        assert payload["stats"]["nodes_expanded"] == 0
        assert payload["trace"]["encoded"] == ["0000"] * 3
        assert payload["trace"]["consensus_bits"] == "0000"
        assert payload["trace"]["decoded"] == "abcab"

    def test_swap_sum_infeasible(self, tmp_path):
        path = write_lines(tmp_path, "inst.txt", ("ababc", "abbca", "abacb"))
        result, payload = invoke_json(
            ["consensus", "--distance", "swap", "--objective", "sum", path]
        )
        assert result.exit_code == 1
        assert payload["status"] == "infeasible"
        assert payload["witness"] is None
        assert payload["reason"].startswith("no common matching word:")

    def test_swap_hamming_radius_sum_unsupported(self, tmp_path):
        path = write_lines(tmp_path, "inst.txt", ("ab", "ba"))
        result = run_cli(
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

    def test_swap_hamming_sum_with_table(self, tmp_path):
        path = write_lines(tmp_path, "inst.txt", ("baba", "cabc", "abca"))
        result, payload = invoke_json(
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

    def test_swap_hamming_radius(self, tmp_path):
        path = write_lines(tmp_path, "inst.txt", ("baba", "cabc", "abca"))
        result, payload = invoke_json(
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

    def test_hamming_radius_with_budgets(self, tmp_path):
        inst = write_lines(tmp_path, "inst.txt", ("aa", "bb"))
        budgets = write_lines(tmp_path, "budgets.txt", ("1", "0"))
        result, payload = invoke_json(
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

    def test_hamming_budget_exceeding_radius_is_infeasible(self, tmp_path):
        inst = write_lines(tmp_path, "inst.txt", ("aa", "bb"))
        budgets = write_lines(tmp_path, "budgets.txt", ("3", "0"))
        result, payload = invoke_json(
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

    def test_hamming_rs_budget_sum_precheck(self, tmp_path):
        inst = write_lines(tmp_path, "inst.txt", ("aa", "bb"))
        budgets = write_lines(tmp_path, "budgets.txt", ("1", "1"))
        result, payload = invoke_json(
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

    def test_hamming_sum_decision(self, tmp_path):
        inst = write_lines(tmp_path, "inst.txt", ("ab", "ba"))
        ok, payload = invoke_json(
            ["consensus", "--distance", "hamming", "--objective", "sum", "-D", "2", inst],
        )
        assert ok.exit_code == 0 and payload["sum_distance"] == 2
        no, payload = invoke_json(
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
    def test_flag_validation(self, tmp_path, args, fragment):
        path = write_lines(tmp_path, "inst.txt", ("ab", "ba"))
        result = run_cli(["consensus", *args, path])
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
    def test_flag_errors_come_before_file_errors(self, tmp_path, args, message):
        # The input file does not exist, yet the flag error is the one reported.
        missing = str(tmp_path / "missing.txt")
        result = run_cli(["consensus", *args, missing])
        assert result.exit_code == 2
        assert result.stderr == f"error: {message}\n"

    def test_budgets_only_with_hamming(self, tmp_path):
        inst = write_lines(tmp_path, "inst.txt", ("ab", "ba"))
        budgets = write_lines(tmp_path, "budgets.txt", ("0", "0"))
        result = run_cli(
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

    def test_budgets_file_errors(self, tmp_path):
        inst = write_lines(tmp_path, "inst.txt", ("ab", "ba"))
        short = write_lines(tmp_path, "short.txt", ("1",))
        result = run_cli(
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
        result = run_cli(
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
        result = run_cli(
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

    def test_missing_input_file(self, tmp_path):
        result = run_cli(
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

    def test_malformed_instance_file(self, tmp_path):
        path = write_lines(tmp_path, "bad.txt", ("ab", "abc"))
        result = run_cli(
            ["consensus", "--distance", "swap", "--objective", "sum", path]
        )
        assert result.exit_code == 2
        assert "line 2" in result.stderr

    def test_out_of_memory_is_an_error_not_a_no(self, tmp_path, monkeypatch):
        def solve(*args):
            raise MemoryError

        # The package attribute solve is the function; patch the module.
        monkeypatch.setattr(import_module("swapsensus.solve"), "solve", solve)
        path = write_lines(tmp_path, "words.txt", ("ab", "ba"))
        result = run_cli(
            ["consensus", "--distance", "swap-hamming", "--objective", "sum", path]
        )
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == "error: out of memory\n"


class TestLongInputs:
    """Searches deeper than Python's default recursion limit end in an answer."""

    @pytest.mark.parametrize(
        "distance,sum_distance", [("hamming", 1400), ("swap", 700)]
    )
    def test_radius_sum_over_1400_columns(self, tmp_path, distance, sum_distance):
        path = write_lines(tmp_path, "inst.txt", ("ab" * 700, "ba" * 700))
        result, payload = invoke_json(
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
    def test_infeasible_radius_sum_over_1400_columns(self, tmp_path, distance, d):
        # The two words are 1400 substitutions or 700 swaps apart, so a
        # radius just under half of that leaves no word within the sum bound.
        path = write_lines(tmp_path, "inst.txt", ("ab" * 700, "ba" * 700))
        result, payload = invoke_json(
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

    def test_hamming_radius_at_depth_1200(self, tmp_path):
        path = write_lines(tmp_path, "inst.txt", ("a" * 2400, "b" * 2400))
        result, payload = invoke_json(
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
def test_non_utf8_instance_is_a_usage_error(tmp_path, args):
    path = tmp_path / "inst.txt"
    path.write_bytes(b"\xff\xfeab\nba\n")
    result = run_cli([*args, str(path)])
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: {path}: ")
    assert "can't decode byte 0xff" in result.stderr


class TestDisentangleCommand:
    def test_feasible(self, tmp_path):
        path = write_lines(tmp_path, "inst.txt", ("gabcahi", "gcaabih", "gcabaih"))
        result, payload = invoke_json(["disentangle", path])
        assert result.exit_code == 0
        assert payload == {
            "status": "feasible",
            "disentangled": ["gacbahi", "gacbaih", "gacbaih"],
            "budgets": [1, 2, 1],
            "necessary_total": 4,
            "tangled_intervals": [[2, 5]],
        }

    def test_infeasible(self, tmp_path):
        path = write_lines(tmp_path, "inst.txt", ("ababc", "abbca", "abacb"))
        result, payload = invoke_json(["disentangle", path])
        assert result.exit_code == 1
        assert payload["status"] == "infeasible"
        assert payload["column"] == 3
        assert "column 3" in payload["reason"]


ONLY_RADIUS_SUM = "-D is only valid with --objective radius-sum"


class TestOracleCommand:
    def test_hamming_radius(self, tmp_path):
        path = write_lines(tmp_path, "inst.txt", ("aa", "bb"))
        result, payload = invoke_json(
            ["oracle", "--metric", "hamming", "--objective", "radius", "-d", "1", path],
        )
        assert result.exit_code == 0
        assert payload["witness"] == "ab"

    def test_swap_radius_sum(self, tmp_path):
        path = write_lines(tmp_path, "inst.txt", ("abab", "baba"))
        result, payload = invoke_json(
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

    def test_big_d_requires_radius_sum(self, tmp_path):
        path = write_lines(tmp_path, "inst.txt", ("ab",))
        result = run_cli(
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
    def test_flag_errors(self, tmp_path, args, message):
        missing = str(tmp_path / "missing.txt")
        result = run_cli(["oracle", "--metric", "hamming", *args, missing])
        assert result.exit_code == 2
        assert result.stderr == f"error: {message}\n"

    def test_cap_environment_variable(self, tmp_path):
        # The cap is fixed: 4 symbols at n=11 are 4,194,304 words, above it.
        path = write_lines(tmp_path, "inst.txt", ("abcdabcdabc", "dcbadcbadcb"))
        result = run_cli(
            ["oracle", "--metric", "hamming", "--objective", "sum", path]
        )
        assert result.exit_code == 2
        assert result.stderr == (
            "error: enumeration of 4194304 words exceeds the cap of 2000000\n"
        )

    def test_oracle_infeasible_exit(self, tmp_path):
        path = write_lines(tmp_path, "inst.txt", ("aa", "bb"))
        result, payload = invoke_json(
            ["oracle", "--metric", "swap", "--objective", "radius", "-d", "3", path],
        )
        assert result.exit_code == 1
        assert payload["reason"] == "no word within swap radius 3"


# Each child reads the same instance; set and dict order must not leak into
# its output, whatever the interpreter's string hash seed.
HASH_ORDER_CHILDREN = [
    ["--distance", "swap-hamming", "--objective", "sum", "--dump-table"],
    ["--distance", "swap", "--objective", "radius", "-d", "3", "--trace"],
    ["--distance", "hamming", "--objective", "radius-sum", "-d", "4", "-D", "12"],
]


@pytest.mark.parametrize("args", HASH_ORDER_CHILDREN, ids=["sh-sum", "swap-radius", "ham-rs"])
def test_output_does_not_depend_on_the_hash_seed(tmp_path, args):
    # All three answers are feasible. Two columns tie for the plurality, and
    # the swap pipeline meets two tangled intervals.
    inst, _ = gen_planted(1218, 24, 4, 3, 3)
    path = write_lines(tmp_path, "inst.txt", inst.words)
    outputs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "swapsensus.cli", "consensus", *args, "--output", "json",
             path],
            capture_output=True,
            text=True,
            timeout=60,
            env=dict(child_env(), PYTHONHASHSEED=seed),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(re.sub(r'"elapsed": [^,\n]+', '"elapsed": 0', proc.stdout))
    assert outputs[0] == outputs[1]
    assert '"status": "feasible"' in outputs[0]
    assert ('"table": [' in outputs[0]) == ("--dump-table" in args)
    assert ('"trace": {' in outputs[0]) == ("--trace" in args)


class TestGenCommand:
    def test_writes_instance_and_sidecar(self, tmp_path):
        out = tmp_path / "inst.txt"
        result, payload = invoke_json(
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

    def test_seed_is_required(self, tmp_path):
        result = run_cli(
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

    def test_invalid_sigma(self, tmp_path):
        result = run_cli(
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

    def test_output_directory_missing(self, tmp_path):
        out = tmp_path / "missing" / "x.txt"
        result = run_cli(
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
    proc = subprocess.run(
        cmd + ["distance", "--metric", "swap", "--output", "json", "abab", "baba"],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["distance"] == 2


class TestParser:
    FLAGS = {
        "distance": ["--metric", "--output", "WORD1", "WORD2"],
        "consensus": [
            "--distance", "--objective", "-d", "-D", "--budgets", "--trace",
            "--dump-table", "--output", "INPUT_PATH",
        ],
        "disentangle": ["--output", "INPUT_PATH"],
        "oracle": ["--metric", "--objective", "-d", "-D", "--budgets", "--output", "INPUT_PATH"],
        "gen": ["--seed", "-n", "-k", "--sigma", "--ops-budget", "--output", "OUT_PATH"],
    }

    def test_main_help_names_every_command(self):
        result = run_cli(["--help"])
        assert result.exit_code == 0 and result.stderr == ""
        assert result.stdout.startswith("usage: swapsensus")
        for command in self.FLAGS:
            assert command in result.stdout

    @pytest.mark.parametrize("command", FLAGS)
    def test_command_help_names_its_flags(self, command):
        result = run_cli([command, "--help"])
        assert result.exit_code == 0 and result.stderr == ""
        assert result.stdout.startswith(f"usage: swapsensus {command}")
        for flag in self.FLAGS[command]:
            assert f" {flag}" in result.stdout, flag

    @pytest.mark.parametrize(
        "args,fragment",
        [
            (["consensus", "--dist", "swap", "--objective", "radius", "-d", "1", "x"], "--dist"),
            (["bogus"], "invalid choice: 'bogus'"),
            ([], "required: COMMAND"),
            (["consensus", "--objective", "radius", "-d", "1", "x"], "required: --distance"),
            (["gen", "-n", "4", "-k", "2", "--sigma", "2", "--ops-budget", "1", "x"], "--seed"),
            (["consensus", "--distance", "swap", "--objective", "radius", "-d", "x", "x"], "'x'"),
            (["oracle", "--metric", "edit", "--objective", "radius", "-d", "1", "x"], "'edit'"),
        ],
    )
    def test_parser_errors_exit_2_with_usage(self, args, fragment):
        # The parser rejects these before any file is read.
        result = run_cli(args)
        assert result.exit_code == 2 and result.stdout == ""
        assert result.stderr.startswith("usage: swapsensus")
        assert "error:" in result.stderr and fragment in result.stderr


# The command in a fresh interpreter, run as ``python -m swapsensus.cli``
# would run it. Prints its exit code, the package's modules it loaded, and
# the modules it loaded from outside the package and the standard library.
LOADED_MODULES = """
import contextlib, io, json, runpy, sys
before = set(sys.modules)
sys.argv = ["swapsensus", *json.loads(sys.argv[1])]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("swapsensus.cli", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
ours = sorted(m for m in sys.modules if m.split(".")[0] == "swapsensus")
top = {m.split(".")[0] for m in set(sys.modules) - before}
heavy = sorted({"dataclasses", "inspect"} & set(sys.modules))
print(json.dumps([code, ours, sorted(top - sys.stdlib_module_names - {"swapsensus"}), heavy]))
"""

# Solver modules, which a command loads only if it runs them.
SOLVERS = {"swapsensus." + m for m in ("oracle", "pipeline", "sh_sum", "sh_radius", "solve")}
# The distances live in swaps, so these need none of the solvers.
NO_SOLVER = SOLVERS | {"swapsensus.hamming"}
HAMMING = ["consensus", "--distance", "hamming", "--objective"]
# name -> (arguments, INST standing for an instance file; exit code; modules not loaded)
LOADS = {
    "distance-hamming": (["distance", "--metric", "hamming", "abab", "baba"], 0, NO_SOLVER),
    "distance-swap": (["distance", "--metric", "swap", "abab", "baba"], 0, NO_SOLVER),
    "distance-sh": (["distance", "--metric", "swap-hamming", "abab", "baba"], 0, NO_SOLVER),
    "disentangle": (["disentangle", "INST"], 0, NO_SOLVER),
    "oracle": (
        ["oracle", "--metric", "hamming", "--objective", "radius", "-d", "1", "INST"],
        0,
        NO_SOLVER - {"swapsensus.oracle"},
    ),
    "hamming-radius": ([*HAMMING, "radius", "-d", "1", "INST"], 0, SOLVERS - {"swapsensus.solve"}),
    "hamming-sum": ([*HAMMING, "sum", "INST"], 0, SOLVERS - {"swapsensus.solve"}),
    "hamming-rs": (
        [*HAMMING, "radius-sum", "-d", "1", "-D", "2", "INST"], 0, SOLVERS - {"swapsensus.solve"}
    ),
    "swap-radius": (
        ["consensus", "--distance", "swap", "--objective", "radius", "-d", "0", "INST"],
        1,
        {"swapsensus.oracle", "swapsensus.sh_sum", "swapsensus.sh_radius"},
    ),
}


class TestModulesLoaded:
    @pytest.mark.parametrize("case", LOADS)
    def test_a_command_loads_only_what_it_runs(self, tmp_path, case):
        args, code, forbidden = LOADS[case]
        path = write_lines(tmp_path, "inst.txt", ("ab", "ba"))
        argv = [path if a == "INST" else a for a in args]
        proc = subprocess.run(
            [sys.executable, "-c", LOADED_MODULES, json.dumps(argv)],
            capture_output=True,
            text=True,
            timeout=60,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        exit_code, loaded, foreign, heavy = json.loads(proc.stdout)
        assert exit_code == code
        assert foreign == []  # the parser is the standard library's
        assert heavy == []  # records are plain classes, built without these
        assert "swapsensus.core" in loaded
        assert not forbidden & set(loaded), sorted(forbidden & set(loaded))
        if args[0] == "distance":
            assert set(loaded) == {
                "swapsensus",
                "swapsensus.core",
                "swapsensus.swaps",
            }
