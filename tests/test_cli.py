"""CLI surface: commands, formats, exit codes, round-trips."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from chemin import PlayerRule, StatTriple, best_response_table, historical_table, VARIANTS
from chemin import audit, cli
from chemin import report
from tests.runner import invoke

SRC = Path(__file__).resolve().parents[1] / "src"


def run_ok(*args: str) -> str:
    result = invoke(args)
    assert result.exit_code == 0, result.stderr
    return result.stdout


class TestTablesCommand:
    def test_csv_matches_tireur_table(self):
        output = run_ok("tables", "--strategy", "tireur", "--format", "csv")
        assert output.splitlines()[0] == "total,0,1,2,3,4,5,6,7,8,9,stand"
        assert report.table_from_csv(output) == best_response_table(PlayerRule.TIREUR)

    def test_badoureau_variant_csv(self):
        output = run_ok(
            "tables", "--strategy", "tireur", "--variant", "badoureau", "--format", "csv"
        )
        expected = historical_table(VARIANTS["badoureau"], PlayerRule.TIREUR)
        assert report.table_from_csv(output) == expected

    def test_structured_round_trip(self):
        output = run_ok("tables", "--strategy", "mix", "--pi", "1/2", "--format", "structured")
        obj = json.loads(output)
        assert obj["command"] == "tables"
        assert obj["draw_probability"] == "1/2"
        assert report.table_from_structured(obj) == best_response_table(
            PlayerRule.NON_TIREUR
        ).flip([(3, 9), (5, 4)])

    def test_dormoy_near_tie_annotation(self):
        output = run_ok("tables", "--variant", "dormoy")
        assert "near tie" in output
        assert "-300/1157" in output

    def test_dormoy_structured_annotation(self):
        obj = json.loads(run_ok("tables", "--variant", "dormoy", "--format", "structured"))
        assert obj["near_ties"] == [{"total": 5, "third_card": 4}]

    def test_variant_rejected_for_mixture(self):
        result = invoke(["tables", "--strategy", "mix", "--variant", "dormoy"])
        assert result.exit_code == 2

    def test_dormoy_average_strategy(self):
        output = run_ok("tables", "--strategy", "dormoy-average", "--format", "csv")
        assert report.table_from_csv(output) == best_response_table(PlayerRule.NON_TIREUR).flip(
            [(3, 9), (5, 4)]
        )


class TestFiveCommand:
    def test_exact_line(self):
        output = run_ok("five", "--action", "draw", "--assume", "tireur", "--exact")
        assert output.strip() == "W=10176/23153 T=2976/23153 E=175/23153"

    def test_decimal_line(self):
        output = run_ok("five", "--action", "stand", "--assume", "non-tireur")
        assert output.strip() == "W=0.444694 T=0.085907 E=-0.024705"

    def test_badoureau_variant(self):
        output = run_ok(
            "five", "--action", "draw", "--assume", "tireur",
            "--variant", "badoureau", "--exact",
        )
        assert output.strip() == "W=10288/23153 T=2800/23153 E=223/23153"

    def test_mixture_assumption(self):
        output = run_ok("five", "--action", "draw", "--assume", "mix", "--exact")
        assert "E=287/23153" in output

    def test_structured_has_all_five_stats(self):
        obj = json.loads(
            run_ok("five", "--action", "draw", "--assume", "tireur", "--format", "structured")
        )
        assert {"win", "tie", "expectation", "loss", "chances"} <= obj.keys()

    def test_bad_pi_exits_2(self):
        result = invoke(["five", "--assume", "mix", "--pi", "7/4"])
        assert result.exit_code == 2


class TestCoupCommand:
    def test_reformulated_problem_exact(self):
        output = run_ok("coup", "--action", "stand", "--assume", "non-tireur", "--exact")
        assert output.strip() == "W=2152648/4826809 T=447337/4826809 E=-74176/4826809"

    def test_mixed_action(self):
        output = run_ok("coup", "--action", "mix", "--pi", "1/2", "--exact")
        assert output.startswith("W=")


class TestMatrixAndSolveCommands:
    def test_bar_matrix_structured(self):
        obj = json.loads(run_ok("bar-matrix", "--format", "structured"))
        assert obj["command"] == "bar-matrix"
        entries = obj["entries"]
        assert report.fraction_from_object(entries[0][0]) == report.fraction_from_object(
            {"num": -74176, "den": 4826809}
        )

    def test_solve_five_exact(self):
        output = run_ok("solve", "--game", "five", "--exact")
        assert "value: 341/22194" in output
        assert "kind: mixed" in output

    def test_solve_bar_structured(self):
        obj = json.loads(run_ok("solve", "--game", "bar", "--format", "structured"))
        assert obj["kind"] == "mixed"
        assert report.fraction_from_object(obj["value"]).denominator == 781943058


class TestCompareCommand:
    def test_bertrand_flags_the_borrowed_row(self):
        output = run_ok("compare", "--against", "bertrand")
        assert "badoureau" in output
        assert "matches only with Badoureau's erroneous table" in output

    def test_bertrand_all_rows_match(self):
        obj = json.loads(run_ok("compare", "--against", "bertrand", "--format", "structured"))
        assert len(obj["rows"]) == 4
        assert all(row["match"] == "yes" for row in obj["rows"])
        assert obj["rows"][3]["table"] == "badoureau"

    def test_badoureau_rows(self):
        obj = json.loads(run_ok("compare", "--against", "badoureau", "--format", "structured"))
        matches = [row["match"] for row in obj["rows"]]
        assert matches == ["yes", "yes", "yes", "no"]

    def test_audits_recompute_the_engine_values(self, monkeypatch):
        # "ours" comes from five_stats, so an engine that drifted would
        # stop matching instead of quoting a stored answer.
        drifted = StatTriple(Fraction(1, 2), Fraction(0), Fraction(0))
        monkeypatch.setattr(audit, "five_stats", lambda action, table: drifted)
        obj = json.loads(run_ok("compare", "--against", "badoureau", "--format", "structured"))
        assert [row["match"] for row in obj["rows"]] == ["no"] * 4
        dormoy = run_ok("compare", "--against", "dormoy", "--format", "csv")
        assert {line.split(",")[4] for line in dormoy.splitlines()[1:]} == {"0"}
        assert "E=0.000000, nowhere near" in run_ok("compare", "--against", "bertrand")

    def test_dormoy_rows(self):
        output = run_ok("compare", "--against", "dormoy", "--format", "csv")
        lines = output.splitlines()
        assert len(lines) == 4
        assert lines[1].split(",")[2:4] == ["-0.024", "-0.025"]


class TestSimulateCommand:
    def test_deterministic_output(self):
        args = ["simulate", "--coups", "5000", "--seed", "11"]
        assert run_ok(*args) == run_ok(*args)

    def test_structured_counts(self):
        obj = json.loads(
            run_ok("simulate", "--coups", "2000", "--seed", "4", "--format", "structured")
        )
        assert obj["wins"] + obj["ties"] + obj["losses"] == 2000
        assert obj["empirical"]["W"]["den"] > 0

    def test_exact_mode_prints_count_fractions(self):
        output = run_ok("simulate", "--coups", "1000", "--seed", "2", "--exact")
        assert "W=" in output and "(se " in output

    @pytest.mark.parametrize(
        "args", [["--coups", "1000", "--seed", "2", "--precision", "20"], ["--coups", "8", "--seed", "0", "--precision", "2"]]
    )
    def test_rates_render_their_exact_count_ratios(self, args):
        # Each format shows a rate as the structured decimal of its count
        # ratio, halves rounded away from zero, never a float's digits.
        obj = json.loads(run_ok("simulate", *args, "--format", "structured"))
        decimals = {label: item["decimal"] for label, item in obj["empirical"].items()}
        csv_rows = dict(line.split(",")[:2] for line in run_ok("simulate", *args, "--format", "csv").splitlines())
        markdown = dict(item.split("=", 1) for item in run_ok("simulate", *args).split() if "=" in item)
        assert {label: csv_rows[label] for label in "WTLE"} == decimals
        assert {label: markdown[label] for label in "WTLE"} == decimals

    def test_rates_at_a_rounding_half(self):
        # 1/8 at two decimals is a half: 0.13, where a float rounds to 0.12.
        output = run_ok("simulate", "--coups", "8", "--seed", "0", "--precision", "2")
        assert "ties=1 " in output
        assert "T=0.13 " in output and "E=-0.13 " in output
        csv_text = run_ok("simulate", "--coups", "1000", "--seed", "2", "--precision", "20", "--format", "csv")
        assert "T,0.10900000000000000000," in csv_text


class TestParser:
    def test_top_level_help_lists_every_command(self):
        result = invoke(["--help"])
        assert result.exit_code == 0 and result.stderr == ""
        assert result.stdout.startswith("Usage: chemin [OPTIONS] COMMAND")
        for name in cli.COMMANDS:
            assert f"\n  {name} " in result.stdout

    @pytest.mark.parametrize("name", list(cli.COMMANDS))
    def test_command_help_lists_each_option_with_its_default(self, name):
        result = invoke([name, "--help"])
        assert result.exit_code == 0 and result.stderr == ""
        blocks = {block.split()[0]: block for block in result.stdout.split("\n  --")[1:]}
        options = cli.COMMANDS[name].options
        assert sorted(blocks) == sorted([*(option.flag.removeprefix("--") for option in options), "help"])
        for option in options:
            if option.default is not False:
                assert f"[default: {option.default}" in blocks[option.flag.removeprefix("--")]

    def test_simulate_help_shows_the_ranges(self):
        text = invoke(["simulate", "--help"]).stdout
        assert "[default: 100000; 1<=x<=100000000]" in text
        assert "[default: 0; x>=0]" in text

    @pytest.mark.parametrize(
        "spaced, joined",
        [
            (["five", "--assume", "mix", "--pi", "1/3"], ["five", "--assume", "mix", "--pi=1/3"]),
            (["simulate", "--coups", "300", "--format", "csv"], ["simulate", "--coups=300", "--format=csv"]),
        ],
    )
    def test_equals_form_prints_the_same_bytes(self, spaced, joined):
        result = invoke(joined)
        assert result.exit_code == 0 and result == invoke(spaced)

    @pytest.mark.parametrize(
        "args, message",
        [
            (["five", "--bogus"], "No such option: --bogus"),
            (["five", "--bogus=1"], "No such option: --bogus"),
            (["five", "--pi"], "Option '--pi' requires an argument."),
            (["five", "--action", "bogus"], "'bogus' is not one of 'stand', 'draw'."),
            (["simulate", "--coups", "ten"], "'ten' is not a valid integer."),
            (["five", "--precision", "0"], "0 is not in the range 1<=x<=1000."),
            (["five", "--exact=yes"], "Option '--exact' does not take a value."),
            (["five", "extra"], "Unexpected argument: 'extra'"),
            (["deal"], "No such command 'deal'."),
            (["--bogus"], "No such option: --bogus"),
            ([], "Missing command"),
        ],
        ids=[
            "unknown-option", "unknown-option-joined", "missing-value", "bad-choice", "non-integer",
            "out-of-range", "flag-with-value", "extra-argument", "unknown-command", "unknown-top-option",
            "bare",
        ],
    )
    def test_usage_error_exits_2_with_message_on_stderr(self, args, message):
        result = invoke(args)
        assert result.exit_code == 2
        assert result.stdout_bytes == b""
        assert "\nError: " in result.stderr and message in result.stderr

    def test_usage_error_names_the_command(self):
        assert invoke(["five", "--bogus"]).stderr.startswith(
            "Usage: chemin five [OPTIONS]\nTry 'chemin five --help' for help.\n"
        )

    def test_in_process_call_returns_and_raises(self, capsys):
        assert cli.main(["bar-matrix", "--exact"], standalone_mode=False) is None
        assert capsys.readouterr().out.startswith("| | assume-non-tireur")
        with pytest.raises(cli.UsageError):
            cli.main(["five", "--bogus"], standalone_mode=False)


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ["five", "--action", "bogus"],
            ["tables", "--strategy", "nobody"],
            ["solve", "--game", "teen-patti"],
            ["simulate", "--coups", "0"],
            ["coup", "--action", "mix", "--pi", "3/2"],
            ["five", "--precision", "1001"],
        ],
    )
    def test_usage_errors_exit_2(self, args):
        result = invoke(args)
        assert result.exit_code == 2

    def test_coups_above_bound_rejected_before_simulating(self, monkeypatch):
        def refuse(config):
            raise AssertionError("simulation started")

        monkeypatch.setattr(cli, "run_simulation", refuse)
        result = invoke(["simulate", "--coups", str(cli.MAX_COUPS + 1)])
        assert result.exit_code == 2
        assert "1<=x<=100000000" in result.stderr

    def test_negative_seed_rejected_before_simulating(self, monkeypatch):
        # random.Random(-7) seeds like Random(7): a negative seed would
        # replay the positive one while reporting a different seed.
        def refuse(config):
            raise AssertionError("simulation started")

        monkeypatch.setattr(cli, "run_simulation", refuse)
        result = invoke(["simulate", "--coups", "1000", "--seed", "-7"])
        assert result.exit_code == 2
        assert "x>=0" in result.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["coup", "--action", "mix", "--pi", "1e-100000000"],
            ["coup", "--action", "mix", "--pi", "1e-5000", "--exact"],
            ["tables", "--strategy", "mix", "--pi", "1e-5000", "--format", "structured"],
            ["coup", "--assume", "mix", "--assume-pi", "1E-997"],
            ["five", "--assume", "mix", "--pi", "0." + "0" * 1000 + "1"],
        ],
        ids=["huge-exponent", "coup-exact", "tables-structured", "assume-pi", "long-decimal"],
    )
    def test_probability_with_too_many_digits_rejected_quickly(self, args):
        began = time.perf_counter()
        result = invoke(args)
        assert time.perf_counter() - began < 1
        assert result.exit_code == 2
        assert f"at most {cli.MAX_PROBABILITY_DIGITS} digits" in result.stderr

    @pytest.mark.parametrize(
        "pi", ["1e-996", "0." + "3" * (cli.MAX_PROBABILITY_DIGITS - 1)], ids=["exponent", "digits"]
    )
    def test_longest_probability_accepted(self, pi):
        obj = json.loads(run_ok("tables", "--strategy", "mix", "--pi", pi, "--format", "structured"))
        assert Fraction(obj["draw_probability"]) == Fraction(pi)
        assert run_ok("coup", "--action", "mix", "--pi", pi, "--exact").startswith("W=")

    def test_largest_precision_accepted(self):
        output = run_ok("five", "--precision", str(cli.MAX_PRECISION))
        win = output.split()[0].removeprefix("W=")
        assert len(win.split(".")[1]) == 1000


def run_from_checkout(*args: str) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": f"{SRC}{os.pathsep}{path}" if path else str(SRC)}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=SRC.parent, check=False
    )


def test_version_from_checkout():
    result = run_from_checkout("-m", "chemin", "--version")
    assert result.returncode == 0, result.stderr
    assert result.stdout.split()[-1] == "0.1.0"


def test_bare_chemin_exits_2_from_checkout():
    result = run_from_checkout("-m", "chemin")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Missing command" in result.stderr


def test_cli_import_loads_no_parser_or_output_library():
    # -S skips site-packages, so this also shows the CLI needs nothing
    # beyond the standard library.
    probe = "import sys; before = set(sys.modules); import chemin.cli; print(*set(sys.modules) - before)"
    result = run_from_checkout("-S", "-c", probe)
    assert result.returncode == 0, result.stderr
    added = {name.split(".")[0] for name in result.stdout.split()}
    assert "chemin" in added
    assert not added & {"click", "argparse", "json", "csv"}


@pytest.mark.parametrize(
    "args, message",
    [(["--seed", "-1"], "--seed: must be >= 0"), (["--coups", "0"], "--coups: must be >= 1")],
    ids=["negative-seed", "no-coups"],
)
def test_montecarlo_check_rejects_bad_arguments(args, message):
    result = run_from_checkout("scripts/montecarlo_check.py", *args)
    assert result.returncode == 2
    assert message in result.stderr
    assert "Traceback" not in result.stderr
