"""Self-test of the exactness gate: right answers pass, corrupted ones fail.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

import run  # puts src/ and the checkout root on sys.path
from checks import Oracle
from workloads import COUPS, Cli, CliOutput, MonteCarlo, Scenario, Sweep
from tests import oracles


@pytest.fixture(scope="module")
def oracle() -> Oracle:
    return Oracle(oracles)


@pytest.fixture(scope="module")
def sweep() -> Sweep:
    workload = Sweep(run.ROOT, seed=0)
    workload.setup()
    return workload


@pytest.fixture(scope="module")
def cli() -> Cli:
    workload = Cli(run.ROOT, seed=0)
    workload.setup_inprocess()
    return workload


def off_by_one(stats):
    """The same statistics with the win numerator one larger."""
    win = Fraction(stats.win.numerator + 1, stats.win.denominator)
    return SimpleNamespace(win=win, tie=stats.tie, expectation=stats.expectation)


def record(spec, result) -> run.Record:
    return run.Record(spec, result, None, 0.1, 0.1)


class TestSweep:
    P = Fraction(71, 176)

    def test_engine_answer_passes(self, sweep, oracle):
        assert sweep.check(oracle, self.P, sweep.run(self.P)) is None

    def test_flipped_table_cell_fails(self, sweep, oracle):
        table, coup, stand, draw = sweep.run(self.P)
        corrupted = (table.flip([(3, 9)]), coup, stand, draw)
        assert "table" in sweep.check(oracle, self.P, corrupted)

    @pytest.mark.parametrize("position", [1, 2, 3])
    def test_numerator_off_by_one_fails(self, sweep, oracle, position):
        result = list(sweep.run(self.P))
        result[position] = off_by_one(result[position])
        assert sweep.check(oracle, self.P, tuple(result)) is not None

    def test_failed_op_is_counted_and_not_timed(self, sweep, oracle):
        good = sweep.run(self.P)
        table, *rest = good
        records = [record(self.P, good), record(self.P, (table.flip([(6, 6)]), *rest)),
                   run.Record(self.P, None, "Traceback: boom", 0.1, 0.1)]
        failures, passed = run.verdict(sweep, oracle, records)
        assert len(failures) == 2
        assert passed == records[:1]


FIVE_STRUCTURED = {
    "cmd": "five", "action": "stand", "assume": "non-tireur", "variant": "correct",
    "fmt": "structured", "exact": False, "precision": 6,
    "argv": ["five", "--action", "stand", "--assume", "non-tireur", "--format", "structured"],
}
TABLES_CSV = {
    "cmd": "tables", "strategy": "tireur", "variant": "correct",
    "fmt": "csv", "exact": False, "precision": 6,
    "argv": ["tables", "--strategy", "tireur", "--format", "csv"],
}


class TestCli:
    def test_every_command_of_three_blocks_passes(self, cli, oracle):
        """Three blocks show every table variant."""
        for spec in itertools.islice(cli.ops(), 3 * cli.block):
            assert cli.check(oracle, spec, cli.run_inprocess(spec)) is None, spec

    def test_structured_numerator_off_by_one_fails(self, cli, oracle):
        output = cli.run_inprocess(FIVE_STRUCTURED)
        obj = json.loads(output.stdout)
        obj["win"]["num"] += 1
        corrupted = replace(output, stdout=json.dumps(obj))
        assert "win" in cli.check(oracle, FIVE_STRUCTURED, corrupted)

    def test_flipped_csv_table_cell_fails(self, cli, oracle):
        output = cli.run_inprocess(TABLES_CSV)
        lines = output.stdout.splitlines()
        assert lines[5].startswith("4,0,")
        lines[5] = "4,1," + lines[5][4:]
        corrupted = replace(output, stdout="\n".join(lines) + "\n")
        assert "table" in cli.check(oracle, TABLES_CSV, corrupted)

    def test_non_zero_exit_fails(self, cli, oracle):
        output = cli.run_inprocess(TABLES_CSV)
        assert "exit code" in cli.check(oracle, TABLES_CSV, CliOutput(1, output.stdout))

    def test_garbage_output_fails(self, cli, oracle):
        assert cli.check(oracle, FIVE_STRUCTURED, CliOutput(0, "not json")) is not None


class TestMonteCarlo:
    @pytest.fixture(scope="class")
    def montecarlo(self):
        workload = MonteCarlo(run.ROOT, seed=0)
        workload.setup()
        return workload

    def test_engine_answers_pass(self, montecarlo, oracle):
        ops = iter(montecarlo.ops())
        for _ in range(montecarlo.block):
            scenario = next(ops)
            assert montecarlo.check(oracle, scenario, montecarlo.run(scenario)) is None

    def test_count_off_by_one_fails(self, montecarlo, oracle):
        scenario = Scenario(Fraction(0), "non-tireur", seed=11)
        result = montecarlo.run(scenario)
        corrupted = replace(result, wins=result.wins + 1)
        assert "sum" in montecarlo.check(oracle, scenario, corrupted)

    def test_bias_too_small_for_one_op_fails_when_pooled(self, montecarlo, oracle):
        scenario = Scenario(Fraction(0), "non-tireur", seed=13)
        result = montecarlo.run(scenario)
        shift = COUPS // 1000  # a tenth of a percent of the coups turned from losses into ties
        biased = replace(result, ties=result.ties + shift, losses=result.losses - shift)
        assert montecarlo.check(oracle, scenario, biased) is None
        records = [run.Record(replace(scenario, seed=seed), biased, None, 0.1, 0.1) for seed in range(100)]
        failures, passed = run.verdict(montecarlo, oracle, records)
        assert len(failures) == 100 and not passed
        assert "pooled" in failures[0][1]

    def test_swapped_outcomes_fail(self, montecarlo, oracle):
        scenario = Scenario(Fraction(1), "tireur", seed=12)
        result = montecarlo.run(scenario)
        corrupted = replace(result, wins=result.ties, ties=result.wins)
        assert "standard errors" in montecarlo.check(oracle, scenario, corrupted)
        assert result.wins + result.ties + result.losses == COUPS
