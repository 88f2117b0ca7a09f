"""Seeded inputs and single operations for the three benchmark workloads.

Every input comes from ``random.Random(seed)``; the chemin package sees
only the generated values.  Each workload is a closed loop with one
client: the next op is issued when the previous one has returned.

* ``sweep``: one op is one point of the full-game envelope at a rational
  p, i.e. ``mixed_best_response(p)`` followed by ``coup_stats`` and both
  ``five_stats`` on that table.
* ``cli``: one op is one fresh ``python -m chemin ...`` process, or one
  run of ``scripts/full_report.py``, drawn from a fixed mix of commands.
* ``montecarlo``: one op is one ``simulate`` call of ``COUPS`` coups.

Workloads whose ops differ in cost issue them in blocks of fixed
composition (``block`` ops each); only the order inside a block and the
arguments are seeded, so runs on different seeds measure the same mix.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import runpy
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import checks

#: Breakpoints of the full-game envelope (and its ends and midpoint);
#: every sweep starts with them.
ANCHORS = tuple(
    Fraction(text) for text in ("0", "1/16", "71/176", "1/2", "9/11", "107/112", "1")
)

#: Largest denominator of a seeded probability.
MAX_DENOMINATOR = 1000

RULES = ("non-tireur", "tireur")
VARIANTS = ("correct", "dormoy", "badoureau")
FORMATS = ("markdown", "csv", "structured")

#: Coups per ``montecarlo`` op.
COUPS = 100_000
#: Coups per ``chemin simulate`` op in the ``cli`` mix.
CLI_COUPS = 2_000

#: The command each ``cli`` warm-up invocation runs.
WARMUP_ARGV = ("tables", "--format", "csv")

#: A child process still running after this long is killed.
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class CliOutput:
    returncode: int
    stdout: str


def seeded_probabilities(rng: random.Random, interior: bool = False):
    """Endless distinct rationals n/q in [0, 1] with q <= MAX_DENOMINATOR."""
    seen = set()
    while True:
        q = rng.randint(1, MAX_DENOMINATOR)
        p = Fraction(rng.randint(0, q), q)
        if p in seen or (interior and p in (0, 1)):
            continue
        seen.add(p)
        yield p


def run_child(command: list[str], root: Path, capture: bool = False) -> CliOutput:
    """Run a Python child in the checkout and wait for it to exit.

    The wait blocks in the kernel: ``subprocess.run(timeout=...)`` would
    instead poll with sleeps of up to 50 ms and round every child's time
    up to the next poll.  A watchdog thread kills a child that hangs.
    """
    pipe = subprocess.PIPE if capture else subprocess.DEVNULL
    with subprocess.Popen(command, cwd=root, env=source_env(root), stdout=pipe,
                          stderr=pipe, text=True) as proc:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            stdout, _ = proc.communicate()
        finally:
            watchdog.cancel()
    return CliOutput(proc.returncode, stdout or "")


def source_env(root: Path) -> dict:
    """Environment for a child Python that imports chemin from the checkout."""
    src = str(root / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{path}" if path else src}


class Sweep:
    name = "sweep"
    block = 1
    fresh_process = False

    def __init__(self, root: Path, seed: int):
        self.root, self.seed = root, seed

    def setup(self) -> None:
        import chemin

        self.chemin = chemin

    def ops(self):
        rng = random.Random(self.seed)
        rest = (p for p in seeded_probabilities(rng) if p not in ANCHORS)
        return itertools.chain(ANCHORS, rest)

    def run(self, p: Fraction):
        api = self.chemin
        table = api.mixed_best_response(p)
        coup = api.coup_stats(api.CoupPolicy(p, table))
        stand = api.five_stats(api.FiveAction.STAND, table)
        draw = api.five_stats(api.FiveAction.DRAW, table)
        return table, coup, stand, draw

    def check(self, oracle, p: Fraction, result):
        return checks.check_sweep(oracle, p, result)


@dataclass(frozen=True)
class Scenario:
    """A ``montecarlo`` op: Player's draw-at-5 probability, Banker's
    assumed rule (0, 1, or a mixed probability), and the RNG seed."""

    draw_at_five: Fraction
    assumed: str
    seed: int


class MonteCarlo:
    name = "montecarlo"
    block = 5
    fresh_process = False

    def __init__(self, root: Path, seed: int):
        self.root, self.seed = root, seed
        self.rng = random.Random(seed)
        self.mixed_p = next(seeded_probabilities(self.rng, interior=True))

    def setup(self) -> None:
        """Import chemin and build every table the ops will play against."""
        import chemin

        self.chemin = chemin
        for rule in chemin.PlayerRule:
            chemin.best_response_table(rule)
        self.mixed_table = chemin.mixed_best_response(self.mixed_p)

    def ops(self):
        pure = [
            (Fraction(action), rule) for action in (0, 1) for rule in RULES
        ]
        while True:
            block = [*pure, (self.mixed_p, "mix")]
            self.rng.shuffle(block)
            for draw_at_five, assumed in block:
                yield Scenario(draw_at_five, assumed, self.rng.getrandbits(32))

    def run(self, scenario: Scenario):
        api = self.chemin
        if scenario.assumed == "mix":
            table = self.mixed_table
        else:
            table = api.best_response_table(api.PlayerRule(RULES.index(scenario.assumed)))
        policy = api.CoupPolicy(scenario.draw_at_five, table)
        return api.simulate(api.SimConfig(coups=COUPS, seed=scenario.seed, policy=policy))

    def check(self, oracle, scenario: Scenario, result):
        return checks.check_montecarlo(oracle, scenario, result, COUPS, self.mixed_table)

    def check_pooled(self, oracle, records) -> dict:
        """Reasons, by record id, for ops whose scenario fails when all its
        ops are summed: a bias too small to see in one op shows in the sum."""
        groups: dict = {}
        for record in records:
            groups.setdefault((record.spec.draw_at_five, record.spec.assumed), []).append(record)
        failing = {}
        for group in groups.values():
            pooled = SimpleNamespace(**{
                outcome: sum(getattr(record.result, outcome) for record in group)
                for outcome in ("wins", "ties", "losses")
            })
            reason = checks.check_montecarlo(
                oracle, group[0].spec, pooled, COUPS * len(group), self.mixed_table
            )
            if reason:
                failing.update((id(record), f"pooled over {len(group)} ops: {reason}") for record in group)
        return failing


class Cli:
    name = "cli"
    fresh_process = True

    def __init__(self, root: Path, seed: int):
        self.root, self.seed = root, seed
        self.script = root / "scripts" / "full_report.py"
        self.block = len(self._block(random.Random(0), "correct"))

    def setup(self) -> None:
        """One untimed warm-up invocation (the first also compiles bytecode)."""
        if run_child([sys.executable, "-m", "chemin", *WARMUP_ARGV], self.root).returncode:
            raise RuntimeError(f"warm-up 'chemin {' '.join(WARMUP_ARGV)}' failed")

    def setup_inprocess(self) -> None:
        """Import the CLI into this process, for the traced run."""
        import chemin.cli

        self.chemin = chemin

    def ops(self):
        rng = random.Random(self.seed)
        for index in itertools.count():
            if index % len(VARIANTS) == 0:
                variants = list(VARIANTS)
                rng.shuffle(variants)
            yield from self._block(rng, variants[index % len(VARIANTS)])

    def _block(self, rng: random.Random, variant: str) -> list[dict]:
        """One of each command shape; ``variant`` rotates across blocks so
        every historical table variant is shown."""
        probabilities = seeded_probabilities(rng)

        def pi() -> str:
            """A probability argument: a fraction, or now and then a decimal."""
            if rng.random() < 0.25:
                thousandths = rng.randint(0, 1000)
                return f"{thousandths // 1000}.{thousandths % 1000:03d}"
            value = next(probabilities)
            return f"{value.numerator}/{value.denominator}"

        def command(cmd: str, **options) -> dict:
            fmt = rng.choice(FORMATS)
            exact = rng.random() < 0.5
            precision = rng.randint(2, 12) if rng.random() < 0.5 else 6
            argv = [cmd]
            for key, value in options.items():
                argv += [f"--{key.replace('_', '-')}", str(value)]
            argv += ["--format", fmt, "--precision", str(precision)]
            if exact:
                argv.append("--exact")
            return {"cmd": cmd, **options, "fmt": fmt, "exact": exact,
                    "precision": precision, "argv": argv}

        def action() -> str:
            return rng.choice(("stand", "draw"))

        specs = [
            command("tables", strategy="non-tireur", variant=variant),
            command("tables", strategy="tireur", variant=variant),
            command("tables", strategy="mix", pi=pi()),
            command("tables", strategy="dormoy-average"),
            command("five", action=action(), assume=rng.choice(RULES), variant=variant),
            command("five", action=action(), assume="mix", pi=pi()),
            command("coup", action=action(), assume=rng.choice(RULES), variant=variant),
            command("coup", action="mix", pi=pi(), assume=rng.choice(RULES), variant=variant),
            command("coup", action=action(), assume="mix", assume_pi=pi()),
            command("coup", action="mix", pi=pi(), assume="mix", assume_pi=pi()),
            command("bar-matrix"),
            command("solve", game="five"),
            command("solve", game="bar"),
            *(command("compare", against=against) for against in ("bertrand", "badoureau", "dormoy")),
            command("simulate", coups=CLI_COUPS, seed=rng.getrandbits(32),
                    action=rng.choice(("stand", "draw", "mix")), pi=pi(), assume=rng.choice(RULES)),
            {"cmd": "full_report"},
        ]
        rng.shuffle(specs)
        return specs

    def command_line(self, spec: dict) -> list[str]:
        if spec["cmd"] == "full_report":
            return [sys.executable, str(self.script)]
        return [sys.executable, "-m", "chemin", *spec["argv"]]

    def run(self, spec: dict) -> CliOutput:
        return run_child(self.command_line(spec), self.root, capture=True)

    def run_inprocess(self, spec: dict) -> CliOutput:
        """The same command inside this process, for the traced run."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if spec["cmd"] == "full_report":
                runpy.run_path(str(self.script), run_name="__main__")
            else:
                self.chemin.cli.main(spec["argv"], prog_name="chemin", standalone_mode=False)
        return CliOutput(0, out.getvalue())

    def check(self, oracle, spec: dict, result: CliOutput):
        return checks.check_cli(oracle, spec, result)


WORKLOADS = {workload.name: workload for workload in (Sweep, Cli, MonteCarlo)}
