"""Command-line reporting surface for the exact engine.

Subcommands: ``tables``, ``five``, ``coup``, ``bar-matrix``, ``solve``,
``compare``, ``simulate``.  Every exact value printed by a subcommand is
an exact rational; decimals are renderings at ``--precision`` digits and
``--exact`` switches to canonical ``num/den`` text.  ``--format`` picks
Markdown (default), CSV, or a single structured JSON object.  ``compare``
is the exception: its audit always prints six decimals and exact
fractions, the forms the historical figures are checked in, whatever
``--precision`` or ``--exact`` say.

The parser needs nothing beyond the standard library.  ``COMMANDS`` is
the one table of subcommands and their options; the same table parses
``--name value`` and ``--name=value``, validates and parses each value,
a probability too, whether or not the other options use it, and renders
``chemin --help`` and ``chemin <command> --help``.  A command only
computes: it returns ``(result, meta)``, and ``_run`` hands both to
``report.emit``, the one call that prints.

Exit codes: 0 on success, 2 on argument errors (the message goes to
stderr and stdout stays empty), 1 on internal failures.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .audit import AUDITS, Audit
from .banker import (
    VARIANTS,
    DecisionTable,
    PlayerRule,
    dormoy_unweighted_response,
    historical_table,
    mixed_best_response,
)
from .coup import CoupPolicy, Matrix2x2, TwoByTwoGame, bar_matrix, coup_stats, five_matrix, solve_2x2
from .five import FiveAction, StatTriple, five_stats
from .rational import as_rational
from . import __version__, report
from .simulate import SimConfig, simulate as run_simulation

RULE_BY_NAME = {"non-tireur": PlayerRule.NON_TIREUR, "tireur": PlayerRule.TIREUR}
ACTION_BY_NAME = {"stand": FiveAction.STAND, "draw": FiveAction.DRAW}

#: Upper bounds on numeric options; larger values are usage errors.
MAX_PRECISION = 1000
MAX_COUPS = 10**8
#: Digits a probability may take, its exponent's value counted in, so a
#: short text like 1e-5000 cannot build a number too long to print.
MAX_PROBABILITY_DIGITS = 1000

_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


class UsageError(Exception):
    """A bad command line; ``main`` prints it to stderr and exits 2."""


def _probability_digits(text: str) -> int:
    """Digits written in a probability plus the size of its exponent: a
    bound on the digits of the fraction's numerator and denominator."""
    digits = len(re.findall(r"\d", text))
    exponent = _EXPONENT.search(text)
    if exponent is None or digits > MAX_PROBABILITY_DIGITS:
        return digits
    return digits + abs(int(exponent[1]))


def _parse_probability(text: str, option_name: str) -> Fraction:
    if _probability_digits(text) > MAX_PROBABILITY_DIGITS:
        raise UsageError(
            f"{option_name} may take at most {MAX_PROBABILITY_DIGITS} digits, its exponent counted in"
        )
    try:
        value = as_rational(text)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise UsageError(
            f"{option_name} must be a fraction like 1/2 or a decimal: {text!r}"
        ) from exc
    if not 0 <= value <= 1:
        raise UsageError(f"{option_name} must be in [0, 1]: {text}")
    return value


def _banker_table(assume: str, pi: Fraction, variant_name: str) -> tuple[DecisionTable, dict]:
    """Resolve Banker's table from an assumed rule (or mixture) and variant."""
    if assume != "mix":
        table = historical_table(VARIANTS[variant_name], RULE_BY_NAME[assume])
        return table, {"assume": assume, "variant": variant_name}
    if variant_name != "correct":
        raise UsageError("--variant applies only to pure assumed rules")
    return mixed_best_response(pi), {"assume": "mix", "assume_draw_probability": str(pi)}


def tables(strategy: str, pi: Fraction, variant: str) -> tuple[report.FlaggedTable, dict]:
    """Print a Banker stand/draw table (rows: totals 0-7; columns: Player's
    third card 0-9 then "stand")."""
    if strategy == "dormoy-average":
        if variant != "correct":
            raise UsageError("--variant applies only to pure strategies")
        table, meta = dormoy_unweighted_response(), {}
    else:
        table, _ = _banker_table(strategy, pi, variant)
        meta = {"variant": variant} if strategy != "mix" else {"draw_probability": str(pi)}
    near_ties = sorted(VARIANTS[variant].near_ties_vs_non_tireur) if strategy == "non-tireur" else []
    return report.FlaggedTable(table, near_ties), {"strategy": strategy, **meta}


def five(action: str, assume: str, pi: Fraction, variant: str) -> tuple[StatTriple, dict]:
    """Player's W/T/E when holding a two-card 5 (Banker non-natural)."""
    table, meta = _banker_table(assume, pi, variant)
    return five_stats(ACTION_BY_NAME[action], table), {"action": action, **meta}


def coup(
    action: str, pi: Fraction, assume: str, assume_pi: Fraction, variant: str
) -> tuple[StatTriple, dict]:
    """Whole-coup W/T/E, naturals included, nothing conditioned away."""
    policy, meta = _coup_policy(action, pi, assume, assume_pi, variant)
    return coup_stats(policy), meta


def _coup_policy(
    action: str, pi: Fraction, assume: str, assume_pi: Fraction, variant: str
) -> tuple[CoupPolicy, dict]:
    table, table_meta = _banker_table(assume, assume_pi, variant)
    if action != "mix":
        return CoupPolicy(Fraction(int(ACTION_BY_NAME[action])), table), {"action": action, **table_meta}
    return CoupPolicy(pi, table), {"action": "mix", "draw_probability": str(pi), **table_meta}


def bar_matrix_command() -> tuple[Matrix2x2, dict]:
    """The 2x2 whole-coup payoff matrix (Player expectation per coup)."""
    return bar_matrix(), {}


def solve(game: str) -> tuple[TwoByTwoGame, dict]:
    """Solve one of the two 2x2 games exactly (saddle or mixed)."""
    matrix = five_matrix() if game == "five" else bar_matrix()
    return solve_2x2(matrix), {"game": game}


def compare(against: str) -> tuple[Audit, dict]:
    """Audit a historical analysis against the exact recomputation."""
    return AUDITS[against](), {"against": against}


def simulate(
    coups: int, seed: int, action: str, pi: Fraction, assume: str, assume_pi: Fraction
) -> tuple[report.Simulation, dict]:
    """Monte Carlo playout of full coups (seeded, reproducible)."""
    policy, meta = _coup_policy(action, pi, assume, assume_pi, "correct")
    config = SimConfig(coups=coups, seed=seed, policy=policy)
    return report.Simulation(config, run_simulation(config)), {"coups": coups, "seed": seed, **meta}


# ---------------------------------------------------------------------------
# The option table, and the parser and help it drives


class Option(NamedTuple):
    """One ``--flag``: a switch when its default is False, otherwise it
    takes a value, which must be one of ``choices``, an integer within
    ``bounds`` (inclusive; None for no upper bound), or, with neither,
    a probability.  ``dest``, the parameter's name, is the flag without
    its dashes and with ``-`` read as ``_``."""

    flag: str
    default: object
    help: str
    choices: tuple[str, ...] = ()
    bounds: Optional[tuple[int, Optional[int]]] = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


class Command(NamedTuple):
    run: Callable[..., tuple]
    options: tuple[Option, ...]


def _command(run: Callable[..., tuple], *options: Option) -> Command:
    """A subcommand taking ``options`` and then the output options."""
    return Command(run, (*options, *OUTPUT_OPTIONS))


def _range_text(bounds: tuple[int, Optional[int]]) -> str:
    low, high = bounds
    return f"x>={low}" if high is None else f"{low}<=x<={high}"


def _pi(flag: str, used_with: str) -> Option:
    return Option(flag, Fraction(1, 2), f"Draw-at-5 probability for {used_with}.")


RULES = ("non-tireur", "tireur", "mix")
VARIANT = Option("--variant", "correct", "Historical variant of Banker's table.", tuple(sorted(VARIANTS)))
OUTPUT_OPTIONS = (
    Option("--format", "markdown", "Output shape.", ("markdown", "csv", "structured")),
    Option("--exact", False, "Print canonical num/den fractions instead of decimals."),
    Option("--precision", 6, "Digits in decimal renderings.", bounds=(1, MAX_PRECISION)),
)

#: Subcommand name -> its function and options, in help order.
COMMANDS = {
    "tables": _command(
        tables,
        Option("--strategy", "non-tireur", "Player rule the table best-responds to.",
               ("non-tireur", "tireur", "mix", "dormoy-average")),
        _pi("--pi", "--strategy mix"),
        VARIANT._replace(help="Historical table variant (pure strategies only)."),
    ),
    "five": _command(
        five,
        Option("--action", "stand", "Player's decision on his two-card 5.", ("stand", "draw")),
        Option("--assume", "non-tireur", "Rule Banker assumes and best-responds to.", RULES),
        _pi("--pi", "--assume mix"),
        VARIANT,
    ),
    "coup": _command(
        coup,
        Option("--action", "stand", "Player's behavior on a two-card 5.", ("stand", "draw", "mix")),
        _pi("--pi", "--action mix"),
        Option("--assume", "non-tireur", "Rule Banker assumes and best-responds to.", RULES),
        _pi("--assume-pi", "--assume mix"),
        VARIANT,
    ),
    "bar-matrix": _command(bar_matrix_command),
    "solve": _command(
        solve,
        Option("--game", "bar", "five: conditional-on-5 payoffs; bar: whole-coup payoffs.", ("five", "bar")),
    ),
    "compare": _command(
        compare,
        Option("--against", "bertrand", "Which historical analysis to audit.", tuple(AUDITS)),
    ),
    "simulate": _command(
        simulate,
        Option("--coups", 100_000, "Coups to play.", bounds=(1, MAX_COUPS)),
        Option("--seed", 0, "Seed of the card stream.", bounds=(0, None)),
        Option("--action", "stand", "Player's behavior on a two-card 5.", ("stand", "draw", "mix")),
        _pi("--pi", "--action mix"),
        Option("--assume", "non-tireur", "Rule Banker assumes and best-responds to.", RULES),
        _pi("--assume-pi", "--assume mix"),
    ),
}

DESCRIPTION = """\
  Exact analytics for baccarat chemin de fer.

  Best-response tables, draw-at-five statistics, whole-coup values, 2x2
  game solutions, and audits of the 19th-century analyses of Dormoy
  (1872), Badoureau (1881), and Bertrand (1888), all computed in exact
  rational arithmetic."""


def _summary(command: Command) -> str:
    return " ".join(command.run.__doc__.split())


def _option_help(option: Option) -> str:
    if option.default is False:
        return f"  {option.flag}\n        {option.help}\n"
    if option.choices:
        metavar, shown = f"[{'|'.join(option.choices)}]", option.default
    elif option.bounds:
        metavar, shown = "INTEGER", f"{option.default}; {_range_text(option.bounds)}"
    else:
        metavar, shown = "P", option.default
    return f"  {option.flag} {metavar}\n        {option.help} [default: {shown}]\n"


def _usage(prog: str, name: Optional[str]) -> str:
    return f"Usage: {prog} [OPTIONS] COMMAND [ARGS]..." if name is None else f"Usage: {prog} {name} [OPTIONS]"


def _help(prog: str, name: Optional[str] = None) -> str:
    """``chemin --help``, or ``chemin <name> --help`` for one command."""
    if name is None:
        width = max(map(len, COMMANDS))
        listing = "".join(f"  {each:<{width}}  {_summary(COMMANDS[each])}\n" for each in COMMANDS)
        return (
            f"{_usage(prog, None)}\n\n{DESCRIPTION}\n\n"
            "Options:\n  --version  Show the version and exit.\n  --help     Show this message and exit.\n\n"
            f"Commands:\n{listing}"
        )
    options = "".join(map(_option_help, COMMANDS[name].options))
    return (
        f"{_usage(prog, name)}\n\n  {_summary(COMMANDS[name])}\n\n"
        f"Options:\n{options}  --help\n        Show this message and exit.\n"
    )


def _value(option: Option, text: str):
    """``text`` checked against the option's choices or integer range, or
    parsed as a probability."""
    if option.choices and text not in option.choices:
        allowed = ", ".join(map(repr, option.choices))
        raise UsageError(f"Invalid value for '{option.flag}': {text!r} is not one of {allowed}.")
    if option.bounds is None:
        return text if option.choices else _parse_probability(text, option.flag)
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"Invalid value for '{option.flag}': {text!r} is not a valid integer.") from None
    low, high = option.bounds
    if value < low or (high is not None and value > high):
        raise UsageError(f"Invalid value for '{option.flag}': {value} is not in the range {_range_text(option.bounds)}.")
    return value


def _parse(name: str, argv: list[str]) -> Optional[dict]:
    """The keyword arguments of command ``name``, or None after ``--help``."""
    options = {option.flag: option for option in COMMANDS[name].options}
    values = {option.dest: option.default for option in options.values()}
    args = iter(argv)
    for arg in args:
        if arg == "--help":
            return None
        flag, has_value, text = arg.partition("=")
        option = options.get(flag)
        if option is None:
            raise UsageError(f"No such option: {flag}" if arg.startswith("-") else f"Unexpected argument: {arg!r}")
        if option.default is False:
            if has_value:
                raise UsageError(f"Option '{flag}' does not take a value.")
            values[option.dest] = True
            continue
        if not has_value:
            text = next(args, None)
            if text is None:
                raise UsageError(f"Option '{flag}' requires an argument.")
        values[option.dest] = _value(option, text)
    return values


def _run(prog: str, argv: list[str]) -> None:
    if not argv:
        raise UsageError(f"Missing command: one of {', '.join(COMMANDS)}.")
    name, rest = argv[0], argv[1:]
    if name == "--help":
        sys.stdout.write(_help(prog))
    elif name == "--version":
        sys.stdout.write(f"{prog}, version {__version__}\n")
    elif name not in COMMANDS:
        raise UsageError(f"No such option: {name}" if name.startswith("-") else f"No such command {name!r}.")
    else:
        values = _parse(name, rest)
        if values is None:
            sys.stdout.write(_help(prog, name))
        else:
            fmt, exact, precision = values.pop("format"), values.pop("exact"), values.pop("precision")
            result, meta = COMMANDS[name].run(**values)
            report.emit(result, fmt, exact, precision, command=name, **meta)


def main(args: Optional[list[str]] = None, prog_name: Optional[str] = None, standalone_mode: bool = True):
    """Run one command line (``sys.argv[1:]`` by default).

    In standalone mode a usage error prints the usage and the message to
    stderr and exits 2, and success exits 0; otherwise success returns
    None and a usage error raises ``UsageError``.
    """
    prog = prog_name or "chemin"
    argv = sys.argv[1:] if args is None else list(args)
    try:
        _run(prog, argv)
    except UsageError as error:
        if not standalone_mode:
            raise
        name = argv[0] if argv and argv[0] in COMMANDS else None
        where = prog if name is None else f"{prog} {name}"
        sys.stderr.write(f"{_usage(prog, name)}\nTry '{where} --help' for help.\n\nError: {error}\n")
        sys.exit(2)
    if standalone_mode:
        sys.exit(0)


if __name__ == "__main__":
    main()
