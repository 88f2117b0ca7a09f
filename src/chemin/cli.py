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
``--name value`` and ``--name=value``, validates each value and renders
``chemin --help`` and ``chemin <command> --help``.

Exit codes: 0 on success, 2 on argument errors (the message goes to
stderr and stdout stays empty), 1 on internal failures.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .audit import AUDITS
from .banker import (
    VARIANTS,
    DecisionTable,
    PlayerRule,
    dormoy_unweighted_response,
    historical_table,
    mixed_best_response,
)
from .coup import CoupPolicy, bar_matrix, coup_stats, five_matrix, solve_2x2
from .five import FiveAction, five_stats
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


def _banker_table(
    assume: str, pi_text: str, variant_name: str, pi_option: str
) -> tuple[DecisionTable, dict]:
    """Resolve Banker's table from an assumed rule (or mixture) and variant."""
    if assume == "mix":
        if variant_name != "correct":
            raise UsageError("--variant applies only to pure assumed rules")
        pi = _parse_probability(pi_text, pi_option)
        table = mixed_best_response(pi)
        meta = {"assume": "mix", "assume_draw_probability": str(pi)}
    else:
        rule = RULE_BY_NAME[assume]
        table = historical_table(VARIANTS[variant_name], rule)
        meta = {"assume": assume, "variant": variant_name}
    return table, meta


def tables(strategy: str, pi_text: str, variant: str, fmt: str, exact: bool, precision: int) -> None:
    """Print a Banker stand/draw table (rows: totals 0-7; columns: Player's
    third card 0-9 then "stand")."""
    if strategy == "dormoy-average":
        if variant != "correct":
            raise UsageError("--variant applies only to pure strategies")
        table, meta = dormoy_unweighted_response(), {}
    else:
        table, chosen = _banker_table(strategy, pi_text, variant, "--pi")
        meta = {"variant": variant} if strategy != "mix" else {"draw_probability": chosen["assume_draw_probability"]}
    near_ties = sorted(VARIANTS[variant].near_ties_vs_non_tireur) if strategy == "non-tireur" else []
    report.emit(
        report.FlaggedTable(table, near_ties), fmt, exact, precision,
        command="tables", strategy=strategy, **meta,
    )


def five(action: str, assume: str, pi_text: str, variant: str, fmt: str, exact: bool, precision: int) -> None:
    """Player's W/T/E when holding a two-card 5 (Banker non-natural)."""
    table, meta = _banker_table(assume, pi_text, variant, "--pi")
    stats = five_stats(ACTION_BY_NAME[action], table)
    report.emit(stats, fmt, exact, precision, command="five", action=action, **meta)


def coup(
    action: str,
    pi_text: str,
    assume: str,
    assume_pi_text: str,
    variant: str,
    fmt: str,
    exact: bool,
    precision: int,
) -> None:
    """Whole-coup W/T/E, naturals included, nothing conditioned away."""
    policy, meta = _coup_policy(action, pi_text, assume, assume_pi_text, variant)
    report.emit(coup_stats(policy), fmt, exact, precision, command="coup", **meta)


def _coup_policy(
    action: str, pi_text: str, assume: str, assume_pi_text: str, variant: str
) -> tuple[CoupPolicy, dict]:
    table, table_meta = _banker_table(assume, assume_pi_text, variant, "--assume-pi")
    if action == "mix":
        draw_probability = _parse_probability(pi_text, "--pi")
        action_meta = {"action": "mix", "draw_probability": str(draw_probability)}
    else:
        draw_probability = Fraction(int(ACTION_BY_NAME[action]))
        action_meta = {"action": action}
    return CoupPolicy(draw_probability, table), {**action_meta, **table_meta}


def bar_matrix_command(fmt: str, exact: bool, precision: int) -> None:
    """The 2x2 whole-coup payoff matrix (Player expectation per coup)."""
    report.emit(bar_matrix(), fmt, exact, precision, command="bar-matrix")


def solve(game: str, fmt: str, exact: bool, precision: int) -> None:
    """Solve one of the two 2x2 games exactly (saddle or mixed)."""
    matrix = five_matrix() if game == "five" else bar_matrix()
    report.emit(solve_2x2(matrix), fmt, exact, precision, command="solve", game=game)


def compare(against: str, fmt: str, exact: bool, precision: int) -> None:
    """Audit a historical analysis against the exact recomputation."""
    report.emit(AUDITS[against](), fmt, exact, precision, command="compare", against=against)


def simulate(
    coups: int,
    seed: int,
    action: str,
    pi_text: str,
    assume: str,
    assume_pi_text: str,
    fmt: str,
    exact: bool,
    precision: int,
) -> None:
    """Monte Carlo playout of full coups (seeded, reproducible)."""
    policy, meta = _coup_policy(action, pi_text, assume, assume_pi_text, "correct")
    config = SimConfig(coups=coups, seed=seed, policy=policy)
    report.emit(
        report.Simulation(config, run_simulation(config)), fmt, exact, precision,
        command="simulate", coups=coups, seed=seed, **meta,
    )


# ---------------------------------------------------------------------------
# The option table, and the parser and help it drives


class Option(NamedTuple):
    """One ``--flag``: a switch when its default is False, otherwise it
    takes a value, which must be one of ``choices``, an integer within
    ``bounds`` (inclusive; None for no upper bound), or, with neither,
    text the command parses itself.  ``dest`` names the parameter."""

    flag: str
    dest: str
    default: object
    help: str
    choices: tuple[str, ...] = ()
    bounds: Optional[tuple[int, Optional[int]]] = None


class Command(NamedTuple):
    run: Callable[..., None]
    options: tuple[Option, ...]


def _command(run: Callable[..., None], *options: Option) -> Command:
    """A subcommand taking ``options`` and then the output options."""
    return Command(run, (*options, *OUTPUT_OPTIONS))


def _range_text(bounds: tuple[int, Optional[int]]) -> str:
    low, high = bounds
    return f"x>={low}" if high is None else f"{low}<=x<={high}"


def _pi(flag: str, dest: str, used_with: str) -> Option:
    return Option(flag, dest, "1/2", f"Draw-at-5 probability for {used_with}.")


RULES = ("non-tireur", "tireur", "mix")
VARIANT = Option("--variant", "variant", "correct", "Historical variant of Banker's table.", tuple(sorted(VARIANTS)))
OUTPUT_OPTIONS = (
    Option("--format", "fmt", "markdown", "Output shape.", ("markdown", "csv", "structured")),
    Option("--exact", "exact", False, "Print canonical num/den fractions instead of decimals."),
    Option("--precision", "precision", 6, "Digits in decimal renderings.", bounds=(1, MAX_PRECISION)),
)

#: Subcommand name -> its function and options, in help order.
COMMANDS = {
    "tables": _command(
        tables,
        Option("--strategy", "strategy", "non-tireur", "Player rule the table best-responds to.",
               ("non-tireur", "tireur", "mix", "dormoy-average")),
        _pi("--pi", "pi_text", "--strategy mix"),
        VARIANT._replace(help="Historical table variant (pure strategies only)."),
    ),
    "five": _command(
        five,
        Option("--action", "action", "stand", "Player's decision on his two-card 5.", ("stand", "draw")),
        Option("--assume", "assume", "non-tireur", "Rule Banker assumes and best-responds to.", RULES),
        _pi("--pi", "pi_text", "--assume mix"),
        VARIANT,
    ),
    "coup": _command(
        coup,
        Option("--action", "action", "stand", "Player's behavior on a two-card 5.", ("stand", "draw", "mix")),
        _pi("--pi", "pi_text", "--action mix"),
        Option("--assume", "assume", "non-tireur", "Rule Banker assumes and best-responds to.", RULES),
        _pi("--assume-pi", "assume_pi_text", "--assume mix"),
        VARIANT,
    ),
    "bar-matrix": _command(bar_matrix_command),
    "solve": _command(
        solve,
        Option("--game", "game", "bar", "five: conditional-on-5 payoffs; bar: whole-coup payoffs.", ("five", "bar")),
    ),
    "compare": _command(
        compare,
        Option("--against", "against", "bertrand", "Which historical analysis to audit.", tuple(AUDITS)),
    ),
    "simulate": _command(
        simulate,
        Option("--coups", "coups", 100_000, "Coups to play.", bounds=(1, MAX_COUPS)),
        Option("--seed", "seed", 0, "Seed of the card stream.", bounds=(0, None)),
        Option("--action", "action", "stand", "Player's behavior on a two-card 5.", ("stand", "draw", "mix")),
        _pi("--pi", "pi_text", "--action mix"),
        Option("--assume", "assume", "non-tireur", "Rule Banker assumes and best-responds to.", RULES),
        _pi("--assume-pi", "assume_pi_text", "--assume mix"),
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
    """``text`` checked against the option's choices or integer range."""
    if option.choices and text not in option.choices:
        allowed = ", ".join(map(repr, option.choices))
        raise UsageError(f"Invalid value for '{option.flag}': {text!r} is not one of {allowed}.")
    if option.bounds is None:
        return text
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
            COMMANDS[name].run(**values)


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
