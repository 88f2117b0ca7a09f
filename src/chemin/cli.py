"""Command-line reporting surface for the exact engine.

Subcommands: ``tables``, ``five``, ``coup``, ``bar-matrix``, ``solve``,
``compare``, ``simulate``.  Every exact value printed by a subcommand is
an exact rational; decimals are renderings at ``--precision`` digits and
``--exact`` switches to canonical ``num/den`` text.  ``--format`` picks
Markdown (default), CSV, or a single structured JSON object.  ``compare``
is the exception: its audit always prints six decimals and exact
fractions, the forms the historical figures are checked in, whatever
``--precision`` or ``--exact`` say.

Exit codes: 0 on success, 2 on argument errors, 1 on internal failures.
"""

from __future__ import annotations

import re
from fractions import Fraction

import click

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


def output_options(command):
    command = click.option(
        "--precision",
        type=click.IntRange(min=1, max=MAX_PRECISION),
        default=6,
        show_default=True,
        help="Digits in decimal renderings.",
    )(command)
    command = click.option(
        "--exact",
        is_flag=True,
        help="Print canonical num/den fractions instead of decimals.",
    )(command)
    command = click.option(
        "--format",
        "fmt",
        type=click.Choice(["markdown", "csv", "structured"]),
        default="markdown",
        show_default=True,
        help="Output shape.",
    )(command)
    return command


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
        raise click.UsageError(
            f"{option_name} may take at most {MAX_PROBABILITY_DIGITS} digits, its exponent counted in"
        )
    try:
        value = as_rational(text)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise click.UsageError(
            f"{option_name} must be a fraction like 1/2 or a decimal: {text!r}"
        ) from exc
    if not 0 <= value <= 1:
        raise click.UsageError(f"{option_name} must be in [0, 1]: {text}")
    return value


def _banker_table(
    assume: str, pi_text: str, variant_name: str, pi_option: str
) -> tuple[DecisionTable, dict]:
    """Resolve Banker's table from an assumed rule (or mixture) and variant."""
    if assume == "mix":
        if variant_name != "correct":
            raise click.UsageError("--variant applies only to pure assumed rules")
        pi = _parse_probability(pi_text, pi_option)
        table = mixed_best_response(pi)
        meta = {"assume": "mix", "assume_draw_probability": str(pi)}
    else:
        rule = RULE_BY_NAME[assume]
        table = historical_table(VARIANTS[variant_name], rule)
        meta = {"assume": assume, "variant": variant_name}
    return table, meta


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Exact analytics for baccarat chemin de fer.

    Best-response tables, draw-at-five statistics, whole-coup values,
    2x2 game solutions, and audits of the 19th-century analyses of
    Dormoy (1872), Badoureau (1881), and Bertrand (1888), all computed
    in exact rational arithmetic.
    """


@main.command()
@click.option(
    "--strategy",
    type=click.Choice(["non-tireur", "tireur", "mix", "dormoy-average"]),
    default="non-tireur",
    show_default=True,
    help="Player rule the table best-responds to.",
)
@click.option(
    "--pi",
    "pi_text",
    default="1/2",
    show_default=True,
    help="Draw-at-5 probability for --strategy mix.",
)
@click.option(
    "--variant",
    type=click.Choice(sorted(VARIANTS)),
    default="correct",
    show_default=True,
    help="Historical table variant (pure strategies only).",
)
@output_options
def tables(strategy: str, pi_text: str, variant: str, fmt: str, exact: bool, precision: int) -> None:
    """Print a Banker stand/draw table (rows: totals 0-7; columns: Player's
    third card 0-9 then "stand")."""
    if strategy == "dormoy-average":
        if variant != "correct":
            raise click.UsageError("--variant applies only to pure strategies")
        table, meta = dormoy_unweighted_response(), {}
    else:
        table, chosen = _banker_table(strategy, pi_text, variant, "--pi")
        meta = {"variant": variant} if strategy != "mix" else {"draw_probability": chosen["assume_draw_probability"]}
    near_ties = sorted(VARIANTS[variant].near_ties_vs_non_tireur) if strategy == "non-tireur" else []
    report.emit(
        report.FlaggedTable(table, near_ties), fmt, exact, precision,
        command="tables", strategy=strategy, **meta,
    )


@main.command()
@click.option(
    "--action",
    type=click.Choice(["stand", "draw"]),
    default="stand",
    show_default=True,
    help="Player's decision on his two-card 5.",
)
@click.option(
    "--assume",
    type=click.Choice(["non-tireur", "tireur", "mix"]),
    default="non-tireur",
    show_default=True,
    help="Rule Banker assumes and best-responds to.",
)
@click.option("--pi", "pi_text", default="1/2", show_default=True, help="Draw-at-5 probability for --assume mix.")
@click.option(
    "--variant",
    type=click.Choice(sorted(VARIANTS)),
    default="correct",
    show_default=True,
    help="Historical variant of Banker's table.",
)
@output_options
def five(action: str, assume: str, pi_text: str, variant: str, fmt: str, exact: bool, precision: int) -> None:
    """Player's W/T/E when holding a two-card 5 (Banker non-natural)."""
    table, meta = _banker_table(assume, pi_text, variant, "--pi")
    stats = five_stats(ACTION_BY_NAME[action], table)
    report.emit(stats, fmt, exact, precision, command="five", action=action, **meta)


@main.command()
@click.option(
    "--action",
    type=click.Choice(["stand", "draw", "mix"]),
    default="stand",
    show_default=True,
    help="Player's behavior on a two-card 5.",
)
@click.option("--pi", "pi_text", default="1/2", show_default=True, help="Draw-at-5 probability for --action mix.")
@click.option(
    "--assume",
    type=click.Choice(["non-tireur", "tireur", "mix"]),
    default="non-tireur",
    show_default=True,
    help="Rule Banker assumes and best-responds to.",
)
@click.option("--assume-pi", "assume_pi_text", default="1/2", show_default=True, help="Draw-at-5 probability for --assume mix.")
@click.option(
    "--variant",
    type=click.Choice(sorted(VARIANTS)),
    default="correct",
    show_default=True,
    help="Historical variant of Banker's table.",
)
@output_options
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


@main.command(name="bar-matrix")
@output_options
def bar_matrix_command(fmt: str, exact: bool, precision: int) -> None:
    """The 2x2 whole-coup payoff matrix (Player expectation per coup)."""
    report.emit(bar_matrix(), fmt, exact, precision, command="bar-matrix")


@main.command()
@click.option(
    "--game",
    type=click.Choice(["five", "bar"]),
    default="bar",
    show_default=True,
    help="five: conditional-on-5 payoffs; bar: whole-coup payoffs.",
)
@output_options
def solve(game: str, fmt: str, exact: bool, precision: int) -> None:
    """Solve one of the two 2x2 games exactly (saddle or mixed)."""
    matrix = five_matrix() if game == "five" else bar_matrix()
    report.emit(solve_2x2(matrix), fmt, exact, precision, command="solve", game=game)


@main.command()
@click.option(
    "--against",
    type=click.Choice(list(AUDITS)),
    default="bertrand",
    show_default=True,
    help="Which historical analysis to audit.",
)
@output_options
def compare(against: str, fmt: str, exact: bool, precision: int) -> None:
    """Audit a historical analysis against the exact recomputation."""
    report.emit(AUDITS[against](), fmt, exact, precision, command="compare", against=against)


@main.command()
@click.option("--coups", type=click.IntRange(min=1, max=MAX_COUPS), default=100_000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option(
    "--action",
    type=click.Choice(["stand", "draw", "mix"]),
    default="stand",
    show_default=True,
)
@click.option("--pi", "pi_text", default="1/2", show_default=True, help="Draw-at-5 probability for --action mix.")
@click.option(
    "--assume",
    type=click.Choice(["non-tireur", "tireur", "mix"]),
    default="non-tireur",
    show_default=True,
)
@click.option("--assume-pi", "assume_pi_text", default="1/2", show_default=True)
@output_options
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


if __name__ == "__main__":
    main()
