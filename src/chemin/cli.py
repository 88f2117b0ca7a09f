"""Command-line reporting surface for the exact engine.

Subcommands: ``tables``, ``five``, ``coup``, ``bar-matrix``, ``solve``,
``compare``, ``simulate``.  Every exact value printed by a subcommand is
an exact rational; decimals are renderings at ``--precision`` digits and
``--exact`` switches to canonical ``num/den`` text.  ``--format`` picks
Markdown (default), CSV, or a single structured JSON object.

Exit codes: 0 on success, 2 on argument errors, 1 on internal failures.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import click

from .banker import (
    VARIANTS,
    DecisionTable,
    PlayerRule,
    banker_draw_ev,
    banker_stand_ev,
    best_response_table,
    dormoy_unweighted_response,
    historical_table,
    mixed_best_response,
)
from .coup import CoupPolicy, bar_matrix, coup_stats, five_matrix, solve_2x2
from .five import FiveAction, StatTriple, bertrand_report, five_stats
from .rational import as_rational, render_decimal, render_exact
from .reference import BADOUREAU_FRACTIONS, DORMOY_DECIMALS
from . import __version__, report
from .simulate import SimConfig, SimResult, simulate as run_simulation

RULE_BY_NAME = {"non-tireur": PlayerRule.NON_TIREUR, "tireur": PlayerRule.TIREUR}
ACTION_BY_NAME = {"stand": FiveAction.STAND, "draw": FiveAction.DRAW}

SCENARIO_NAMES = {0: ("stand", "non-tireur"), 1: ("draw", "tireur")}

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


def _emit_structured(obj: dict) -> None:
    click.echo(json.dumps(obj, indent=2))


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
    near_ties: list[tuple[int, int]] = []
    meta: dict = {"command": "tables", "strategy": strategy}
    if strategy == "dormoy-average":
        if variant != "correct":
            raise click.UsageError("--variant applies only to pure strategies")
        table = dormoy_unweighted_response()
    elif strategy == "mix":
        table, extra = _banker_table("mix", pi_text, variant, "--pi")
        meta["draw_probability"] = extra["assume_draw_probability"]
    else:
        rule = RULE_BY_NAME[strategy]
        table = historical_table(VARIANTS[variant], rule)
        meta["variant"] = variant
        if rule == PlayerRule.NON_TIREUR:
            near_ties = sorted(VARIANTS[variant].near_ties_vs_non_tireur)

    if fmt == "csv":
        click.echo(report.table_to_csv(table), nl=False)
    elif fmt == "structured":
        structured = report.table_to_structured(table, **meta)
        if near_ties:
            structured["near_ties"] = [
                {"total": total, "third_card": observed} for total, observed in near_ties
            ]
        _emit_structured(structured)
    else:
        click.echo(report.table_to_markdown(table), nl=False)
        for total, observed in near_ties:
            stand_ev = banker_stand_ev(PlayerRule.NON_TIREUR, total, observed)
            draw_ev = banker_draw_ev(PlayerRule.NON_TIREUR, total, observed)
            click.echo(
                f"\nnear tie flagged at (total {total}, third card {observed}): "
                f"stand {render_exact(stand_ev)} ({render_decimal(stand_ev, 6)}) vs "
                f"draw {render_exact(draw_ev)} ({render_decimal(draw_ev, 6)}); "
                f"both round to {render_decimal(stand_ev, 2)} at two decimals, "
                "which is why this cell was once called indifferent."
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
    table, table_meta = _banker_table(assume, pi_text, variant, "--pi")
    stats = five_stats(ACTION_BY_NAME[action], table)
    meta = {"command": "five", "action": action, **table_meta}
    if fmt == "csv":
        click.echo(report.stats_to_csv(stats, precision), nl=False)
    elif fmt == "structured":
        _emit_structured(report.stats_to_structured(stats, precision, **meta))
    else:
        click.echo(report.stats_line(stats, exact, precision))


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
    stats = coup_stats(policy)
    meta = {"command": "coup", **meta}
    if fmt == "csv":
        click.echo(report.stats_to_csv(stats, precision), nl=False)
    elif fmt == "structured":
        _emit_structured(report.stats_to_structured(stats, precision, **meta))
    else:
        click.echo(report.stats_line(stats, exact, precision))


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
    matrix = bar_matrix()
    if fmt == "csv":
        click.echo(report.matrix_to_csv(matrix, precision), nl=False)
    elif fmt == "structured":
        _emit_structured(report.matrix_to_structured(matrix, precision, command="bar-matrix"))
    else:
        click.echo(report.matrix_to_markdown(matrix, exact, precision), nl=False)


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
    solution = solve_2x2(matrix)
    if fmt == "csv":
        click.echo(report.solution_to_csv(solution, precision), nl=False)
    elif fmt == "structured":
        _emit_structured(report.solution_to_structured(solution, precision, command="solve", game=game))
    else:
        click.echo(report.solution_to_markdown(solution, exact, precision), nl=False)


@main.command()
@click.option(
    "--against",
    type=click.Choice(["bertrand", "badoureau", "dormoy"]),
    default="bertrand",
    show_default=True,
    help="Which historical analysis to audit.",
)
@output_options
def compare(against: str, fmt: str, exact: bool, precision: int) -> None:
    """Audit a historical analysis against the exact recomputation."""
    if against == "bertrand":
        header, rows, notes = _compare_bertrand()
    elif against == "badoureau":
        header, rows, notes = _compare_badoureau()
    else:
        header, rows, notes = _compare_dormoy()

    if fmt == "csv":
        click.echo(report.rows_to_csv(header, rows), nl=False)
    elif fmt == "structured":
        _emit_structured(
            {
                "command": "compare",
                "against": against,
                "columns": list(header),
                "rows": [dict(zip(header, row)) for row in rows],
                "notes": notes,
            }
        )
    else:
        click.echo(report.rows_to_markdown(header, rows), nl=False)
        for note in notes:
            click.echo(f"\n{note}")


def _exact_five(key: tuple[int, int]) -> StatTriple:
    """The exact statistics of one problem, recomputed on the correct table."""
    action, assumed = key
    return five_stats(FiveAction(action), best_response_table(PlayerRule(assumed)))


def _compare_bertrand() -> tuple[list[str], list[list[str]], list[str]]:
    header = [
        "action", "assume", "table",
        "W", "T", "E",
        "W (1888)", "T (1888)", "E (1888)",
        "match",
    ]
    rows = []
    for scenario in bertrand_report():
        table_name = "badoureau" if scenario.uses_badoureau_table else "correct"
        rows.append(
            [
                scenario.action.name.lower(),
                "tireur" if scenario.assumed else "non-tireur",
                table_name,
                *scenario.rendered,
                *(render_decimal(value, 6) for value in scenario.reference),
                "yes" if scenario.within_tolerance else "no",
            ]
        )
    correct = _exact_five((1, 1))
    notes = [
        "The (draw, tireur) row matches only with Badoureau's erroneous table; "
        "the correct table gives "
        f"W={render_decimal(correct.win, 6)} T={render_decimal(correct.tie, 6)} "
        f"E={render_decimal(correct.expectation, 6)}, nowhere near the 1888 figures.",
    ]
    return header, rows, notes


def _compare_badoureau() -> tuple[list[str], list[list[str]], list[str]]:
    header = ["action", "assume", "W", "T", "E", "W (1881)", "T (1881)", "E (1881)", "match"]
    rows = []
    for key in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        stats = _exact_five(key)
        ours = (stats.win, stats.tie, stats.expectation)
        his = BADOUREAU_FRACTIONS[key]
        action, _ = SCENARIO_NAMES[key[0]]
        _, assume = SCENARIO_NAMES[key[1]]
        rows.append(
            [
                action,
                assume,
                *(render_exact(value) for value in ours),
                *(render_exact(value) for value in his),
                "yes" if ours == his else "no",
            ]
        )
    notes = [
        "The (draw, tireur) fractions reflect his three table errors at "
        "(4,1), (4,9) and (6,6); flipping those cells reproduces his numbers exactly.",
    ]
    return header, rows, notes


def _compare_dormoy() -> tuple[list[str], list[list[str]], list[str]]:
    header = ["action", "assume", "E (1872)", "correct rounding", "E exact", "E decimal"]
    rows = []
    for key, (published, correct_rounding) in DORMOY_DECIMALS.items():
        ours = _exact_five(key).expectation
        action, _ = SCENARIO_NAMES[key[0]]
        _, assume = SCENARIO_NAMES[key[1]]
        rows.append(
            [action, assume, published, correct_rounding, render_exact(ours), render_decimal(ours, 6)]
        )
    stand_ev = banker_stand_ev(PlayerRule.NON_TIREUR, 5, 4)
    draw_ev = banker_draw_ev(PlayerRule.NON_TIREUR, 5, 4)
    notes = [
        "All three published expectations are computational slips; the method was sound.",
        "His non-tireur table called (total 5, third card 4) indifferent: the exact "
        f"expectations are stand {render_exact(stand_ev)} ({render_decimal(stand_ev, 6)}) vs "
        f"draw {render_exact(draw_ev)} ({render_decimal(draw_ev, 6)}), separated only in "
        "the third decimal.  His tireur table had one error, at (6,6).",
    ]
    return header, rows, notes


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
    result = run_simulation(SimConfig(coups=coups, seed=seed, policy=policy))
    rates = _empirical_rates(result)
    if fmt == "csv":
        header = ["stat", "value", "standard_error"]
        rows = [
            ["wins", result.wins, ""],
            ["ties", result.ties, ""],
            ["losses", result.losses, ""],
            *(
                [label, f"{value:.{precision}f}", f"{se:.{precision}f}"]
                for label, value, se in _rate_rows(result)
            ),
        ]
        click.echo(report.rows_to_csv(header, rows), nl=False)
    elif fmt == "structured":
        _emit_structured(
            {
                "command": "simulate",
                "coups": coups,
                "seed": seed,
                **meta,
                "wins": result.wins,
                "ties": result.ties,
                "losses": result.losses,
                "empirical": {
                    label: report.fraction_object(value, precision) for label, value in rates.items()
                },
                "standard_errors": {
                    label: f"{se:.{precision}f}"
                    for label, _, se in _rate_rows(result)
                },
            }
        )
    else:
        click.echo(f"coups={coups} seed={seed}")
        click.echo(f"wins={result.wins} ties={result.ties} losses={result.losses}")
        for label, value, se in _rate_rows(result):
            shown = render_exact(rates[label]) if exact else f"{value:.{precision}f}"
            click.echo(f"{label}={shown} (se {se:.{precision}f})")


def _empirical_rates(result: SimResult) -> dict[str, Fraction]:
    n = result.coups
    return {
        "W": Fraction(result.wins, n),
        "T": Fraction(result.ties, n),
        "L": Fraction(result.losses, n),
        "E": Fraction(result.wins - result.losses, n),
    }


def _rate_rows(result: SimResult) -> list[tuple[str, float, float]]:
    return [
        ("W", result.empirical_win, result.se_win),
        ("T", result.empirical_tie, result.se_tie),
        ("L", result.empirical_loss, result.se_loss),
        ("E", result.empirical_expectation, result.se_expectation),
    ]


if __name__ == "__main__":
    main()
