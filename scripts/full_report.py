#!/usr/bin/env python3
"""Print the complete analysis in one pass.

Covers both best-response tables, the mixture table, the four
draw-at-five problems with the historical audits, the whole-coup
statistics, and the exact solutions of both 2x2 games.

Usage: python scripts/full_report.py
"""

from __future__ import annotations

from fractions import Fraction

from chemin import (
    BADOUREAU,
    CoupPolicy,
    FiveAction,
    PlayerRule,
    bar_matrix,
    bertrand_report,
    best_response_table,
    coup_stats,
    five_matrix,
    five_stats,
    historical_table,
    mixed_best_response,
    naive_average_ev,
    solve_2x2,
)
from chemin import report


def heading(text: str) -> None:
    print(f"\n## {text}\n")


def main() -> None:
    print("# Baccarat chemin de fer, exactly")

    heading("Banker best response vs a non-tireur (stands at 5)")
    print(report.table_to_markdown(best_response_table(PlayerRule.NON_TIREUR)))

    heading("Banker best response vs a tireur (draws at 5)")
    print(report.table_to_markdown(best_response_table(PlayerRule.TIREUR)))

    heading("Banker best response vs a half-half mixture (today's punto banco table)")
    print(report.table_to_markdown(mixed_best_response(Fraction(1, 2))))

    heading("The four draw-at-five problems (Banker non-natural)")
    pure_expectation = {}
    for action in FiveAction:
        for assumed in PlayerRule:
            stats = five_stats(action, best_response_table(assumed))
            pure_expectation[action, assumed] = stats.expectation
            print(
                f"Player {action.name.lower():5s} at 5, Banker assumes "
                f"{assumed.name.lower().replace('_', '-'):10s}: "
                f"{report.stats_line(stats)}  "
                f"({report.stats_line(stats, exact=False)})"
            )

    heading("Six-decimal audit of the 1888 figures")
    for scenario in bertrand_report():
        table_used = "flawed 1881 table" if scenario.uses_badoureau_table else "correct table"
        status = "within 1e-6" if scenario.within_tolerance else "MISMATCH"
        print(
            f"{scenario.action.name.lower():5s} / "
            f"{scenario.assumed.name.lower().replace('_', '-'):10s} via {table_used}: "
            f"ours {scenario.rendered} vs published "
            f"{tuple(report.render_fraction(value, exact=False) for value in scenario.reference)} "
            f"-> {status}"
        )
    flawed = five_stats(FiveAction.DRAW, historical_table(BADOUREAU, PlayerRule.TIREUR))
    print(f"\n1881 replication, (draw, tireur) with the three table errors: {report.stats_line(flawed)}")

    heading("Mixture expectations vs the naive averages")
    half = mixed_best_response(Fraction(1, 2))
    standing = five_stats(FiveAction.STAND, half).expectation
    drawing = five_stats(FiveAction.DRAW, half).expectation
    print(f"standing vs the mixture-aware table: {standing} = {report.render_fraction(standing, exact=False)}")
    print(f"drawing  vs the mixture-aware table: {drawing} = {report.render_fraction(drawing, exact=False)}")
    naive = {
        action: naive_average_ev(*(pure_expectation[action, assumed] for assumed in PlayerRule))
        for action in FiveAction
    }
    print(
        "naive average of the standing expectations:",
        naive[FiveAction.STAND],
        "(note the sign flip vs the true", str(standing) + ")",
    )
    print("naive average of the drawing expectations:", naive[FiveAction.DRAW])

    heading("Whole-coup statistics (naturals included)")
    for action in FiveAction:
        for assumed in PlayerRule:
            stats = coup_stats(CoupPolicy.for_action(action, best_response_table(assumed)))
            print(
                f"Player {action.name.lower():5s} at 5, Banker assumes "
                f"{assumed.name.lower().replace('_', '-'):10s}: "
                f"{report.stats_line(stats, exact=False, precision=7)}"
            )

    heading("The conditional-on-5 game")
    print(report.solution_to_markdown(solve_2x2(five_matrix())))

    heading("The whole-coup game")
    print(report.solution_to_markdown(solve_2x2(bar_matrix()), exact=False, precision=7))


if __name__ == "__main__":
    main()
