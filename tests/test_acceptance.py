"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Exact criteria use zero tolerance; the six-decimal audit
uses an absolute 1e-6 band; Monte Carlo criteria use four binomial
standard errors at one million coups per scenario.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from chemin import (
    BADOUREAU,
    CoupPolicy,
    DecisionTable,
    FiveAction,
    PlayerRule,
    SimConfig,
    banker_draw_ev,
    banker_stand_ev,
    bar_matrix,
    bertrand_report,
    best_response_table,
    coup_stats,
    five_matrix,
    five_stats,
    historical_table,
    mixed_best_response,
    naive_average_ev,
    simulate,
    solve_2x2,
)
from chemin import STOOD
from tests import oracles
from tests.conftest import assert_plausible_response_shape
from tests.known_tables import GRID_VS_NON_TIREUR, GRID_VS_TIREUR
from tests.test_coup import coup_triple

NON_TIREUR, TIREUR = PlayerRule.NON_TIREUR, PlayerRule.TIREUR
STAND, DRAW = FiveAction.STAND, FiveAction.DRAW

MILLION = 1_000_000


def ok(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} {text}: PASS")


def test_criterion_01_best_response_tables():
    computed_non_tireur = best_response_table(NON_TIREUR)
    computed_tireur = best_response_table(TIREUR)
    mismatches = [
        (grid_name, j, c)
        for grid_name, computed, expected in (
            ("vs non-tireur", computed_non_tireur.to_grid(), GRID_VS_NON_TIREUR),
            ("vs tireur", computed_tireur.to_grid(), GRID_VS_TIREUR),
        )
        for j in range(8)
        for c in range(11)
        if computed[j][c] != expected[j][c]
    ]
    assert mismatches == [], mismatches  # all 176 cells
    assert computed_non_tireur.differing_cells(computed_tireur) == frozenset(
        {(3, 9), (4, 1), (5, 4), (6, STOOD)}
    )
    ok(1, "computed tables equal the classical matrices; four-cell difference")


def test_criterion_02_near_tie_cell():
    assert banker_stand_ev(NON_TIREUR, 5, 4) == Fraction(-299, 1157)
    assert banker_draw_ev(NON_TIREUR, 5, 4) == Fraction(-300, 1157)
    ok(2, "stand/draw expectations at (5, 4) are -299/1157 and -300/1157")


def test_criterion_03_four_problems_exact():
    expected = {
        (STAND, NON_TIREUR): (Fraction(792, 1781), Fraction(153, 1781), Fraction(-44, 1781)),
        (STAND, TIREUR): (Fraction(872, 1781), Fraction(169, 1781), Fraction(132, 1781)),
        (DRAW, NON_TIREUR): (Fraction(10352, 23153), Fraction(2928, 23153), Fraction(479, 23153)),
        (DRAW, TIREUR): (Fraction(10176, 23153), Fraction(2976, 23153), Fraction(175, 23153)),
    }
    for (action, assumed), triple in expected.items():
        stats = five_stats(action, best_response_table(assumed))
        assert (stats.win, stats.tie, stats.expectation) == triple
    ok(3, "the four problems reproduce exactly, zero tolerance")


def test_criterion_04_badoureau_replication():
    flawed = historical_table(BADOUREAU, TIREUR)
    assert flawed == best_response_table(TIREUR).flip([(4, 1), (4, 9), (6, 6)])
    stats = five_stats(DRAW, flawed)
    assert (stats.win, stats.tie, stats.expectation) == (
        Fraction(10288, 23153),
        Fraction(2800, 23153),
        Fraction(223, 23153),
    )
    # His other three answers are free of the table errors.
    assert five_stats(STAND, best_response_table(NON_TIREUR)).win == Fraction(792, 1781)
    assert five_stats(STAND, flawed) == five_stats(STAND, best_response_table(TIREUR))
    assert five_stats(DRAW, historical_table(BADOUREAU, NON_TIREUR)) == five_stats(
        DRAW, best_response_table(NON_TIREUR)
    )
    ok(4, "the three table flips reproduce the 1881 fractions exactly")


def test_criterion_05_bertrand_decimal_audit():
    tolerance = Fraction(1, 10**6)
    report = bertrand_report()
    assert len(report) == 4
    for scenario in report:
        for rendered, published in zip(scenario.rendered, scenario.reference):
            assert abs(Fraction(rendered) - published) <= tolerance, scenario
    # The final scenario matches only because the flawed table is used.
    flagged = report[3]
    assert flagged.uses_badoureau_table
    correct = five_stats(DRAW, best_response_table(TIREUR))
    assert abs(correct.expectation - flagged.reference[2]) > tolerance
    assert abs(correct.win - flagged.reference[0]) > tolerance
    ok(5, "all twelve six-decimal values audit within 1e-6; (draw, tireur) only via the flawed table")


def test_criterion_06_mixed_response_table():
    non_tireur_table = best_response_table(NON_TIREUR)
    assert mixed_best_response(Fraction(1, 2)) == non_tireur_table.flip([(3, 9), (5, 4)])
    assert mixed_best_response(0) == non_tireur_table
    assert mixed_best_response(1) == best_response_table(TIREUR)
    ok(6, "mixture tables: half adds exactly (3,9) and (5,4); endpoints collapse")


def test_criterion_07_mixture_expectations_and_naive_averages():
    half = mixed_best_response(Fraction(1, 2))
    assert five_stats(STAND, half).expectation == Fraction(-44, 1781)
    assert five_stats(DRAW, half).expectation == Fraction(287, 23153)
    assert naive_average_ev(Fraction(-44, 1781), Fraction(132, 1781)) == Fraction(44, 1781)
    assert naive_average_ev(Fraction(479, 23153), Fraction(175, 23153)) == Fraction(327, 23153)
    assert naive_average_ev(Fraction(479, 23153), Fraction(223, 23153)) == Fraction(351, 23153)
    ok(7, "mixture expectations and the three naive averages are exact")


def test_criterion_08_reformulated_problem():
    stats = coup_stats(CoupPolicy.standing(best_response_table(NON_TIREUR)))
    assert stats.win == Fraction(2152648, 4826809)
    assert stats.tie == Fraction(447337, 4826809)
    assert stats.expectation == Fraction(-74176, 4826809)
    ok(8, "whole-coup triple for (stand, vs non-tireur) is exact over 13^6")


def test_criterion_09_raw_enumeration_oracle():
    # Whole coups: every policy triple equals the raw 13^6 tuple count.
    for action in FiveAction:
        for assumed in PlayerRule:
            table = best_response_table(assumed)
            raw = oracles.coup_stats(action == DRAW, table.to_grid())
            stats = coup_stats(CoupPolicy.for_action(action, table))
            assert (stats.win, stats.tie, stats.expectation) == raw
            assert stats.expectation == coup_triple(action, assumed)[2]
    # Conditional-on-5 scenarios, correct and flawed tables alike.
    for action in FiveAction:
        for table in (
            best_response_table(NON_TIREUR),
            best_response_table(TIREUR),
            historical_table(BADOUREAU, TIREUR),
            mixed_best_response(Fraction(1, 2)),
        ):
            raw = oracles.five_stats(action == DRAW, table.to_grid())
            stats = five_stats(action, table)
            assert (stats.win, stats.tie, stats.expectation) == raw
    # The enumeration pins the three whole-coup entries no one published.
    assert bar_matrix() == (
        (Fraction(-74176, 4826809), Fraction(-41360, 4826809)),
        (Fraction(-57360, 4826809), Fraction(-66016, 4826809)),
    )
    ok(9, "raw tuple enumeration reproduces every triple; unpublished entries pinned")


def test_criterion_10_property_suite():
    rng = random.Random(20260810)

    def random_table() -> DecisionTable:
        return DecisionTable.from_grid(
            [[rng.randint(0, 1) for _ in range(11)] for _ in range(8)]
        )

    # Triple identities on computed and perturbed tables.
    checked = [
        coup_stats(CoupPolicy.standing(best_response_table(NON_TIREUR))),
        coup_stats(CoupPolicy(Fraction(1, 3), best_response_table(TIREUR))),
    ]
    for _ in range(25):
        checked.append(five_stats(rng.choice([STAND, DRAW]), random_table()))
    for stats in checked:
        assert stats.win + stats.tie + stats.loss == 1
        assert stats.expectation == 2 * stats.win + stats.tie - 1

    # Structural invariants of every computed best-response table.
    for table in (
        best_response_table(NON_TIREUR),
        best_response_table(TIREUR),
        mixed_best_response(Fraction(1, 4)),
        mixed_best_response(Fraction(1, 2)),
        mixed_best_response(Fraction(9, 11)),
    ):
        assert_plausible_response_shape(table)

    # Sufficiency: standing reads only the stood column, drawing only the
    # card columns, exercised by randomized perturbations.
    for _ in range(25):
        base, noise = random_table(), random_table()
        stood = [row[10] for row in base.to_grid()]
        same_stood = DecisionTable.from_grid(
            [row[:10] + [kept] for row, kept in zip(noise.to_grid(), stood)]
        )
        assert five_stats(STAND, base) == five_stats(STAND, same_stood)
        same_cards = DecisionTable.from_grid(
            [row[:10] + [other[10]] for row, other in zip(base.to_grid(), noise.to_grid())]
        )
        assert five_stats(DRAW, base) == five_stats(DRAW, same_cards)
    ok(10, "triple identities, table shapes, and column sufficiency hold")


def test_criterion_11_two_by_two_solver():
    matching = solve_2x2(((1, 0), (0, 1)))
    assert (matching.kind, matching.value) == ("mixed", Fraction(1, 2))
    assert matching.row_mix == matching.col_mix == (Fraction(1, 2), Fraction(1, 2))

    dominant = solve_2x2(((1, 1), (0, 0)))
    assert (dominant.kind, dominant.value, dominant.row_mix) == ("saddle", 1, (1, 0))

    for payoff in (five_matrix(), bar_matrix()):
        game = solve_2x2(payoff)
        assert game.kind == "mixed"
        for col in range(2):
            assert sum(game.row_mix[i] * payoff[i][col] for i in range(2)) == game.value
        for row in range(2):
            assert sum(game.col_mix[j] * payoff[row][j] for j in range(2)) == game.value
    ok(11, "solver passes fixtures; both games solve with exact indifference")


@pytest.fixture(scope="module")
def million_coup_runs():
    runs = {}
    for action in FiveAction:
        for assumed in PlayerRule:
            config = SimConfig(
                coups=MILLION,
                seed=1000 + 10 * int(action) + int(assumed),
                policy=CoupPolicy.for_action(action, best_response_table(assumed)),
            )
            runs[(action, assumed)] = (config, simulate(config))
    return runs


def test_criterion_12_monte_carlo(million_coup_runs):
    for (action, assumed), (config, result) in million_coup_runs.items():
        exact_win, exact_tie, exact_expectation = coup_triple(action, assumed)
        exact_loss = 1 - exact_win - exact_tie
        observed = {
            "W": (result.wins, exact_win),
            "T": (result.ties, exact_tie),
            "L": (result.losses, exact_loss),
        }
        for label, (count, exact) in observed.items():
            # |z| < 4, squared and exact: (x/n - p)^2 < 4^2 p(1 - p)/n.
            variance = exact * (1 - exact) / MILLION
            assert (Fraction(count, MILLION) - exact) ** 2 < 4**2 * variance, (action, assumed, label, count)
    # Reproducibility at full size: same config, same bits.
    config, result = million_coup_runs[(STAND, NON_TIREUR)]
    assert simulate(config) == result
    ok(12, "four million-coup runs all sit within 4 binomial standard errors; reruns identical")
