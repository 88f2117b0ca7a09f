"""Draw-at-five statistics: the four problems and their replications."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings

from chemin import (
    BADOUREAU,
    DecisionTable,
    FiveAction,
    PlayerRule,
    StatTriple,
    bertrand_report,
    best_response_table,
    five_stats,
    historical_table,
    mixed_best_response,
    naive_average_ev,
)
from tests import oracles
from tests.conftest import decision_tables

STAND, DRAW = FiveAction.STAND, FiveAction.DRAW
NON_TIREUR, TIREUR = PlayerRule.NON_TIREUR, PlayerRule.TIREUR

#: The four problems, solved exactly: (action, assumed) -> (W, T, E).
EXPECTED = {
    (STAND, NON_TIREUR): (Fraction(792, 1781), Fraction(153, 1781), Fraction(-44, 1781)),
    (STAND, TIREUR): (Fraction(872, 1781), Fraction(169, 1781), Fraction(132, 1781)),
    (DRAW, NON_TIREUR): (Fraction(10352, 23153), Fraction(2928, 23153), Fraction(479, 23153)),
    (DRAW, TIREUR): (Fraction(10176, 23153), Fraction(2976, 23153), Fraction(175, 23153)),
}


class TestStatTriple:
    def test_derived_loss_and_chances(self):
        stats = StatTriple(Fraction(792, 1781), Fraction(153, 1781), Fraction(-44, 1781))
        assert stats.loss == Fraction(836, 1781)
        assert stats.chances == Fraction(792, 1781) + Fraction(153, 3562)
        assert stats.expectation == 2 * stats.chances - 1
        assert stats.win + stats.tie + stats.loss == 1

    def test_rejects_inconsistent_expectation(self):
        with pytest.raises(ValueError):
            StatTriple(Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            StatTriple(Fraction(3, 4), Fraction(1, 2), Fraction(1))


class TestFiveStats:
    @pytest.mark.parametrize("scenario", sorted(EXPECTED, key=lambda s: (s[0], s[1])))
    def test_four_problems_exactly(self, scenario):
        action, assumed = scenario
        stats = five_stats(action, best_response_table(assumed))
        assert (stats.win, stats.tie, stats.expectation) == EXPECTED[scenario]

    def test_badoureau_replication(self):
        stats = five_stats(DRAW, historical_table(BADOUREAU, TIREUR))
        assert stats.win == Fraction(10288, 23153)
        assert stats.tie == Fraction(2800, 23153)
        assert stats.expectation == Fraction(223, 23153)

    def test_badoureau_other_scenarios_unaffected(self):
        # His errors sit in the drawn-card columns of the tireur table, so
        # the three other problems come out exactly right.
        assert five_stats(STAND, historical_table(BADOUREAU, TIREUR)) == five_stats(
            STAND, best_response_table(TIREUR)
        )
        assert five_stats(DRAW, historical_table(BADOUREAU, NON_TIREUR)) == five_stats(
            DRAW, best_response_table(NON_TIREUR)
        )

    def test_mixed_table_expectations(self):
        half = mixed_best_response(Fraction(1, 2))
        standing = five_stats(STAND, half)
        drawing = five_stats(DRAW, half)
        assert standing.expectation == Fraction(-44, 1781)
        assert drawing.expectation == Fraction(287, 23153)
        assert (drawing.win, drawing.tie) == (Fraction(10240, 23153), Fraction(2960, 23153))

    def test_matches_enumeration_oracle(self):
        tables = {
            "vs non-tireur": best_response_table(NON_TIREUR),
            "vs tireur": best_response_table(TIREUR),
            "badoureau": historical_table(BADOUREAU, TIREUR),
            "half mixture": mixed_best_response(Fraction(1, 2)),
        }
        for action in FiveAction:
            for name, table in tables.items():
                expected = oracles.five_stats(action == DRAW, table.to_grid())
                stats = five_stats(action, table)
                assert (stats.win, stats.tie, stats.expectation) == expected, (action, name)


class TestFiveFunctional:
    @settings(max_examples=20, deadline=None)
    @given(decision_tables())
    def test_matches_enumeration_oracle_on_arbitrary_tables(self, table):
        for action in FiveAction:
            expected = oracles.five_stats(action == DRAW, table.to_grid())
            stats = five_stats(action, table)
            assert (stats.win, stats.tie, stats.expectation) == expected, action

    @settings(max_examples=20, deadline=None)
    @given(decision_tables())
    def test_probabilities_sum_to_one(self, table):
        for action in FiveAction:
            stats = five_stats(action, table)
            assert stats.win + stats.tie + stats.loss == 1
            assert stats.expectation == 2 * stats.win + stats.tie - 1

    @settings(max_examples=20, deadline=None)
    @given(decision_tables(), decision_tables())
    def test_stand_depends_only_on_stood_column(self, first, second):
        stood_column = [row[10] for row in first.to_grid()]
        merged = [row[:10] + [stood] for row, stood in zip(second.to_grid(), stood_column)]
        assert five_stats(STAND, first) == five_stats(STAND, DecisionTable.from_grid(merged))

    @settings(max_examples=20, deadline=None)
    @given(decision_tables(), decision_tables())
    def test_draw_ignores_stood_column(self, first, second):
        merged = [
            row[:10] + [other_row[10]]
            for row, other_row in zip(first.to_grid(), second.to_grid())
        ]
        assert five_stats(DRAW, first) == five_stats(DRAW, DecisionTable.from_grid(merged))


class TestNaiveAverages:
    def test_standing_average(self):
        value = naive_average_ev(Fraction(-44, 1781), Fraction(132, 1781))
        assert value == Fraction(44, 1781)

    def test_drawing_average_with_corrected_value(self):
        value = naive_average_ev(Fraction(479, 23153), Fraction(175, 23153))
        assert value == Fraction(327, 23153)

    def test_drawing_average_with_badoureau_value(self):
        value = naive_average_ev(Fraction(479, 23153), Fraction(223, 23153))
        assert value == Fraction(351, 23153)


class TestBertrandReport:
    def test_four_scenarios_in_order(self):
        report = bertrand_report()
        assert [(s.action, s.assumed) for s in report] == [
            (STAND, NON_TIREUR),
            (STAND, TIREUR),
            (DRAW, NON_TIREUR),
            (DRAW, TIREUR),
        ]

    def test_all_twelve_values_within_tolerance(self):
        assert all(scenario.within_tolerance for scenario in bertrand_report())

    def test_first_scenario_renders_to_published_decimals(self):
        scenario = bertrand_report()[0]
        assert scenario.rendered == ("0.444694", "0.085907", "-0.024705")
        # Off by exactly one unit in the last place from the published E.
        assert abs(Fraction(scenario.rendered[2]) - scenario.reference[2]) == Fraction(1, 10**6)

    def test_last_scenario_flagged_as_badoureau(self):
        scenario = bertrand_report()[3]
        assert scenario.uses_badoureau_table
        assert scenario.stats.expectation == Fraction(223, 23153)

    def test_correct_table_cannot_reproduce_the_1888_figures(self):
        stats = five_stats(DRAW, best_response_table(TIREUR))
        published_e = bertrand_report()[3].reference[2]
        assert stats.expectation == Fraction(175, 23153)
        assert abs(stats.expectation - published_e) > Fraction(1, 10**6)
