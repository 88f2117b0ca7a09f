"""Whole-coup enumeration, the two payoff matrices, and the 2x2 solver."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chemin import (
    COLUMNS,
    CoupPolicy,
    FiveAction,
    PlayerRule,
    bar_matrix,
    best_response_table,
    coup_stats,
    five_matrix,
    mixed_best_response,
    solve_2x2,
)
from tests import oracles
from tests.conftest import decision_tables, probabilities

NON_TIREUR, TIREUR = PlayerRule.NON_TIREUR, PlayerRule.TIREUR
THIRTEEN_SIXTH = 13**6

#: Whole-coup (W, T, E) numerators over 13**6, frozen from the raw
#: enumeration oracle; only the (stand, non-tireur) triple is also known
#: from the published literature.
COUP_NUMERATORS = {
    (FiveAction.STAND, NON_TIREUR): (2152648, 447337, -74176),
    (FiveAction.STAND, TIREUR): (2182408, 420633, -41360),
    (FiveAction.DRAW, NON_TIREUR): (2153544, 462361, -57360),
    (FiveAction.DRAW, TIREUR): (2163848, 433097, -66016),
}


def coup_triple(action: FiveAction, assumed: PlayerRule):
    win, tie, expectation = COUP_NUMERATORS[(action, assumed)]
    return (
        Fraction(win, THIRTEEN_SIXTH),
        Fraction(tie, THIRTEEN_SIXTH),
        Fraction(expectation, THIRTEEN_SIXTH),
    )


class TestCoupPolicy:
    def test_constructors(self):
        table = best_response_table(NON_TIREUR)
        assert CoupPolicy.standing(table).draw_at_five == 0
        assert CoupPolicy.drawing(table).draw_at_five == 1
        assert CoupPolicy.for_action(FiveAction.DRAW, table).draw_at_five == 1

    @pytest.mark.parametrize("bad", [Fraction(-1, 4), Fraction(9, 8), 2])
    def test_rejects_bad_probability(self, bad):
        with pytest.raises(ValueError):
            CoupPolicy(bad, best_response_table(NON_TIREUR))


class TestCoupStats:
    def test_reformulated_first_problem(self):
        stats = coup_stats(CoupPolicy.standing(best_response_table(NON_TIREUR)))
        assert stats.win == Fraction(2152648, 4826809)
        assert stats.tie == Fraction(447337, 4826809)
        assert stats.expectation == Fraction(-74176, 4826809)

    @pytest.mark.parametrize("action", list(FiveAction))
    @pytest.mark.parametrize("assumed", list(PlayerRule))
    def test_all_pure_scenarios_match_frozen_oracle_values(self, action, assumed):
        stats = coup_stats(CoupPolicy.for_action(action, best_response_table(assumed)))
        assert (stats.win, stats.tie, stats.expectation) == coup_triple(action, assumed)

    def test_matches_raw_tuple_oracle(self):
        for action in FiveAction:
            for assumed in PlayerRule:
                table = best_response_table(assumed)
                expected = oracles.coup_stats(action == FiveAction.DRAW, table.to_grid())
                stats = coup_stats(CoupPolicy.for_action(action, table))
                assert (stats.win, stats.tie, stats.expectation) == expected

    @settings(max_examples=6, deadline=None)
    @given(decision_tables(), st.sampled_from(list(FiveAction)))
    @example(  # stands on 0-2 and draws on 7 everywhere: no best response does
        best_response_table(TIREUR).flip((j, k) for j in range(8) for k in COLUMNS),
        FiveAction.STAND,
    )
    def test_matches_raw_tuple_oracle_on_arbitrary_tables(self, table, action):
        expected = oracles.coup_stats(action == FiveAction.DRAW, table.to_grid())
        stats = coup_stats(CoupPolicy.for_action(action, table))
        assert (stats.win, stats.tie, stats.expectation) == expected

    def test_denominators_divide_13_to_the_sixth(self):
        for policy in (
            CoupPolicy.standing(best_response_table(NON_TIREUR)),
            CoupPolicy.drawing(best_response_table(TIREUR)),
            CoupPolicy(Fraction(1, 2), mixed_best_response(Fraction(1, 2))),
        ):
            stats = coup_stats(policy)
            for value in (stats.win, stats.tie, stats.loss):
                assert THIRTEEN_SIXTH % value.denominator == 0

    @settings(max_examples=15, deadline=None)
    @given(probabilities)
    def test_mixture_is_linear_in_the_five_decision(self, pi):
        table = best_response_table(TIREUR)
        mixed = coup_stats(CoupPolicy(pi, table))
        standing = coup_stats(CoupPolicy.standing(table))
        drawing = coup_stats(CoupPolicy.drawing(table))
        assert mixed.win == (1 - pi) * standing.win + pi * drawing.win
        assert mixed.tie == (1 - pi) * standing.tie + pi * drawing.tie
        assert mixed.expectation == (1 - pi) * standing.expectation + pi * drawing.expectation


class TestPayoffMatrices:
    def test_five_matrix_entries(self):
        assert five_matrix() == (
            (Fraction(-44, 1781), Fraction(132, 1781)),
            (Fraction(479, 23153), Fraction(175, 23153)),
        )

    def test_bar_matrix_entries(self):
        expected = tuple(
            tuple(coup_triple(action, assumed)[2] for assumed in PlayerRule)
            for action in FiveAction
        )
        assert bar_matrix() == expected

    def test_bar_entries_are_small_magnitudes(self):
        assert all(abs(entry) < Fraction(1, 10) for row in bar_matrix() for entry in row)


class TestSolve2x2:
    def test_symmetric_matching_game(self):
        game = solve_2x2(((1, 0), (0, 1)))
        assert game.kind == "mixed"
        assert game.value == Fraction(1, 2)
        assert game.row_mix == (Fraction(1, 2), Fraction(1, 2))
        assert game.col_mix == (Fraction(1, 2), Fraction(1, 2))

    def test_dominant_row_saddle(self):
        game = solve_2x2(((1, 1), (0, 0)))
        assert game.kind == "saddle"
        assert game.value == 1
        assert game.row_mix == (1, 0)

    def test_constant_game_is_a_saddle(self):
        game = solve_2x2(((0, 0), (0, 0)))
        assert game.kind == "saddle" and game.value == 0

    def test_five_game_is_mixed_with_exact_indifference(self):
        payoff = five_matrix()
        (a, b), (c, d) = payoff
        # No saddle: the best guaranteed pure outcomes do not meet.
        maximin = max(min(a, b), min(c, d))
        minimax = min(max(a, c), max(b, d))
        assert maximin == Fraction(175, 23153) < minimax == Fraction(479, 23153)

        game = solve_2x2(payoff)
        assert game.kind == "mixed"
        assert game.value == Fraction(341, 22194)
        assert game.row_mix == (Fraction(19, 162), Fraction(143, 162))
        assert game.col_mix == (Fraction(1541, 2592), Fraction(1051, 2592))
        for col in range(2):
            row_value = sum(game.row_mix[i] * payoff[i][col] for i in range(2))
            assert row_value == game.value
        for row in range(2):
            col_value = sum(game.col_mix[j] * payoff[row][j] for j in range(2))
            assert col_value == game.value

    def test_bar_game_solution_identities(self):
        payoff = bar_matrix()
        game = solve_2x2(payoff)
        assert game.kind == "mixed"
        assert game.value == Fraction(-9860911, 781943058)
        assert game.row_mix == (Fraction(541, 2592), Fraction(2051, 2592))
        assert game.col_mix == (Fraction(1541, 2592), Fraction(1051, 2592))
        for col in range(2):
            assert sum(game.row_mix[i] * payoff[i][col] for i in range(2)) == game.value
        for row in range(2):
            assert sum(game.col_mix[j] * payoff[row][j] for j in range(2)) == game.value

    def test_mixes_are_probability_pairs(self):
        for payoff in (five_matrix(), bar_matrix(), ((1, 0), (0, 1)), ((1, 1), (0, 0))):
            game = solve_2x2(payoff)
            assert sum(game.row_mix) == 1 and min(game.row_mix) >= 0
            assert sum(game.col_mix) == 1 and min(game.col_mix) >= 0
