"""Banker conditional expectations, best-response tables, and variants."""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemin import (
    BADOUREAU,
    COLUMNS,
    CORRECT,
    DORMOY,
    STOOD,
    VARIANTS,
    CoupPolicy,
    DecisionTable,
    FiveAction,
    PlayerRule,
    banker_draw_ev,
    banker_stand_ev,
    best_response_table,
    coup_stats,
    dormoy_unweighted_response,
    equal_ev_cells,
    five_stats,
    historical_table,
    mixed_best_response,
)
from chemin.banker import _response_segments, _segments, outcome_histograms
from tests import oracles
from tests.conftest import assert_plausible_response_shape, decision_tables, probabilities
from tests.known_tables import GRID_VS_NON_TIREUR, GRID_VS_TIREUR

NON_TIREUR, TIREUR = PlayerRule.NON_TIREUR, PlayerRule.TIREUR


def posterior_weighted_grid(pi: Fraction) -> list[list[int]]:
    """The oracle's response to a mix: prior (1-p, p) times each rule's
    event weight out of 137 (drew: 89 and 105; stood: 48 and 32)."""
    return oracles.averaged_response_grid(
        ((1 - pi) * 89, pi * 105), ((1 - pi) * 48, pi * 32)
    )


class TestDecisionTable:
    def test_grid_round_trip(self):
        table = DecisionTable.from_grid(GRID_VS_NON_TIREUR)
        assert table.to_grid() == GRID_VS_NON_TIREUR

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            DecisionTable.from_grid([[1] * 11] * 7)
        with pytest.raises(ValueError):
            DecisionTable.from_grid([[1] * 10] * 8)

    def test_rejects_non_boolean_entries(self):
        rows = tuple(tuple(1 for _ in range(11)) for _ in range(8))
        with pytest.raises(ValueError):
            DecisionTable(rows)

    @pytest.mark.parametrize("bad", ["0", "1", 2, -1, 0.5, 1.0, None, Fraction(1)], ids=repr)
    def test_from_grid_rejects_entries_other_than_0_1(self, bad):
        grid = [[0] * 11 for _ in range(8)]
        grid[3][7] = bad
        with pytest.raises(ValueError):
            DecisionTable.from_grid(grid)

    def test_from_grid_accepts_ints_and_booleans(self):
        mixed = [[bool(entry) if c % 2 else entry for c, entry in enumerate(row)] for row in GRID_VS_TIREUR]
        assert DecisionTable.from_grid(mixed) == DecisionTable.from_grid(GRID_VS_TIREUR)

    def test_draws_lookup(self):
        table = DecisionTable.from_grid(GRID_VS_NON_TIREUR)
        assert table.draws(0, 0) and table.draws(0, STOOD)
        assert not table.draws(5, 4)
        assert not table.draws(6, STOOD)

    def test_draws_validates_cell(self):
        table = DecisionTable.from_grid(GRID_VS_NON_TIREUR)
        with pytest.raises(ValueError):
            table.draws(8, 0)
        with pytest.raises(ValueError):
            table.draws(0, 10)

    def test_flip_is_involutive(self):
        table = DecisionTable.from_grid(GRID_VS_TIREUR)
        cells = [(4, 1), (4, 9), (6, 6), (6, STOOD)]
        assert table.flip(cells).flip(cells) == table

    def test_differing_cells(self):
        t0 = DecisionTable.from_grid(GRID_VS_NON_TIREUR)
        flipped = t0.flip([(3, 9), (6, STOOD)])
        assert t0.differing_cells(flipped) == frozenset({(3, 9), (6, STOOD)})


class TestConditionalExpectations:
    def test_near_tie_cell(self):
        # The famous pair that rounds to the same two decimals.
        assert banker_stand_ev(NON_TIREUR, 5, 4) == Fraction(-299, 1157)
        assert banker_draw_ev(NON_TIREUR, 5, 4) == Fraction(-300, 1157)

    def test_banker_zero_against_standing_player_always_loses(self):
        assert banker_stand_ev(NON_TIREUR, 0, STOOD) == -1
        assert banker_draw_ev(NON_TIREUR, 0, STOOD) > -1

    def test_banker_seven_against_standing_tireur(self):
        # A tireur stands only on 6 or 7: Banker's 7 beats the former and
        # ties the latter, so standing is worth exactly 1/2.
        assert banker_stand_ev(TIREUR, 7, STOOD) == Fraction(1, 2)
        assert banker_draw_ev(TIREUR, 7, STOOD) == Fraction(-5, 26)

    def test_draw_beats_stand_where_tireur_table_says_so(self):
        assert banker_draw_ev(TIREUR, 3, 9) > banker_stand_ev(TIREUR, 3, 9)
        assert banker_draw_ev(TIREUR, 3, 9) == Fraction(28, 195)
        assert banker_stand_ev(TIREUR, 3, 9) == Fraction(1, 15)

    @pytest.mark.parametrize("bad_total", [-1, 8, 9])
    def test_rejects_bad_total(self, bad_total):
        with pytest.raises(ValueError):
            banker_stand_ev(NON_TIREUR, bad_total, 0)
        with pytest.raises(ValueError):
            banker_draw_ev(NON_TIREUR, bad_total, 0)

    @pytest.mark.parametrize("bad_card", [-1, 10, "x"])
    def test_rejects_bad_observation(self, bad_card):
        with pytest.raises(ValueError):
            banker_stand_ev(NON_TIREUR, 3, bad_card)

    def test_matches_enumeration_oracle_everywhere(self):
        for assumed in PlayerRule:
            for total in range(8):
                for observed in COLUMNS:
                    stand, draw = oracles.banker_evs(int(assumed), total, observed)
                    assert banker_stand_ev(assumed, total, observed) == stand
                    assert banker_draw_ev(assumed, total, observed) == draw

    def test_tables_reconstructed_from_raw_pair_enumeration(self):
        # The oracle never touches the two-card pmf: it enumerates actual
        # card pairs, i.e. the convolution the pmf must equal.
        for assumed in PlayerRule:
            assert oracles.best_response_grid(int(assumed)) == best_response_table(assumed).to_grid()


class TestBestResponseTables:
    def test_reproduces_table_vs_non_tireur(self):
        assert best_response_table(NON_TIREUR).to_grid() == GRID_VS_NON_TIREUR

    def test_reproduces_table_vs_tireur(self):
        assert best_response_table(TIREUR).to_grid() == GRID_VS_TIREUR

    def test_tables_differ_at_exactly_four_cells(self):
        diff = best_response_table(NON_TIREUR).differing_cells(best_response_table(TIREUR))
        assert diff == frozenset({(3, 9), (4, 1), (5, 4), (6, STOOD)})

    def test_no_exact_ties_for_either_rule(self):
        assert equal_ev_cells(NON_TIREUR) == frozenset()
        assert equal_ev_cells(TIREUR) == frozenset()

    def test_shapes(self):
        assert_plausible_response_shape(best_response_table(NON_TIREUR))
        assert_plausible_response_shape(best_response_table(TIREUR))


class TestMixedBestResponse:
    def test_endpoints_collapse_to_pure_tables(self):
        assert mixed_best_response(0) == best_response_table(NON_TIREUR)
        assert mixed_best_response(1) == best_response_table(TIREUR)

    def test_half_is_non_tireur_table_plus_two_cells(self):
        expected = best_response_table(NON_TIREUR).flip([(3, 9), (5, 4)])
        assert mixed_best_response(Fraction(1, 2)) == expected

    @pytest.mark.parametrize("bad", [Fraction(-1, 2), Fraction(3, 2), "2"])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            mixed_best_response(bad)

    @settings(max_examples=25, deadline=None)
    @given(probabilities)
    def test_shape_for_arbitrary_mixtures(self, pi):
        assert_plausible_response_shape(mixed_best_response(pi))

    @settings(max_examples=20, deadline=None)
    @given(probabilities)
    def test_matches_posterior_weighted_oracle(self, pi):
        assert mixed_best_response(pi).to_grid() == posterior_weighted_grid(pi)

    @pytest.mark.parametrize(
        "pi, cell",
        [
            (Fraction(1, 16), (5, 4)),
            (Fraction(71, 176), (3, 9)),
            (Fraction(9, 11), (6, STOOD)),
            (Fraction(107, 112), (4, 1)),
        ],
    )
    def test_breakpoint_cell_ties_and_stands(self, pi, cell):
        banker_total, observed = cell
        drew, stood = ((1 - pi) * 89, pi * 105), ((1 - pi) * 48, pi * 32)
        w0, w1 = stood if observed is STOOD else drew
        (stand0, draw0), (stand1, draw1) = (
            oracles.banker_evs(rule, banker_total, observed) for rule in (0, 1)
        )
        assert w0 * (draw0 - stand0) + w1 * (draw1 - stand1) == 0
        table = mixed_best_response(pi)
        assert table.to_grid() == posterior_weighted_grid(pi)
        assert not table.draws(banker_total, observed)
        above = mixed_best_response(pi + Fraction(1, 10**6))
        assert table.differing_cells(above) == {cell}

    def test_matches_posterior_weighted_oracle_at_half(self):
        grid = oracles.averaged_response_grid(
            (Fraction(89), Fraction(105)), (Fraction(48), Fraction(32))
        )
        assert mixed_best_response(Fraction(1, 2)).to_grid() == grid


def oracle_breakpoints() -> list[Fraction]:
    """0, 1 and every p in (0, 1) where some cell of the oracle's
    posterior-weighted response ties, from ``oracles.banker_evs`` alone."""
    points = {Fraction(0), Fraction(1)}
    for total in range(8):
        for observed in [*range(10), None]:
            w0, w1 = (48, 32) if observed is None else (89, 105)
            (stand0, draw0), (stand1, draw1) = (
                oracles.banker_evs(rule, total, observed) for rule in (0, 1)
            )
            # (1-p) * w0 * gain0 + p * w1 * gain1 = 0
            a, b = w0 * (draw0 - stand0), w1 * (draw1 - stand1)
            if a != b and 0 < a / (a - b) < 1:
                points.add(a / (a - b))
    return sorted(points)


class TestResponseSegments:
    """``mixed_best_response`` looks its table up in ``_response_segments``."""

    def test_points_match_oracle_breakpoints(self):
        points = _response_segments().points
        assert list(points) == oracle_breakpoints()
        assert points == tuple(map(Fraction, (0, "1/16", "71/176", "9/11", "107/112", 1)))

    def test_segment_tables_match_oracle(self):
        points, at_point, in_gap = _response_segments()
        for point, table in zip(points, at_point):
            assert table.to_grid() == posterior_weighted_grid(point)
        for (a, b), table in zip(zip(points, points[1:]), in_gap):
            assert table.to_grid() == posterior_weighted_grid((a + b) / 2)

    def test_points_neighbours_and_midpoints_match_oracle(self):
        points = oracle_breakpoints()
        probes = set(points)
        probes.update((a + b) / 2 for a, b in zip(points, points[1:]))
        for point in points:
            for k in (6, 9, 15):
                probes.update((point - Fraction(1, 10**k), point + Fraction(1, 10**k)))
        for pi in sorted(p for p in probes if 0 <= p <= 1):
            assert mixed_best_response(pi).to_grid() == posterior_weighted_grid(pi), pi

    @settings(max_examples=40, deadline=None)
    @given(st.fractions(min_value=0, max_value=1, max_denominator=10**12))
    def test_arbitrary_mixtures_match_oracle(self, pi):
        assert mixed_best_response(pi).to_grid() == posterior_weighted_grid(pi)

    def test_one_gap_returns_one_table_object(self):
        points = _response_segments().points
        for a, b in zip(points, points[1:]):
            first, second = a + (b - a) / 3, b - (b - a) / 7
            assert mixed_best_response(first) is mixed_best_response(second)
            assert mixed_best_response(str(second)) is mixed_best_response(first)


class TestSegmentBuilder:
    """``_segments`` on made-up gains, against the direct sign test."""

    #: Cells with exact ties the kernel's gains never produce, then cells
    #: whose roots coincide at 1/4 and cross it both ways.
    SPECIAL = [(0, 5), (0, -5), (5, 0), (-5, 0), (0, 0), (3, 3), (-3, -3), (1, -3), (2, -6), (-1, 3)]

    @staticmethod
    def direct(gains, pi: Fraction) -> list[list[int]]:
        n, q = pi.numerator, pi.denominator
        return [[int((q - n) * g0 + n * g1 > 0) for g0, g1 in row] for row in gains]

    @staticmethod
    def lookup(segments, pi: Fraction):
        points, at_point, in_gap = segments
        if pi in points:
            return at_point[points.index(pi)]
        (i,) = [i for i, (a, b) in enumerate(zip(points, points[1:])) if a < pi < b]
        return in_gap[i]

    def gains(self, seed: int) -> list[list[tuple[int, int]]]:
        rng = random.Random(seed)
        cells = self.SPECIAL + [
            (rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(88 - len(self.SPECIAL))
        ]
        rng.shuffle(cells)
        return [cells[j * 11:(j + 1) * 11] for j in range(8)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_direct_test(self, seed):
        gains = self.gains(seed)
        segments = _segments(gains)
        points = segments.points
        roots = {Fraction(g0, g0 - g1) for row in gains for g0, g1 in row if g0 != g1}
        assert points == tuple(sorted({Fraction(0), Fraction(1)} | {r for r in roots if 0 < r < 1}))
        assert Fraction(1, 4) in points
        assert len(segments.at_point) == len(points) == len(segments.in_gap) + 1
        rng = random.Random(seed)
        probes = [*points, *((a + b) / 2 for a, b in zip(points, points[1:]))]
        probes += [Fraction(rng.randint(0, q), q) for q in (rng.randint(1, 10**9) for _ in range(200))]
        for pi in probes:
            assert self.lookup(segments, pi).to_grid() == self.direct(gains, pi), pi

    def test_exact_zero_stands(self):
        gains = [[(0, 0)] * 11] * 8
        segments = _segments(gains)
        assert segments.points == (0, 1)
        flat = [[0] * 11 for _ in range(8)]
        assert [t.to_grid() for t in (*segments.at_point, *segments.in_gap)] == [flat] * 3
        gains = [[(0, 1)] * 11] * 8  # ties at 0, draws above it
        at_zero, at_one = _segments(gains).at_point
        assert at_zero.to_grid() == flat and at_one.to_grid() == [[1] * 11 for _ in range(8)]


class TestAveragedResponseOracle:
    """The oracle's integer sign test against the plain Fraction formula."""

    evs = staticmethod(functools.cache(oracles.banker_evs))

    def fraction_grid(self, drew_weights, stood_weights) -> list[list[int]]:
        grid = []
        for total in range(8):
            row = []
            for observed in [*range(10), None]:
                w0, w1 = stood_weights if observed is None else drew_weights
                (stand0, draw0), (stand1, draw1) = (
                    self.evs(rule, total, observed) for rule in (0, 1)
                )
                row.append(int(w0 * draw0 + w1 * draw1 > w0 * stand0 + w1 * stand1))
            grid.append(row)
        return grid

    def check(self, pi: Fraction) -> None:
        drew, stood = ((1 - pi) * 89, pi * 105), ((1 - pi) * 48, pi * 32)
        assert oracles.averaged_response_grid(drew, stood) == self.fraction_grid(drew, stood)

    @pytest.mark.parametrize(
        "pi",
        [Fraction(1, 16), Fraction(71, 176), Fraction(9, 11), Fraction(107, 112)],
        ids=str,
    )
    def test_breakpoints_and_either_side(self, pi):
        for offset in (-Fraction(1, 10**6), 0, Fraction(1, 10**6)):
            self.check(pi + offset)

    @settings(max_examples=30, deadline=None)
    @given(st.fractions(min_value=0, max_value=1, max_denominator=10**6))
    def test_arbitrary_mixtures(self, pi):
        self.check(pi)

    def test_unweighted_integer_and_zero_weights(self):
        for drew, stood in (((1, 1), (1, 1)), ((89, 105), (48, 32)), ((0, 3), (Fraction(1, 3), 0))):
            assert oracles.averaged_response_grid(drew, stood) == self.fraction_grid(drew, stood)


class TestDormoyUnweightedResponse:
    def test_matches_unweighted_oracle(self):
        grid = oracles.averaged_response_grid(
            (Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))
        )
        assert dormoy_unweighted_response().to_grid() == grid

    def test_rows_and_shape(self):
        assert_plausible_response_shape(dormoy_unweighted_response())

    def test_coincides_with_posterior_weighting_at_half(self):
        # The naive average happens to land on the same table; the cell
        # set where the two rules disagree is empty.
        table = dormoy_unweighted_response()
        assert table.differing_cells(mixed_best_response(Fraction(1, 2))) == frozenset()
        assert table == best_response_table(NON_TIREUR).flip([(3, 9), (5, 4)])


class TestHistoricalVariants:
    def test_registry(self):
        assert set(VARIANTS) == {"correct", "dormoy", "badoureau"}

    def test_correct_changes_nothing(self):
        for assumed in PlayerRule:
            assert historical_table(CORRECT, assumed) == best_response_table(assumed)

    def test_badoureau_tireur_errors(self):
        table = historical_table(BADOUREAU, TIREUR)
        correct = best_response_table(TIREUR)
        assert table.differing_cells(correct) == frozenset({(4, 1), (4, 9), (6, 6)})
        assert not table.draws(4, 1)
        assert table.draws(4, 9)
        assert not table.draws(6, 6)

    def test_badoureau_non_tireur_is_exact(self):
        assert historical_table(BADOUREAU, NON_TIREUR) == best_response_table(NON_TIREUR)

    def test_dormoy_single_tireur_error(self):
        table = historical_table(DORMOY, TIREUR)
        assert table.differing_cells(best_response_table(TIREUR)) == frozenset({(6, 6)})

    def test_dormoy_non_tireur_is_annotation_only(self):
        assert historical_table(DORMOY, NON_TIREUR) == best_response_table(NON_TIREUR)
        assert DORMOY.near_ties_vs_non_tireur == frozenset({(5, 4)})


class TestOutcomeHistogramsCache:
    """``outcome_histograms`` keeps the sums of its last 16 distinct tables."""

    def test_equal_tables_share_one_entry(self):
        first = mixed_best_response(Fraction(1, 3))
        second = DecisionTable.from_grid(first.to_grid())
        assert first is not second
        assert outcome_histograms(first) is outcome_histograms(second)

    @settings(max_examples=3, deadline=None)
    @given(st.lists(decision_tables(), min_size=17, max_size=20, unique=True))
    def test_results_survive_eviction(self, tables):
        outcome_histograms.cache_clear()
        for table in tables:
            outcome_histograms(table)
        info = outcome_histograms.cache_info()
        assert (info.misses, info.currsize) == (len(tables), info.maxsize)
        for table in (tables[0], tables[-1]):  # evicted, then still cached
            grid = table.to_grid()
            for action in FiveAction:
                drawing = action == FiveAction.DRAW
                stats = five_stats(action, table)
                assert (stats.win, stats.tie, stats.expectation) == oracles.five_stats(drawing, grid)
                win, tie, loss, total = oracles.coup_counts(drawing, grid)
                stats = coup_stats(CoupPolicy.for_action(action, table))
                assert (stats.win, stats.tie, stats.loss) == (
                    Fraction(win, total), Fraction(tie, total), Fraction(loss, total)
                )

    @settings(max_examples=20, deadline=None)
    @given(decision_tables(), probabilities)
    def test_cold_and_warm_cache_agree(self, table, pi):
        def results():
            policy = CoupPolicy(pi, table)
            return coup_stats(policy), five_stats(FiveAction.STAND, table), five_stats(FiveAction.DRAW, table)

        outcome_histograms.cache_clear()
        cold = results()
        assert outcome_histograms.cache_info().currsize == 1
        assert results() == cold

    def test_sweep_point_sums_its_table_once(self):
        outcome_histograms.cache_clear()
        pi = Fraction(5, 7)
        table = mixed_best_response(pi)
        coup_stats(CoupPolicy(pi, table))
        five_stats(FiveAction.STAND, table)
        five_stats(FiveAction.DRAW, table)
        info = outcome_histograms.cache_info()
        assert (info.misses, info.hits) == (1, 2)
