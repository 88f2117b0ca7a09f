"""Monte Carlo playout: determinism, distributional sanity, agreement."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from chemin import (
    CoupPolicy,
    DecisionTable,
    PlayerRule,
    SimConfig,
    SimResult,
    bernoulli,
    best_response_table,
    draw_card_value,
    mixed_best_response,
    report,
    simulate,
)
from tests import oracles

#: chi-square 0.999 quantile at 9 degrees of freedom.
CHI2_CRITICAL_9DF = 27.877

#: Banker draws only when Player's third card is worth 0.
THIRD_CARD_ZERO = DecisionTable.from_grid([[int(column == 0) for column in range(11)]] * 8)


def reference_simulate(config: SimConfig) -> SimResult:
    """The playout written card by card on the two stream-spec functions."""
    rng = random.Random(config.seed)
    rows = config.policy.banker_table.rows
    pi = config.policy.draw_at_five
    wins = ties = losses = 0
    for _ in range(config.coups):
        player_two = (draw_card_value(rng) + draw_card_value(rng)) % 10
        banker_two = (draw_card_value(rng) + draw_card_value(rng)) % 10
        player_final, banker_final = player_two, banker_two
        if player_two < 8 and banker_two < 8:
            if player_two <= 4 or (
                player_two == 5 and bernoulli(rng, pi.numerator, pi.denominator)
            ):
                third = draw_card_value(rng)
                player_final = (player_two + third) % 10
                banker_draws = rows[banker_two][third]
            else:
                banker_draws = rows[banker_two][10]
            if banker_draws:
                banker_final = (banker_two + draw_card_value(rng)) % 10
        if player_final > banker_final:
            wins += 1
        elif player_final == banker_final:
            ties += 1
        else:
            losses += 1
    return SimResult(wins=wins, ties=ties, losses=losses)


def standing_config(coups: int, seed: int) -> SimConfig:
    return SimConfig(
        coups=coups,
        seed=seed,
        policy=CoupPolicy.standing(best_response_table(PlayerRule.NON_TIREUR)),
    )


class TestDeterminism:
    def test_identical_configs_give_identical_results(self):
        config = standing_config(20_000, seed=1104)
        assert simulate(config) == simulate(config)

    def test_different_seeds_diverge(self):
        assert simulate(standing_config(20_000, seed=1)) != simulate(
            standing_config(20_000, seed=2)
        )

    def test_card_stream_is_a_fixed_function_of_the_seed(self):
        stream = [draw_card_value(random.Random(99)) for _ in range(12)]
        again = [draw_card_value(random.Random(99)) for _ in range(12)]
        assert stream == again
        assert all(0 <= value <= 9 for value in stream)


class TestStreamSpec:
    """``simulate`` inlines the card stream; it must read the same words."""

    TABLES = {
        "non-tireur": best_response_table(PlayerRule.NON_TIREUR),
        "tireur": best_response_table(PlayerRule.TIREUR),
        "mixed-1/3": mixed_best_response(Fraction(1, 3)),
        # Not a best response to anything: draws on odd total + column.
        "checkerboard": DecisionTable.from_grid(
            [[(total + column) % 2 for column in range(11)] for total in range(8)]
        ),
        # Draws only on a third card worth 0, so in every row column 0
        # differs from column 1 and from the stood column: a word 10-12
        # read as anything but value 0 changes Banker's decision.
        "third-card-0": THIRD_CARD_ZERO,
    }

    @pytest.mark.parametrize(
        "pi",
        # 2**40 + 1 takes 41 bits per Bernoulli word, more than one MT word.
        [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(999, 1000), Fraction(3, 2**40 + 1)],
        ids=str,
    )
    def test_matches_card_by_card_reference(self, pi):
        for name, table in self.TABLES.items():
            for seed in (0, 1, 2024):
                config = SimConfig(coups=3_000, seed=seed, policy=CoupPolicy(pi, table))
                assert simulate(config) == reference_simulate(config), (name, seed)

    @pytest.mark.parametrize(
        "seed, pi, table, tally",
        [
            (11, Fraction(0), best_response_table(PlayerRule.NON_TIREUR), (44447, 9432, 46121)),
            (12, Fraction(1), best_response_table(PlayerRule.TIREUR), (44790, 8847, 46363)),
            (13, Fraction(1, 3), mixed_best_response(Fraction(1, 3)), (44418, 9351, 46231)),
            (14, Fraction(1, 2), THIRD_CARD_ZERO, (54032, 8628, 37340)),
        ],
        ids=["stand-vs-non-tireur", "draw-vs-tireur", "mixed-1/3", "mixed-1/2-third-card-0"],
    )
    def test_pinned_tallies(self, seed, pi, table, tally):
        result = simulate(SimConfig(coups=100_000, seed=seed, policy=CoupPolicy(pi, table)))
        assert (result.wins, result.ties, result.losses) == tally


class TestSimResult:
    def test_single_coup_has_exactly_one_outcome(self):
        for seed in range(20):
            result = simulate(standing_config(1, seed=seed))
            assert sorted((result.wins, result.ties, result.losses)) == [0, 0, 1]

    def test_counts_sum_to_coups(self):
        result = simulate(standing_config(5_000, seed=7))
        assert result.coups == 5_000

    @pytest.mark.parametrize("fmt", ["markdown", "csv", "structured"])
    def test_rates_and_errors_render_exactly(self, capsys, fmt):
        # 450/100/450 of 1000: W = L = 0.45 with se sqrt(0.45 * 0.55 / 1000),
        # T = 0.1 with se sqrt(0.1 * 0.9 / 1000), E = 0 with se sqrt(0.9 / 1000).
        run = report.Simulation(standing_config(1000, seed=0), SimResult(wins=450, ties=100, losses=450))
        report.emit(run, fmt, exact=False, precision=40, command="simulate")
        out = capsys.readouterr().out
        pad = "0" * 38
        se_rate = "0.0157321327225522732048718027051990639771"
        se_tie = "0.0094868329805051379959966806332981556012"
        expected = {
            "W": (f"0.45{pad}", se_rate),
            "T": (f"0.1{pad}0", se_tie),
            "L": (f"0.45{pad}", se_rate),
            "E": (f"0.0{pad}0", f"0.03{pad}"),
        }
        if fmt == "markdown":
            shown = {line[0]: tuple(line[2:-1].split(" (se ")) for line in out.splitlines()[2:]}
        elif fmt == "csv":
            shown = {row[0]: tuple(row[1:]) for row in (line.split(",") for line in out.splitlines()[4:])}
        else:
            obj = json.loads(out)
            shown = {label: (obj["empirical"][label]["decimal"], obj["standard_errors"][label]) for label in "WTLE"}
        assert shown == expected

    def test_rejects_empty_run(self):
        with pytest.raises(ValueError):
            standing_config(0, seed=1)

    def test_rejects_negative_seed(self):
        # random.Random(-7) would replay the stream of Random(7).
        with pytest.raises(ValueError, match="seed"):
            standing_config(1, seed=-7)
        assert simulate(standing_config(1, seed=0)).coups == 1


class TestDistributionalSanity:
    def test_card_values_follow_third_card_pdf(self):
        rng = random.Random(2024)
        n = 200_000
        counts = [0] * 10
        for _ in range(n):
            counts[draw_card_value(rng)] += 1
        pmf = [Fraction(weight, 13) for weight in oracles.WEIGHTS]
        chi2 = sum(
            (count - float(pmf[value]) * n) ** 2
            / (float(pmf[value]) * n)
            for value, count in enumerate(counts)
        )
        assert chi2 < CHI2_CRITICAL_9DF

    def test_two_card_totals_follow_two_card_pdf(self):
        rng = random.Random(181)
        n = 1_000_000
        counts = [0] * 10
        for _ in range(n):
            counts[(draw_card_value(rng) + draw_card_value(rng)) % 10] += 1
        pmf = [Fraction(weight, 169) for weight in oracles.two_card_weights()]
        chi2 = sum(
            (count - float(pmf[total]) * n) ** 2
            / (float(pmf[total]) * n)
            for total, count in enumerate(counts)
        )
        assert chi2 < CHI2_CRITICAL_9DF

    def test_bernoulli_is_exact_at_the_endpoints(self):
        rng = random.Random(5)
        assert not any(bernoulli(rng, 0, 3) for _ in range(100))
        assert all(bernoulli(rng, 3, 3) for _ in range(100))

    def test_bernoulli_rate_is_plausible(self):
        rng = random.Random(6)
        n = 100_000
        hits = sum(bernoulli(rng, 1, 3) for _ in range(n))
        # 1/3 +- 5 standard errors, squared: (x/n - p)^2 < 5^2 p(1 - p)/n.
        p = Fraction(1, 3)
        assert (Fraction(hits, n) - p) ** 2 < 5**2 * p * (1 - p) / n


class TestAgreementWithExactEngine:
    def test_stand_scenario_within_four_standard_errors(self):
        p = Fraction(2152648, 4826809)
        result = simulate(standing_config(200_000, seed=20))
        n = result.coups
        assert (Fraction(result.wins, n) - p) ** 2 < 4**2 * p * (1 - p) / n

    def test_mixed_policy_runs(self):
        policy = CoupPolicy(Fraction(1, 3), best_response_table(PlayerRule.TIREUR))
        result = simulate(SimConfig(coups=10_000, seed=9, policy=policy))
        assert result.coups == 10_000
