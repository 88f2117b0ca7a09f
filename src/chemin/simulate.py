"""Seeded Monte Carlo playout of full coups.

A statistical cross-check of the exact engine that shares none of its
enumeration code.  Randomness comes from Python's Mersenne Twister
(``random.Random``), consumed only through ``getrandbits`` so the card
stream is a fixed, documented function of the seed:

* card value: take 4 bits, reject 13-15, map 10-12 to value 0
  (the three extra denominations worth zero);
* Bernoulli(n/d): take ``d.bit_length()`` bits, reject >= d, compare < n;
  n = 0 and n = d take no bits.

``draw_card_value`` and ``bernoulli`` are that spec.  ``simulate`` inlines
them in one loop that consumes exactly the same words, about twice as
fast as calling them per card; a test pins the loop to the two functions.

Runs are single-threaded by design; identical configurations produce
bit-identical results on any platform.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .coup import CoupPolicy

#: Card value of each accepted 4-bit word: 0-9 as is, 10-12 worth zero.
_CARD_VALUES = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 0, 0)


def draw_card_value(rng: random.Random) -> int:
    """One card value from the documented bit-stream algorithm."""
    while True:
        raw = rng.getrandbits(4)
        if raw < 13:
            return raw if raw < 10 else 0


def bernoulli(rng: random.Random, numerator: int, denominator: int) -> bool:
    """Exact Bernoulli(numerator/denominator) draw by bit rejection."""
    if numerator == 0:
        return False
    if numerator == denominator:
        return True
    bits = denominator.bit_length()
    while True:
        raw = rng.getrandbits(bits)
        if raw < denominator:
            return raw < numerator


@dataclass(frozen=True)
class SimConfig:
    """One reproducible run: (seed, coups, policy) determines every bit."""

    coups: int
    seed: int
    policy: CoupPolicy

    def __post_init__(self) -> None:
        if self.coups < 1:
            raise ValueError(f"coups must be >= 1: {self.coups}")


@dataclass(frozen=True)
class SimResult:
    """Outcome tallies plus binomial-model summaries (floats, display only)."""

    wins: int
    ties: int
    losses: int

    @property
    def coups(self) -> int:
        return self.wins + self.ties + self.losses

    @property
    def empirical_win(self) -> float:
        return self.wins / self.coups

    @property
    def empirical_tie(self) -> float:
        return self.ties / self.coups

    @property
    def empirical_loss(self) -> float:
        return self.losses / self.coups

    @property
    def empirical_expectation(self) -> float:
        return (self.wins - self.losses) / self.coups

    def rate_standard_error(self, probability: float) -> float:
        """Binomial standard error of a rate estimated from this many coups."""
        return math.sqrt(probability * (1 - probability) / self.coups)

    @property
    def se_win(self) -> float:
        return self.rate_standard_error(self.empirical_win)

    @property
    def se_tie(self) -> float:
        return self.rate_standard_error(self.empirical_tie)

    @property
    def se_loss(self) -> float:
        return self.rate_standard_error(self.empirical_loss)

    @property
    def se_expectation(self) -> float:
        """Standard error of the mean of the per-coup profit in {-1, 0, +1}."""
        second_moment = (self.wins + self.losses) / self.coups
        return math.sqrt((second_moment - self.empirical_expectation**2) / self.coups)


def simulate(config: SimConfig) -> SimResult:
    """Play ``config.coups`` independent coups and tally the outcomes.

    Each inlined draw reads the words ``draw_card_value`` or ``bernoulli``
    would read at that point of the stream.
    """
    bits = random.Random(config.seed).getrandbits
    rows = config.policy.banker_table.rows
    pi = config.policy.draw_at_five
    numerator, denominator = pi.numerator, pi.denominator
    width = denominator.bit_length()
    mixed = 0 < numerator < denominator
    draws_at_five = numerator == denominator
    value = _CARD_VALUES
    wins = ties = 0

    for _ in range(config.coups):
        r = bits(4)
        while r > 12:
            r = bits(4)
        s = bits(4)
        while s > 12:
            s = bits(4)
        player = (value[r] + value[s]) % 10
        r = bits(4)
        while r > 12:
            r = bits(4)
        s = bits(4)
        while s > 12:
            s = bits(4)
        banker = (value[r] + value[s]) % 10
        if player < 8 and banker < 8:
            if player == 5 and mixed:
                r = bits(width)
                while r >= denominator:
                    r = bits(width)
                player_draws = r < numerator
            else:
                player_draws = player < 5 or (player == 5 and draws_at_five)
            if player_draws:
                r = bits(4)
                while r > 12:
                    r = bits(4)
                third = value[r]
                player = (player + third) % 10
                banker_draws = rows[banker][third]
            else:
                banker_draws = rows[banker][10]
            if banker_draws:
                r = bits(4)
                while r > 12:
                    r = bits(4)
                banker = (banker + value[r]) % 10
        if player > banker:
            wins += 1
        elif player == banker:
            ties += 1

    return SimResult(wins=wins, ties=ties, losses=config.coups - wins - ties)
