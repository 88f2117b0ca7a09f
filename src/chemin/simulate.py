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
them in one loop that consumes exactly the same words; a test pins the
loop to the two functions.  The loop does no card arithmetic: it looks
each accepted word up raw, in two-card and add-one-card total tables
built from ``_CARD_VALUES`` and in Player's rule and Banker's table
re-indexed by word, built once per run.

Runs are single-threaded by design; identical configurations produce
bit-identical results on any platform.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .coup import CoupPolicy

#: Card value of each accepted 4-bit word: 0-9 as is, 10-12 worth zero.
_CARD_VALUES = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 0, 0)
#: ``_TOTAL[r][s]``: the two-card total of accepted words r and s.
_TOTAL = tuple(tuple((a + b) % 10 for b in _CARD_VALUES) for a in _CARD_VALUES)
#: ``_ADD[t][r]``: total t plus the card of accepted word r.
_ADD = tuple(tuple((t + v) % 10 for v in _CARD_VALUES) for t in range(10))


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0: {self.seed}")


@dataclass(frozen=True)
class SimResult:
    """Outcome tallies.  Rates and squared standard errors are exact
    Fractions of these counts, formed where they are rendered or checked."""

    wins: int
    ties: int
    losses: int

    @property
    def coups(self) -> int:
        return self.wins + self.ties + self.losses


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
    # Player's draw on each non-natural two-card total; None marks a
    # Bernoulli draw on 5.
    five = None if 0 < numerator < denominator else numerator == denominator
    player_draws = (True, True, True, True, True, five, False, False)
    banker_draws_on = tuple(tuple(row[v] for v in _CARD_VALUES) for row in rows)
    banker_stood = tuple(row[10] for row in rows)
    total, add = _TOTAL, _ADD
    wins = ties = 0

    for _ in range(config.coups):
        r = bits(4)
        while r > 12:
            r = bits(4)
        s = bits(4)
        while s > 12:
            s = bits(4)
        player = total[r][s]
        r = bits(4)
        while r > 12:
            r = bits(4)
        s = bits(4)
        while s > 12:
            s = bits(4)
        banker = total[r][s]
        if player < 8 and banker < 8:
            draws = player_draws[player]
            if draws is None:
                r = bits(width)
                while r >= denominator:
                    r = bits(width)
                draws = r < numerator
            if draws:
                r = bits(4)
                while r > 12:
                    r = bits(4)
                player = add[player][r]
                banker_draws = banker_draws_on[banker][r]
            else:
                banker_draws = banker_stood[banker]
            if banker_draws:
                r = bits(4)
                while r > 12:
                    r = bits(4)
                banker = add[banker][r]
        if player > banker:
            wins += 1
        elif player == banker:
            ties += 1

    return SimResult(wins=wins, ties=ties, losses=config.coups - wins - ties)
