"""Brute-force oracles, independent of the library implementation.

Every function here recomputes a quantity by raw enumeration over card
values 0-9, weighting each value by the number of denominations that map
to it (10/J/Q/K all count zero, so value 0 has weight 4 and every card
contributes total weight 13).  All arithmetic is on integers or
Fractions, so results are exact.  Nothing is imported from the chemin
package: decision tables come in as plain 0/1 grids with column order
0..9 then "Player stood".
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import numpy as np

#: Denominations per card value; value 0 covers 10, J, Q, K.
WEIGHTS = (4, 1, 1, 1, 1, 1, 1, 1, 1, 1)


def sign(x: int) -> int:
    return (x > 0) - (x < 0)


def two_card_weights() -> list[int]:
    """Weight of each two-card total out of 13**2: the mod-10
    convolution of two independent card values."""
    return [
        sum(WEIGHTS[a] * WEIGHTS[b] for a in range(10) for b in range(10) if (a + b) % 10 == total)
        for total in range(10)
    ]


def banker_evs(
    tireur: int, banker_total: int, third_card: int | None
) -> tuple[Fraction, Fraction]:
    """Banker's conditional (stand, draw) expectations by hand enumeration.

    Player's two cards are enumerated directly and filtered to the totals
    consistent with his rule (draws on 0..4+tireur) and with the observed
    event (``third_card`` seen, or None if Player stood); Banker's third
    card is enumerated on the draw side.
    """
    stand_num = draw_num = den = 0
    for a in range(10):
        for b in range(10):
            w = WEIGHTS[a] * WEIGHTS[b]
            total = (a + b) % 10
            if third_card is None:
                if not 5 + tireur <= total <= 7:
                    continue
                final = total
            else:
                if total > 4 + tireur:
                    continue
                final = (total + third_card) % 10
            # Scale the stand side by 13 so both sides share a denominator.
            den += w * 13
            stand_num += w * 13 * sign(banker_total - final)
            for last in range(10):
                draw_num += w * WEIGHTS[last] * sign((banker_total + last) % 10 - final)
    return Fraction(stand_num, den), Fraction(draw_num, den)


def best_response_grid(tireur: int) -> list[list[int]]:
    """Banker's strict best response against one Player pure rule."""
    grid = []
    for j in range(8):
        row = []
        for k in [*range(10), None]:
            stand, draw = banker_evs(tireur, j, k)
            row.append(int(draw > stand))
        grid.append(row)
    return grid


def integer_pair(pair: tuple[Fraction, Fraction]) -> tuple[int, int]:
    """Two rationals times one positive factor that makes both integers."""
    (n0, d0), (n1, d1) = (Fraction(x).as_integer_ratio() for x in pair)
    return n0 * d1, n1 * d0


@functools.cache
def draw_gains(banker_total: int, third_card: int | None) -> tuple[int, int]:
    """Banker's draw-minus-stand expectation against (non-tireur, tireur),
    as an ``integer_pair``."""
    return integer_pair(tuple(
        draw - stand
        for stand, draw in (banker_evs(rule, banker_total, third_card) for rule in (0, 1))
    ))


def averaged_response_grid(
    drew_weights: tuple[Fraction, Fraction],
    stood_weights: tuple[Fraction, Fraction],
) -> list[list[int]]:
    """Banker's response to a mixture of the two Player rules.

    ``drew_weights`` / ``stood_weights`` are (non-tireur, tireur) weights
    applied to the conditional expectations in columns where Player drew
    a card / stood.  Only ratios matter, so both pairs are scaled to
    integers and each cell draws when ``w0 * gain0 + w1 * gain1 > 0``.
    """
    drew, stood = integer_pair(drew_weights), integer_pair(stood_weights)
    grid = []
    for j in range(8):
        row = []
        for k in [*range(10), None]:
            w0, w1 = stood if k is None else drew
            gain0, gain1 = draw_gains(j, k)
            row.append(int(w0 * gain0 + w1 * gain1 > 0))
        grid.append(row)
    return grid


def five_stats(
    draw_at_five: bool, grid: list[list[int]]
) -> tuple[Fraction, Fraction, Fraction]:
    """(win, tie, expectation) for a Player holding a two-card total of 5.

    Enumerates Banker's two cards (conditioned on Banker not holding a
    natural, matching the scenario where Banker gets to act), Player's
    third card, and Banker's third card: 13**4 weighted tuples.  Unused
    third cards are summed out.
    """
    win = tie = sgn = den = 0
    for b1, b2, k, last in itertools.product(range(10), repeat=4):
        w = WEIGHTS[b1] * WEIGHTS[b2] * WEIGHTS[k] * WEIGHTS[last]
        banker_two = (b1 + b2) % 10
        if banker_two >= 8:
            continue
        if draw_at_five:
            player_final = (5 + k) % 10
            banker_draws = grid[banker_two][k]
        else:
            player_final = 5
            banker_draws = grid[banker_two][10]
        banker_final = (banker_two + last) % 10 if banker_draws else banker_two
        den += w
        margin = sign(player_final - banker_final)
        win += w * (margin > 0)
        tie += w * (margin == 0)
        sgn += w * margin
    return Fraction(win, den), Fraction(tie, den), Fraction(sgn, den)


def coup_counts(
    draw_at_five: bool, grid: list[list[int]]
) -> tuple[int, int, int, int]:
    """(win, tie, loss, total) weights over all 13**6 card-value tuples.

    Cards 1-2 are Player's hand, 3-4 Banker's, 5 Player's third, 6
    Banker's third; unused third cards are summed out by enumerating them
    anyway.  Vectorized with integer arithmetic only, so the counts are
    exact.
    """
    cards = np.indices((10,) * 6).reshape(6, -1)
    w = np.asarray(WEIGHTS, dtype=np.int64)
    weight = w[cards[0]]
    for row in cards[1:]:
        weight = weight * w[row]

    player_two = (cards[0] + cards[1]) % 10
    banker_two = (cards[2] + cards[3]) % 10
    live = (player_two < 8) & (banker_two < 8)
    player_draws = live & ((player_two <= 4) | ((player_two == 5) & draw_at_five))
    player_final = np.where(player_draws, (player_two + cards[4]) % 10, player_two)

    table = np.asarray(grid, dtype=bool)
    column = np.where(player_draws, cards[4], 10)
    banker_draws = live & table[np.minimum(banker_two, 7), column]
    banker_final = np.where(banker_draws, (banker_two + cards[5]) % 10, banker_two)

    margin = player_final - banker_final
    win = int(weight[margin > 0].sum())
    tie = int(weight[margin == 0].sum())
    loss = int(weight[margin < 0].sum())
    return win, tie, loss, int(weight.sum())


def coup_stats(
    draw_at_five: bool, grid: list[list[int]]
) -> tuple[Fraction, Fraction, Fraction]:
    """Whole-coup (win, tie, expectation) from the raw tuple counts."""
    win, tie, loss, total = coup_counts(draw_at_five, grid)
    return Fraction(win, total), Fraction(tie, total), Fraction(win - loss, total)
