"""Card values, hand totals, and the two elementary distributions.

Cards are drawn with replacement (equivalently, from an infinite shoe),
so every dealt card value is i.i.d. with pmf ``third_card_pdf`` and a
two-card total has pmf ``two_card_pdf``.  Aces count 1, pip cards their
face value, and 10/J/Q/K all count 0; a hand's total is the value sum
modulo 10.
"""

from __future__ import annotations

from fractions import Fraction

#: How many of the 13 denominations map to each card value 0-9.
DENOMINATIONS_PER_VALUE = (4, 1, 1, 1, 1, 1, 1, 1, 1, 1)

#: Denominations in all: the weight of a card whose value does not matter.
DENOMINATIONS = 13

CARD_VALUES = range(10)
HAND_TOTALS = range(10)


def mod10(value_sum: int) -> int:
    """Hand total of a nonnegative sum of card values: its last digit."""
    if value_sum < 0:
        raise ValueError(f"card-value sums are nonnegative, got {value_sum}")
    return value_sum % 10


def third_card_pdf(value: int) -> Fraction:
    """Probability that a dealt card has the given value."""
    if value not in CARD_VALUES:
        raise ValueError(f"card value out of range 0-9: {value!r}")
    return Fraction(DENOMINATIONS_PER_VALUE[value], DENOMINATIONS)


def two_card_pdf(total: int) -> Fraction:
    """Probability that a two-card hand has the given total."""
    if total not in HAND_TOTALS:
        raise ValueError(f"hand total out of range 0-9: {total!r}")
    return Fraction(25 if total == 0 else 16, 169)


def win_indicator(margin: int) -> int:
    """1 when the margin favors the bettor, else 0."""
    return 1 if margin > 0 else 0


def tie_indicator(margin: int) -> int:
    """1 when the hands tie, else 0."""
    return 1 if margin == 0 else 0


def sign(margin: int) -> int:
    """Profit per unit stake of an even-money bet settled on the margin."""
    return (margin > 0) - (margin < 0)
