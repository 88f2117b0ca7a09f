"""Card values, hand totals, and the weight of each card value.

Cards are drawn with replacement (equivalently, from an infinite shoe),
so every dealt card value is i.i.d., value v with probability
``DENOMINATIONS_PER_VALUE[v] / DENOMINATIONS``.  Aces count 1, pip cards
their face value, and 10/J/Q/K all count 0; a hand's total is the value
sum modulo 10.
"""

from __future__ import annotations

#: How many of the 13 denominations map to each card value 0-9.
DENOMINATIONS_PER_VALUE = (4, 1, 1, 1, 1, 1, 1, 1, 1, 1)

#: Denominations in all: the weight of a card whose value does not matter.
DENOMINATIONS = 13

CARD_VALUES = range(10)
HAND_TOTALS = range(10)
