"""Player's prospects when holding a two-card total of 5.

Bertrand's four problems: Player holds 5 (Banker unaware of it), stands
or draws, and Banker best-responds to an assumed Player rule.  All
statistics here are conditional on Banker not holding a natural, so that
Banker actually gets to consult his table; a Banker natural would settle
the coup before any decision.

Which table Banker plays is entirely the caller's choice, so the same
functions evaluate the correct tables, the mixed-rule table, and the
flawed historical variants.  Each statistic reads the standing-on-5 or
drawing-on-5 part of ``banker.outcome_histograms``: integer weights per
final margin, summed over the table's cells once per distinct table and
cached for at most 16 tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction

from .banker import DecisionTable, outcome_histograms, win_tie_loss
from .rational import as_rational


class FiveAction(IntEnum):
    """Player's decision on a two-card total of exactly 5."""

    STAND = 0
    DRAW = 1


@dataclass(frozen=True)
class StatTriple:
    """Exact (win, tie, expectation) for Player, per unit stake.

    The expectation must equal 2*win + tie - 1; construction fails
    otherwise.  A producer that supplies (win - loss) / total therefore
    has its outcome weights checked to add up to its total.  ``chances``
    counts a tie as half a win, the quantity Badoureau reported in 1881.
    """

    win: Fraction
    tie: Fraction
    expectation: Fraction

    def __post_init__(self) -> None:
        if not (0 <= self.win and 0 <= self.tie and self.win + self.tie <= 1):
            raise ValueError("win/tie probabilities must be nonnegative and sum to at most 1")
        if self.expectation != 2 * self.win + self.tie - 1:
            raise ValueError("expectation inconsistent with win/tie probabilities")

    @classmethod
    def from_weights(cls, win: int, tie: int, loss: int, total: int) -> "StatTriple":
        """The triple of integer outcome weights over ``total``; the
        expectation is ``(win - loss) / total``."""
        return cls(Fraction(win, total), Fraction(tie, total), Fraction(win - loss, total))

    @property
    def loss(self) -> Fraction:
        return 1 - self.win - self.tie

    @property
    def chances(self) -> Fraction:
        return self.win + Fraction(self.tie, 2)


def five_stats(action: FiveAction, table: DecisionTable) -> StatTriple:
    """W, T, E for one draw-at-five scenario against the given table."""
    histogram = outcome_histograms(table)[1 + action]
    return StatTriple.from_weights(*win_tie_loss(histogram), sum(histogram))


def naive_average_ev(
    ev_assumed_non_tireur: Fraction, ev_assumed_tireur: Fraction
) -> Fraction:
    """Plain mean of the two assumption-specific expectations.

    The historically tempting but wrong way to value a half-half mixed
    rule: it ignores that Banker's table, and with it the expectation,
    must be recomputed against the mixture.  Kept as the quantity
    Badoureau effectively used.
    """
    return Fraction(as_rational(ev_assumed_non_tireur) + as_rational(ev_assumed_tireur), 2)
