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
from typing import Callable

from .banker import BADOUREAU, CORRECT, MARGINS, DecisionTable, PlayerRule, historical_table
from .banker import outcome_histograms, win_tie_loss
from .rational import as_rational, render_decimal
from .reference import BERTRAND_DECIMALS

#: Largest |rendered - reference| accepted when auditing six-decimal
#: values: one unit in the last place, since the historical renderings
#: mix truncation with rounding.
SIX_DECIMAL_TOLERANCE = Fraction(1, 10**6)


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


def five_functional(
    action: FiveAction,
    table: DecisionTable,
    outcome_value: Callable[[int], int | Fraction],
) -> Fraction:
    """Mean of ``outcome_value(final margin)`` for a Player two-card 5.

    The margin is Player's final total minus Banker's, and the mean is
    conditional on Banker not holding a natural.  Plugging in the win or
    tie indicator gives the respective probability; the sign function
    gives Player's expected profit.
    """
    histogram = outcome_histograms(table)[1 + action]
    total = sum(outcome_value(margin) * weight for margin, weight in zip(MARGINS, histogram) if weight)
    return Fraction(total, sum(histogram))


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


@dataclass(frozen=True)
class FiveScenario:
    """One of the four problems next to Bertrand's published decimals."""

    action: FiveAction
    assumed: PlayerRule
    uses_badoureau_table: bool
    stats: StatTriple
    rendered: tuple[str, str, str]
    reference: tuple[Fraction, Fraction, Fraction]

    @property
    def within_tolerance(self) -> bool:
        """True when all three renderings sit within one unit in the
        sixth decimal of the published values."""
        return all(
            abs(as_rational(ours) - published) <= SIX_DECIMAL_TOLERANCE
            for ours, published in zip(self.rendered, self.reference)
        )


def bertrand_report() -> list[FiveScenario]:
    """Audit the 1888 six-decimal figures scenario by scenario.

    The first three scenarios use the correct tables.  The (draw, tireur)
    scenario is evaluated with Badoureau's flawed table instead, because
    that is the only table under which Bertrand's published numbers for
    it can be reproduced; callers should label it accordingly.
    """
    scenarios = []
    for action in FiveAction:
        for assumed in PlayerRule:
            inject_errors = action == FiveAction.DRAW and assumed == PlayerRule.TIREUR
            variant = BADOUREAU if inject_errors else CORRECT
            stats = five_stats(action, historical_table(variant, assumed))
            rendered = tuple(
                render_decimal(value, 6)
                for value in (stats.win, stats.tie, stats.expectation)
            )
            scenarios.append(
                FiveScenario(
                    action=action,
                    assumed=assumed,
                    uses_badoureau_table=inject_errors,
                    stats=stats,
                    rendered=rendered,
                    reference=BERTRAND_DECIMALS[(int(action), int(assumed))],
                )
            )
    return scenarios
