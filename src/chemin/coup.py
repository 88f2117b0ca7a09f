"""Whole-coup analysis and the two 2x2 games it induces.

Conditioning on Player holding a 5, the way the 19th-century authors
framed the draw-at-five question, throws away most coups and yields a
statistic of dubious operational meaning.  The reformulated question
scores an arbitrary coup under (a) Player's action when he does hold 5
and (b) the rule Banker assumes and best-responds to.  This module
scores full coups exactly, naturals included, by weighing the three
integer parts of ``banker.outcome_histograms`` (cached per distinct
table, for at most 16 tables) with Player's draw-at-5 probability.  It
builds both the conditional and the whole-coup 2x2 payoff matrices, and
solves 2x2 zero-sum games in exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .banker import DecisionTable, PlayerRule, best_response_table, outcome_histograms, win_tie_loss
from .cards import DENOMINATIONS
from .five import FiveAction, StatTriple, five_stats
from .rational import as_rational

Matrix2x2 = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]


@dataclass(frozen=True)
class CoupPolicy:
    """How a coup plays out when no natural settles it immediately.

    Player's mandatory rule is fixed - draw on two-card totals 0-4, stand
    on 6-7 - so the only freedom is the probability of drawing at 5:
    0 plays non-tireur, 1 plays tireur, anything between mixes the two
    branches.  The Banker table applies whenever Banker gets to act.
    """

    draw_at_five: Fraction
    banker_table: DecisionTable

    def __post_init__(self) -> None:
        object.__setattr__(self, "draw_at_five", as_rational(self.draw_at_five))
        if not 0 <= self.draw_at_five <= 1:
            raise ValueError(
                f"draw-at-five probability must be in [0, 1]: {self.draw_at_five}"
            )

    @classmethod
    def standing(cls, table: DecisionTable) -> "CoupPolicy":
        return cls(Fraction(0), table)

    @classmethod
    def drawing(cls, table: DecisionTable) -> "CoupPolicy":
        return cls(Fraction(1), table)

    @classmethod
    def for_action(cls, action: FiveAction, table: DecisionTable) -> "CoupPolicy":
        return cls(Fraction(int(action)), table)


def coup_stats(policy: CoupPolicy) -> StatTriple:
    """Exact W, T, E for a full coup under the policy.

    The three parts of the table's outcome histograms are blended with
    Player's draw-at-5 probability n/q: weight q on the coups where he
    does not hold 5, q - n on standing and n on drawing.  The triple is
    built over q * 13**6, so its construction check confirms that the
    parts cover every coup exactly once.
    """
    n, q = policy.draw_at_five.numerator, policy.draw_at_five.denominator
    rest, standing, drawing = map(win_tie_loss, outcome_histograms(policy.banker_table))
    win, tie, loss = (
        q * other + (q - n) * stood + n * drew for other, stood, drew in zip(rest, standing, drawing)
    )
    return StatTriple.from_weights(win, tie, loss, q * DENOMINATIONS**6)


def five_matrix() -> Matrix2x2:
    """Payoff matrix of the conditional-on-5 game.

    Rows are Player's action at 5 (stand, draw); columns are the rule
    Banker assumes (non-tireur, tireur); entries are Player's expected
    profit on coups where he holds 5 and Banker has no natural.
    """
    return _matrix(lambda action, table: five_stats(action, table).expectation)


def bar_matrix() -> Matrix2x2:
    """Payoff matrix of the whole-coup game (no conditioning on a 5).

    Same row/column conventions as ``five_matrix``; entries are Player's
    expected profit on an arbitrary coup.  Unlike the conditional game,
    this one could be played repeatedly without Banker learning anything
    he is not already assumed to know, so its equilibrium is meaningful.
    """
    return _matrix(lambda action, table: coup_stats(CoupPolicy.for_action(action, table)).expectation)


def _matrix(entry: Callable[[FiveAction, DecisionTable], Fraction]) -> Matrix2x2:
    """Rows: Player's action at 5; columns: Banker's best response to each rule."""
    return tuple(
        tuple(entry(action, best_response_table(assumed)) for assumed in PlayerRule)
        for action in FiveAction
    )


@dataclass(frozen=True)
class TwoByTwoGame:
    """Exact solution of a 2x2 zero-sum game, row player maximizing.

    ``kind`` is "saddle" when a pure-strategy equilibrium exists (maximin
    equals minimax over pure strategies) and the mixes are then one-hot;
    otherwise "mixed", with both mixes interior and each side's mix
    making the opponent exactly indifferent between his two options.
    Construction re-verifies whichever identities apply.
    """

    payoff: Matrix2x2
    value: Fraction
    row_mix: tuple[Fraction, Fraction]
    col_mix: tuple[Fraction, Fraction]
    kind: str

    def __post_init__(self) -> None:
        for mix in (self.row_mix, self.col_mix):
            if sum(mix) != 1 or any(weight < 0 for weight in mix):
                raise ValueError(f"strategy mix must be a probability pair: {mix}")
        if self.kind == "mixed":
            for col in range(2):
                if self._row_payoff(col) != self.value:
                    raise ValueError("row mix does not make the column player indifferent")
            for row in range(2):
                if self._col_payoff(row) != self.value:
                    raise ValueError("column mix does not make the row player indifferent")
        elif self.kind == "saddle":
            row = max(range(2), key=lambda i: self.row_mix[i])
            col = max(range(2), key=lambda j: self.col_mix[j])
            if self.payoff[row][col] != self.value:
                raise ValueError("saddle value does not match the saddle cell")
        else:
            raise ValueError(f"kind must be 'saddle' or 'mixed': {self.kind!r}")

    def _row_payoff(self, col: int) -> Fraction:
        return self.row_mix[0] * self.payoff[0][col] + self.row_mix[1] * self.payoff[1][col]

    def _col_payoff(self, row: int) -> Fraction:
        return self.col_mix[0] * self.payoff[row][0] + self.col_mix[1] * self.payoff[row][1]


def solve_2x2(payoff) -> TwoByTwoGame:
    """Solve a 2x2 zero-sum game exactly.

    Returns the saddle point whenever pure maximin equals pure minimax.
    Otherwise the unique equalizing mixture applies: for payoff
    ((a, b), (c, d)) the value is (ad - bc)/(a - b - c + d), and a game
    without a saddle point cannot have a zero denominator.
    """
    (a, b), (c, d) = ((as_rational(entry) for entry in row) for row in payoff)
    grid: Matrix2x2 = ((a, b), (c, d))
    one, zero = Fraction(1), Fraction(0)

    row_mins = (min(a, b), min(c, d))
    col_maxs = (max(a, c), max(b, d))
    maximin, minimax = max(row_mins), min(col_maxs)
    if maximin == minimax:
        row = row_mins.index(maximin)
        col = col_maxs.index(minimax)
        return TwoByTwoGame(
            payoff=grid,
            value=maximin,
            row_mix=(one, zero) if row == 0 else (zero, one),
            col_mix=(one, zero) if col == 0 else (zero, one),
            kind="saddle",
        )

    denominator = a - b - c + d
    if denominator == 0:
        raise ArithmeticError(
            "no saddle point yet zero equalizer denominator; "
            "impossible for a 2x2 zero-sum game"
        )
    return TwoByTwoGame(
        payoff=grid,
        value=(a * d - b * c) / denominator,
        row_mix=((d - c) / denominator, (a - b) / denominator),
        col_mix=((d - b) / denominator, (a - c) / denominator),
        kind="mixed",
    )
