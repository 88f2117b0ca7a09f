"""Audits of the 1872, 1881 and 1888 analyses against the exact engine.

Each audit recomputes the draw-at-five problems with ``five_stats`` and
returns an ``Audit``: a header, one row of text cells per problem, and
notes.  Its values are always rendered at six decimals or as exact
fractions, the forms the published figures are compared in, whatever
precision the caller prints other output at.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .banker import BADOUREAU, CORRECT, PlayerRule, banker_draw_ev, banker_stand_ev
from .banker import best_response_table, historical_table
from .five import FiveAction, StatTriple, five_stats
from .rational import as_rational, render_decimal, render_exact
from .reference import BADOUREAU_FRACTIONS, BERTRAND_DECIMALS, DORMOY_DECIMALS

#: Largest |rendered - reference| accepted when auditing six-decimal
#: values: one unit in the last place, since the historical renderings
#: mix truncation with rounding.
SIX_DECIMAL_TOLERANCE = Fraction(1, 10**6)


class Audit(NamedTuple):
    """One audit as data: column names, rows of text cells, notes."""

    header: list[str]
    rows: list[list[str]]
    notes: list[str]


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


def _exact_five(action: int, assumed: int) -> StatTriple:
    """The exact statistics of one problem, recomputed on the correct table."""
    return five_stats(FiveAction(action), best_response_table(PlayerRule(assumed)))


def _names(action: int, assumed: int) -> list[str]:
    """A problem's action and assumed rule, spelled as the CLI options are."""
    return [FiveAction(action).name.lower(), PlayerRule(assumed).name.lower().replace("_", "-")]


def _stand_vs_draw(banker_total: int, observed: int) -> str:
    """Banker's exact stand and draw expectations at one cell against a
    non-tireur, each with its six-decimal rendering."""
    stand_ev = banker_stand_ev(PlayerRule.NON_TIREUR, banker_total, observed)
    draw_ev = banker_draw_ev(PlayerRule.NON_TIREUR, banker_total, observed)
    return (
        f"stand {render_exact(stand_ev)} ({render_decimal(stand_ev, 6)}) vs "
        f"draw {render_exact(draw_ev)} ({render_decimal(draw_ev, 6)})"
    )


def near_tie_note(banker_total: int, observed: int) -> str:
    """Why a cell a historical table called indifferent is not a tie."""
    rounded = render_decimal(banker_stand_ev(PlayerRule.NON_TIREUR, banker_total, observed), 2)
    return (
        f"near tie flagged at (total {banker_total}, third card {observed}): "
        f"{_stand_vs_draw(banker_total, observed)}; "
        f"both round to {rounded} at two decimals, "
        "which is why this cell was once called indifferent."
    )


def bertrand() -> Audit:
    header = [
        "action", "assume", "table",
        "W", "T", "E",
        "W (1888)", "T (1888)", "E (1888)",
        "match",
    ]
    rows = [
        [
            *_names(scenario.action, scenario.assumed),
            "badoureau" if scenario.uses_badoureau_table else "correct",
            *scenario.rendered,
            *(render_decimal(value, 6) for value in scenario.reference),
            "yes" if scenario.within_tolerance else "no",
        ]
        for scenario in bertrand_report()
    ]
    correct = _exact_five(1, 1)
    notes = [
        "The (draw, tireur) row matches only with Badoureau's erroneous table; "
        "the correct table gives "
        f"W={render_decimal(correct.win, 6)} T={render_decimal(correct.tie, 6)} "
        f"E={render_decimal(correct.expectation, 6)}, nowhere near the 1888 figures.",
    ]
    return Audit(header, rows, notes)


def badoureau() -> Audit:
    header = ["action", "assume", "W", "T", "E", "W (1881)", "T (1881)", "E (1881)", "match"]
    rows = []
    for key, his in BADOUREAU_FRACTIONS.items():
        stats = _exact_five(*key)
        ours = (stats.win, stats.tie, stats.expectation)
        rows.append(
            [
                *_names(*key),
                *(render_exact(value) for value in ours),
                *(render_exact(value) for value in his),
                "yes" if ours == his else "no",
            ]
        )
    notes = [
        "The (draw, tireur) fractions reflect his three table errors at "
        "(4,1), (4,9) and (6,6); flipping those cells reproduces his numbers exactly.",
    ]
    return Audit(header, rows, notes)


def dormoy() -> Audit:
    header = ["action", "assume", "E (1872)", "correct rounding", "E exact", "E decimal"]
    rows = []
    for key, (published, correct_rounding) in DORMOY_DECIMALS.items():
        ours = _exact_five(*key).expectation
        rows.append(
            [*_names(*key), published, correct_rounding, render_exact(ours), render_decimal(ours, 6)]
        )
    notes = [
        "All three published expectations are computational slips; the method was sound.",
        "His non-tireur table called (total 5, third card 4) indifferent: the exact "
        f"expectations are {_stand_vs_draw(5, 4)}, separated only in "
        "the third decimal.  His tireur table had one error, at (6,6).",
    ]
    return Audit(header, rows, notes)


#: The audits by the name ``compare --against`` takes.
AUDITS = {"bertrand": bertrand, "badoureau": badoureau, "dormoy": dormoy}
