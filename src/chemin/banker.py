"""Banker's conditional expectations and best-response tables.

When neither hand is a natural, Banker learns exactly one thing about
Player before acting: the value of Player's third card, or the fact that
Player stood.  Given Banker's own two-card total (0-7; totals 8-9 are
naturals and end the coup) and that observation, his stand and draw
expectations are conditional means over Player's hidden initial total.
The conditioning depends on Player's rule at 5: a non-tireur draws only
on 0-4 and stands on 5-7, a tireur draws on 0-5 and stands on 6-7.

A best-response table records, cell by cell, whether the draw
expectation strictly exceeds the stand expectation.  Besides the two
pure-rule tables, this module builds the posterior-weighted response to
a mixed rule, the unweighted-average rule Dormoy used in 1872, and the
historically flawed table variants of Dormoy and Badoureau.

All of it rests on one exact kernel, built on first use.  Every coup is
enumerated once with integer weights over 13**6, taken from
``cards.DENOMINATIONS_PER_VALUE``, into Player-margin histograms per
Banker cell and decision.  Each cell's per-rule sums, and with them both
expectations, follow from those.  A pure or Dormoy table is then 88
integer comparisons.  A mixed table is a lookup: Banker's reply to a mix
changes only where some cell's gain changes sign, so the tables at those
points and on the gaps between them are built once and cached, and
``mixed_best_response`` bisects into them.  ``outcome_histograms`` adds
up a table's 88 cells for ``five`` and ``coup``.  That sum is cached per
distinct table, for at most 16 tables, so the statistics of one table
share one sum.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from functools import cache, lru_cache
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .cards import CARD_VALUES, DENOMINATIONS, DENOMINATIONS_PER_VALUE, HAND_TOTALS
from .rational import as_rational

#: Observation marker for "Player stood" (there is no third card to see).
STOOD: Optional[int] = None

#: A Banker decision point: (own two-card total, observation).  The
#: observation is a card value 0-9 or STOOD.
Cell = tuple[int, Optional[int]]

BANKER_TOTALS = range(8)

#: Column order used everywhere a table is laid out row-major.
COLUMNS: tuple[Optional[int], ...] = (*CARD_VALUES, STOOD)


class PlayerRule(IntEnum):
    """Player's pure rule on a two-card total of 5."""

    NON_TIREUR = 0  # stands at 5
    TIREUR = 1  # draws at 5

    @property
    def draw_totals(self) -> range:
        """Two-card totals on which this rule draws a third card."""
        return range(0, 5 + self)

    @property
    def stand_totals(self) -> range:
        """Non-natural two-card totals on which this rule stands."""
        return range(5 + self, 8)


def _column_index(observed: Optional[int]) -> int:
    if observed is STOOD:
        return 10
    if observed in CARD_VALUES:
        return observed
    raise ValueError(f"observation must be a card value 0-9 or STOOD: {observed!r}")


def _check_cell(banker_total: int, observed: Optional[int]) -> None:
    if banker_total not in BANKER_TOTALS:
        raise ValueError(f"Banker decision totals are 0-7: {banker_total!r}")
    _column_index(observed)


@dataclass(frozen=True)
class DecisionTable:
    """An 8x11 stand/draw grid.

    Rows are Banker two-card totals 0-7; columns are Player's third card
    0-9 followed by the stood column.  True means draw.
    """

    rows: tuple[tuple[bool, ...], ...]

    def __post_init__(self) -> None:
        if len(self.rows) != len(BANKER_TOTALS) or any(
            len(row) != len(COLUMNS) for row in self.rows
        ):
            raise ValueError("a decision table is 8 rows of 11 entries")
        if any(not isinstance(entry, bool) for row in self.rows for entry in row):
            raise ValueError("decision table entries must be booleans")

    @classmethod
    def from_grid(cls, grid: Iterable[Iterable[int]]) -> "DecisionTable":
        """Build from an 8x11 grid of 0/1 (or boolean) entries.

        Anything else, such as "0", 2 or 0.5, is refused rather than read
        by its truth value.
        """
        rows = tuple(tuple(row) for row in grid)
        if any(not isinstance(entry, int) or entry not in (0, 1) for row in rows for entry in row):
            raise ValueError("decision table entries must be 0/1 integers or booleans")
        return cls(tuple(tuple(map(bool, row)) for row in rows))

    def to_grid(self) -> list[list[int]]:
        """Row-major 0/1 grid in the fixed column order 0-9, stood."""
        return [[int(entry) for entry in row] for row in self.rows]

    def draws(self, banker_total: int, observed: Optional[int]) -> bool:
        _check_cell(banker_total, observed)
        return self.rows[banker_total][_column_index(observed)]

    def flip(self, cells: Iterable[Cell]) -> "DecisionTable":
        """A copy with the given cells toggled."""
        targets = set()
        for banker_total, observed in cells:
            _check_cell(banker_total, observed)
            targets.add((banker_total, _column_index(observed)))
        return DecisionTable(
            tuple(
                tuple(entry ^ ((j, c) in targets) for c, entry in enumerate(row))
                for j, row in enumerate(self.rows)
            )
        )

    def differing_cells(self, other: "DecisionTable") -> frozenset[Cell]:
        """Cells at which the two tables disagree."""
        pairs = zip(self.rows, other.rows)
        return _cells_where((a != b for a, b in zip(mine, theirs)) for mine, theirs in pairs)


def _cells_where(grid: Iterable[Iterable[bool]]) -> frozenset[Cell]:
    """Cells whose entry in an 8x11 grid, laid out like a table, is true."""
    return frozenset((j, COLUMNS[c]) for j, row in enumerate(grid) for c, entry in enumerate(row) if entry)


#: Player's margin, his final total minus Banker's, runs over -9..9.  A
#: margin histogram holds one integer weight per margin, at margin + 9.
MARGINS = range(-9, 10)
Histogram = tuple[int, ...]
#: Histograms of a set of coups split by what Player does on a two-card
#: 5: not holding 5 (naturals included), standing on 5, drawing on 5.
Parts = tuple[Histogram, Histogram, Histogram]


class CellSums(NamedTuple):
    """One cell under one Player rule: the joint weight of the coups that
    reach it, and Banker's signed outcome summed over them if he stands
    and if he draws.  Each expectation is its sum over ``weight``."""

    weight: int
    stand: int
    draw: int

    @property
    def gain(self) -> int:
        """Banker's joint gain from drawing instead of standing."""
        return self.draw - self.stand


def win_tie_loss(*histograms: Histogram) -> tuple[int, int, int]:
    """Player's (win, tie, loss) weights, summed over the histograms."""
    merged = [sum(weights) for weights in zip(*histograms)]
    return sum(merged[10:]), merged[9], sum(merged[:9])


@cache
def _coup_weights() -> tuple[Parts, tuple[tuple[tuple[Parts, Parts], ...], ...]]:
    """Every coup's margin and integer weight, enumerated once.

    A card value weighs its number of denominations and a card that is
    never dealt weighs all 13, so all coups together weigh 13**6.
    Returns ``(settled, cells)``: ``settled`` holds the coups a natural
    ends, and ``cells[j][c]`` the (stand, draw) pair of Parts for the
    coups that reach Banker total ``j`` with observation ``COLUMNS[c]``.
    """
    card, deck = DENOMINATIONS_PER_VALUE, DENOMINATIONS
    two = [sum(card[a] * card[(total - a) % 10] for a in CARD_VALUES) for total in HAND_TOTALS]

    # Equal histograms (a third of them are all zero) share one tuple.
    interned: dict[Histogram, Histogram] = {}

    def parts(entries) -> Parts:
        grid = [[0] * len(MARGINS) for _ in range(3)]
        for part, margin, weight in entries:
            grid[part][margin + 9] += weight
        return tuple(interned.setdefault(histogram, histogram) for histogram in map(tuple, grid))

    settled = parts(
        (0, player - banker, two[player] * two[banker] * deck * deck)
        for player in HAND_TOTALS
        for banker in HAND_TOTALS
        if max(player, banker) >= 8
    )
    cells = []
    for j in BANKER_TOTALS:
        row = []
        for observed in COLUMNS:
            # Player hands reaching the cell: (part, final total, weight).
            if observed is STOOD:
                hands = [(1 if i == 5 else 0, i, two[i] * two[j] * deck)
                         for i in PlayerRule.NON_TIREUR.stand_totals]
            else:
                hands = [(2 if i == 5 else 0, (i + observed) % 10, two[i] * two[j] * card[observed])
                         for i in PlayerRule.TIREUR.draw_totals]
            stand = parts((part, final - j, weight * deck) for part, final, weight in hands)
            draw = parts(
                (part, final - (j + last) % 10, weight * card[last])
                for part, final, weight in hands
                for last in CARD_VALUES
            )
            row.append((stand, draw))
        cells.append(tuple(row))
    return settled, tuple(cells)


@cache
def _cell_sums() -> tuple[tuple[tuple[CellSums, CellSums], ...], ...]:
    """(non-tireur, tireur) sums per cell, indexed like a table's rows.

    A non-tireur reaches a cell through parts 0 and 1 (stood on 5), a
    tireur through parts 0 and 2 (drew on 5).  Banker scores -sign(margin).
    """

    def sums(stand: Parts, draw: Parts, rule: PlayerRule) -> CellSums:
        (win, tie, loss), (draw_win, _, draw_loss) = (
            win_tie_loss(parts[0], parts[1 + rule]) for parts in (stand, draw)
        )
        return CellSums(win + tie + loss, loss - win, draw_loss - draw_win)

    return tuple(
        tuple(tuple(sums(stand, draw, rule) for rule in PlayerRule) for stand, draw in row)
        for row in _coup_weights()[1]
    )


@lru_cache(maxsize=16)
def outcome_histograms(table: DecisionTable) -> Parts:
    """Margin histograms over 13**6 of every coup played against the table.

    The standing and drawing parts each hold every coup where Player has
    a two-card 5 and Banker no natural, so a Player who draws on 5 with
    probability p weighs them by 1 - p and p.  Equal tables share one
    cached result; the last 16 distinct tables are kept.
    """
    settled, cells = _coup_weights()
    picked = [settled]
    for j, row in enumerate(table.rows):
        picked.extend(cells[j][c][draws] for c, draws in enumerate(row))
    return tuple(tuple(map(sum, zip(*part))) for part in zip(*picked))


def _table(decide: Callable[[CellSums, CellSums], bool]) -> DecisionTable:
    """The table that draws where ``decide(non-tireur sums, tireur sums)``."""
    return DecisionTable(tuple(tuple(decide(*cell) for cell in row) for row in _cell_sums()))


def _sums(assumed: PlayerRule, banker_total: int, observed: Optional[int]) -> CellSums:
    _check_cell(banker_total, observed)
    return _cell_sums()[banker_total][_column_index(observed)][assumed]


def banker_stand_ev(assumed: PlayerRule, banker_total: int, observed: Optional[int]) -> Fraction:
    """Banker's conditional expected profit if he stands."""
    sums = _sums(assumed, banker_total, observed)
    return Fraction(sums.stand, sums.weight)


def banker_draw_ev(assumed: PlayerRule, banker_total: int, observed: Optional[int]) -> Fraction:
    """Banker's conditional expected profit if he draws a third card."""
    sums = _sums(assumed, banker_total, observed)
    return Fraction(sums.draw, sums.weight)


@cache
def best_response_table(assumed: PlayerRule) -> DecisionTable:
    """Banker's best response to one Player pure rule.

    A cell says draw iff drawing beats standing strictly; an exact tie
    would be recorded as stand.  No tie occurs for either rule (see
    ``equal_ev_cells``).
    """
    return _table(lambda *by_rule: by_rule[assumed].gain > 0)


def equal_ev_cells(assumed: PlayerRule) -> frozenset[Cell]:
    """Cells where standing and drawing have exactly equal expectation."""
    return _cells_where((cell[assumed].gain == 0 for cell in row) for row in _cell_sums())


class _Segments(NamedTuple):
    """Banker's reply to every mix, piece by piece over [0, 1].

    ``points`` is sorted and holds 0, 1 and every p in between where some
    cell's draw gain changes sign.  ``at_point[i]`` is the table at
    ``points[i]``, and ``in_gap[i]`` the one on the open gap from
    ``points[i]`` to ``points[i + 1]``.
    """

    points: tuple[Fraction, ...]
    at_point: tuple[DecisionTable, ...]
    in_gap: tuple[DecisionTable, ...]


def _segments(gains: Sequence[Sequence[tuple[int, int]]]) -> _Segments:
    """The segments for an 8x11 grid of (non-tireur, tireur) gain pairs.

    At p = n/q a cell draws iff (q-n)*gain_0 + n*gain_1 > 0.  That is
    linear in p, so it changes sign only at gain_0 / (gain_0 - gain_1),
    and one table holds on each open gap between such points.
    """
    roots = {Fraction(g0, g0 - g1) for row in gains for g0, g1 in row if g0 != g1}
    points = tuple(sorted({Fraction(0), Fraction(1), *(p for p in roots if 0 < p < 1)}))

    def table(p: Fraction) -> DecisionTable:
        n, q = p.numerator, p.denominator
        return DecisionTable(tuple(tuple((q - n) * g0 + n * g1 > 0 for g0, g1 in row) for row in gains))

    gaps = zip(points, points[1:])
    return _Segments(points, tuple(map(table, points)), tuple(table((a + b) / 2) for a, b in gaps))


@cache
def _response_segments() -> _Segments:
    """The segments of Banker's reply to a mix, from the kernel's gains."""
    return _segments(
        [[(non_tireur.gain, tireur.gain) for non_tireur, tireur in row] for row in _cell_sums()]
    )


def mixed_best_response(draw_at_five: Fraction | int | str) -> DecisionTable:
    """Banker's best response to a Player who draws at 5 with this probability.

    Conditional on what Banker observed, each pure rule's expectations are
    weighted by the posterior probability that Player follows it: the
    prior (1-p, p) times the chance of the observed event class under the
    rule (a non-tireur draws on 89/137 of non-natural totals and stands on
    48/137; a tireur on 105/137 and 32/137).  In joint weights, with
    p = n/q, a cell draws iff (q-n)*gain(non-tireur) + n*gain(tireur) > 0;
    an exact 0 stands.  The reply changes only at 1/16, 71/176, 9/11 and
    107/112, so each call is one bisect into the cached segments, and every
    p on one open gap gets the same table object.  Probabilities 0 and 1
    collapse to the pure best responses; only those two and 1/2 are
    anchored in the historical literature, the rest is an interpolation.
    The 1/2 table is Banker's mandatory rule in modern punto banco.
    """
    draw_probability = as_rational(draw_at_five)
    if not 0 <= draw_probability <= 1:
        raise ValueError(f"draw-at-five probability must be in [0, 1]: {draw_probability}")
    points, at_point, in_gap = _response_segments()
    i = bisect_left(points, draw_probability)
    return at_point[i] if points[i] == draw_probability else in_gap[i - 1]


def dormoy_unweighted_response() -> DecisionTable:
    """Banker response from Dormoy's 1872 averaging rule.

    Compares the plain means of the two rules' conditional expectations,
    ignoring how likely each rule is to have produced the observation.
    Methodologically naive, though it happens to yield the same table as
    ``mixed_best_response(1/2)``.
    """
    return _table(
        lambda non_tireur, tireur: non_tireur.gain * tireur.weight + tireur.gain * non_tireur.weight > 0
    )


@dataclass(frozen=True)
class HistoricalVariant:
    """A named set of table deviations from a 19th-century analysis.

    The flip sets hold the cells whose stand/draw entries the author got
    wrong, relative to the correct best-response tables.  Near-tie cells
    are the ones the author declared indifferent; those are annotations
    only (the table value stays correct), flagged when reporting.
    """

    name: str
    flips_vs_non_tireur: frozenset[Cell] = frozenset()
    flips_vs_tireur: frozenset[Cell] = frozenset()
    near_ties_vs_non_tireur: frozenset[Cell] = frozenset()

    def flips_for(self, assumed: PlayerRule) -> frozenset[Cell]:
        return self.flips_vs_tireur if assumed else self.flips_vs_non_tireur


CORRECT = HistoricalVariant("correct")

#: Dormoy (1872): one slip per table.  Against a non-tireur he called the
#: (5, 4) cell indifferent, an artifact of rounding to two decimals (the
#: stand and draw expectations are -299/1157 and -300/1157, both -0.26);
#: against a tireur he had the (6, 6) entry wrong.
DORMOY = HistoricalVariant(
    "dormoy",
    flips_vs_tireur=frozenset({(6, 6)}),
    near_ties_vs_non_tireur=frozenset({(5, 4)}),
)

#: Badoureau (1881): the non-tireur table exactly right, three errors in
#: the tireur table.
BADOUREAU = HistoricalVariant(
    "badoureau",
    flips_vs_tireur=frozenset({(4, 1), (4, 9), (6, 6)}),
)

VARIANTS: dict[str, HistoricalVariant] = {
    variant.name: variant for variant in (CORRECT, DORMOY, BADOUREAU)
}


def historical_table(variant: HistoricalVariant, assumed: PlayerRule) -> DecisionTable:
    """The table the variant's author used against one assumed rule."""
    return best_response_table(assumed).flip(variant.flips_for(assumed))
