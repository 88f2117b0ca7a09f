"""Rendering and parsing of tables, statistics, matrices, and solutions.

Three output shapes are supported everywhere: human-oriented Markdown,
flat CSV (comma-separated, header row, LF line endings), and a
"structured" JSON object per command in which every exact value appears
as a ``{"num": ..., "den": ...}`` pair, optionally alongside a decimal
rendering.  Table CSV and table JSON both round-trip back into identical
``DecisionTable`` values.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from typing import Optional, Sequence

from .banker import BANKER_TOTALS, DecisionTable
from .coup import Matrix2x2, TwoByTwoGame
from .five import StatTriple
from .rational import render_decimal, render_exact

#: Machine-readable label of the "Player stood" column.
STOOD_LABEL = "stand"

COLUMN_LABELS: tuple[str, ...] = (*(str(value) for value in range(10)), STOOD_LABEL)

TABLE_CSV_HEADER = ("total", *COLUMN_LABELS)

STAT_LABELS = ("W", "T", "E", "L", "C")


def render_fraction(value: Fraction, exact: bool = True, precision: int = 6) -> str:
    """Either canonical "p/q" text or a fixed-point decimal rendering."""
    return render_exact(value) if exact else render_decimal(value, precision)


def fraction_object(value: Fraction, precision: Optional[int] = None) -> dict:
    """The structured-JSON form of one exact value."""
    obj = {"num": value.numerator, "den": value.denominator}
    if precision is not None:
        obj["decimal"] = render_decimal(value, precision)
    return obj


def fraction_from_object(obj: dict) -> Fraction:
    return Fraction(obj["num"], obj["den"])


# ---------------------------------------------------------------------------
# Decision tables


def table_to_csv(table: DecisionTable) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(TABLE_CSV_HEADER)
    for total, row in enumerate(table.to_grid()):
        writer.writerow([total, *row])
    return out.getvalue()


def table_from_csv(text: str) -> DecisionTable:
    """Parse table CSV back; rejects anything but the exact emitted shape."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != TABLE_CSV_HEADER:
        raise ValueError(f"expected header {','.join(TABLE_CSV_HEADER)!r}")
    if len(rows) != 1 + len(BANKER_TOTALS):
        raise ValueError(f"expected {len(BANKER_TOTALS)} table rows, got {len(rows) - 1}")
    grid = []
    for total, row in enumerate(rows[1:]):
        if len(row) != len(TABLE_CSV_HEADER) or row[0] != str(total):
            raise ValueError(f"malformed table row: {row!r}")
        if any(cell not in ("0", "1") for cell in row[1:]):
            raise ValueError(f"table entries must be 0 or 1: {row!r}")
        grid.append([int(cell) for cell in row[1:]])
    return DecisionTable.from_grid(grid)


def table_to_markdown(table: DecisionTable) -> str:
    lines = [
        "| total | " + " | ".join(COLUMN_LABELS) + " |",
        "|" + "---|" * (1 + len(COLUMN_LABELS)),
    ]
    for total, row in enumerate(table.to_grid()):
        lines.append(f"| {total} | " + " | ".join(str(entry) for entry in row) + " |")
    return "\n".join(lines) + "\n"


def table_to_structured(table: DecisionTable, **meta) -> dict:
    return {
        **meta,
        "columns": list(COLUMN_LABELS),
        "rows": table.to_grid(),
    }


def table_from_structured(obj: dict) -> DecisionTable:
    if tuple(obj["columns"]) != COLUMN_LABELS:
        raise ValueError(f"unexpected column labels: {obj['columns']!r}")
    return DecisionTable.from_grid(obj["rows"])


# ---------------------------------------------------------------------------
# Statistic triples


def _stat_values(stats: StatTriple) -> tuple[Fraction, ...]:
    return (stats.win, stats.tie, stats.expectation, stats.loss, stats.chances)


def stats_line(stats: StatTriple, exact: bool = True, precision: int = 6) -> str:
    """The compact one-line form, e.g. ``W=792/1781 T=153/1781 E=-44/1781``."""
    return " ".join(
        f"{label}={render_fraction(value, exact, precision)}"
        for label, value in zip(("W", "T", "E"), _stat_values(stats))
    )


def stats_to_csv(stats: StatTriple, precision: int = 6) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("stat", "num", "den", "decimal"))
    for label, value in zip(STAT_LABELS, _stat_values(stats)):
        writer.writerow((label, value.numerator, value.denominator, render_decimal(value, precision)))
    return out.getvalue()


def stats_to_structured(stats: StatTriple, precision: int = 6, **meta) -> dict:
    names = ("win", "tie", "expectation", "loss", "chances")
    return {
        **meta,
        **{name: fraction_object(value, precision) for name, value in zip(names, _stat_values(stats))},
    }


# ---------------------------------------------------------------------------
# 2x2 matrices and solutions

ROW_LABELS = ("stand-at-5", "draw-at-5")
COL_LABELS = ("assume-non-tireur", "assume-tireur")


def matrix_to_markdown(matrix: Matrix2x2, exact: bool = True, precision: int = 6) -> str:
    lines = [
        "| | " + " | ".join(COL_LABELS) + " |",
        "|" + "---|" * 3,
    ]
    for label, row in zip(ROW_LABELS, matrix):
        cells = " | ".join(render_fraction(value, exact, precision) for value in row)
        lines.append(f"| {label} | {cells} |")
    return "\n".join(lines) + "\n"


def matrix_to_csv(matrix: Matrix2x2, precision: int = 6) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("row", "col", "num", "den", "decimal"))
    for row_label, row in zip(ROW_LABELS, matrix):
        for col_label, value in zip(COL_LABELS, row):
            writer.writerow(
                (row_label, col_label, value.numerator, value.denominator, render_decimal(value, precision))
            )
    return out.getvalue()


def matrix_to_structured(matrix: Matrix2x2, precision: int = 6, **meta) -> dict:
    return {
        **meta,
        "row_labels": list(ROW_LABELS),
        "col_labels": list(COL_LABELS),
        "entries": [[fraction_object(value, precision) for value in row] for row in matrix],
    }


def solution_to_markdown(solution: TwoByTwoGame, exact: bool = True, precision: int = 6) -> str:
    def show(value: Fraction) -> str:
        return render_fraction(value, exact, precision)

    lines = [
        matrix_to_markdown(solution.payoff, exact, precision),
        f"kind: {solution.kind}",
        f"value: {show(solution.value)}",
        f"row mix: {ROW_LABELS[0]}={show(solution.row_mix[0])}, {ROW_LABELS[1]}={show(solution.row_mix[1])}",
        f"col mix: {COL_LABELS[0]}={show(solution.col_mix[0])}, {COL_LABELS[1]}={show(solution.col_mix[1])}",
    ]
    return "\n".join(lines) + "\n"


def solution_to_csv(solution: TwoByTwoGame, precision: int = 6) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("field", "num", "den", "decimal"))
    fields = [
        ("value", solution.value),
        (f"row:{ROW_LABELS[0]}", solution.row_mix[0]),
        (f"row:{ROW_LABELS[1]}", solution.row_mix[1]),
        (f"col:{COL_LABELS[0]}", solution.col_mix[0]),
        (f"col:{COL_LABELS[1]}", solution.col_mix[1]),
    ]
    for name, value in fields:
        writer.writerow((name, value.numerator, value.denominator, render_decimal(value, precision)))
    return out.getvalue()


def solution_to_structured(solution: TwoByTwoGame, precision: int = 6, **meta) -> dict:
    return {
        **meta,
        "kind": solution.kind,
        "value": fraction_object(solution.value, precision),
        "row_labels": list(ROW_LABELS),
        "col_labels": list(COL_LABELS),
        "row_mix": [fraction_object(weight, precision) for weight in solution.row_mix],
        "col_mix": [fraction_object(weight, precision) for weight in solution.col_mix],
        "payoff": [[fraction_object(value, precision) for value in row] for row in solution.payoff],
    }


# ---------------------------------------------------------------------------
# Generic row listings (compare, simulate)


def rows_to_markdown(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
    ]
    lines.extend("| " + " | ".join(str(cell) for cell in row) + " |" for row in rows)
    return "\n".join(lines) + "\n"


def rows_to_csv(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()
