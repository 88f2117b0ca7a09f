"""Rendering and parsing of tables, statistics, matrices, and solutions.

Three output shapes are supported everywhere: human-oriented Markdown,
flat CSV (comma-separated, header row, LF line endings), and a
"structured" JSON object per command in which every exact value appears
as a ``{"num": ..., "den": ...}`` pair, optionally alongside a decimal
rendering.  Table CSV and table JSON both round-trip back into identical
``DecisionTable`` values.  ``emit`` prints any command's result in any
of the three shapes; it is the one place a format name picks a renderer.
``json`` and ``csv`` are imported where they are used, so a command
loads only what its format needs.
"""

from __future__ import annotations

import io
import sys
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .audit import Audit, near_tie_note
from .banker import BANKER_TOTALS, Cell, DecisionTable
from .coup import Matrix2x2, TwoByTwoGame
from .five import StatTriple
from .rational import render_decimal, render_exact, render_sqrt
from .simulate import SimConfig, SimResult

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
    """Parse one structured value back.  Anything but a canonical pair,
    integers in lowest terms with a positive ``den``, raises ValueError."""
    if not isinstance(obj, dict) or not {"num", "den"} <= obj.keys():
        raise ValueError("expected an object with 'num' and 'den'")
    num, den = obj["num"], obj["den"]
    if type(num) is not int or type(den) is not int or den <= 0:
        raise ValueError(f"expected an integer 'num' and a positive integer 'den': {num!r}/{den!r}")
    value = Fraction(num, den)
    if value.numerator != num or value.denominator != den:
        raise ValueError(f"not in lowest terms: {num}/{den}")
    return value


def _csv_value(value: Fraction, precision: int) -> tuple:
    """The num, den and decimal cells of one exact value in a CSV row."""
    return value.numerator, value.denominator, render_decimal(value, precision)


# ---------------------------------------------------------------------------
# Generic row listings: every CSV, and the Markdown grid of most listings


def rows_to_markdown(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
    ]
    lines.extend("| " + " | ".join(str(cell) for cell in row) + " |" for row in rows)
    return "\n".join(lines) + "\n"


def rows_to_csv(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    import csv

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


# ---------------------------------------------------------------------------
# Decision tables


def table_to_csv(table: DecisionTable) -> str:
    return rows_to_csv(TABLE_CSV_HEADER, [[total, *row] for total, row in enumerate(table.to_grid())])


def table_from_csv(text: str) -> DecisionTable:
    """Parse table CSV back; rejects anything but the exact emitted shape."""
    import csv

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
    return rows_to_markdown(TABLE_CSV_HEADER, [[total, *row] for total, row in enumerate(table.to_grid())])


def table_to_structured(table: DecisionTable) -> dict:
    return {
        "columns": list(COLUMN_LABELS),
        "rows": table.to_grid(),
    }


def table_from_structured(obj: dict) -> DecisionTable:
    """Parse table JSON back; like ``table_from_csv``, a malformed object
    raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    columns, rows = obj.get("columns"), obj.get("rows")
    if not isinstance(columns, list) or not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("expected a 'columns' list and a 'rows' list of lists")
    if tuple(columns) != COLUMN_LABELS:
        raise ValueError(f"unexpected column labels: {columns!r}")
    return DecisionTable.from_grid(rows)


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
    rows = [(label, *_csv_value(value, precision)) for label, value in zip(STAT_LABELS, _stat_values(stats))]
    return rows_to_csv(("stat", "num", "den", "decimal"), rows)


def stats_to_structured(stats: StatTriple, precision: int = 6) -> dict:
    names = ("win", "tie", "expectation", "loss", "chances")
    return {name: fraction_object(value, precision) for name, value in zip(names, _stat_values(stats))}


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
    rows = [
        (row_label, col_label, *_csv_value(value, precision))
        for row_label, row in zip(ROW_LABELS, matrix)
        for col_label, value in zip(COL_LABELS, row)
    ]
    return rows_to_csv(("row", "col", "num", "den", "decimal"), rows)


def matrix_to_structured(matrix: Matrix2x2, precision: int = 6) -> dict:
    return {
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
    fields = [
        ("value", solution.value),
        (f"row:{ROW_LABELS[0]}", solution.row_mix[0]),
        (f"row:{ROW_LABELS[1]}", solution.row_mix[1]),
        (f"col:{COL_LABELS[0]}", solution.col_mix[0]),
        (f"col:{COL_LABELS[1]}", solution.col_mix[1]),
    ]
    rows = [(name, *_csv_value(value, precision)) for name, value in fields]
    return rows_to_csv(("field", "num", "den", "decimal"), rows)


def solution_to_structured(solution: TwoByTwoGame, precision: int = 6) -> dict:
    return {
        "kind": solution.kind,
        "value": fraction_object(solution.value, precision),
        "row_labels": list(ROW_LABELS),
        "col_labels": list(COL_LABELS),
        "row_mix": [fraction_object(weight, precision) for weight in solution.row_mix],
        "col_mix": [fraction_object(weight, precision) for weight in solution.col_mix],
        "payoff": [[fraction_object(value, precision) for value in row] for row in solution.payoff],
    }


# ---------------------------------------------------------------------------
# Command results and ``emit``


class FlaggedTable(NamedTuple):
    """A Banker table with the cells its author called indifferent."""

    table: DecisionTable
    near_ties: Sequence[Cell]


class Simulation(NamedTuple):
    """One seeded Monte Carlo run and its tallies."""

    config: SimConfig
    result: SimResult


def _flagged_to_markdown(flagged: FlaggedTable, exact: bool, precision: int) -> str:
    notes = "".join(f"\n{near_tie_note(*cell)}\n" for cell in flagged.near_ties)
    return table_to_markdown(flagged.table) + notes


def _flagged_to_csv(flagged: FlaggedTable, precision: int) -> str:
    return table_to_csv(flagged.table)


def _flagged_to_structured(flagged: FlaggedTable, precision: int) -> dict:
    structured = table_to_structured(flagged.table)
    if flagged.near_ties:
        structured["near_ties"] = [{"total": total, "third_card": seen} for total, seen in flagged.near_ties]
    return structured


def _stats_to_markdown(stats: StatTriple, exact: bool, precision: int) -> str:
    return stats_line(stats, exact, precision) + "\n"


def _audit_to_markdown(audit: Audit, exact: bool, precision: int) -> str:
    return rows_to_markdown(audit.header, audit.rows) + "".join(f"\n{note}\n" for note in audit.notes)


def _audit_to_csv(audit: Audit, precision: int) -> str:
    return rows_to_csv(audit.header, audit.rows)


def _audit_to_structured(audit: Audit, precision: int) -> dict:
    return {
        "columns": list(audit.header),
        "rows": [dict(zip(audit.header, row)) for row in audit.rows],
        "notes": audit.notes,
    }


def _rates(result: SimResult) -> list[tuple[str, Fraction, Fraction]]:
    """Each empirical rate as its exact count ratio, with the square of its
    standard error: r(1 - r)/n for a rate r over n coups, and for E the
    sample variance of the profit in {-1, 0, +1} over n."""
    n = result.coups
    counts = (result.wins, result.ties, result.losses, result.wins - result.losses)
    rates = [Fraction(count, n) for count in counts]
    variances = [rate * (1 - rate) / n for rate in rates[:3]]
    variances.append((Fraction(result.wins + result.losses, n) - rates[3] ** 2) / n)
    return list(zip("WTLE", rates, variances))


def _simulation_to_markdown(run: Simulation, exact: bool, precision: int) -> str:
    result = run.result
    lines = [
        f"coups={run.config.coups} seed={run.config.seed}",
        f"wins={result.wins} ties={result.ties} losses={result.losses}",
    ]
    for label, rate, variance in _rates(result):
        lines.append(f"{label}={render_fraction(rate, exact, precision)} (se {render_sqrt(variance, precision)})")
    return "\n".join(lines) + "\n"


def _simulation_to_csv(run: Simulation, precision: int) -> str:
    result = run.result
    rows = [
        ["wins", result.wins, ""],
        ["ties", result.ties, ""],
        ["losses", result.losses, ""],
    ]
    for label, rate, variance in _rates(result):
        rows.append([label, render_decimal(rate, precision), render_sqrt(variance, precision)])
    return rows_to_csv(["stat", "value", "standard_error"], rows)


def _simulation_to_structured(run: Simulation, precision: int) -> dict:
    result, rates = run.result, _rates(run.result)
    return {
        "wins": result.wins,
        "ties": result.ties,
        "losses": result.losses,
        "empirical": {label: fraction_object(rate, precision) for label, rate, _ in rates},
        "standard_errors": {label: render_sqrt(variance, precision) for label, _, variance in rates},
    }


#: Result type -> its (Markdown, CSV, structured) renderers.  A Matrix2x2
#: is a plain tuple of rows, so it is found under ``tuple``; the named
#: tuples above are found under their own types.
_RENDERERS = {
    FlaggedTable: (_flagged_to_markdown, _flagged_to_csv, _flagged_to_structured),
    StatTriple: (_stats_to_markdown, stats_to_csv, stats_to_structured),
    tuple: (matrix_to_markdown, matrix_to_csv, matrix_to_structured),
    TwoByTwoGame: (solution_to_markdown, solution_to_csv, solution_to_structured),
    Audit: (_audit_to_markdown, _audit_to_csv, _audit_to_structured),
    Simulation: (_simulation_to_markdown, _simulation_to_csv, _simulation_to_structured),
}


def emit(result, fmt: str, exact: bool, precision: int, **meta) -> None:
    """Print a command's result to stdout as Markdown, CSV or structured JSON.

    ``exact`` and ``precision`` apply where the format renders values;
    ``meta`` (the command and its settings) leads the structured object.
    """
    markdown, csv_text, structured = _RENDERERS[type(result)]
    if fmt == "markdown":
        text = markdown(result, exact, precision)
    elif fmt == "csv":
        text = csv_text(result, precision)
    else:
        import json

        text = json.dumps({**meta, **structured(result, precision)}, indent=2) + "\n"
    sys.stdout.write(text)
