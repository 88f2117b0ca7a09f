"""Exactness checks of every op's output against ``tests/oracles.py``.

The oracles enumerate raw card tuples and share no code with ``src/``.
This module adds only what the oracles leave to their caller: the
posterior weights of a mixed Player rule, the published table errors of
the historical variants, a 2x2 game solver, decimal rendering (halves
away from zero) and parsers for the CLI's three output formats.  Oracle
values depend only on the inputs, so they are cached per input.

A check returns ``None`` when the output is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import re
from fractions import Fraction

#: A Monte Carlo rate may stray this many binomial standard errors from
#: the exact probability before the op counts as failed.
Z_LIMIT = 6

#: Cells (Banker total, Player third card) that each author got wrong
#: against a tireur; no author erred against a non-tireur.
PUBLISHED_TIREUR_ERRORS = {
    "correct": (),
    "dormoy": ((6, 6),),
    "badoureau": ((4, 1), (4, 9), (6, 6)),
}
#: The cell Dormoy called indifferent against a non-tireur.
DORMOY_NEAR_TIE = (5, 4)

RULE_INDEX = {"non-tireur": 0, "tireur": 1}
ACTION_INDEX = {"stand": 0, "draw": 1}
STAT_KEYS = ("win", "tie", "expectation", "loss", "chances")
STAT_LABELS = ("W", "T", "E", "L", "C")
ROW_LABELS = ("stand-at-5", "draw-at-5")
COL_LABELS = ("assume-non-tireur", "assume-tireur")
TABLE_HEADER = ["total", *(str(value) for value in range(10)), "stand"]


class Mismatch(Exception):
    """An output that differs from the oracle."""


def expect(condition: bool, reason: str) -> None:
    if not condition:
        raise Mismatch(reason)


def decimal_text(value: Fraction, places: int) -> str:
    """Fixed-point text with ``places`` digits, halves rounded away from zero."""
    digits = math.floor(abs(value) * 10**places + Fraction(1, 2))
    text = str(digits).rjust(places + 1, "0")
    sign = "-" if value < 0 and digits else ""
    return f"{sign}{text[:-places]}.{text[-places:]}"


def shown(text: str, value: Fraction, exact: bool, precision: int) -> bool:
    """Whether ``text`` renders ``value`` exactly or at ``precision`` digits."""
    if exact:
        try:
            return Fraction(text) == value
        except ValueError:
            return False
    return text == decimal_text(value, precision)


def full_stats(triple) -> tuple[Fraction, ...]:
    """(W, T, E) extended to (W, T, E, L, C)."""
    win, tie, expectation = triple
    return (win, tie, expectation, 1 - win - tie, win + tie / 2)


def solve_2x2(matrix) -> dict:
    """Exact solution of a 2x2 zero-sum game, row player maximizing."""
    (a, b), (c, d) = matrix
    row_mins, col_maxs = (min(a, b), min(c, d)), (max(a, c), max(b, d))
    maximin, minimax = max(row_mins), min(col_maxs)
    if maximin == minimax:
        one_hot = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        return {
            "kind": "saddle", "value": maximin,
            "row_mix": one_hot[row_mins.index(maximin)],
            "col_mix": one_hot[col_maxs.index(minimax)],
        }
    den = a - b - c + d
    return {
        "kind": "mixed", "value": (a * d - b * c) / den,
        "row_mix": ((d - c) / den, (a - b) / den),
        "col_mix": ((d - b) / den, (a - c) / den),
    }


class Oracle:
    """Expected values for every op, computed by the brute-force oracles."""

    def __init__(self, oracles):
        if not hasattr(oracles.banker_evs, "cache_info"):
            oracles.banker_evs = functools.cache(oracles.banker_evs)
        self.o = oracles
        weights = oracles.WEIGHTS
        pair = [0] * 10
        for a in range(10):
            for b in range(10):
                pair[(a + b) % 10] += weights[a] * weights[b]
        # Weight of the initial totals on which each rule draws / stands.
        self.drew = tuple(sum(pair[: 5 + rule]) for rule in (0, 1))
        self.stood = tuple(sum(pair[5 + rule : 8]) for rule in (0, 1))
        self.card_model = f"with replacement, P(0)={Fraction(weights[0], sum(weights))}"

    # -- Banker tables, as tuples of 0/1 rows -----------------------------

    @functools.cache
    def pure_grid(self, rule: int, variant: str = "correct") -> tuple:
        grid = [list(row) for row in self.o.best_response_grid(rule)]
        for total, card in PUBLISHED_TIREUR_ERRORS[variant] if rule else ():
            grid[total][card] ^= 1
        return tuple(map(tuple, grid))

    @functools.cache
    def mixed_grid(self, p: Fraction) -> tuple:
        """Banker's posterior-weighted response to drawing at 5 with chance p."""
        if p in (0, 1):
            return self.pure_grid(int(p))
        grid = self.o.averaged_response_grid(
            ((1 - p) * self.drew[0], p * self.drew[1]),
            ((1 - p) * self.stood[0], p * self.stood[1]),
        )
        return tuple(map(tuple, grid))

    @functools.cache
    def dormoy_average_grid(self) -> tuple:
        one = (Fraction(1), Fraction(1))
        return tuple(map(tuple, self.o.averaged_response_grid(one, one)))

    def grid(self, assume: str, variant: str = "correct", p: Fraction | None = None) -> tuple:
        if assume == "mix":
            return self.mixed_grid(p)
        return self.pure_grid(RULE_INDEX[assume], variant)

    # -- Statistics --------------------------------------------------------

    @functools.cache
    def five(self, draw: int, grid: tuple) -> tuple:
        return self.o.five_stats(bool(draw), [list(row) for row in grid])

    @functools.cache
    def _coup_counts(self, draw: int, grid: tuple) -> tuple:
        return self.o.coup_counts(bool(draw), [list(row) for row in grid])

    def coup(self, p: Fraction, grid: tuple) -> tuple:
        """Whole-coup (W, T, E) when Player draws at 5 with chance p:
        the blend of the two pure-action counts."""
        stand, draw = self._coup_counts(0, grid), self._coup_counts(1, grid)
        win, tie, loss, total = ((1 - p) * s + p * d for s, d in zip(stand, draw))
        return (win / total, tie / total, (win - loss) / total)

    def five_matrix(self) -> tuple:
        return tuple(
            tuple(self.five(action, self.pure_grid(rule))[2] for rule in (0, 1))
            for action in (0, 1)
        )

    def bar_matrix(self) -> tuple:
        return tuple(
            tuple(self.coup(Fraction(action), self.pure_grid(rule))[2] for rule in (0, 1))
            for action in (0, 1)
        )

    def near_tie_evs(self) -> tuple[Fraction, Fraction]:
        """Banker's (stand, draw) expectations at Dormoy's near-tie cell."""
        return self.o.banker_evs(0, *DORMOY_NEAR_TIE)


def guarded(check):
    """Turn a Mismatch or an unparsable output into a failure reason."""

    @functools.wraps(check)
    def run(*args):
        try:
            check(*args)
        except Mismatch as exc:
            return str(exc)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError, ZeroDivisionError) as exc:
            return f"unparsable output: {type(exc).__name__}: {exc}"
        return None

    return run


# ---------------------------------------------------------------------------
# In-process workloads


def expect_stats(name: str, stats, triple) -> None:
    got = (stats.win, stats.tie, stats.expectation)
    expect(got == tuple(triple), f"{name}: {tuple(map(str, got))} != {tuple(map(str, triple))}")


@guarded
def check_sweep(oracle: Oracle, p: Fraction, result) -> None:
    table, coup, stand, draw = result
    grid = oracle.mixed_grid(p)
    expect(tuple(map(tuple, table.to_grid())) == grid, f"table at p={p} differs from the oracle")
    expect_stats(f"coup at p={p}", coup, oracle.coup(p, grid))
    expect_stats(f"five stand at p={p}", stand, oracle.five(0, grid))
    expect_stats(f"five draw at p={p}", draw, oracle.five(1, grid))


def expect_binomial(counts: tuple[int, int, int], truth: tuple, coups: int) -> None:
    """(wins, ties, losses) within Z_LIMIT standard errors of the exact rates."""
    win, tie, _ = truth
    for label, count, p in zip("WTL", counts, (win, tie, 1 - win - tie)):
        z = abs(Fraction(count, coups) - p) / math.sqrt(p * (1 - p) / coups)
        expect(z <= Z_LIMIT, f"{label} rate {count}/{coups} is {float(z):.1f} standard errors off")


@guarded
def check_montecarlo(oracle: Oracle, scenario, result, coups: int, mixed_table=None) -> None:
    expect(result.wins + result.ties + result.losses == coups,
           f"outcomes sum to {result.wins + result.ties + result.losses}, not {coups}")
    if scenario.assumed == "mix":
        grid = oracle.mixed_grid(scenario.draw_at_five)
        expect(tuple(map(tuple, mixed_table.to_grid())) == grid, "mixed table differs from the oracle")
    else:
        grid = oracle.pure_grid(RULE_INDEX[scenario.assumed])
    counts = (result.wins, result.ties, result.losses)
    expect_binomial(counts, oracle.coup(scenario.draw_at_five, grid), coups)


# ---------------------------------------------------------------------------
# CLI outputs


def markdown_rows(lines: list[str]) -> list[list[str]]:
    """Cells of every row of the first pipe table in ``lines``."""
    rows = []
    for line in lines:
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip().strip("|").split("|")])
        elif rows:
            break
    return [row for row in rows if not set("".join(row)) <= {"-"}]


def grid_from_rows(rows: list[list[str]]) -> tuple:
    expect(rows[0] == TABLE_HEADER, f"table header {rows[0]}")
    expect([row[0] for row in rows[1:]] == [str(total) for total in range(8)], "table totals")
    return tuple(tuple(int(cell) for cell in row[1:]) for row in rows[1:])


def spec_grid(oracle: Oracle, spec: dict, assume_key: str, pi_key: str) -> tuple:
    p = Fraction(spec[pi_key]) if spec[assume_key] == "mix" else None
    return oracle.grid(spec[assume_key], spec.get("variant", "correct"), p)


def check_tables(oracle: Oracle, spec: dict, out: str) -> None:
    strategy, variant = spec["strategy"], spec.get("variant", "correct")
    if strategy == "dormoy-average":
        grid = oracle.dormoy_average_grid()
    else:
        grid = oracle.grid(strategy, variant, Fraction(spec.get("pi", "0")))
    near_tie = strategy == "non-tireur" and variant == "dormoy"
    if spec["fmt"] == "structured":
        obj = json.loads(out)
        expect(obj["columns"] == TABLE_HEADER[1:], "structured table columns")
        got = tuple(map(tuple, obj["rows"]))
        expected_ties = [{"total": DORMOY_NEAR_TIE[0], "third_card": DORMOY_NEAR_TIE[1]}] if near_tie else None
        expect(obj.get("near_ties") == expected_ties, f"near ties {obj.get('near_ties')}")
    elif spec["fmt"] == "csv":
        got = grid_from_rows(list(csv.reader(io.StringIO(out))))
    else:
        got = grid_from_rows(markdown_rows(out.splitlines()))
        notes = [line for line in out.splitlines() if line.startswith("near tie")]
        expect(len(notes) == near_tie, f"{len(notes)} near-tie notes")
        if near_tie:
            check_near_tie_note(oracle, notes[0])
    expect(got == grid, f"{strategy} table differs from the oracle")


NEAR_TIE_NOTE = re.compile(
    r"stand (\S+) \((\S+)\) vs draw (\S+) \((\S+)\)(?:; both round to (\S+) at two decimals)?"
)


def check_near_tie_note(oracle: Oracle, note: str) -> None:
    stand, draw = oracle.near_tie_evs()
    match = NEAR_TIE_NOTE.search(note)
    expect(match is not None, "near-tie note not found")
    stand_exact, stand_dec, draw_exact, draw_dec, both = match.groups()
    expect(Fraction(stand_exact) == stand and stand_dec == decimal_text(stand, 6), "near-tie stand value")
    expect(Fraction(draw_exact) == draw and draw_dec == decimal_text(draw, 6), "near-tie draw value")
    expect(both is None or both == decimal_text(stand, 2) == decimal_text(draw, 2), "near-tie rounding")


def expect_value(name: str, value: Fraction, precision: int, num, den, decimal: str) -> None:
    """An exact value printed as numerator, denominator and decimal."""
    expect(Fraction(int(num), int(den)) == value, f"{name} fraction")
    expect(decimal == decimal_text(value, precision), f"{name} decimal")


def expect_object(name: str, value: Fraction, precision: int, obj: dict) -> None:
    """An exact value in structured JSON: ``{"num", "den", "decimal"}``."""
    expect_value(name, value, precision, obj["num"], obj["den"], obj["decimal"])


def check_stat_output(spec: dict, out: str, triple) -> None:
    values, exact, precision = full_stats(triple), spec["exact"], spec["precision"]
    if spec["fmt"] == "structured":
        obj = json.loads(out)
        for key, value in zip(STAT_KEYS, values):
            expect_object(key, value, precision, obj[key])
    elif spec["fmt"] == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        expect(rows[0] == ["stat", "num", "den", "decimal"], "stats csv header")
        expect([row[0] for row in rows[1:]] == list(STAT_LABELS), "stats csv labels")
        for row, value in zip(rows[1:], values):
            expect_value(row[0], value, precision, *row[1:4])
    else:
        pairs = [item.split("=") for item in out.split()]
        expect([label for label, _ in pairs] == list(STAT_LABELS[:3]), "stats line labels")
        for (label, text), value in zip(pairs, values):
            expect(shown(text, value, exact, precision), f"{label}={text}")


def check_five(oracle: Oracle, spec: dict, out: str) -> None:
    grid = spec_grid(oracle, spec, "assume", "pi")
    check_stat_output(spec, out, oracle.five(ACTION_INDEX[spec["action"]], grid))


def action_probability(spec: dict) -> Fraction:
    if spec["action"] == "mix":
        return Fraction(spec["pi"])
    return Fraction(ACTION_INDEX[spec["action"]])


def check_coup(oracle: Oracle, spec: dict, out: str) -> None:
    grid = spec_grid(oracle, spec, "assume", "assume_pi")
    check_stat_output(spec, out, oracle.coup(action_probability(spec), grid))


def check_matrix_rows(rows: list[list[str]], matrix, exact: bool, precision: int) -> None:
    expect(rows[0][1:] == list(COL_LABELS), "matrix columns")
    expect([row[0] for row in rows[1:3]] == list(ROW_LABELS), "matrix rows")
    for row, values in zip(rows[1:3], matrix):
        for text, value in zip(row[1:], values):
            expect(shown(text, value, exact, precision), f"matrix entry {text}")


def check_bar_matrix(oracle: Oracle, spec: dict, out: str) -> None:
    matrix, precision = oracle.bar_matrix(), spec["precision"]
    if spec["fmt"] == "structured":
        obj = json.loads(out)
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
            expect_object(f"entry {i},{j}", matrix[i][j], precision, obj["entries"][i][j])
    elif spec["fmt"] == "csv":
        rows = list(csv.reader(io.StringIO(out)))[1:]
        cells = [(ROW_LABELS[i], COL_LABELS[j], matrix[i][j]) for i in (0, 1) for j in (0, 1)]
        expect(len(rows) == 4, "matrix csv rows")
        for row, (row_label, col_label, value) in zip(rows, cells):
            expect(row[:2] == [row_label, col_label], f"matrix csv labels {row[:2]}")
            expect_value(f"{row_label} {col_label}", value, precision, *row[2:5])
    else:
        check_matrix_rows(markdown_rows(out.splitlines()), matrix, spec["exact"], precision)


def solution_fields(solution: dict) -> list[tuple[str, Fraction]]:
    return [
        ("value", solution["value"]),
        *((f"row:{label}", w) for label, w in zip(ROW_LABELS, solution["row_mix"])),
        *((f"col:{label}", w) for label, w in zip(COL_LABELS, solution["col_mix"])),
    ]


def check_solution_markdown(lines: list[str], matrix, exact: bool, precision: int) -> None:
    solution = solve_2x2(matrix)
    check_matrix_rows(markdown_rows(lines), matrix, exact, precision)
    fields = dict(line.split(": ", 1) for line in lines if ": " in line)
    expect(fields["kind"] == solution["kind"], f"kind {fields['kind']}")
    expect(shown(fields["value"], solution["value"], exact, precision), f"value {fields['value']}")
    for key, labels, mix in (("row mix", ROW_LABELS, solution["row_mix"]),
                             ("col mix", COL_LABELS, solution["col_mix"])):
        pairs = [item.split("=") for item in fields[key].split(", ")]
        expect([label for label, _ in pairs] == list(labels), f"{key} labels")
        for (label, text), weight in zip(pairs, mix):
            expect(shown(text, weight, exact, precision), f"{key} {label}={text}")


def check_solve(oracle: Oracle, spec: dict, out: str) -> None:
    matrix = oracle.five_matrix() if spec["game"] == "five" else oracle.bar_matrix()
    solution, precision = solve_2x2(matrix), spec["precision"]
    if spec["fmt"] == "structured":
        obj = json.loads(out)
        expect(obj["kind"] == solution["kind"], f"kind {obj['kind']}")
        expect_object("value", solution["value"], precision, obj["value"])
        for key in ("row_mix", "col_mix"):
            for k, weight in enumerate(solution[key]):
                expect_object(f"{key}[{k}]", weight, precision, obj[key][k])
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
            expect_object(f"payoff {i},{j}", matrix[i][j], precision, obj["payoff"][i][j])
    elif spec["fmt"] == "csv":
        rows = list(csv.reader(io.StringIO(out)))[1:]
        fields = solution_fields(solution)
        expect([row[0] for row in rows] == [name for name, _ in fields], "solution csv fields")
        for row, (name, value) in zip(rows, fields):
            expect_value(name, value, precision, *row[1:4])
    else:
        check_solution_markdown(out.splitlines(), matrix, spec["exact"], precision)


def compare_table(spec: dict, out: str) -> tuple[list[dict], list[str]]:
    """Rows (as header-keyed dicts) and notes of a ``compare`` output."""
    if spec["fmt"] == "structured":
        obj = json.loads(out)
        return obj["rows"], obj["notes"]
    if spec["fmt"] == "csv":
        return list(csv.DictReader(io.StringIO(out))), []
    lines = out.splitlines()
    header, *rows = markdown_rows(lines)
    notes = [line for line in lines if line and not line.startswith("|")]
    return [dict(zip(header, row)) for row in rows], notes


SCENARIOS = [("stand", "non-tireur"), ("stand", "tireur"), ("draw", "non-tireur"), ("draw", "tireur")]


def check_compare(oracle: Oracle, spec: dict, out: str) -> None:
    rows, notes = compare_table(spec, out)
    against = spec["against"]

    def truth(row: dict, variant: str = "correct") -> tuple:
        grid = oracle.pure_grid(RULE_INDEX[row["assume"]], variant)
        return oracle.five(ACTION_INDEX[row["action"]], grid)

    if against == "bertrand":
        expect([(row["action"], row["assume"]) for row in rows] == SCENARIOS, "bertrand rows")
        for row in rows:
            flawed = (row["action"], row["assume"]) == ("draw", "tireur")
            expect(row["table"] == ("badoureau" if flawed else "correct"), f"table {row['table']}")
            ours = [row[key] for key in "WTE"]
            for text, value in zip(ours, truth(row, row["table"])):
                expect(text == decimal_text(value, 6), f"bertrand {row['action']}/{row['assume']} {text}")
            published = [row[f"{key} (1888)"] for key in "WTE"]
            within = all(abs(Fraction(a) - Fraction(b)) <= Fraction(1, 10**6) for a, b in zip(ours, published))
            expect(row["match"] == ("yes" if within else "no"), f"match {row['match']}")
        correct = oracle.five(1, oracle.pure_grid(1))
        expected_note = " ".join(f"{k}={decimal_text(v, 6)}" for k, v in zip("WTE", correct))
        expect(spec["fmt"] == "csv" or any(expected_note in note for note in notes), "bertrand note")
    elif against == "badoureau":
        expect([(row["action"], row["assume"]) for row in rows] == SCENARIOS, "badoureau rows")
        for row in rows:
            ours = tuple(Fraction(row[key]) for key in "WTE")
            expect(ours == truth(row), f"badoureau {row['action']}/{row['assume']} {ours}")
            his = tuple(Fraction(row[f"{key} (1881)"]) for key in "WTE")
            expect(row["match"] == ("yes" if ours == his else "no"), f"match {row['match']}")
    else:
        expect(len(rows) == 3, "dormoy rows")
        for row in rows:
            value = truth(row)[2]
            expect(Fraction(row["E exact"]) == value, f"dormoy E {row['E exact']}")
            expect(row["E decimal"] == decimal_text(value, 6), f"dormoy decimal {row['E decimal']}")
            places = len(row["E (1872)"].split(".")[1])
            expect(row["correct rounding"] == decimal_text(value, places), "dormoy correct rounding")
        if spec["fmt"] != "csv":
            check_near_tie_note(oracle, next(note for note in notes if "indifferent" in note))


def check_simulate(oracle: Oracle, spec: dict, out: str) -> None:
    coups, precision = spec["coups"], spec["precision"]
    if spec["fmt"] == "structured":
        obj = json.loads(out)
        counts = (obj["wins"], obj["ties"], obj["losses"])
        rates = {label: Fraction(item["num"], item["den"]) for label, item in obj["empirical"].items()}
    elif spec["fmt"] == "csv":
        rows = {row["stat"]: row["value"] for row in csv.DictReader(io.StringIO(out))}
        counts = tuple(int(rows[key]) for key in ("wins", "ties", "losses"))
        rates = {label: rows[label] for label in "WTLE"}
    else:
        fields = dict(item.split("=", 1) for item in out.split() if "=" in item)
        counts = tuple(int(fields[key]) for key in ("wins", "ties", "losses"))
        rates = {label: fields[label] for label in "WTLE"}
    expect(sum(counts) == coups, f"outcomes {counts} do not sum to {coups}")
    wins, ties, losses = counts
    empirical = dict(zip("WTLE", (Fraction(c, coups) for c in (wins, ties, losses, wins - losses))))
    for label, value in empirical.items():
        text = rates[label]
        if isinstance(text, Fraction) or (spec["fmt"] == "markdown" and spec["exact"]):
            expect(Fraction(text) == value, f"rate {label}={text}")
        else:
            expect(abs(Fraction(text) - value) <= Fraction(1, 10**precision), f"rate {label}={text}")
    grid = oracle.pure_grid(RULE_INDEX[spec["assume"]])
    expect_binomial(counts, oracle.coup(action_probability(spec), grid), coups)


STAT_LINE = re.compile(r"W=([^\s)]+) T=([^\s)]+) E=([^\s)]+)")
PROBLEM_LINE = re.compile(r"Player (stand|draw) +at 5, Banker assumes (non-tireur|tireur) *: (.*)")


def report_sections(out: str) -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {}
    lines: list[str] = []
    for line in out.splitlines():
        if line.startswith("## "):
            lines = sections.setdefault(line[3:], [])
        else:
            lines.append(line)
    return sections


def section(sections: dict, keyword: str) -> list[str]:
    found = [lines for title, lines in sections.items() if keyword in title]
    expect(len(found) == 1, f"report section {keyword!r}")
    return found[0]


def problem_lines(lines: list[str]) -> list[tuple[int, int, str]]:
    parsed = [PROBLEM_LINE.match(line) for line in lines]
    rows = [(ACTION_INDEX[m[1]], RULE_INDEX[m[2]], m[3]) for m in parsed if m]
    expect([row[:2] for row in rows] == [(0, 0), (0, 1), (1, 0), (1, 1)], "problem lines")
    return rows


def check_full_report(oracle: Oracle, spec: dict, out: str) -> None:
    sections = report_sections(out)
    for keyword, grid in (("vs a non-tireur", oracle.pure_grid(0)), ("vs a tireur", oracle.pure_grid(1)),
                          ("half-half", oracle.mixed_grid(Fraction(1, 2)))):
        expect(grid_from_rows(markdown_rows(section(sections, keyword))) == grid, f"{keyword} table")

    for action, rule, text in problem_lines(section(sections, "four draw-at-five")):
        truth = oracle.five(action, oracle.pure_grid(rule))
        exact, decimal = STAT_LINE.findall(text)
        expect(tuple(map(Fraction, exact)) == truth, f"problem {action},{rule} exact")
        expect(decimal == tuple(decimal_text(v, 6) for v in truth), f"problem {action},{rule} decimal")

    audit = section(sections, "Six-decimal audit")
    ours = [re.search(r"ours (\(.*?\))", line)[1] for line in audit if "ours" in line]
    expected = [
        str(tuple(decimal_text(v, 6) for v in oracle.five(a, oracle.pure_grid(r, "badoureau" if a and r else "correct"))))
        for a, r in ((0, 0), (0, 1), (1, 0), (1, 1))
    ]
    expect(ours == expected, "1888 audit values")
    replication = next(line for line in audit if line.startswith("1881 replication"))
    expect(tuple(map(Fraction, STAT_LINE.search(replication).groups()))
           == oracle.five(1, oracle.pure_grid(1, "badoureau")), "1881 replication")

    mixture = section(sections, "Mixture expectations")
    half = oracle.mixed_grid(Fraction(1, 2))
    for prefix, action in (("standing vs", 0), ("drawing  vs", 1)):
        line = next(line for line in mixture if line.startswith(prefix))
        exact, decimal = line.split(": ")[1].split(" = ")
        value = oracle.five(action, half)[2]
        expect(Fraction(exact) == value and decimal == decimal_text(value, 6), f"{prefix} mixture")
    for prefix, action in (("naive average of the standing", 0), ("naive average of the drawing", 1)):
        line = next(line for line in mixture if line.startswith(prefix))
        value = sum(oracle.five(action, oracle.pure_grid(rule))[2] for rule in (0, 1)) / 2
        expect(Fraction(line.split(": ")[1].split()[0]) == value, f"{prefix} expectations")

    for action, rule, text in problem_lines(section(sections, "Whole-coup statistics")):
        truth = oracle.coup(Fraction(action), oracle.pure_grid(rule))
        expect(STAT_LINE.search(text).groups() == tuple(decimal_text(v, 7) for v in truth),
               f"whole coup {action},{rule}")

    check_solution_markdown(section(sections, "conditional-on-5 game"), oracle.five_matrix(), True, 6)
    check_solution_markdown(section(sections, "whole-coup game"), oracle.bar_matrix(), False, 7)


CLI_CHECKS = {
    "tables": check_tables,
    "five": check_five,
    "coup": check_coup,
    "bar-matrix": check_bar_matrix,
    "solve": check_solve,
    "compare": check_compare,
    "simulate": check_simulate,
    "full_report": check_full_report,
}


@guarded
def check_cli(oracle: Oracle, spec: dict, result) -> None:
    expect(result.returncode == 0, f"exit code {result.returncode}")
    CLI_CHECKS[spec["cmd"]](oracle, spec, result.stdout)
