"""Rendering and parsing: round-trips and stable wire formats."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

from chemin import (
    PlayerRule,
    best_response_table,
    five_matrix,
    solve_2x2,
)
from chemin.five import StatTriple
from chemin import report
from tests.conftest import decision_tables


class TestRenderFraction:
    def test_exact_mode(self):
        assert report.render_fraction(Fraction(-44, 1781)) == "-44/1781"
        assert report.render_fraction(Fraction(1, 2)) == "1/2"

    def test_decimal_mode(self):
        assert report.render_fraction(Fraction(287, 23153), exact=False) == "0.012396"
        assert report.render_fraction(Fraction(-44, 1781), exact=False, precision=6) == "-0.024705"

    def test_fraction_object(self):
        obj = report.fraction_object(Fraction(175, 23153), precision=6)
        assert obj == {"num": 175, "den": 23153, "decimal": "0.007558"}
        assert report.fraction_from_object(obj) == Fraction(175, 23153)
        assert report.fraction_from_object({"num": -3, "den": 1}) == -3

    @pytest.mark.parametrize(
        "bad",
        [
            {},
            {"num": 1, "den": 0},
            {"num": "1", "den": 2},
            {"num": 2, "den": 4},
            {"num": 1, "den": -2},
            {"num": True, "den": 2},
            [1, 2],
        ],
        ids=["missing-keys", "zero-den", "string-num", "non-canonical", "negative-den", "bool-num", "not-an-object"],
    )
    def test_fraction_from_object_rejects_malformed_pairs(self, bad):
        with pytest.raises(ValueError):
            report.fraction_from_object(bad)


class TestTableSerialization:
    def test_csv_header_and_shape(self):
        text = report.table_to_csv(best_response_table(PlayerRule.TIREUR))
        lines = text.splitlines()
        assert lines[0] == "total,0,1,2,3,4,5,6,7,8,9,stand"
        assert len(lines) == 9
        assert text.endswith("\n") and "\r" not in text

    def test_csv_round_trip(self):
        table = best_response_table(PlayerRule.NON_TIREUR)
        assert report.table_from_csv(report.table_to_csv(table)) == table

    @settings(max_examples=25, deadline=None)
    @given(decision_tables())
    def test_csv_round_trip_arbitrary_tables(self, table):
        assert report.table_from_csv(report.table_to_csv(table)) == table

    @settings(max_examples=25, deadline=None)
    @given(decision_tables())
    def test_structured_round_trip(self, table):
        obj = report.table_to_structured(table, command="tables")
        assert report.table_from_structured(json.loads(json.dumps(obj))) == table

    def test_csv_rejects_bad_header(self):
        with pytest.raises(ValueError):
            report.table_from_csv("a,b,c\n1,2,3\n")

    def test_csv_rejects_bad_entries(self):
        good = report.table_to_csv(best_response_table(PlayerRule.NON_TIREUR))
        with pytest.raises(ValueError):
            report.table_from_csv(good.replace("0,1,1,1", "0,1,2,1", 1))

    @pytest.mark.parametrize("bad", [" 1", "01", "1 ", "+1", "true", ""], ids=repr)
    def test_csv_rejects_entries_not_written_as_0_or_1(self, bad):
        good = report.table_to_csv(best_response_table(PlayerRule.NON_TIREUR))
        assert "\n3,1,1,1," in good
        with pytest.raises(ValueError):
            report.table_from_csv(good.replace("\n3,1,1,1,", f"\n3,1,{bad},1,", 1))

    @pytest.mark.parametrize("bad", [" 3", "03", "3.0", "+3"], ids=repr)
    def test_csv_rejects_row_index_not_written_as_emitted(self, bad):
        good = report.table_to_csv(best_response_table(PlayerRule.NON_TIREUR))
        with pytest.raises(ValueError):
            report.table_from_csv(good.replace("\n3,", f"\n{bad},", 1))

    @pytest.mark.parametrize("bad", ["0", "1", 2, 0.5, None], ids=repr)
    def test_structured_rejects_entries_other_than_0_1(self, bad):
        obj = report.table_to_structured(best_response_table(PlayerRule.TIREUR))
        obj["rows"][2][5] = bad
        with pytest.raises(ValueError):
            report.table_from_structured(json.loads(json.dumps(obj)))

    def test_structured_rejects_a_row_of_zero_strings(self):
        obj = report.table_to_structured(best_response_table(PlayerRule.TIREUR))
        obj["rows"] = [["0"] * 11 for _ in range(8)]
        with pytest.raises(ValueError):
            report.table_from_structured(obj)

    @pytest.mark.parametrize(
        "bad",
        [
            {},
            {"columns": list(report.COLUMN_LABELS)},
            {"rows": [[0] * 11] * 8},
            {"columns": list(report.COLUMN_LABELS), "rows": 5},
            {"columns": "0,1,2,3,4,5,6,7,8,9,stand", "rows": [[0] * 11] * 8},
            {"columns": list(report.COLUMN_LABELS), "rows": [5] * 8},
            [[0] * 11] * 8,
        ],
        ids=["empty", "no-rows", "no-columns", "rows-an-int", "columns-a-string", "rows-of-ints", "not-an-object"],
    )
    def test_structured_rejects_malformed_objects(self, bad):
        with pytest.raises(ValueError):
            report.table_from_structured(bad)

    def test_csv_rejects_missing_rows(self):
        good = report.table_to_csv(best_response_table(PlayerRule.NON_TIREUR))
        truncated = "\n".join(good.splitlines()[:-1]) + "\n"
        with pytest.raises(ValueError):
            report.table_from_csv(truncated)

    def test_markdown_contains_all_cells(self):
        table = best_response_table(PlayerRule.TIREUR)
        text = report.table_to_markdown(table)
        assert text.splitlines()[0] == "| total | " + " | ".join(report.COLUMN_LABELS) + " |"
        assert len(text.splitlines()) == 10


class TestStatsSerialization:
    STATS = StatTriple(Fraction(10176, 23153), Fraction(2976, 23153), Fraction(175, 23153))

    def test_line_exact(self):
        assert report.stats_line(self.STATS) == "W=10176/23153 T=2976/23153 E=175/23153"

    def test_line_decimal(self):
        assert report.stats_line(self.STATS, exact=False) == "W=0.439511 T=0.128536 E=0.007558"

    def test_csv_includes_derived_stats(self):
        lines = report.stats_to_csv(self.STATS).splitlines()
        assert lines[0] == "stat,num,den,decimal"
        assert [line.split(",")[0] for line in lines[1:]] == ["W", "T", "E", "L", "C"]

    def test_structured_fields(self):
        obj = report.stats_to_structured(self.STATS, command="five")
        assert obj["command"] == "five"
        assert obj["win"] == {"num": 10176, "den": 23153, "decimal": "0.439511"}
        # 10001/23153 in canonical form.
        assert report.fraction_from_object(obj["loss"]) == Fraction(23153 - 10176 - 2976, 23153)
        assert obj["loss"] == {"num": 73, "den": 169, "decimal": "0.431953"}


class TestMatrixAndSolutionSerialization:
    def test_matrix_markdown_exact(self):
        text = report.matrix_to_markdown(five_matrix())
        assert "-44/1781" in text and "175/23153" in text

    def test_matrix_csv_rows(self):
        lines = report.matrix_to_csv(five_matrix()).splitlines()
        assert lines[0] == "row,col,num,den,decimal"
        assert len(lines) == 5

    def test_solution_structured(self):
        game = solve_2x2(five_matrix())
        obj = report.solution_to_structured(game, command="solve", game="five")
        assert obj["kind"] == "mixed"
        assert report.fraction_from_object(obj["value"]) == game.value
        assert [report.fraction_from_object(w) for w in obj["row_mix"]] == list(game.row_mix)

    def test_solution_csv(self):
        lines = report.solution_to_csv(solve_2x2(five_matrix())).splitlines()
        assert lines[0] == "field,num,den,decimal"
        assert lines[1].startswith("value,341,22194,")
