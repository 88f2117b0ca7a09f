"""Exact-number contract: canonical form, exact arithmetic, rendering."""

from __future__ import annotations

import math
import random
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chemin import as_rational, render_decimal, render_exact
from chemin.rational import render_sqrt

fractions = st.fractions(max_denominator=10**6)


class TestCanonicalForm:
    def test_constructor_reduces(self):
        value = Fraction(-299, 1157)
        assert (value.numerator, value.denominator) == (-23, 89)

    def test_denominator_positive(self):
        value = Fraction(3, -7)
        assert value.denominator > 0 and value.numerator == -3

    @given(fractions)
    def test_always_canonical(self, value):
        assert value.denominator > 0
        assert math.gcd(abs(value.numerator), value.denominator) == 1

    @given(fractions, fractions)
    def test_arithmetic_exact(self, a, b):
        assert (a + b) - b == a
        assert a * b == b * a
        if b != 0:
            assert (a / b) * b == a


class TestAsRational:
    @pytest.mark.parametrize(
        "text,expected",
        [("1/2", Fraction(1, 2)), ("-3/9", Fraction(-1, 3)), ("0.25", Fraction(1, 4)), ("7", Fraction(7))],
    )
    def test_parses_text(self, text, expected):
        assert as_rational(text) == expected

    def test_accepts_int_and_fraction(self):
        assert as_rational(3) == 3
        assert as_rational(Fraction(2, 4)) == Fraction(1, 2)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            as_rational(0.5)

    @given(fractions)
    def test_round_trips_exact_rendering(self, value):
        assert as_rational(render_exact(value)) == value


class TestRenderDecimal:
    @pytest.mark.parametrize(
        "value,places,expected",
        [
            (Fraction(-44, 1781), 6, "-0.024705"),
            (Fraction(287, 23153), 6, "0.012396"),
            (Fraction(132, 1781), 6, "0.074116"),
            (Fraction(1, 2), 1, "0.5"),
            (Fraction(3), 2, "3.00"),
            (Fraction(-3, 4), 2, "-0.75"),
        ],
    )
    def test_known_renderings(self, value, places, expected):
        assert render_decimal(value, places) == expected

    def test_halves_round_away_from_zero(self):
        assert render_decimal(Fraction(5, 1000), 2) == "0.01"
        assert render_decimal(Fraction(-5, 1000), 2) == "-0.01"
        assert render_decimal(Fraction(15, 1000), 2) == "0.02"

    def test_rounded_to_zero_drops_sign(self):
        assert render_decimal(Fraction(-1, 10**9), 3) == "0.000"

    def test_rejects_nonpositive_places(self):
        with pytest.raises(ValueError):
            render_decimal(Fraction(1, 2), 0)

    @given(fractions, st.integers(min_value=1, max_value=12))
    def test_rendering_error_at_most_half_ulp(self, value, places):
        rendered = Fraction(render_decimal(value, places))
        assert abs(rendered - value) <= Fraction(1, 2 * 10**places)

    @given(fractions, st.integers(min_value=1, max_value=8))
    def test_higher_precision_consistent(self, value, places):
        # Re-rendering the finer text at the coarser precision must agree
        # up to one ulp (the tie can break the other way after truncation).
        coarse = Fraction(render_decimal(value, places))
        fine = Fraction(render_decimal(value, places + 4))
        assert abs(coarse - fine) <= Fraction(1, 2 * 10**places)


def decimal_sqrt(value: Fraction, places: int) -> str:
    """Oracle: ``decimal``'s square root at 200 digits, rounded half up;
    it shares no code with ``render_sqrt``'s integer square roots."""
    with localcontext() as context:
        context.prec = 200
        root = (Decimal(value.numerator) / Decimal(value.denominator)).sqrt()
        return f"{root.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_UP):f}"


class TestRenderSqrt:
    def test_matches_decimal_oracle(self):
        rng = random.Random(25)
        for _ in range(10_000):
            value = Fraction(rng.randrange(10 ** rng.randint(1, 30)), rng.randrange(1, 10 ** rng.randint(1, 30)))
            places = rng.randint(1, 40)
            assert render_sqrt(value, places) == decimal_sqrt(value, places), (value, places)

    def test_zero_and_exact_squares(self):
        assert render_sqrt(Fraction(0), 3) == "0.000"
        assert render_sqrt(Fraction(4), 2) == "2.00"
        assert render_sqrt(Fraction(9, 4), 1) == "1.5"

    def test_half_in_the_last_place_rounds_away_from_zero(self):
        assert render_sqrt(Fraction(1, 16), 1) == "0.3" == render_decimal(Fraction(1, 4), 1)
        assert render_sqrt(Fraction(1, 64), 2) == "0.13" == render_decimal(Fraction(1, 8), 2)

    def test_standard_error_digits(self):
        # sqrt(455 * 545 / 1000**3): the W error of 455 wins in 1000 coups.
        assert render_sqrt(Fraction(455 * 545, 1000**3), 20) == "0.01574722197722506228"

    def test_rejects_negative_value_and_nonpositive_places(self):
        with pytest.raises(ValueError):
            render_sqrt(Fraction(-1, 4), 2)
        with pytest.raises(ValueError):
            render_sqrt(Fraction(1, 4), 0)


class TestRenderExact:
    def test_integer_renders_bare(self):
        assert render_exact(Fraction(4, 2)) == "2"

    def test_sign_on_numerator(self):
        assert render_exact(Fraction(1, -2)) == "-1/2"

    def test_canonical_fraction(self):
        assert render_exact(Fraction(-299, 1157)) == "-23/89"
