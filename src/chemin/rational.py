"""Exact rational numbers and their text renderings.

The whole engine computes in exact rational arithmetic; floats never
enter a probability or expectation path.  Values are the stdlib
``fractions.Fraction``, which already guarantees the invariants we rely
on: canonical form (positive denominator, gcd of numerator and
denominator equal to 1) enforced at construction, arbitrary-precision
integers, and exact arithmetic and comparisons.

Decimal output is rendering only: ``render_decimal`` rounds half away
from zero at a caller-chosen precision, and its result never feeds back
into a computation.
"""

from __future__ import annotations

from fractions import Fraction


def as_rational(value: int | str | Fraction) -> Fraction:
    """Coerce an int, a "p/q" string, or a decimal string to a Fraction.

    Floats are rejected: they would smuggle binary rounding error into
    paths that must stay exact.
    """
    if isinstance(value, float):
        raise TypeError("floats are not accepted in exact computations")
    return Fraction(value)


def render_exact(value: Fraction) -> str:
    """Canonical "p/q" text, "p" alone for integers, sign on the numerator."""
    return str(value)


def render_decimal(value: Fraction, places: int) -> str:
    """Fixed-point text with ``places`` digits, halves rounded away from zero."""
    if places < 1:
        raise ValueError(f"places must be >= 1, got {places}")
    digits, remainder = divmod(abs(value.numerator) * 10**places, value.denominator)
    if 2 * remainder >= value.denominator:
        digits += 1
    text = str(digits).rjust(places + 1, "0")
    sign = "-" if value < 0 and digits else ""
    return f"{sign}{text[:-places]}.{text[-places:]}"
