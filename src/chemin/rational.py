"""Exact rational numbers and their text renderings.

The whole engine computes in exact rational arithmetic; floats never
enter a probability or expectation path.  Values are the stdlib
``fractions.Fraction``, which already guarantees the invariants we rely
on: canonical form (positive denominator, gcd of numerator and
denominator equal to 1) enforced at construction, arbitrary-precision
integers, and exact arithmetic and comparisons.

Decimal output is rendering only: ``render_decimal`` rounds half away
from zero at a caller-chosen precision, ``render_sqrt`` does the same for
the square root of a rational (a standard error) through integer square
roots, and neither result ever feeds back into a computation.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


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


def render_sqrt(value: Fraction, places: int) -> str:
    """The square root of ``value`` at ``places`` digits, correctly rounded
    with halves away from zero, as ``render_decimal`` would round it."""
    if value < 0:
        raise ValueError(f"no real square root of {value}")
    if places < 1:
        raise ValueError(f"places must be >= 1, got {places}")
    scale = 10**places
    # isqrt(floor(4y)) = floor(2 sqrt(y)) for y = value * scale**2, and
    # (floor(2 sqrt(y)) + 1) // 2 is sqrt(y) rounded half up.
    twice = isqrt(4 * value.numerator * scale**2 // value.denominator)
    return render_decimal(Fraction((twice + 1) // 2, scale), places)
