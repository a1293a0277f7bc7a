"""Exact rational helpers shared across the toolkit.

Rationals travel as strings like ``"3/7"`` in every JSON document this
package emits; these helpers centralise parsing and formatting so the wire
format stays consistent.
"""

from __future__ import annotations

import math
from fractions import Fraction


def as_fraction(value: Fraction | int | str) -> Fraction:
    """Coerce ``value`` to an exact ``Fraction``.

    Accepts Fractions, ints, and strings such as ``"3/7"`` or ``"-2"``.
    Booleans are rejected, although ``bool`` is a subclass of ``int``: a
    JSON ``true`` is not the number 1.  Floats are rejected on purpose:
    silently turning 0.1 into 3602879701896397/36028797018963968 is never
    what an exact pipeline wants, so callers must convert explicitly (for
    example with ``Fraction(x).limit_denominator``).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(
        f"expected a rational (Fraction, int, or 'p/q' string), got {type(value).__name__}"
    )


def frac_str(value: Fraction) -> str:
    """Format a rational for JSON: lowest terms, ``"p/q"`` or plain ``"p"``."""
    return str(value)


def rational_sqrt(value) -> Fraction | None:
    """Exact square root of a non-negative rational, or None if irrational."""
    f = as_fraction(value)
    if f < 0:
        raise ValueError("square root of a negative rational")
    root_num = math.isqrt(f.numerator)
    root_den = math.isqrt(f.denominator)
    if root_num * root_num == f.numerator and root_den * root_den == f.denominator:
        return Fraction(root_num, root_den)
    return None
