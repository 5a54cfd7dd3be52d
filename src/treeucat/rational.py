"""Exact rational helpers.

Values are exact: a density keeps each as its reduced `(numerator,
denominator)` pair of ints, and edge lengths are `fractions.Fraction`s.
Floats are rejected at the boundary so no rounding can sneak in.
`shown` writes a value into a message or report, with a stand-in for one
too long for `str`.
"""

from __future__ import annotations

import sys
from fractions import Fraction


def as_fraction(value) -> Fraction:
    """Convert an int, exact string ("3", "2/3", "0.25") or Fraction.

    Floats are refused: they carry binary rounding and would make exact
    zero detection meaningless.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"expected a rational, got bool {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not an exact rational: {value!r}") from exc
    if isinstance(value, float):
        raise TypeError(
            f"floats are not accepted (got {value!r}); pass a string like '1/3'"
        )
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def shown(value) -> str:
    """`str(value)`, or for a number whose numerator or denominator is too
    long for `str`, a fixed stand-in: raising the interpreter's limit would
    make printing quadratic in the length of a document."""
    try:
        return str(value)
    except ValueError:  # an integer past the interpreter's digit limit
        return f"a number with more than {sys.get_int_max_str_digits():,} digits"
