"""Exact rational helpers.

Values are exact: a density keeps each as its reduced `(numerator,
denominator)` pair of ints, and edge lengths are `fractions.Fraction`s.
Floats are rejected at the boundary so no rounding can sneak in.
"""

from __future__ import annotations

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

