"""Exact rational helpers.

Numbers are exact: inside the package each is its reduced `(numerator,
denominator)` pair of ints, a density's values and a tree's edge lengths
alike, and `fractions.Fraction`s appear only in id-level views and
reports. Floats are rejected at the boundary so no rounding can sneak
in. `as_fraction` reads an int, a string or a `Fraction`, and
`reduced_pair` checks and reduces a given pair. `overlong` words the
refusal of a numeral past the length bound, for `as_fraction` and for a
document's integer literals alike. `shown` writes a value into a message
or report, with a stand-in for one too long for `str`, and `unwritable`
words the refusal of a value that `str` cannot write at all.

`as_fraction` is the one place a numeral string is matched, against one
grammar that holds on every CPython: CPython 3.11's `Fraction(str)`
spellings, in ASCII. Inside optional whitespace come an optional sign
and then either "p/q", digits p and q with no space around the "/", or a
decimal: digits, an optional "." and digits after it, and an optional
exponent, "e" or "E" with an optional sign and digits; either side of
the point may be empty, but not both. Digits may be grouped by single
underscores. So "3", " -1_000/3 ", "0.25", ".5", "1." and "2.5E-3" are
numerals, and "3 /4", "1__0", "3/-4" and any non-ASCII digit or space
are not. A numeral has at most `MAX_NUMERAL_CHARS` characters and an
exponent of at most `MAX_DECIMAL_EXPONENT` in absolute value, both
checked before any power of ten is taken, so that "1e10000000" cannot
ask for a 33-million-bit integer; only then is the value built, by
`Fraction` from the numeral with its underscores removed, which every
CPython reads alike.
"""

from __future__ import annotations

import re
import reprlib
import sys
from fractions import Fraction
from math import gcd

MAX_NUMERAL_CHARS = 10_000
MAX_DECIMAL_EXPONENT = 1_000
# the module docstring's grammar; "(?a)" makes its whitespace ASCII too
_DIGITS = "[0-9]+(?:_[0-9]+)*"
_NUMERAL = re.compile(
    rf"(?a)\s*[-+]?(?=\.?[0-9])(?:{_DIGITS})?"
    rf"(?:/{_DIGITS}|(?:\.(?:{_DIGITS})?)?(?:[eE](?P<exp>[-+]?{_DIGITS}))?)\s*"
)


def as_fraction(value) -> Fraction:
    """Convert an int, exact string ("3", "2/3", "0.25") or Fraction.

    A string must be a numeral within the bounds, as the module docstring
    says; any other, or one with a zero denominator or a part past the
    interpreter's digit limit, is a ValueError whose message names it.
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
        if (message := overlong(value)) is not None:
            raise ValueError(message)
        if (numeral := _NUMERAL.fullmatch(value)) is not None:
            # the exponent's digits after its sign and leading zeros
            digits = (numeral["exp"] or "").lstrip("+-0_").replace("_", "")
            too_long = len(digits) > len(str(MAX_DECIMAL_EXPONENT))
            if too_long or int(digits or 0) > MAX_DECIMAL_EXPONENT:
                raise ValueError(
                    f"decimal exponent of {reprlib.repr(value)} exceeds"
                    f" {MAX_DECIMAL_EXPONENT} in absolute value"
                )
            try:
                return Fraction(value.replace("_", ""))
            except (ValueError, ZeroDivisionError):
                pass  # a zero denominator, or a part past the digit limit
        raise ValueError(f"not an exact number: {reprlib.repr(value)}")
    if isinstance(value, float):
        raise TypeError(
            f"floats are not accepted (got {value!r}); pass a string like '1/3'"
        )
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def overlong(text: str) -> str | None:
    """The message refusing the numeral `text` if it has more than
    `MAX_NUMERAL_CHARS` characters, a bound checked before any conversion;
    None if it has not."""
    if len(text) > MAX_NUMERAL_CHARS:
        return (
            f"numeral has {len(text)} characters, at most"
            f" {MAX_NUMERAL_CHARS} are allowed"
        )
    return None


def reduced_pair(raw: tuple, what: str, *args) -> tuple[int, int]:
    """The tuple `raw`, a pair of ints (not bools) with a positive
    denominator, reduced by their gcd, and itself if already reduced;
    anything else is a TypeError naming it `what.format(*args)`."""
    p, q = raw if len(raw) == 2 else (None, None)
    if type(p) is not int or type(q) is not int or q <= 0:
        raise TypeError(
            f"{what.format(*args)} is not a pair of ints with a positive denominator"
        )
    g = gcd(p, q)
    return raw if g == 1 else (p // g, q // g)


def shown(value) -> str:
    """`str(value)`, or for a number whose numerator or denominator is too
    long for `str`, a fixed stand-in: raising the interpreter's limit would
    make printing quadratic in the length of a document."""
    try:
        return str(value)
    except ValueError:  # an integer past the interpreter's digit limit
        return f"a number with more than {sys.get_int_max_str_digits():,} digits"


def unwritable(p: int, q: int, what: str, *args) -> str | None:
    """The message refusing the value p/q, named `what.format(*args)`, if
    `str` cannot write p or q, past the interpreter's digit limit; None if
    it can. `str` reads the limit, `sys.get_int_max_str_digits()`, where 0
    means no limit."""
    try:
        str(p), str(q)
    except ValueError:
        return (
            f"cannot write {what.format(*args)}: its numerator or denominator"
            f" has more than {sys.get_int_max_str_digits():,} digits, the output"
            " limit"
        )
    return None
