"""Exact rational helpers.

Everything user-facing is a ``fractions.Fraction``; an int, a ``Fraction``
or a canonical ``p/q`` string is accepted on input.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import log10

from .errors import InvalidInputError, ResourceLimitError

# Strict "p/q" or integer literal; ASCII digits only, no floats, no whitespace.
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")


def fast_rational_type():
    """Return (constructor, name) of the rational type: always ``Fraction``."""
    # the benchmark's environment block reads this name
    return Fraction, "fractions.Fraction"


def as_fraction(value) -> Fraction:
    """Coerce int / str / Fraction to Fraction.  Floats are rejected:
    a binary float silently misrepresents most decimal inputs."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidInputError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise InvalidInputError(
            f"float {value!r} rejected; pass an int, Fraction or 'p/q' string"
        )
    if isinstance(value, str):
        return parse_rational(value)
    raise InvalidInputError(f"not a rational: {value!r}")


def parse_rational(text: str) -> Fraction:
    """Parse a canonical rational literal: '3', '-2/7', '0/1'."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise InvalidInputError(f"malformed rational literal: {text!r}")
    try:
        return Fraction(text)
    except ValueError:
        # Python refuses to convert an integer literal past its digit limit
        raise InvalidInputError(
            f"rational literal has a part of more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def format_rational(value) -> str:
    """Canonical 'p/q' form, lowest terms, explicit positive denominator.

    A part past Python's int-to-str limit raises ``ResourceLimitError``."""
    f = as_fraction(value)
    try:
        return f"{f.numerator}/{f.denominator}"
    except ValueError:
        raise ResourceLimitError(
            f"cannot print {show(f)}: a part has more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def _digits(n: int) -> int:
    """Decimal digits of |n|, without converting it to a string."""
    n = abs(n)
    d = int(n.bit_length() * log10(2))  # digits - 1 or digits
    return d + (n >= 10**d)


def show(value) -> str:
    """``str(value)`` for an error message.  A rational with a part past
    Python's int-to-str limit is described by its digit counts instead (a
    tuple element by element), so the message never fails to format."""
    try:
        return str(value)
    except ValueError:
        if isinstance(value, tuple):
            return "(" + ", ".join(map(show, value)) + ")"
        p, q = _digits(value.numerator), _digits(value.denominator)
        return f"a rational of {p}/{q} digits"
