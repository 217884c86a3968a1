from fractions import Fraction
from types import SimpleNamespace

import pytest

from joinlab import (
    FiniteSpace,
    InvalidInputError,
    JoiningTensor,
    ResourceLimitError,
    as_fraction,
    format_rational,
    parse_rational,
)
from joinlab.rationals import show

# each under the 4,300-digit limit for int-to-str conversion; their sum is not
TINY_A, TINY_B = Fraction(1, 3**8000), Fraction(1, 7**5000)


def test_parse_plain_and_slash():
    assert parse_rational("3") == 3
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("+2/6") == Fraction(1, 3)
    assert parse_rational("0") == 0


@pytest.mark.parametrize(
    "bad",
    [
        "", "1/0", "1/-2", "1.5", "a", "1 / 2", "1/2/3", "0x3", "1/", "/2", None, 7,
        "1/2\n", "\u0663/4",
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(InvalidInputError):
        parse_rational(bad)


def test_format_always_has_denominator():
    assert format_rational(Fraction(0)) == "0/1"
    assert format_rational(Fraction(1, 16)) == "1/16"
    assert format_rational(Fraction(-2, 4)) == "-1/2"
    assert format_rational(3) == "3/1"


def test_parse_format_roundtrip():
    for num in range(-12, 13):
        for den in range(1, 9):
            q = Fraction(num, den)
            assert parse_rational(format_rational(q)) == q


def test_as_fraction_accepts_exact_types():
    assert as_fraction(5) == 5
    assert as_fraction(Fraction(2, 3)) == Fraction(2, 3)
    assert as_fraction("7/2") == Fraction(7, 2)


@pytest.mark.parametrize(
    "bad",
    [0.5, float("nan"), True, False, [1], (1, 2),
     SimpleNamespace(numerator=1, denominator=2)],
)
def test_as_fraction_rejects_inexact_and_bool(bad):
    with pytest.raises(InvalidInputError):
        as_fraction(bad)


def test_parse_rejects_literal_past_the_int_digit_limit():
    # Python refuses int conversion past 4300 digits; that is invalid input,
    # not an internal fault
    with pytest.raises(InvalidInputError, match="digits"):
        parse_rational("1" * 5000 + "/3")


def test_unprintable_values_are_described_by_digit_count():
    assert show(Fraction(3, 4)) == "3/4"
    assert show((Fraction(1, 2),)) == "(Fraction(1, 2),)"
    assert show(10**5000) == "a rational of 5001/1 digits"
    assert show(TINY_A + TINY_B) == "a rational of 4226/8043 digits"
    assert show((Fraction(1, 2), TINY_A + TINY_B)) == (
        "(1/2, a rational of 4226/8043 digits)"
    )
    for n in (9, 10, 10**4299 - 1, 10**4299, 3**8000, 7**5000):
        assert show(Fraction(n, n + 1)) == f"{n}/{n + 1}"
    for k in range(4301, 4321):
        assert show(Fraction(10**k - 1)) == f"a rational of {k}/1 digits"
        assert show(Fraction(-(10**k), 7)) == f"a rational of {k + 1}/1 digits"
    with pytest.raises(ResourceLimitError, match=r"cannot print a rational of 4226/8043"):
        format_rational(TINY_A + TINY_B)


def test_validation_messages_survive_unprintable_values():
    with pytest.raises(InvalidInputError, match=r"sum to 1, got a rational of"):
        FiniteSpace((TINY_A, TINY_B))
    # mass one, but the marginal onto coordinate 0 is unprintable
    half = Fraction(1, 2)
    entries = (TINY_A, TINY_B, half, half - TINY_A - TINY_B)
    u2 = FiniteSpace.uniform(2)
    with pytest.raises(
        InvalidInputError,
        match=r"coordinate 0 is \(a rational of 4226/8043 digits, a rational of",
    ):
        JoiningTensor((u2, u2), entries)
