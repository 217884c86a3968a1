from fractions import Fraction

import pytest

from joinlab import InvalidInputError, as_fraction, format_rational, parse_rational


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


@pytest.mark.parametrize("bad", [0.5, float("nan"), True, False, [1], (1, 2)])
def test_as_fraction_rejects_inexact_and_bool(bad):
    with pytest.raises(InvalidInputError):
        as_fraction(bad)


def test_parse_rejects_literal_past_the_int_digit_limit():
    # Python refuses int conversion past 4300 digits; that is invalid input,
    # not an internal fault
    with pytest.raises(InvalidInputError, match="digits"):
        parse_rational("1" * 5000 + "/3")
