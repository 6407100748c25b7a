"""Wire codec for exact rationals."""

from fractions import Fraction

import pytest

from wresolve.rationals import format_rat, parse_rat


def test_parse_forms():
    assert parse_rat("3/4") == Fraction(3, 4)
    assert parse_rat(" -7/2 ") == Fraction(-7, 2)
    assert parse_rat("5") == 5
    assert parse_rat(5) == 5
    assert parse_rat([3, 9]) == Fraction(1, 3)
    assert parse_rat(Fraction(2, 6)) == Fraction(1, 3)


def test_parse_rejections():
    with pytest.raises(ValueError):
        parse_rat(True)
    with pytest.raises(ValueError):
        parse_rat(0.5)
    with pytest.raises(ValueError):
        parse_rat("three")
    with pytest.raises(ValueError):
        parse_rat([2.7, 1])
    with pytest.raises(ValueError):
        parse_rat([True, 2])
    with pytest.raises(ZeroDivisionError):
        parse_rat([1, 0])


def test_format():
    assert format_rat(Fraction(3, 4)) == "3/4"
    assert format_rat(Fraction(-1, 10)) == "-1/10"
    assert format_rat(Fraction(8, 4)) == "2"
    assert format_rat(0) == "0"


def test_round_trip():
    for q in (Fraction(0), Fraction(22, 7), Fraction(-9, 2), Fraction(4)):
        assert parse_rat(format_rat(q)) == q
