"""Wire codec for exact rationals."""

from fractions import Fraction

import pytest

from wresolve.rationals import format_rat, parse_int, parse_rat


def test_parse_forms():
    assert parse_rat("3/4") == Fraction(3, 4)
    assert parse_rat("-7/2") == Fraction(-7, 2)
    assert parse_rat("5") == 5
    assert parse_rat(5) == 5
    assert parse_rat([3, 9]) == Fraction(1, 3)
    assert parse_rat(["-3", "9"]) == Fraction(-1, 3)  # entries follow parse_int
    assert parse_rat("0009/3") == 3
    assert parse_rat(Fraction(2, 6)) == Fraction(1, 3)


def test_parse_int():
    assert parse_int("-12") == -12
    assert parse_int(7) == 7
    for value in ("1_0", " 7", "+7", "\u0663", "7\n", "", True, 7.0, None):
        with pytest.raises(ValueError):
            parse_int(value)


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
    # strings must match -?[0-9]+(/[0-9]+)?; Fraction() alone takes these
    for value in ("1_0/9", "\u0663/9", "+1/9", " 1/9", " -7/2 ", "1/9\n", "1.5",
                  "1e-2", "1/-9", "", ["1_0", 9], [" 1", 9], ["1/2", 1]):
        with pytest.raises(ValueError):
            parse_rat(value)


def test_format():
    assert format_rat(Fraction(3, 4)) == "3/4"
    assert format_rat(Fraction(-1, 10)) == "-1/10"
    assert format_rat(Fraction(8, 4)) == "2"
    assert format_rat(0) == "0"


def test_round_trip():
    for q in (Fraction(0), Fraction(22, 7), Fraction(-9, 2), Fraction(4)):
        assert parse_rat(format_rat(q)) == q
