"""Exact rational arithmetic helpers.

Every rational quantity in this package (discrepancies, chi differences,
intersection numbers) is a stdlib ``fractions.Fraction``, which is always
stored reduced with positive denominator.  No float ever enters the core;
``parse_rat`` deliberately rejects them.
"""

import re
import sys
from fractions import Fraction

from .errors import InvalidParameter, _rational

# an optional "-" and ASCII digits only: int() and Fraction() alone also
# take "1_0", " 7", "+7", other scripts' digits and, for Fraction, "1.5";
# each run of digits is held to the interpreter's int-string digit limit
# as it stands at import, since the CLI lifts that limit while it answers
_DIGITS = f"[0-9]{{1,{sys.get_int_max_str_digits() or ''}}}"
_INTEGER = f"-?{_DIGITS}"
_RATIONAL = f"{_INTEGER}(/{_DIGITS})?"


def parse_int(value):
    """An int, or a string matching -?[0-9]+ within the digit limit;
    never a bool or a float."""
    if isinstance(value, str) and re.fullmatch(_INTEGER, value):
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"not an integer: {value!r}")
    return value


def parse_rat(value):
    """Parse a rational from "p/q" / "p" strings, [p, q] pairs, or ints.

    Strings must match -?[0-9]+(/[0-9]+)?, each run of digits within the
    interpreter's int-string digit limit, and a pair's entries follow
    ``parse_int``.  Floats and booleans are rejected, also inside a pair.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and re.fullmatch(_RATIONAL, value):
        return Fraction(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return Fraction(*map(parse_int, value))
    raise ValueError(f"cannot parse a rational from {value!r}")


def format_rat(q):
    """Render an int or a Fraction as "p/q", or "p" when the denominator
    is 1; anything else is an InvalidParameter."""
    q = _rational(q, "rational", InvalidParameter)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
