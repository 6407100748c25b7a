"""Exact rational arithmetic helpers.

Every rational quantity in this package (discrepancies, chi differences,
intersection numbers) is a stdlib ``fractions.Fraction``, which is always
stored reduced with positive denominator.  No float ever enters the core;
``parse_rat`` deliberately rejects them.
"""

from fractions import Fraction


def parse_rat(value):
    """Parse a rational from "p/q" / "p" strings, [p, q] pairs, or ints.

    Floats and booleans are rejected, also as entries of a [p, q] pair.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    if isinstance(value, (list, tuple)) and len(value) == 2:
        if any(isinstance(x, (bool, float)) for x in value):
            raise ValueError(f"[p, q] needs integers, got {value!r}")
        return Fraction(int(value[0]), int(value[1]))
    raise ValueError(f"cannot parse a rational from {value!r}")


def format_rat(q):
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
