"""Intersection numbers on extremal neighborhoods.

For an extremal curve germ C in X the canonical degree decomposes as

    K_X . C = -1 + sum_P w_P(0),    0 <= w_P(0) <= (r_P - 1) / r_P,

one term per singular point on C.  After the depth-one extraction
Y -> X at a distinguished point P of index r, the proper transform C_Y
picks up the correction

    K_Y . C_Y = K_X . C + (C_Y . F) / r,

where F is the fiber of the extraction over P and C_Y . F depends only
on the case shape.  For a cA-type point of type (r; a1, a2) the fiber
degree is a1 / r1 where r1 > 0 satisfies r1 = a1 * a2^(-1) mod r; any
positive member of the congruence class is treated as admissible, with
the minimal one as default.

Case shapes handled (the first two need the caller to supply K_X . C,
since w_P(0) comes from an external classification):

    IC                one point, index r odd >= 5, C_Y . F = 1
    IIB               cAx/4 point, C_Y . F = min(3/r1, 2/r2)
    IA                generic (r; a1, a2) point
    ExceptionalIAIA   (r; 1, a2) plus an index-2 point, a2 > r/2
    SemistableIAIA    (r; 1, a) plus (r'; 1, a'), delta = ar' + a'r - rr' > 0
    IAIAIII           same numbers as ExceptionalIAIA, with a type III
                      companion point

Each shape's rules (its K_X . C ceiling or its own K_X . C, its fixed
C_Y . F or its r1 congruence, its index) are attributes of its class, set
over the defaults of ``_Shape``; ``minimal_r1``, ``cf_intersection`` and
``key_check`` read them and branch on no shape.

No attempt is made to verify that a case shape is geometrically
realizable; only the stated congruences and bounds are enforced.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .errors import InvalidCaseData, _Record, _int, _rational


class ENPoint(_Record, namedtuple("ENPoint", "r w0")):
    """A singular point on the extremal curve: index r and its w_P(0)."""

    __slots__ = ()

    def __new__(cls, r, w0=Fraction(0)):
        if _int(r, "point index", InvalidCaseData) < 1:
            raise InvalidCaseData("point index must be >= 1")
        w0 = _rational(w0, "w_P(0)", InvalidCaseData)
        if not (0 <= w0 <= Fraction(r - 1, r)):
            raise InvalidCaseData(
                f"w_P(0) = {w0} outside [0, (r-1)/r] for r = {r}"
            )
        return super().__new__(cls, r, w0)


def canonical_degree(points) -> Fraction:
    """K_X . C = -1 + sum of w_P(0); flipping germs give a negative value.
    points must be a collection of ENPoints (InvalidCaseData otherwise)."""
    try:
        return Fraction(-1) + sum((p.w0 for p in points), Fraction(0))
    except (TypeError, AttributeError):  # not a collection, or not of points
        raise InvalidCaseData(f"points must be ENPoints, not {points!r}") from None


def _not_ints(cls, values) -> InvalidCaseData:
    """The error of an en case whose data are not all ints: a float or a
    bool is refused, not truncated."""
    return InvalidCaseData(f"{_case_name(cls)} data must be ints, got {values!r}")


class _Shape:
    """The rules of an en case shape, as attributes its class sets; the
    ``key_check`` entry points read nothing else of the shape.

    _kx_max: the ceiling of the caller's K_X . C (its floor is -1); None
    when the shape computes K_X . C itself, and _own_kx gives it with s
    and delta.  _cf: the fixed fiber degree C_Y . F, which leaves no r1
    free; None when C_Y . F = c / r1 for the r1 = c u^(-1) mod r of
    _congruence = (c, u).  _index: the index that divides C_Y . F.
    """

    __slots__ = ()
    _kx_max = _own_kx = _cf = _congruence = None
    _index = property(lambda self: self.r)


class ICCase(_Record, _Shape, namedtuple("ICCase", "r")):
    __slots__ = ()
    _kx_max = property(lambda self: Fraction(-1, self.r))
    _cf = Fraction(1)

    def __new__(cls, r):
        if type(r) is not int:
            raise _not_ints(cls, (r,))
        if r < 5 or r % 2 == 0:
            raise InvalidCaseData("IC needs odd r >= 5")
        return super().__new__(cls, r)


class IIBCase(_Record, _Shape, namedtuple("IIBCase", "r1 r2 r3 r4")):
    """A cAx/4 point: index 4, C_Y . F = min(3/r1, 2/r2)."""

    __slots__ = ()
    _kx_max, _index = Fraction(-1, 4), 4

    def __new__(cls, r1, r2, r3, r4):
        if not (type(r1) is type(r2) is type(r3) is type(r4) is int):
            raise _not_ints(cls, (r1, r2, r3, r4))
        if (r1 < 1 or r1 % 4 != 3 or r2 < 1 or r2 % 4 != 2
                or r3 < 1 or r3 % 4 != 1 or r4 < 1 or r4 % 4 != 1):
            raise InvalidCaseData(
                f"IIB weights must be = (3, 2, 1, 1) mod 4, got {(r1, r2, r3, r4)}"
            )
        return tuple.__new__(cls, (r1, r2, r3, r4))

    @property
    def _cf(self):
        # 3/r1 <= 2/r2 exactly when 3 r2 <= 2 r1; only the smaller is built
        if 3 * self.r2 <= 2 * self.r1:
            return Fraction(3, self.r1)
        return Fraction(2, self.r2)


class IACase(_Record, _Shape, namedtuple("IACase", "r a1 a2")):
    """Ordinary point of type (r; a1, a2); r1 = a1 a2^(-1) mod r."""

    __slots__ = ()
    _kx_max = Fraction(0)
    _congruence = property(lambda self: (self.a1, self.a2))

    def __new__(cls, r, a1, a2):
        if not (type(r) is type(a1) is type(a2) is int):
            raise _not_ints(cls, (r, a1, a2))
        if r < 2:
            raise InvalidCaseData("IA needs r >= 2")
        for a in (a1, a2):
            if not (0 < a < r) or gcd(a, r) != 1:
                raise InvalidCaseData(
                    f"IA orbifold weights must be units mod r, got {a}"
                )
        return super().__new__(cls, r, a1, a2)


class _A2Shape(_Shape):
    """(r; 1, a2) with r/2 < a2 < r and a companion point: s = 2 a2 - r,
    K_X . C = -s / 2r and r1 = a2^(-1) mod r.  A subclass checks its r
    before the a2 checks here."""

    __slots__ = ()
    _congruence = property(lambda self: (1, self.a2))

    def __new__(cls, r, a2):
        if not (2 * a2 > r and a2 < r):
            raise InvalidCaseData("need r/2 < a2 < r")
        if gcd(a2, r) != 1:
            raise InvalidCaseData("a2 must be a unit mod r")
        return super().__new__(cls, r, a2)

    @property
    def _own_kx(self):
        s = 2 * self.a2 - self.r
        return Fraction(-s, 2 * self.r), s, None


class ExceptionalIAIACase(_Record, _A2Shape, namedtuple("ExceptionalIAIACase", "r a2")):
    """(r; 1, a2) with a2 > r/2 plus the index-2 companion point."""

    __slots__ = ()

    def __new__(cls, r, a2):
        if not (type(r) is type(a2) is int):
            raise _not_ints(cls, (r, a2))
        if r < 3 or r % 2 == 0:
            raise InvalidCaseData("exceptional IA+IA needs odd r >= 3")
        return super().__new__(cls, r, a2)


class SemistableIAIACase(
    _Record, _Shape, namedtuple("SemistableIAIACase", "r a rprime aprime")
):
    """Points (r; 1, a) and (r'; 1, a') with delta = ar' + a'r - rr' > 0;
    K_X . C = -delta / rr' and r1 = a^(-1) mod r."""

    __slots__ = ()
    _congruence = property(lambda self: (1, self.a))

    def __new__(cls, r, a, rprime, aprime):
        if not (type(r) is type(a) is type(rprime) is type(aprime) is int):
            raise _not_ints(cls, (r, a, rprime, aprime))
        if not (r >= rprime >= 2):
            raise InvalidCaseData("need r >= r' >= 2")
        if not (0 < a < r) or gcd(a, r) != 1:
            raise InvalidCaseData("a must be a unit mod r")
        if not (0 < aprime < rprime) or gcd(aprime, rprime) != 1:
            raise InvalidCaseData("a' must be a unit mod r'")
        if a * rprime + aprime * r - r * rprime <= 0:  # delta
            raise InvalidCaseData("semistable shape needs ar' + a'r - rr' > 0")
        return tuple.__new__(cls, (r, a, rprime, aprime))

    @property
    def delta(self) -> int:
        return self.a * self.rprime + self.aprime * self.r - self.r * self.rprime

    @property
    def _own_kx(self):
        delta = self.delta
        return Fraction(-delta, self.r * self.rprime), None, delta


class IAIAIIICase(_Record, _A2Shape, namedtuple("IAIAIIICase", "r a2")):
    """Same numerics as ExceptionalIAIA, with a type III companion."""

    __slots__ = ()

    def __new__(cls, r, a2):
        if not (type(r) is type(a2) is int):
            raise _not_ints(cls, (r, a2))
        if r < 3:
            raise InvalidCaseData("IA+IA+III needs r >= 3")
        return super().__new__(cls, r, a2)


# every case shape, as the ``en`` subcommand offers them
EN_CASES = (
    ICCase, IIBCase, IACase, ExceptionalIAIACase, SemistableIAIACase, IAIAIIICase
)


def minimal_r1(case) -> int:
    """Least positive r1 in the admissible congruence class of the case."""
    if case._congruence is None:
        raise InvalidCaseData(f"{type(case).__name__} has no r1 congruence")
    c, u = case._congruence
    return (c * pow(u, -1, case.r) - 1) % case.r + 1  # least positive member


def _resolve_r1(case, r1: int | None) -> int:
    least = minimal_r1(case)
    if r1 is None:
        return least
    if _int(r1, "r1", InvalidCaseData) < 1 or r1 % case.r != least % case.r:
        raise InvalidCaseData(
            f"r1 = {r1} is not a positive member of the class {least} mod {case.r}"
        )
    return r1


def _case_name(cls) -> str:
    """A case class as the ``en`` subcommand names it: IC, IIB, IA, ..."""
    return cls.__name__.removesuffix("Case")


def _fiber_degree(case, r1: int | None) -> tuple[Fraction, int | None]:
    """C_Y . F and the r1 it used; IC and IIB fix theirs and take no r1."""
    cf = case._cf
    if cf is None:
        use = _resolve_r1(case, r1)
        return Fraction(case._congruence[0], use), use
    if r1 is not None:
        name = _case_name(type(case))
        raise InvalidCaseData(f"{name} fixes its weights; r1 is not free")
    return cf, None


def cf_intersection(case, r1: int | None = None) -> Fraction:
    """Fiber degree C_Y . F of the depth-one extraction for the case."""
    return _fiber_degree(case, r1)[0]


class KeyVerdict(
    namedtuple("KeyVerdict", "ky_cy nonpositive kx_c cf r1 s delta",
               defaults=(None, None, None))
):
    """Post-extraction degree K_Y . C_Y with its ingredients."""

    __slots__ = ()


def key_check(case, kx=None, r1: int | None = None) -> KeyVerdict:
    """Evaluate K_Y . C_Y = K_X . C + (C_Y . F) / r and its sign.

    IC, IIB and plain IA take kx from the caller, validated against the
    w_P(0) bounds ([-1, 0] for IA, as K_X . C = -1 + sum w_P(0)); the
    compound IA cases compute K_X . C themselves.  The index is 4 for IIB
    (its cAx/4 point) and r otherwise.  IC and IIB take no r1.

    The witness inequalities of the compound cases need no check: for
    any admissible r1 >= 1 the case data and the congruence force them.

    * Exceptional IA+IA and IA+IA+III: s = 2 a2 - r >= 1 as a2 > r/2,
      and r1 = a2^(-1) mod r, so s r1 = 2 a2 r1 - r r1 = 2 mod r.  With
      s r1 > 0 and r >= 3 this gives s r1 >= 2.
    * Semistable IA+IA, r1 = a^(-1) mod r: gamma = (a r1 - 1) / r is an
      integer, 0 only if a r1 = 1, i.e. a = 1.  But a = 1 and delta > 0
      give a' r > r r' - r', so a' > r' - r'/r >= r' - 1 as r' <= r,
      against a' < r'.  So gamma >= 1.  Next r1 delta = a^(-1) a r' = r'
      mod r, and r1 delta > 0 with 2 <= r' <= r, so r1 delta >= r'.

    The ``verify`` sweeps check both congruences and both inequalities.

    K_Y . C_Y is formed in one reduction: kx = p/q and cf = c/d give
    (p d index + c q) / (q d index), one Fraction built from integers,
    the same value as kx + cf / index.  Its denominator is positive, so
    its sign is the sign of that integer numerator.
    """
    s = delta = None
    if case._kx_max is not None:
        kx = _require_kx(case, kx, Fraction(-1), case._kx_max)
    elif kx is not None:
        raise InvalidCaseData("this case computes K_X . C itself")
    else:
        kx, s, delta = case._own_kx
    cf, use = _fiber_degree(case, r1)
    q = cf.denominator * case._index
    num = kx.numerator * q + cf.numerator * kx.denominator
    ky = Fraction(num, kx.denominator * q)
    return tuple.__new__(KeyVerdict, (ky, num <= 0, kx, cf, use, s, delta))


def _require_kx(case, kx, lo: Fraction, hi: Fraction) -> Fraction:
    if kx is None:
        raise InvalidCaseData(f"{_case_name(type(case))} needs the caller's K_X . C")
    kx = _rational(kx, "K_X . C", InvalidCaseData)
    if not (lo <= kx <= hi):
        raise InvalidCaseData(f"K_X . C = {kx} outside [{lo}, {hi}]")
    return kx
