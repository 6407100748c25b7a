"""Singular Riemann-Roch bookkeeping for divisorial contractions to a point.

For a terminal threefold X the plurigenus formula carries a basket
correction sum n b (r - b) / (2 r).  Across a contraction f: Y -> X with
K_Y = f*K_X + (a/n) E the chi(2K) difference is therefore

    delta_chi = 1/2 (a/n)^3 E^3 + corr(Y) - corr(X),

and for discrepancy a/n in {1, 2} the difference is an integer >= 1.
That integrality threshold is taken here as an axiom.  Feeding in the
exceptional data of the classified contractions over a cD/2 point with
axial weight aw (so corr(X) = aw/4) turns the threshold into an upper
bound on aw.

Case data (r' >= 1, X of type cD/2):

    tag     a/n   E^3     basket of Y            dep(Y)
    E1_a4   2     1/r'    (r'-4, 2r')            2r' - 1
    E1_a2   1     2/r'    (r'-2, 2r')            2r' - 1
    E2      1     1/r'    2 x (r'-1, 2r')        4r'-2 .. 4r'-1
    E11     -     -       (1, 2) + (1, 6)        6

The exact threshold bound (largest aw with delta_chi >= 1) is sharper
than the classical sufficient bounds r' - 1 (E1) and 2r' - 1 (E2), which
only need delta_chi > 0; both are reported.

In code the table is ``_TAGS``, one row per tag: the E1/E2 closed forms
and each tag's depth check.  ``ContractionCase``, ``case_data``,
``case_depth_check`` and the ``rr`` subcommand read it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .baskets import Basket, BasketEntry, CyclicQuotient, normalize_cyclic
from .errors import InvalidParameter, _Record, _int, _rational

E1_A4 = "E1_a4"
E1_A2 = "E1_a2"
E2 = "E2"
E11 = "E11"
O3 = "O3"


class ContractionCase(_Record, namedtuple("ContractionCase", "tag rprime")):
    """One classified contraction case; r' parametrizes the E1/E2 families."""

    __slots__ = ()

    def __new__(cls, tag, rprime=None):
        if tag not in TAGS:
            raise InvalidParameter(f"unknown case tag {tag!r}")
        if _TAGS[tag][0] is not None:  # an E1/E2 family
            if rprime is not None and type(rprime) is not int:
                raise InvalidParameter(f"{tag} needs an int r', not {rprime!r}")
            if rprime is None or rprime < 1:
                raise InvalidParameter(f"{tag} needs a positive r'")
        elif rprime is not None:
            raise InvalidParameter(f"{tag} takes no r'")
        return super().__new__(cls, tag, rprime)


def rr_correction(basket: Basket) -> Fraction:
    """Plurigenus correction sum n b (r - b) / (2 r) over the basket."""
    return sum(
        (Fraction(e.n * e.b * (e.r - e.b), 2 * e.r) for e in basket.entries),
        Fraction(0),
    )


def delta_chi(a_over_n, e3, basket_y: Basket, basket_x: Basket) -> Fraction:
    """chi(2K) jump 1/2 (a/n)^3 E^3 + corr(Y) - corr(X); needs E^3 > 0."""
    a_over_n = _rational(a_over_n, "a/n", InvalidParameter)
    e3 = _rational(e3, "E^3", InvalidParameter)
    if e3 <= 0:
        raise InvalidParameter("E^3 must be positive")
    return (
        Fraction(1, 2) * a_over_n**3 * e3
        + rr_correction(basket_y)
        - rr_correction(basket_x)
    )


def cd2_basket(aw: int) -> Basket:
    """Basket of a cD/2 point of axial weight aw: aw copies of (1, 2)."""
    if _int(aw, "axial weight") < 1:
        raise InvalidParameter("axial weight must be >= 1")
    return Basket([(1, 2, aw)])


class _CaseData(
    namedtuple("_CaseData", "a_over_n e3 basket_y sufficient_bound dep_y")
):
    """Exceptional data of one E1/E2 case; dep_y is the (min, max) range."""

    __slots__ = ()


def _closed_forms(case: ContractionCase) -> tuple:
    """The numbers of one E1/E2 case that need no basket: a/n, the
    numerator e of E^3 = e/r', the Y-basket entry, the classical sufficient
    bound and the dep(Y) range.  Raises InvalidParameter when r' puts the
    entry outside the terminal range; the entry is checked as one
    BasketEntry, and no Basket is built."""
    over, forms, _ = _TAGS[case.tag]
    if forms is None:
        raise InvalidParameter(f"{case.tag} has no tabulated E1/E2 data")
    if case.rprime <= over:
        raise InvalidParameter(f"{case.tag} needs r' > {over}")
    a, e, entry, bound, dep_y = forms(case.rprime)
    return a, e, BasketEntry(*entry), bound, dep_y


def case_data(case: ContractionCase) -> _CaseData:
    """Exceptional data for the E1/E2 families; raises InvalidParameter
    when r' puts the Y-basket outside the terminal range."""
    a, e, entry, bound, dep_y = _closed_forms(case)
    return _CaseData(
        a_over_n=Fraction(a),
        e3=Fraction(e, case.rprime),
        basket_y=Basket([entry]),
        sufficient_bound=bound,
        dep_y=dep_y,
    )


def aw_upper_bound(case: ContractionCase) -> int:
    """Largest aw of the contracted cD/2 point allowed by delta_chi >= 1.

    delta_chi is linear in aw with slope -1/4 (corr of aw copies of
    (1, 2) is aw/4), so the bound is floor(4 (delta_chi(aw=0) - 1)),
    clamped at 0 when even aw = 1 fails the threshold.  Always at most
    the classical sufficient bound.
    """
    data = case_data(case)
    base = delta_chi(data.a_over_n, data.e3, data.basket_y, Basket())
    bound = (4 * (base - 1)).__floor__()
    return max(bound, 0)


class CaseDepthReport(namedtuple("CaseDepthReport", "aw dep_y dep_x_upper ok")):
    """Depth comparison across one contraction: dep(Y) vs dep(X) - 1.

    dep_y is the (min, max) range of dep(Y) over the case.
    """

    __slots__ = ()


def case_depth_check(case: ContractionCase, aw: int | None = None) -> CaseDepthReport:
    """Check dep(Y) >= dep(X) - 1 with the tabulated case depths.

    E1/E2 need the axial weight aw of the contracted cD/2 point; E11 takes
    no aw, and O3 is refused (the chain module handles it).  Each tag is
    checked by the depth check of its row in the case table.
    """
    *_, check = _TAGS[case.tag]
    return check(case, aw)


def _family_check(case: ContractionCase, aw: int | None) -> CaseDepthReport:
    """E1/E2: aw lies within the classical sufficient bound, and dep(X) <=
    2 aw by the cD/2 depth bound."""
    *_, bound, dep_y = _closed_forms(case)
    if aw is None or _int(aw, "aw") < 1:
        raise InvalidParameter(f"{case.tag} needs the axial weight aw >= 1")
    if aw > bound:
        raise InvalidParameter(f"aw = {aw} exceeds the admissible bound {bound}")
    dep_x_upper = 2 * aw  # cD/2 depth bound, Xi = 2 aw
    return CaseDepthReport(aw, dep_y, dep_x_upper, ok=dep_y[0] >= dep_x_upper - 1)


def _e11_check(case: ContractionCase, aw: int | None) -> CaseDepthReport:
    """E11 contracts over a cE/2 point: dep(Y) is recomputed from the
    basket indices 2 and 6 and dep(X) <= 7; it takes no aw."""
    if aw is not None:
        raise InvalidParameter("E11 takes no aw")
    points = (CyclicQuotient(2, (1, 1, 1)), CyclicQuotient(6, (1, -1, -1)))
    # an index-n cyclic point has depth n - 1
    dep_y = sum(normalize_cyclic(pt)[1] - 1 for pt in points)
    # dep(X) <= 7, the cE/2 upper bound
    return CaseDepthReport(None, (dep_y, dep_y), 7, ok=dep_y >= 7 - 1)


def _o3_check(case: ContractionCase, aw: int | None) -> CaseDepthReport:
    raise InvalidParameter("the O3 case is handled by the chain module")


# The case table, one row (over, forms, check) per tag.  An E1/E2 family
# row holds the r' that every member of the family is over and, as a
# function of r', the closed forms of the module docstring's table: a/n,
# the numerator e of E^3 = e/r', the Y-basket entry (b, r) or (b, r, n),
# the classical sufficient bound and the dep(Y) range.  E11 and O3 take no
# r' and have no forms.  Every row ends with its depth check.
_TAGS = {
    E1_A4: (4, lambda rp: (2, 1, (rp - 4, 2 * rp), rp - 1, (2 * rp - 1, 2 * rp - 1)),
            _family_check),
    E1_A2: (2, lambda rp: (1, 2, (rp - 2, 2 * rp), rp - 1, (2 * rp - 1, 2 * rp - 1)),
            _family_check),
    E2: (1, lambda rp: (1, 1, (rp - 1, 2 * rp, 2), 2 * rp - 1,
                        (4 * rp - 2, 4 * rp - 1)),
         _family_check),
    E11: (None, None, _e11_check),
    O3: (None, None, _o3_check),
}

TAGS = tuple(_TAGS)
