"""Terminal threefold singularity classes, baskets, and their invariants.

A cyclic quotient point of index r is written 1/r(w1, w2, w3).  The
terminal ones admit a normal form 1/r(1, -1, b) with gcd(b, r) = 1; after
folding b -> r - b (which swaps the first two coordinates) the
representative with 0 < b <= r/2 is unique.  By convention the folding
pair sits in the first two coordinates and the axis is last.

Each terminal class degenerates to a basket of such cyclic points.  The
classical table, with its general elephant column, is

    class    elephant    aw    basket                      sigma   Xi
    cA/r     A_{kr-1}    k     k x (b, r)                  kb      kr
    cAx/2    D_{k+2}     2     2 x (1, 2)                  2       4
    cAx/4    D_{2k+1}    k     (1, 4) + (k-1) x (1, 2)     k       2k+2
    cD/2     D_{2k}      k     k x (1, 2)                  k       2k
    cD/3     E_6         2     2 x (1, 3)                  2       6
    cE/2     E_7         3     3 x (1, 2)                  2       6

In code this is ``_KINDS``, the one table of the terminal classes: per
kind, the datum ``TerminalClass`` takes, the basket entries and the depth
bound.  ``TerminalClass``, ``basket_of``, ``germs.depth_bound`` and the
``basket`` and ``depth`` subcommands all read it.

The invariants are always computed from the definitions

    aw = sum n_i,   sigma = sum n_i b_i,   Xi = sum n_i r_i.

Note the cE/2 row: the tabulated sigma is 2, but the definition applied to
the basket 3 x (1, 2) gives 3.  This module computes 3; the table value is
kept visible above so the discrepancy stays on the record.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd
from typing import TYPE_CHECKING

from .errors import InvalidParameter, NotTerminalForm, _Record, _int

if TYPE_CHECKING:  # pragma: no cover
    from .germs import CARGerm


class CyclicQuotient(_Record, namedtuple("CyclicQuotient", "r weights")):
    """Cyclic quotient germ 1/r(w1, w2, w3); weights are stored mod r.
    The index and the weights are ints; a float or a bool is refused.

    r = 1 is allowed and encodes a smooth point, so blow-up results can
    list their quotient points uniformly.  Normal-form extraction and
    baskets require r >= 2.
    """

    __slots__ = ()

    def __new__(cls, r, weights):
        if _int(r, "quotient index") < 1:
            raise InvalidParameter("quotient index must be >= 1")
        try:
            w0, w1, w2 = weights
        except (TypeError, ValueError):  # not three values, or no collection
            raise InvalidParameter("need exactly three weights") from None
        if type(w0) is not int or type(w1) is not int or type(w2) is not int:
            raise InvalidParameter(f"weights must be ints, not {(w0, w1, w2)!r}")
        return tuple.__new__(cls, (r, (w0 % r, w1 % r, w2 % r)))

    @property
    def smooth(self) -> bool:
        return self.r == 1


def normalize_cyclic(q: CyclicQuotient) -> tuple[int, int]:
    """Return the terminal normal form (b, r) with 0 < b <= r/2.

    The first two weights (w0, w1) are a folding pair exactly when w0 is a
    unit mod r and w0 + w1 = 0 mod r; then lam = w0^-1 scales q to
    1/r(1, -1, b) with b = lam*w2, and the swapped ordering passes or fails
    with it and gives r - b, so the fold keeps min(b, r - b).  Raises
    NotTerminalForm when the weights are no folding pair, when b = 0, or
    when the axis weight shares a factor with r.
    """
    r = q.r
    if r < 2:
        raise NotTerminalForm("index-1 point has no terminal normal form")
    w0, w1, w2 = q.weights
    if gcd(w0, r) != 1 or (w0 + w1) % r:
        raise NotTerminalForm(f"1/{r}{q.weights} has no (1, -1, b) form")
    b = w2 * pow(w0, -1, r) % r
    b = min(b, r - b)
    if b == 0:
        raise NotTerminalForm(f"1/{r}{q.weights} axis weight degenerates")
    if gcd(b, r) != 1:
        raise NotTerminalForm(f"axis weight {b} not coprime to index {r}")
    return (b, r)


class BasketEntry(_Record, namedtuple("BasketEntry", "b r n")):
    """n copies of the cyclic point (b, r), already in normal form: the
    row (b, r, n) of a basket, n = 1 when left out."""

    __slots__ = ()

    def __new__(cls, b, r, n=1):
        if not (type(b) is type(r) is type(n) is int):
            raise InvalidParameter(f"basket entry must be ints, not {(b, r, n)!r}")
        if not (0 < b and 2 * b <= r):
            raise InvalidParameter(f"entry ({b}, {r}) outside 0 < b <= r/2")
        if gcd(b, r) != 1:
            raise InvalidParameter(f"entry ({b}, {r}) has gcd > 1")
        if n < 1:
            raise InvalidParameter("multiplicity must be >= 1")
        return tuple.__new__(cls, (b, r, n))


class Basket(_Record, namedtuple("Basket", "entries")):
    """Multiset of normal-form cyclic points, canonically merged and sorted.

    Built from a collection of rows, each (b, r) or (b, r, n) and each
    checked as ``BasketEntry(*row)``; a BasketEntry is such a row.  A
    value that is no collection, or a row that does not unpack into a
    BasketEntry, is refused with InvalidParameter.
    """

    __slots__ = ()

    def __new__(cls, entries=()):
        merged, row = {}, entries  # (r, b) -> n; row names a non-collection
        try:
            for row in entries:
                b, r, n = BasketEntry(*row)
                merged[r, b] = merged.get((r, b), 0) + n
        except TypeError:  # no collection, or a row of no (b, r[, n]) shape
            raise InvalidParameter(f"basket rows are (b, r) or (b, r, n), not {row!r}") from None
        canon = tuple(
            BasketEntry(b=b, r=r, n=n)
            for (r, b), n in sorted(merged.items(), reverse=True)
        )
        return super().__new__(cls, canon)


def aw(basket: Basket) -> int:
    """Axial weight: total number of points in the basket."""
    return sum(e.n for e in basket.entries)


def sigma(basket: Basket) -> int:
    """Sum of the b-values, with multiplicity."""
    return sum(e.n * e.b for e in basket.entries)


def xi(basket: Basket) -> int:
    """Sum of the indices, with multiplicity."""
    return sum(e.n * e.r for e in basket.entries)


GORENSTEIN = "gorenstein"
CYCLIC = "cyclic"
CA_R = "cA/r"
CAX2 = "cAx/2"
CAX4 = "cAx/4"
CD2 = "cD/2"
CD3 = "cD/3"
CE2 = "cE/2"


def _point(q: CyclicQuotient) -> tuple:
    """The basket entries of q: its normal form, none when q is smooth."""
    return () if q.smooth else (BasketEntry(*normalize_cyclic(q)),)


def _ca_r_entry(g: "CARGerm") -> BasketEntry:
    """The basket of a cA/r germ of index r >= 2: aw copies of its
    transverse quotient section 1/r(beta, -beta, 1)."""
    from .germs import axial_weight  # germs imports this module

    b, r = normalize_cyclic(CyclicQuotient(g.r, (g.beta, -g.beta, 1)))
    return BasketEntry(b, r, axial_weight(g))


def _ca_r_depth(g: "CARGerm") -> tuple[int, bool]:
    from . import germs  # germs imports this module

    return germs.depth_formula(g), True


def _cax2_depth(k: int | None) -> tuple[int, bool]:
    if k is None:
        raise InvalidParameter("cAx/2 depth bound needs the parameter k")
    return k + 2, False


# The class table: the classical table of the module docstring plus the
# cyclic and cA/r classes.  Each kind's row is (datum, required, entries,
# depth): the TerminalClass field of its datum (None when it takes none)
# and whether the datum must be given, then its basket entries (BasketEntry
# values or (b, r, n) tuples) and its depth bound (upper, exact), each a
# function of the datum.  Depth is exact where a formula exists: 0 for
# Gorenstein points, r - 1 for an index-r cyclic point, lam*r - t for a
# cA/r germ.  The other classes only get the upper bound read off the
# vertex count of the minimal resolution of the general elephant; cAx/2
# needs its optional k for it.
_KINDS = {
    GORENSTEIN: (None, False, lambda _: (), lambda _: (0, True)),
    CYCLIC: ("quotient", True, _point,
             lambda q: (sum(e.r - 1 for e in _point(q)), True)),
    CA_R: ("germ", True, lambda g: () if g.r == 1 else (_ca_r_entry(g),),
           _ca_r_depth),
    CAX2: ("k", False, lambda _: ((1, 2, 2),), _cax2_depth),
    CAX4: ("k", True,
           lambda k: ((1, 4, 1), (1, 2, k - 1)) if k > 1 else ((1, 4, 1),),
           lambda k: (2 * k + 1, False)),
    CD2: ("k", True, lambda k: ((1, 2, k),), lambda k: (2 * k, False)),
    CD3: (None, False, lambda _: ((1, 3, 2),), lambda _: (6, False)),
    CE2: (None, False, lambda _: ((1, 2, 3),), lambda _: (7, False)),
}

KINDS = tuple(_KINDS)


class TerminalClass(_Record, namedtuple("TerminalClass", "kind k quotient germ")):
    """A terminal point labelled by its class in the classification.

    Each kind takes exactly the datum its row of the class table names:
    k, the axial-weight parameter (an int >= 1; cAx/4 and cD/2 require it,
    and for cAx/2 it is optional and only feeds the depth bound, since the
    cAx/2 basket does not depend on it), quotient (a CyclicQuotient) for
    the cyclic class, germ (a CARGerm) for cA/r, or nothing.  A datum of
    any other type is refused with InvalidParameter.  Build a class as
    ``TerminalClass(kind, <datum>=...)``, e.g. ``TerminalClass(CD2, k=4)``
    or ``TerminalClass(CYCLIC, quotient=q)``: this one constructor runs
    every check, so a new kind needs only its row and its CLI alias.
    """

    __slots__ = ()

    def __new__(cls, kind, k=None, quotient=None, germ=None):
        if kind not in KINDS:
            raise InvalidParameter(f"unknown class kind {kind!r}")
        datum, required, *_ = _KINDS[kind]
        given = {"k": k, "quotient": quotient, "germ": germ}
        value = given.pop(datum, None)
        for name, other in given.items():
            if other is not None:
                raise InvalidParameter(f"{kind} takes no {name}")
        bad_k = k is not None and (type(k) is not int or k < 1)
        if bad_k or (required and value is None):
            if datum != "k":
                raise InvalidParameter(f"{kind} class needs its {datum} data")
            if required:
                raise InvalidParameter(f"{kind} needs an axial parameter k >= 1")
            raise InvalidParameter(f"{kind} axial parameter must be >= 1 when given")
        if datum == "quotient" or datum == "germ":
            from .germs import CARGerm  # germs imports this module

            want = CyclicQuotient if datum == "quotient" else CARGerm
            if not isinstance(value, want):
                raise InvalidParameter(
                    f"{kind} {datum} must be a {want.__name__}, "
                    f"not {type(value).__name__}"
                )
        return super().__new__(cls, kind, k, quotient, germ)

    def _rules(self):
        """(entries, depth, datum): the two rules of this class's row of
        the class table, and the datum they apply to."""
        datum, _, entries, depth = _KINDS[self.kind]
        return entries, depth, datum and getattr(self, datum)


def basket_of(tc: TerminalClass) -> Basket:
    """Basket of cyclic points the class degenerates to (class table)."""
    entries, _, datum = tc._rules()
    return Basket(entries(datum))
