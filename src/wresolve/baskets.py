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

from .errors import InvalidParameter, NotTerminalForm

if TYPE_CHECKING:  # pragma: no cover
    from .germs import CARGerm


class CyclicQuotient(namedtuple("CyclicQuotient", "r weights")):
    """Cyclic quotient germ 1/r(w1, w2, w3); weights are stored mod r.

    r = 1 is allowed and encodes a smooth point, so blow-up results can
    list their quotient points uniformly.  Normal-form extraction and
    baskets require r >= 2.
    """

    __slots__ = ()

    def __new__(cls, r, weights):
        if r < 1:
            raise ValueError("quotient index must be >= 1")
        weights = tuple(weights)
        if len(weights) != 3:
            raise ValueError("need exactly three weights")
        return super().__new__(cls, r, tuple(int(w) % r for w in weights))

    @property
    def smooth(self) -> bool:
        return self.r == 1


def normalize_cyclic(q: CyclicQuotient) -> tuple[int, int]:
    """Return the terminal normal form (b, r) with 0 < b <= r/2.

    For each ordering (u, v) of the first two weights with u a unit, solve
    lam*u = 1 mod r by lam = u^-1 and keep it if lam*v = -1; the fold then
    leaves exactly one admissible b.  Raises NotTerminalForm when neither
    ordering lands on (1, -1, *) or the axis weight shares a factor with r.
    """
    r = q.r
    if r < 2:
        raise NotTerminalForm("index-1 point has no terminal normal form")
    w0, w1, w2 = q.weights
    reachable = set()
    for u, v in ((w0, w1), (w1, w0)):
        if gcd(u, r) == 1:
            lam = pow(u, -1, r)
            if lam * v % r == r - 1:
                reachable.add(lam * w2 % r)
    if not reachable:
        raise NotTerminalForm(f"1/{r}{q.weights} has no (1, -1, b) form")
    folded = {b for b in reachable if 0 < b and 2 * b <= r}
    if len(folded) != 1:
        raise NotTerminalForm(f"1/{r}{q.weights} axis weight degenerates")
    b = folded.pop()
    if gcd(b, r) != 1:
        raise NotTerminalForm(f"axis weight {b} not coprime to index {r}")
    return (b, r)


class BasketEntry(namedtuple("BasketEntry", "b r n")):
    """n copies of the cyclic point (b, r), already in normal form."""

    __slots__ = ()

    def __new__(cls, b, r, n=1):
        if not (0 < b and 2 * b <= r):
            raise ValueError(f"entry ({b}, {r}) outside 0 < b <= r/2")
        if gcd(b, r) != 1:
            raise ValueError(f"entry ({b}, {r}) has gcd > 1")
        if n < 1:
            raise ValueError("multiplicity must be >= 1")
        return super().__new__(cls, b, r, n)


class Basket(namedtuple("Basket", "entries")):
    """Multiset of normal-form cyclic points, canonically merged and sorted."""

    __slots__ = ()

    def __new__(cls, entries=()):
        merged: dict[tuple[int, int], int] = {}
        for e in entries:
            key = (e.r, e.b)
            merged[key] = merged.get(key, 0) + e.n
        canon = tuple(
            BasketEntry(b=b, r=r, n=n)
            for (r, b), n in sorted(merged.items(), reverse=True)
        )
        return super().__new__(cls, canon)

    @classmethod
    def of(cls, *items) -> "Basket":
        """Build from (b, r) or (b, r, n) tuples or BasketEntry values."""
        entries = []
        for it in items:
            if isinstance(it, BasketEntry):
                entries.append(it)
            else:
                entries.append(BasketEntry(*it))
        return cls(tuple(entries))

    def merge(self, other: "Basket") -> "Basket":
        return Basket(self.entries + other.entries)


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

KINDS = (GORENSTEIN, CYCLIC, CA_R, CAX2, CAX4, CD2, CD3, CE2)

# classes whose basket is k copies of a fixed point, parametrized by k >= 1
_K_PARAM = (CAX4, CD2)


class TerminalClass(namedtuple("TerminalClass", "kind k quotient germ")):
    """A terminal point labelled by its class in the classification.

    k is the axial-weight parameter where the class has one (cAx/4 and
    cD/2 require it; for cAx/2 it is optional and only feeds the depth
    bound, since the cAx/2 basket does not depend on it).  quotient (a
    CyclicQuotient) and germ (a CARGerm) carry the cyclic and cA/r data.
    """

    __slots__ = ()

    def __new__(cls, kind, k=None, quotient=None, germ=None):
        if kind not in KINDS:
            raise ValueError(f"unknown class kind {kind!r}")
        if kind == CYCLIC and quotient is None:
            raise ValueError("cyclic class needs its quotient data")
        if kind == CA_R and germ is None:
            raise ValueError("cA/r class needs its germ data")
        if kind in _K_PARAM and (k is None or k < 1):
            raise ValueError(f"{kind} needs an axial parameter k >= 1")
        if kind == CAX2 and k is not None and k < 1:
            raise ValueError("cAx/2 axial parameter must be >= 1 when given")
        if kind in (GORENSTEIN, CD3, CE2) and k is not None:
            raise ValueError(f"{kind} takes no parameter")
        return super().__new__(cls, kind, k, quotient, germ)

    @classmethod
    def gorenstein(cls):
        return cls(GORENSTEIN)

    @classmethod
    def cyclic(cls, quotient: CyclicQuotient):
        return cls(CYCLIC, quotient=quotient)

    @classmethod
    def ca_r(cls, germ: "CARGerm"):
        return cls(CA_R, germ=germ)

    @classmethod
    def cax2(cls, k: int | None = None):
        return cls(CAX2, k=k)

    @classmethod
    def cax4(cls, k: int):
        return cls(CAX4, k=k)

    @classmethod
    def cd2(cls, k: int):
        return cls(CD2, k=k)

    @classmethod
    def cd3(cls):
        return cls(CD3)

    @classmethod
    def ce2(cls):
        return cls(CE2)


def basket_of(tc: TerminalClass) -> Basket:
    """Basket of cyclic points the class degenerates to (table above)."""
    if tc.kind == GORENSTEIN:
        return Basket()
    if tc.kind == CYCLIC:
        if tc.quotient.r == 1:
            return Basket()
        return Basket.of(normalize_cyclic(tc.quotient))
    if tc.kind == CA_R:
        from .germs import axial_weight  # germs imports this module

        g = tc.germ
        if g.r == 1:
            return Basket()
        b, r = normalize_cyclic(CyclicQuotient(g.r, (g.beta, -g.beta, 1)))
        return Basket.of((b, r, axial_weight(g)))
    if tc.kind == CAX2:
        return Basket.of((1, 2, 2))
    if tc.kind == CAX4:
        if tc.k == 1:
            return Basket.of((1, 4))
        return Basket.of((1, 4), (1, 2, tc.k - 1))
    if tc.kind == CD2:
        return Basket.of((1, 2, tc.k))
    if tc.kind == CD3:
        return Basket.of((1, 3, 2))
    if tc.kind == CE2:
        return Basket.of((1, 2, 3))
    raise InvalidParameter(f"no basket rule for {tc.kind!r}")
