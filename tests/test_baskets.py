"""Cyclic normal forms, baskets, and the class table."""

from math import gcd

import pytest

from wresolve.baskets import (
    Basket,
    BasketEntry,
    CyclicQuotient,
    TerminalClass,
    aw,
    basket_of,
    normalize_cyclic,
    sigma,
    xi,
)
from wresolve.errors import NotTerminalForm
from wresolve.germs import CARGerm


def test_normalize_examples():
    # frozen: brute force over units and the coordinate swap
    assert normalize_cyclic(CyclicQuotient(5, (2, 3, 1))) == (2, 5)
    assert normalize_cyclic(CyclicQuotient(7, (3, 4, 5))) == (3, 7)
    assert normalize_cyclic(CyclicQuotient(2, (1, 1, 1))) == (1, 2)
    assert normalize_cyclic(CyclicQuotient(6, (1, -1, -1))) == (1, 6)


def test_normalize_rejects_non_terminal():
    with pytest.raises(NotTerminalForm):
        normalize_cyclic(CyclicQuotient(4, (1, 3, 2)))  # axis shares gcd 2
    with pytest.raises(NotTerminalForm):
        normalize_cyclic(CyclicQuotient(4, (2, 2, 1)))  # no (1, -1) pair
    with pytest.raises(NotTerminalForm):
        normalize_cyclic(CyclicQuotient(1, (0, 0, 0)))  # smooth marker


def test_normalize_unit_invariance():
    # scaling all three weights by a unit never changes the normal form
    for r in range(2, 31):
        for b in range(1, r):
            if gcd(b, r) != 1:
                continue
            base = normalize_cyclic(CyclicQuotient(r, (1, r - 1, b)))
            assert base == (min(b, r - b), r)
            for lam in range(2, r):
                if gcd(lam, r) != 1:
                    continue
                scaled = CyclicQuotient(r, (lam, -lam % r, lam * b % r))
                assert normalize_cyclic(scaled) == base


def test_normalize_swap_and_fold():
    # swapping the pair is the fold b -> r - b
    for r in (5, 7, 9, 11):
        for b in range(1, r):
            if gcd(b, r) != 1:
                continue
            plain = normalize_cyclic(CyclicQuotient(r, (1, r - 1, b)))
            swapped = normalize_cyclic(CyclicQuotient(r, (r - 1, 1, b)))
            assert plain == swapped


def test_entry_validation():
    with pytest.raises(ValueError):
        BasketEntry(0, 5)
    with pytest.raises(ValueError):
        BasketEntry(3, 5)  # 2b > r
    with pytest.raises(ValueError):
        BasketEntry(2, 6)  # gcd > 1
    with pytest.raises(ValueError):
        BasketEntry(1, 2, 0)


def test_basket_canonical_merge():
    left = Basket([(1, 2), (1, 4), (1, 2)])
    right = Basket([(1, 2, 2), (1, 4)])
    assert left == right
    assert [(e.b, e.r, e.n) for e in left.entries] == [(1, 4, 1), (1, 2, 2)]
    merged = Basket(left.entries + Basket([(1, 4, 3)]).entries)
    assert [(e.b, e.r, e.n) for e in merged.entries] == [(1, 4, 4), (1, 2, 2)]
    # every row goes through BasketEntry, so an entry, a (b, r) row and a
    # (b, r, n) row of one point add up
    mixed = Basket([BasketEntry(1, 4), (1, 2), (1, 4, 2), BasketEntry(1, 2, 3)])
    assert mixed.entries == (BasketEntry(1, 4, 3), BasketEntry(1, 2, 4))
    assert mixed == Basket([(1, 2, 4), (1, 4, 3)]) == Basket(iter(mixed.entries))
    assert all(type(e) is BasketEntry for e in mixed.entries)


def test_invariants_bounds():
    # aw <= sigma <= Xi / 2 since 1 <= b <= r / 2 entrywise
    for entries in [
        [(1, 2, 3)],
        [(2, 5), (1, 3, 2)],
        [(3, 7, 2), (1, 2)],
        [(5, 11), (4, 9), (1, 2, 4)],
    ]:
        b = Basket(entries)
        assert aw(b) <= sigma(b)
        assert 2 * sigma(b) <= xi(b)


TABLE = [
    # class builder, aw, sigma (from the definition), Xi
    (TerminalClass("cAx/2"), 2, 2, 4),
    (TerminalClass("cAx/4", k=1), 1, 1, 4),
    (TerminalClass("cAx/4", k=3), 3, 3, 8),
    (TerminalClass("cD/2", k=1), 1, 1, 2),
    (TerminalClass("cD/2", k=4), 4, 4, 8),
    (TerminalClass("cD/3"), 2, 2, 6),
    # tabulated sigma for this row is 2; the definition gives 3
    (TerminalClass("cE/2"), 3, 3, 6),
]


@pytest.mark.parametrize("tc,want_aw,want_sigma,want_xi", TABLE)
def test_class_table(tc, want_aw, want_sigma, want_xi):
    b = basket_of(tc)
    assert aw(b) == want_aw
    assert sigma(b) == want_sigma
    assert xi(b) == want_xi


def test_class_table_entry_shapes():
    assert [(e.b, e.r, e.n) for e in basket_of(TerminalClass("cAx/4", k=3)).entries] == [
        (1, 4, 1),
        (1, 2, 2),
    ]
    assert [(e.b, e.r, e.n) for e in basket_of(TerminalClass("cD/3")).entries] == [
        (1, 3, 2)
    ]
    assert [(e.b, e.r, e.n) for e in basket_of(TerminalClass("cE/2")).entries] == [
        (1, 2, 3)
    ]
    assert basket_of(TerminalClass("gorenstein")) == Basket()


def test_cyclic_and_germ_classes():
    q = CyclicQuotient(5, (2, 3, 1))
    b = basket_of(TerminalClass("cyclic", quotient=q))
    assert [(e.b, e.r, e.n) for e in b.entries] == [(2, 5, 1)]
    smooth = CyclicQuotient(1, (0, 0, 0))
    assert basket_of(TerminalClass("cyclic", quotient=smooth)) == Basket()

    g = CARGerm(5, 2, frozenset({(0, 3), (1, 1)}))
    bg = basket_of(TerminalClass("cA/r", germ=g))
    # aw copies of the transverse quotient section 1/5(2, -2, 1)
    assert aw(bg) == 3
    assert xi(bg) == 15
    assert [(e.b, e.r, e.n) for e in bg.entries] == [(2, 5, 3)]

    smooth_germ = CARGerm(1, 0, frozenset({(0, 2)}))
    assert basket_of(TerminalClass("cA/r", germ=smooth_germ)) == Basket()


def test_class_validation():
    with pytest.raises(ValueError):
        TerminalClass("cB/2")
    with pytest.raises(ValueError):
        TerminalClass("cAx/4", k=0)
    with pytest.raises(ValueError):
        TerminalClass("cD/2", k=0)
    with pytest.raises(ValueError):
        TerminalClass(kind="cD/3", k=2)
    with pytest.raises(ValueError):
        TerminalClass(kind="cyclic")


_Q = CyclicQuotient(5, (2, 3, 1))
_G = CARGerm(5, 2, frozenset({(0, 3), (1, 1)}))


@pytest.mark.parametrize("kind, data, message", [
    ("cyclic", {"quotient": _Q, "k": 3}, "cyclic takes no k"),
    ("cA/r", {"germ": _G, "k": 0}, "cA/r takes no k"),
    ("cD/2", {"k": 2, "germ": _G}, "cD/2 takes no germ"),
    ("gorenstein", {"quotient": _Q}, "gorenstein takes no quotient"),
    ("cD/3", {"germ": _G}, "cD/3 takes no germ"),
    ("cD/2", {"k": 2.5}, "cD/2 needs an axial parameter k >= 1"),
    ("cAx/4", {"k": True}, "cAx/4 needs an axial parameter k >= 1"),
    ("cAx/2", {"k": 2.0}, "cAx/2 axial parameter must be >= 1 when given"),
    ("cA/r", {}, "cA/r class needs its germ data"),
    ("cyclic", {"quotient": 5}, "cyclic quotient must be a CyclicQuotient, not int"),
    ("cyclic", {"quotient": _G}, "cyclic quotient must be a CyclicQuotient, not CARGerm"),
    ("cA/r", {"germ": (7, 2, {(0, 3)})}, "cA/r germ must be a CARGerm, not tuple"),
    ("cA/r", {"germ": _Q}, "cA/r germ must be a CARGerm, not CyclicQuotient"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_class_takes_exactly_its_datum(kind, data, message):
    # each kind reads one datum: another one, or a k that is not an int
    # (a float would put floats into aw, xi and the depth bound), is refused
    with pytest.raises(ValueError) as exc:
        TerminalClass(kind, **data)
    assert str(exc.value) == message


def test_class_constructors_refuse_a_datum_of_another_type():
    # refused when built, not later in basket_of or depth_bound
    with pytest.raises(ValueError, match="must be a CyclicQuotient"):
        TerminalClass("cyclic", quotient=5)
    with pytest.raises(ValueError, match="must be a CARGerm"):
        TerminalClass("cA/r", germ=(7, 2, {(0, 3)}))


def test_quotient_weight_reduction():
    q = CyclicQuotient(5, (7, -1, 12))
    assert q.weights == (2, 4, 2)
    with pytest.raises(ValueError):
        CyclicQuotient(0, (0, 0, 0))


def _normalize_by_scan(q):
    # every unit lam of Z/r and both orderings of the folding pair
    r = q.r
    if r < 2:
        raise NotTerminalForm("index-1 point has no terminal normal form")
    w0, w1, w2 = q.weights
    reachable = {
        lam * w2 % r
        for lam in range(1, r)
        if gcd(lam, r) == 1
        for u, v in ((w0, w1), (w1, w0))
        if lam * u % r == 1 and lam * v % r == r - 1
    }
    if not reachable:
        raise NotTerminalForm(f"1/{r}{q.weights} has no (1, -1, b) form")
    folded = {b for b in reachable if 0 < b and 2 * b <= r}
    if len(folded) != 1:
        raise NotTerminalForm(f"1/{r}{q.weights} axis weight degenerates")
    b = folded.pop()
    if gcd(b, r) != 1:
        raise NotTerminalForm(f"axis weight {b} not coprime to index {r}")
    return (b, r)


def _outcome(normalize, q):
    try:
        return normalize(q)
    except NotTerminalForm as exc:
        return str(exc)


def test_normalize_matches_unit_scan():
    for r in range(1, 13):
        for w in ((a, b, c) for a in range(r) for b in range(r) for c in range(r)):
            q = CyclicQuotient(r, w)
            assert _outcome(normalize_cyclic, q) == _outcome(_normalize_by_scan, q), q
