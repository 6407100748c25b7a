"""Depth calculus for one-parameter hypersurface germs."""

import random
import tracemalloc
from functools import lru_cache
from itertools import count, product

import pytest

from wresolve import germs
from wresolve.baskets import CyclicQuotient, TerminalClass, basket_of, xi
from wresolve.baskets import aw as basket_aw
from wresolve.errors import (
    InvalidParameter,
    InvalidSplit,
    NotTerminalForm,
    SearchLimitExceeded,
)
from wresolve.germs import (
    CARGerm,
    DepthBound,
    admissible_splits,
    axial_weight,
    blowup_step,
    cyclic_depth_search,
    depth_bound,
    depth_formula,
    depth_search,
    nu,
    resolution_tree,
    tvalue,
)
from wresolve.sweeps import iter_germ_family

G1 = CARGerm(4, 1, frozenset({(0, 2), (1, 1), (2, 0)}))
G2 = CARGerm(3, 1, frozenset({(0, 1), (2, 3)}))
G3 = CARGerm(5, 2, frozenset({(0, 2), (1, 1)}))  # the CLI depth example
G4 = CARGerm(3, 1, frozenset({(0, 2), (1, 0)}))  # needs two blow-up stages
G5 = CARGerm(2, 1, frozenset({(0, 2), (1, 0)}))


def test_invariants_frozen():
    # minima over the support, computed by hand
    assert axial_weight(G1) == 2
    assert nu(G1, 1) == 2  # (0,2)->2, (1,1)->2, (2,0)->2
    assert tvalue(G1) == 1

    assert axial_weight(G2) == 1
    assert nu(G2, 1) == 1
    assert tvalue(G2) == 1

    assert axial_weight(G3) == 2
    assert nu(G3, 1) == 2
    assert tvalue(G3) == 1

    assert axial_weight(G4) == 2
    assert nu(G4, 1) == 1  # (1,0) is cheaper than the axial monomial
    assert nu(G4, 2) == 2
    assert tvalue(G4) == 2


def test_depth_formula_frozen():
    assert depth_formula(G1) == 2 * 4 - 1 == 7
    assert depth_formula(G2) == 1 * 3 - 1 == 2
    assert depth_formula(G3) == 2 * 5 - 1 == 9
    assert depth_formula(G4) == 2 * 3 - 2 == 4
    assert depth_formula(G5) == 2 * 2 - 2 == 2


def test_smooth_axis_depth_zero():
    g = CARGerm(1, 0, frozenset({(0, 1)}))
    assert depth_formula(g) == 0
    assert depth_search(g) == 0


def test_depth_search_matches_formula():
    for g in (G1, G2, G3, G4, G5):
        assert depth_search(g) == depth_formula(g)


def test_admissible_splits():
    assert list(admissible_splits(G3)) == [(2, 8), (7, 3)]
    assert list(admissible_splits(G2)) == [(1, 2)]
    assert list(admissible_splits(G1)) == [(1, 7), (5, 3)]
    for g in (G1, G2, G3, G4):
        splits = list(admissible_splits(g))
        assert len(splits) == nu(g, 1)
        for r1, r2 in splits:
            assert r1 + r2 == g.r * nu(g, 1)
            assert r1 % g.r == g.beta % g.r
            assert (-r2) % g.r == g.beta % g.r


def test_blowup_residual_example():
    res = blowup_step(G5, 1, 1)
    assert [q.r for q in res.cyclic_points] == [1, 1]
    assert all(q.smooth for q in res.cyclic_points)
    assert res.residual is not None
    assert res.residual.r == 2
    assert res.residual.support == frozenset({(0, 1), (1, 0)})


def test_blowup_no_residual_when_nu1_is_axial():
    # nu_1 equals the axial weight, so nothing is left behind
    res = blowup_step(G3, 2, 8)
    assert res.residual is None
    res = blowup_step(G2, 1, 2)
    assert res.residual is None


def test_blowup_quotient_weights():
    res = blowup_step(G3, 2, 8)
    (q1, q2) = res.cyclic_points
    assert (q1.r, q2.r) == (2, 8)
    # each point is 1/r_i(r, -r, -1) with weights reduced mod r_i
    assert q2.weights == (5 % 8, (-5) % 8, (-1) % 8)


def test_blowup_invalid_splits():
    with pytest.raises(InvalidSplit):
        blowup_step(G3, 2, 7)  # wrong sum
    with pytest.raises(InvalidSplit):
        blowup_step(G3, 3, 7)  # wrong congruence class
    with pytest.raises(InvalidSplit):
        blowup_step(G3, 0, 10)  # indices must be positive


def test_residual_recursion_identities():
    for g in (G4, G5):
        splits = list(admissible_splits(g))
        res = blowup_step(g, *splits[0]).residual
        assert res is not None
        assert axial_weight(res) == axial_weight(g) - nu(g, 1)
        assert tvalue(res) == tvalue(g) - 1
        for s in range(1, tvalue(res) + 1):
            assert nu(res, s) == nu(g, s + 1) - nu(g, 1)
        assert depth_formula(res) == depth_formula(g) - (g.r * nu(g, 1) - 1)


def test_positional_residual_matches_the_validating_constructor():
    # _residual skips CARGerm's checks; down every chain of the family it
    # must build exactly the germ the checks accept
    stages = 0
    for g in iter_germ_family(7):
        while nu(g, 1) < axial_weight(g):
            n1 = nu(g, 1)
            got = germs._residual(g, n1)
            want = CARGerm(g.r, g.beta, {(i, i + j - n1) for i, j in g.support})
            assert got == want, g
            assert type(got) is CARGerm
            g = got
            stages += 1
    assert stages == 2091


def test_cyclic_depth_search_frozen():
    assert cyclic_depth_search(1) == 0
    assert cyclic_depth_search(2) == 1
    assert cyclic_depth_search(5) == 4
    for r in range(1, 40):
        assert cyclic_depth_search(r) == r - 1


def test_split_invariance():
    # every admissible split of a germ yields the same total depth
    for g in (G1, G2, G3, G4, G5):
        totals = set()
        for r1, r2 in admissible_splits(g):
            res = blowup_step(g, r1, r2)
            used = 1 + cyclic_depth_search(r1) + cyclic_depth_search(r2)
            rest = depth_search(res.residual) if res.residual else 0
            totals.add(used + rest)
        assert totals == {depth_formula(g)}


def test_search_limit():
    with pytest.raises(SearchLimitExceeded):
        depth_search(G3, limit=3)
    with pytest.raises(SearchLimitExceeded):
        depth_search(G3, limit=8)
    assert depth_search(G3, limit=9) == 9
    # the first stage costs 2 of the 3, so the residual stage is priced
    # against the ceiling that is left
    message = "^path cost 2 exceeds the ceiling 1$"
    with pytest.raises(SearchLimitExceeded, match=message):
        depth_search(G4, limit=3)


def test_search_long_residual_chain():
    # 1500 stages, each with one split of cost 1
    g = CARGerm(2, 1, frozenset({(0, 1500), (1, 0)}))
    assert depth_search(g) == depth_formula(g) == 1500


G4_TREE = {
    "kind": "germ", "index": 3, "axial_weight": 2, "nu1": 1, "dep": 4,
    "split": [1, 2], "splits_considered": 1,
    "quotients": [{"index": 1, "dep": 0}, {"index": 2, "dep": 1}],
    "residual": {
        "kind": "germ", "index": 3, "axial_weight": 1, "nu1": 1, "dep": 2,
        "split": [1, 2], "splits_considered": 1,
        "quotients": [{"index": 1, "dep": 0}, {"index": 2, "dep": 1}],
        "residual": None,
    },
}


def test_search_does_not_use_the_formula(monkeypatch):
    def forbidden(g):
        raise AssertionError("the search must not use lam*r - t")

    def unpriced(*args):
        raise AssertionError("the search prices a stage by r*nu_1 - 1")

    monkeypatch.setattr(germs, "tvalue", forbidden)
    monkeypatch.setattr(germs, "depth_formula", forbidden)
    monkeypatch.setattr(germs, "cyclic_depth_search", unpriced)
    monkeypatch.setattr(germs, "admissible_splits", unpriced)
    for g, dep in ((G1, 7), (G2, 2), (G3, 9), (G4, 4), (G5, 2)):
        assert depth_search(g) == dep
        assert resolution_tree(g)["dep"] == dep
    assert resolution_tree(G4) == G4_TREE


_cyclic_by_search = lru_cache(maxsize=None)(cyclic_depth_search)


def _walk_by_exhaustive_pricing(g, limit=None):
    # the retired walk: price every admissible split of a stage by searching
    # its cyclic points, keep the first cheapest, walk on to the residual
    if g.r == 1:
        return {"kind": "germ", "index": 1, "dep": 0, "split": None,
                "quotients": [], "residual": None}
    budget = axial_weight(g) * g.r if limit is None else limit
    stages = []
    while g is not None:
        splits = admissible_splits(g)
        costs = []
        for r1, r2 in splits:
            costs.append(1 + _cyclic_by_search(r1) + _cyclic_by_search(r2))
            if costs[-1] > budget:
                raise SearchLimitExceeded(
                    f"path cost {costs[-1]} exceeds the ceiling {budget}"
                )
        budget -= max(costs)
        r1, r2 = splits[costs.index(min(costs))]
        stages.append((g, len(splits), r1, r2, min(costs)))
        g = blowup_step(g, r1, r2).residual
    tree, dep = None, 0
    for g, considered, r1, r2, cost in reversed(stages):
        dep += cost
        tree = {
            "kind": "germ", "index": g.r, "axial_weight": axial_weight(g),
            "nu1": nu(g, 1), "dep": dep, "split": [r1, r2],
            "splits_considered": considered,
            "quotients": [
                {"index": r, "dep": _cyclic_by_search(r)} for r in (r1, r2)
            ],
            "residual": tree,
        }
    return tree


def _tree_or_message(walk, g, limit):
    try:
        return walk(g, limit)
    except SearchLimitExceeded as exc:
        return str(exc)


def test_walk_matches_exhaustive_pricing():
    outcomes = []
    for g, limit in product(iter_germ_family(5), (None, 0, 1, 3, 8)):
        got = _tree_or_message(resolution_tree, g, limit)
        assert got == _tree_or_message(_walk_by_exhaustive_pricing, g, limit), (
            g, limit)
        outcomes.append(isinstance(got, str))
    assert len(outcomes) == 5 * 3726
    assert any(outcomes) and not all(outcomes)  # trees and limit messages


def test_search_is_the_tree_depth():
    outcomes = []
    for g, limit in product(iter_germ_family(5), (None, 0, 1, 3, 8)):
        got = _tree_or_message(depth_search, g, limit)
        tree = _tree_or_message(resolution_tree, g, limit)
        assert got == (tree if isinstance(tree, str) else tree["dep"]), (g, limit)
        outcomes.append(isinstance(got, str))
    assert any(outcomes) and not all(outcomes)  # depths and limit messages


def test_search_keeps_one_stage_in_memory():
    # a 2000-stage chain; building its tree as well peaked at 2.7 MiB
    g = CARGerm(2, 1, frozenset({(0, 2000), (1, 0)}))
    tracemalloc.start()
    try:
        assert depth_search(g) == 2000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def _tvalue_by_scan(g):
    # the definition: the least s >= 1 with nu_s = lam
    lam = axial_weight(g)
    return next(s for s in count(1) if nu(g, s) == lam)


def _wide_supports(seed=7, n=400):
    rng = random.Random(seed)
    for _ in range(n):
        lam = rng.randint(1, 40)
        support = {(0, lam)}
        for _ in range(rng.randint(1, 6)):
            support.add((rng.randint(1, 12), rng.randint(0, lam + 3)))
        yield frozenset(support)


def test_tvalue_matches_scan():
    wide = (CARGerm(2, 1, support) for support in _wide_supports())
    checked = 0
    for g in (*iter_germ_family(7), *wide):
        assert tvalue(g) == _tvalue_by_scan(g), sorted(g.support)
        checked += 1
    assert checked == 7038 + 400


def test_resolution_tree_shape():
    tree = resolution_tree(G3)
    assert tree["dep"] == 9
    assert tree["index"] == 5
    assert tree["split"] == [2, 8]
    assert tree["residual"] is None
    assert tree["splits_considered"] == 2


def test_resolution_tree_with_residual():
    tree = resolution_tree(G4)
    assert tree["dep"] == 4
    assert tree["residual"] is not None
    assert tree["residual"]["dep"] == 2


def test_depth_bound_by_class():
    assert depth_bound(TerminalClass("gorenstein")) == DepthBound(lower=0, upper=0, exact=True)
    b = depth_bound(TerminalClass("cyclic", quotient=CyclicQuotient(5, (2, 3, 1))))
    assert b == DepthBound(lower=4, upper=4, exact=True)
    b = depth_bound(TerminalClass("cyclic", quotient=CyclicQuotient(1, (0, 0, 0))))
    assert b == DepthBound(lower=0, upper=0, exact=True)
    # a quotient with no terminal normal form is refused, as basket_of does
    with pytest.raises(NotTerminalForm, match=r"1/5\(1, 1, 1\) has no"):
        depth_bound(TerminalClass("cyclic", quotient=CyclicQuotient(5, (1, 1, 1))))
    b = depth_bound(TerminalClass("cA/r", germ=G3))
    assert b == DepthBound(lower=9, upper=9, exact=True)
    # non-cA classes carry only a hard ceiling, read off the elephant
    assert depth_bound(TerminalClass("cAx/4", k=3)) == DepthBound(upper=7)
    assert depth_bound(TerminalClass("cD/2", k=4)) == DepthBound(upper=8)
    assert depth_bound(TerminalClass("cD/3")) == DepthBound(upper=6)
    assert depth_bound(TerminalClass("cE/2")) == DepthBound(upper=7)


def test_cax2_bound_requires_k():
    with pytest.raises(InvalidParameter):
        depth_bound(TerminalClass("cAx/2"))
    assert depth_bound(TerminalClass("cAx/2", k=2)) == DepthBound(upper=4)


def test_germ_validation():
    with pytest.raises(ValueError):
        CARGerm(5, 2, frozenset())  # empty support
    with pytest.raises(ValueError):
        CARGerm(5, 0, frozenset({(0, 1)}))  # beta must be a unit mod r
    with pytest.raises(ValueError):
        CARGerm(5, 2, frozenset({(1, 1)}))  # no axial monomial
    with pytest.raises(ValueError):
        CARGerm(5, 2, frozenset({(0, 0), (0, 2)}))  # unit constant term
    with pytest.raises(ValueError):
        CARGerm(5, 2, frozenset({(-1, 2), (0, 2)}))


def test_depth_family_window():
    # Xi - aw <= dep <= Xi - 1 whenever the singular content is nonempty
    for g in (G1, G2, G3, G4, G5):
        b = basket_of(TerminalClass("cA/r", germ=g))
        dep = depth_formula(g)
        assert xi(b) - basket_aw(b) <= dep <= xi(b) - 1
