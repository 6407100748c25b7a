"""Alternating blow-up chains: exponents, weights, and depth ledgers."""

import random
from fractions import Fraction

import pytest

from wresolve import chains
from wresolve.chains import (
    ChainStage,
    ChainStageB,
    DepthIdentity,
    O3CaseA,
    O3CaseB,
    beta_k,
    beta_k_b,
    chain_simulate,
    chain_stages_b,
    chain_weights,
    check_constraints,
    delta_k,
    depth_identity,
    gamma_k,
    gamma_k_b,
    nonnegativity_check,
)
from wresolve.errors import ConstraintViolation, InvalidParameter

CASE_A = O3CaseA(3, 1, 2, frozenset({(2, 0)}))
CASE_A_FULL = O3CaseA(3, 1, 2, frozenset({(2, 0)}), frozenset({(1, 1)}))
CASE_B = O3CaseB(3, 1, frozenset({(3, 0)}), frozenset({(1, 0)}))


def test_case_basics():
    assert CASE_A.r == 5
    assert O3CaseA(5, 1, 2, frozenset({(2, 0)})).r == 9
    assert CASE_B.r == 7
    assert O3CaseB(5, 2).r == 23


def test_case_validation():
    with pytest.raises(ValueError):
        O3CaseA(2, 1, 2)  # even a
    with pytest.raises(ValueError):
        O3CaseA(1, 1, 2)
    with pytest.raises(ValueError):
        O3CaseA(3, 0, 2)
    with pytest.raises(ValueError):
        O3CaseA(3, 1, 0)
    with pytest.raises(ValueError):
        O3CaseB(3, 1, frozenset({(-1, 0)}))


def test_exponents_at_stage_zero():
    # stage 0 is the untouched germ: z-exponents are the input ones
    rng = random.Random(11)
    for _ in range(200):
        i, j, d = rng.randrange(0, 9), rng.randrange(0, 9), rng.randrange(1, 5)
        alpha = rng.randrange(1, 6)
        assert beta_k(i, j, 0, d) == j
        assert gamma_k(i, j, 0, d) == j
        assert delta_k(0, alpha, d) == 0
        assert beta_k_b(i, j, 0, d) == j
        assert gamma_k_b(i, j, 0, d) == j + 1


def test_exponent_steps():
    # one stage moves each exponent by its slope, ping-ponging the halves
    rng = random.Random(12)
    for _ in range(300):
        i, j, d = rng.randrange(0, 9), rng.randrange(0, 9), rng.randrange(1, 5)
        k = rng.randrange(0, 12)
        assert beta_k(i, j, k + 1, d) - beta_k(i, j, k, d) == i - 2 * d
        step = gamma_k(i, j, k + 1, d) - gamma_k(i, j, k, d)
        assert step == Fraction(2 * i + 1, 2) - d + (Fraction(1, 2) if k % 2 == 0 else Fraction(-1, 2))
        assert beta_k_b(i, j, k + 1, d) - beta_k_b(i, j, k, d) == i - 2 * d - 1
        assert gamma_k_b(i, j, k + 1, d) - gamma_k_b(i, j, k, d) == i - d


def test_exponents_are_integers():
    # the half-weights always cancel: gamma and delta land in Z
    for k in range(0, 8):
        for i in range(0, 5):
            for j in range(0, 5):
                assert gamma_k(i, j, k, 2).denominator == 1
        for alpha in range(1, 5):
            assert delta_k(k, alpha, 2).denominator == 1


def test_top_stage_closed_forms():
    # at stage a the exponents collapse to germ data of the endpoint
    for a, d, alpha in [(3, 1, 2), (5, 1, 3), (3, 2, 4), (7, 2, 5)]:
        r_a = 2 * a * d - 1
        for i in range(0, 2 * d + 3):
            for j in range(0, 6):
                assert beta_k(i, j, a, d) == a * i + j - r_a - 1
                assert 2 * gamma_k(i, j, a, d) == (2 * i + 1) * a + 2 * j - r_a
        assert 2 * delta_k(a, alpha, d) == (2 * alpha - 1) * a - r_a - 2
        r_b = (2 * d + 1) * a - 2
        for i in range(0, 2 * d + 3):
            for j in range(0, 6):
                assert beta_k_b(i, j, a, d) == a * i + j - r_b - 2
                assert gamma_k_b(i, j, a, d) == j + 1 + a * (i - d)


def test_constraint_walls():
    check_constraints(CASE_A_FULL)
    with pytest.raises(ConstraintViolation) as exc:
        check_constraints(O3CaseA(3, 1, 2, frozenset({(1, 1)})))
    assert (exc.value.i, exc.value.j) == (1, 1)
    with pytest.raises(ConstraintViolation):
        check_constraints(O3CaseA(3, 1, 2, frozenset({(2, 0)}), frozenset({(0, 0)})))
    with pytest.raises(ConstraintViolation):
        check_constraints(O3CaseA(3, 1, 1, frozenset({(2, 0)})))  # alpha wall
    with pytest.raises(ConstraintViolation) as exc:
        check_constraints(O3CaseB(3, 1, frozenset({(0, 2)})))
    assert exc.value.k == 1


def test_nonnegativity_report():
    rep = nonnegativity_check(CASE_A_FULL)
    assert rep.ok
    assert rep.checks == 3 * (1 + 1 + 1)
    rep = nonnegativity_check(CASE_B)
    assert rep.ok and rep.checks == 3 * 2


def test_chain_weights_frozen():
    assert chain_weights(CASE_A, 0) == (Fraction(1, 2), Fraction(1, 2), 1, Fraction(3, 2))
    assert chain_weights(CASE_A, 1) == (Fraction(1, 2), Fraction(3, 2), 1, Fraction(1, 2))
    assert chain_weights(CASE_A, 2) == chain_weights(CASE_A, 0)
    assert chain_weights(O3CaseA(3, 2, 3, frozenset({(4, 0)})), 0) == (
        Fraction(1, 2), Fraction(3, 2), 1, Fraction(5, 2))
    assert chain_weights(CASE_B, 0) == (
        Fraction(1, 2), Fraction(1, 2), 1, Fraction(3, 2), Fraction(5, 2))
    assert chain_weights(CASE_B, 1) == (
        Fraction(1, 2), Fraction(5, 2), 1, Fraction(3, 2), Fraction(1, 2))


def test_chain_simulate_minimal():
    stages = chain_simulate(CASE_A)
    assert len(stages) == 4
    for st in stages:
        assert st.discrepancy == Fraction(1, 2)
        assert st.sigma_weight == 2  # = 2d at every stage here
    assert stages[0].lead == "y2z" and stages[1].lead == "u2z"
    assert "x4z0" in stages[0].witnesses
    assert stages[0].witnesses == ("y2z", "x4z0")
    # the endpoint data: x^4 sits at exponent zero, the y-term at one
    assert stages[3].a_exponents == (((2, 0), 0),)
    assert stages[3].y_exponent == 1


def test_chain_simulate_with_second_support():
    stages = chain_simulate(CASE_A_FULL)
    assert stages[3].b_exponents == (((1, 1), 3),)
    assert all(st.sigma_weight == 2 for st in stages[:3])


def test_chain_simulate_top_stage_unconstrained():
    # below-threshold weights are legal at stage a only
    case = O3CaseA(3, 1, 2, frozenset({(2, 0), (0, 6)}))
    stages = chain_simulate(case)
    assert [st.sigma_weight for st in stages] == [2, 2, 2, 0]
    assert stages[3].witnesses == ()
    # the discrepancy is measured as well: sum w - sigma - 1 = 7/2 - 0 - 1
    assert [st.discrepancy for st in stages] == [Fraction(1, 2)] * 3 + [Fraction(5, 2)]


def test_chain_simulate_needs_pivot():
    with pytest.raises(ConstraintViolation):
        chain_simulate(O3CaseA(3, 1, 2, frozenset({(2, 1)})))


def test_chain_simulate_stage_range():
    assert len(chain_simulate(CASE_A, k_max=1)) == 2
    with pytest.raises(ValueError):
        chain_simulate(CASE_A, k_max=4)
    with pytest.raises(ValueError):
        chain_simulate(CASE_A, k_max=-1)


def test_chain_stages_b():
    stages = chain_stages_b(CASE_B)
    assert len(stages) == 4
    for st in stages:
        assert st.discrepancy == Fraction(1, 2)
    for st in stages[:3]:
        assert st.wt_first == 3  # 2d + 1
        assert st.wt_second == Fraction(3, 2)
    assert stages[3].p_exponents == (((3, 0), 0),)
    assert stages[3].q_exponents == (((1, 0), 1),)


def test_chain_stages_b_empty_support():
    # the built-in monomials alone hold both thresholds
    stages = chain_stages_b(O3CaseB(3, 1))
    assert [st.wt_second for st in stages[:3]] == [Fraction(3, 2)] * 3


def test_depth_identity_frozen():
    for q in (0, 1, 5):
        ident = depth_identity(O3CaseA(3, 1, 2, frozenset({(2, 0)})), q)
        assert (ident.dep_x_upper, ident.dep_y) == (q + 9, q + 10)
        assert ident.check
    ident = depth_identity(O3CaseA(5, 1, 3, frozenset({(2, 0)})), 0)
    assert ident == DepthIdentity(dep_q3=0, dep_x_upper=15, dep_y=18, check=True)
    for q in (0, 2):
        ident = depth_identity(O3CaseB(3, 1), q)
        assert (ident.dep_x_upper, ident.dep_y) == (q + 15, q + 16)
        assert ident.check


def test_depth_identity_is_exact():
    # dep(Y) = bound + a - 2 on the nose, both shapes
    rng = random.Random(13)
    for _ in range(100):
        a = rng.choice([3, 5, 7, 9])
        d = rng.randrange(1, 4)
        q = rng.randrange(0, 10)
        ia = depth_identity(O3CaseA(a, d, 2 * d, frozenset({(2 * d, 0)})), q)
        assert ia.dep_y == ia.dep_x_upper + a - 2
        ib = depth_identity(O3CaseB(a, d), q)
        assert ib.dep_y == ib.dep_x_upper + a - 2


def test_depth_identity_validation():
    with pytest.raises(ValueError):
        depth_identity(CASE_A, -1)


# The Fraction walks the integer ones replaced, kept as references: every
# stage weight, threshold and exponent is an exact rational here, and the
# shape-B constraint check walks every stage.

class StageMismatch(Exception):
    """A reference walk met a stage off its expected weight; the support
    walls certify that the library walks never do."""

    def __init__(self, message, stage=None, monomial=None):
        super().__init__(message)
        self.stage = stage
        self.monomial = monomial


def _weights_by_fractions(case, k):
    d = case.d
    h = Fraction(1, 2)
    lo, hi = (2 * d - 1) * h, (2 * d + 1) * h
    if isinstance(case, O3CaseA):
        if k % 2 == 0:
            return (h, lo, Fraction(1), hi)
        return (h, hi, Fraction(1), lo)
    top = (2 * d + 3) * h
    if k % 2 == 0:
        return (h, lo, Fraction(1), hi, top)
    return (h, top, Fraction(1), hi, lo)


def _check_constraints_by_walk(case):
    if isinstance(case, O3CaseA):
        return check_constraints(case)
    a, d = case.a, case.d
    for k in range(1, a + 1):
        for i, j in sorted(case.supp_a):
            if beta_k_b(i, j, k, d) < 0:
                raise ConstraintViolation(
                    f"first-equation exponent negative at stage {k} on ({i}, {j})",
                    i=i, j=j, k=k,
                )
        for i, j in sorted(case.supp_b):
            if gamma_k_b(i, j, k, d) < 0:
                raise ConstraintViolation(
                    f"second-equation exponent negative at stage {k} on ({i}, {j})",
                    i=i, j=j, k=k,
                )


def _nonnegativity_by_fractions(case):
    _check_constraints_by_walk(case)
    a, d = case.a, case.d
    checks = 0
    if isinstance(case, O3CaseA):
        for k in range(1, a + 1):
            for i, j in sorted(case.supp_a):
                b = beta_k(i, j, k, d)
                floor_bound = Fraction(j * (a - k), a)
                if b < floor_bound or b < 0:
                    raise ConstraintViolation(
                        f"beta({i},{j};{k}) = {b} escapes its bound", i=i, j=j, k=k
                    )
                checks += 1
            for i, j in sorted(case.supp_b):
                g = gamma_k(i, j, k, d)
                if g.denominator != 1 or g < 0:
                    raise ConstraintViolation(
                        f"gamma({i},{j};{k}) = {g} is not a nonnegative integer",
                        i=i, j=j, k=k,
                    )
                checks += 1
            dl = delta_k(k, case.alpha, d)
            if dl.denominator != 1 or dl < 0:
                raise ConstraintViolation(
                    f"delta({k}) = {dl} is not a nonnegative integer", k=k
                )
            checks += 1
    else:
        checks = a * (len(case.supp_a) + len(case.supp_b))
    return chains.NonnegativityReport(checks=checks, ok=True)


def _nonnegativity_by_walk(case):
    # the O(a |support|) integer walk nonnegativity_check made before it
    # became check_constraints alone: a beta >= j (a - k), and the doubled
    # gamma / delta must be even and nonnegative
    check_constraints(case)
    a, d = case.a, case.d
    per_stage = len(case.supp_a) + len(case.supp_b)
    if isinstance(case, O3CaseA):
        for k in range(1, a + 1):
            odd = k % 2
            for i, j in sorted(case.supp_a):
                b = j + k * (i - 2 * d)
                if a * b < j * (a - k) or b < 0:
                    raise ConstraintViolation(
                        f"beta({i},{j};{k}) = {b} escapes its bound", i=i, j=j, k=k
                    )
            for i, j in sorted(case.supp_b):
                g2 = 2 * j + k * (2 * i + 1 - 2 * d) + odd
                if g2 % 2 or g2 < 0:
                    raise ConstraintViolation(
                        f"gamma({i},{j};{k}) = {Fraction(g2, 2)} is not a nonnegative integer",
                        i=i, j=j, k=k,
                    )
            dl2 = k * (2 * case.alpha - 1 - 2 * d) - odd
            if dl2 % 2 or dl2 < 0:
                raise ConstraintViolation(
                    f"delta({k}) = {Fraction(dl2, 2)} is not a nonnegative integer", k=k
                )
        per_stage += 1
    return chains.NonnegativityReport(checks=a * per_stage, ok=True)


def _simulate_by_fractions(case, k_max=None):
    _check_constraints_by_walk(case)
    a, d = case.a, case.d
    if (2 * d, 0) not in case.supp_a:
        raise ConstraintViolation(
            "first support must contain the pivot (2d, 0)", i=2 * d, j=0
        )
    if k_max is None:
        k_max = a
    if not (0 <= k_max <= a):
        raise InvalidParameter("stage range is 0..a")
    target = Fraction(2 * d)
    stages = []
    for k in range(k_max + 1):
        w = _weights_by_fractions(case, k)
        wx, wy, wz, wu = w
        odd = k % 2 == 1
        lead = "u2z" if odd else "y2z"
        monos = []
        monos.append(("u2z" if odd else "u2", 2 * wu + (wz if odd else 0)))
        monos.append(("y2" if odd else "y2z", 2 * wy + (0 if odd else wz)))
        a_exps = []
        for i, j in sorted(case.supp_a):
            e = beta_k(i, j, k, d)
            if e < 0:
                raise StageMismatch(
                    f"negative z-exponent on x^{2 * i} at stage {k}",
                    stage=k, monomial=(i, j),
                )
            a_exps.append(((i, j), e))
            monos.append((f"x{2 * i}z{e}", 2 * i * wx + e * wz))
        b_exps = []
        for i, j in sorted(case.supp_b):
            g = gamma_k(i, j, k, d)
            if g.denominator != 1 or g < 0:
                raise StageMismatch(
                    f"z-exponent {g} on u x^{2 * i + 1} invalid at stage {k}",
                    stage=k, monomial=(i, j),
                )
            g = int(g)
            b_exps.append(((i, j), g))
            monos.append((f"ux{2 * i + 1}z{g}", wu + (2 * i + 1) * wx + g * wz))
        dl = delta_k(k, case.alpha, d)
        if dl.denominator != 1 or dl < 0:
            raise StageMismatch(
                f"z-exponent {dl} on the y-term invalid at stage {k}", stage=k
            )
        dl = int(dl)
        monos.append((f"yx{2 * case.alpha - 1}z{dl}",
                      wy + (2 * case.alpha - 1) * wx + dl * wz))
        sigma_wt = min(wt for _, wt in monos)
        if k < a and sigma_wt != target:
            bad = min(monos, key=lambda m: m[1])
            raise StageMismatch(
                f"stage {k} weight {sigma_wt} != {target}",
                stage=k, monomial=bad[0],
            )
        witnesses = tuple(
            name for name, wt in monos
            if wt == sigma_wt and (name == lead or name == f"x{4 * d}z0")
        )
        stages.append(ChainStage(
            k=k, weights=w, lead=lead, a_exponents=tuple(a_exps),
            b_exponents=tuple(b_exps), y_exponent=dl, sigma_weight=sigma_wt,
            discrepancy=sum(w) - sigma_wt - 1, witnesses=witnesses,
        ))
    return tuple(stages)


def _stages_b_by_fractions(case, k_max=None):
    _check_constraints_by_walk(case)
    a, d = case.a, case.d
    if k_max is None:
        k_max = a
    if not (0 <= k_max <= a):
        raise InvalidParameter("stage range is 0..a")
    t1 = Fraction(2 * d + 1)
    t2 = Fraction(2 * d + 1, 2)
    stages = []
    for k in range(k_max + 1):
        w = _weights_by_fractions(case, k)
        wx, wy, wz, wu, ww = w
        odd = k % 2 == 1
        first = [("u2", 2 * wu), ("yw", wy + ww)]
        p_exps = []
        for i, j in sorted(case.supp_a):
            e = beta_k_b(i, j, k, d)
            if e < 0:
                raise StageMismatch(
                    f"negative first-equation exponent at stage {k}",
                    stage=k, monomial=(i, j),
                )
            p_exps.append(((i, j), e))
            first.append((f"x{2 * i}z{e}", 2 * i * wx + e * wz))
        second = [
            ("y" if odd else "yz", wy + (0 if odd else wz)),
            (f"x{2 * d + 1}", (2 * d + 1) * wx),
            ("wz" if odd else "w", ww + (wz if odd else 0)),
        ]
        q_exps = []
        for i, j in sorted(case.supp_b):
            e = gamma_k_b(i, j, k, d)
            if e < 0:
                raise StageMismatch(
                    f"negative second-equation exponent at stage {k}",
                    stage=k, monomial=(i, j),
                )
            q_exps.append(((i, j), e))
            second.append((f"x{2 * i + 1}z{e}", (2 * i + 1) * wx + e * wz))
        wt1 = min(wt for _, wt in first)
        wt2 = min(wt for _, wt in second)
        if k < a and (wt1, wt2) != (t1, t2):
            raise StageMismatch(
                f"stage {k} weights ({wt1}, {wt2}) != ({t1}, {t2})", stage=k
            )
        stages.append(ChainStageB(
            k=k, weights=w, p_exponents=tuple(p_exps), q_exponents=tuple(q_exps),
            wt_first=wt1, wt_second=wt2, discrepancy=sum(w) - wt1 - wt2 - 1,
        ))
    return tuple(stages)


def _walk_outcome(walk, *args):
    # repr, so Fraction-valued fields and witness order count
    try:
        return repr(walk(*args))
    except (ConstraintViolation, StageMismatch, ValueError) as exc:
        return (type(exc).__name__, str(exc), vars(exc))


def _support_around(rng, wall, i_max, size):
    # exponents on, above and below the wall j >= wall(i)
    return frozenset(
        (i, max(0, wall(i) + rng.randint(-2, 3)))
        for i in (rng.randint(0, i_max) for _ in range(rng.randint(0, size)))
    )


def _chain_cases(seed=17, n=300):
    rng = random.Random(seed)
    for _ in range(n):
        a, d = rng.choice((3, 5, 7, 9, 11, 13)), rng.randint(1, 3)
        k_max = rng.choice((None, 0, 1, a - 1, a, rng.randint(-1, a + 1)))
        supp_a = _support_around(rng, lambda i: 2 * a * d - a * i, 3 * d + 2, 4)
        if rng.random() < 0.9:
            supp_a |= {(2 * d, 0)}  # else the pivot is missing
        supp_b = _support_around(
            rng, lambda i: -(-(2 * a * d - 1 - (2 * i + 1) * a) // 2), 2 * d + 2, 4)
        alpha = rng.randint(max(1, d - 1), d + 3)  # d and below miss the wall
        yield O3CaseA(a, d, alpha, supp_a, supp_b), k_max
        supp_a = _support_around(rng, lambda i: (2 * d + 1) * a - a * i, 2 * d + 3, 4)
        supp_b = _support_around(rng, lambda i: a * (d - i) - 1, d + 2, 4)
        yield O3CaseB(a, d, supp_a, supp_b), k_max


def test_walks_match_fraction_walks():
    counts = {"stages": 0, "raised": 0}
    for case, k_max in _chain_cases():
        if isinstance(case, O3CaseA):
            walk, ref, stage = chain_simulate, _simulate_by_fractions, ChainStage
        else:
            walk, ref, stage = chain_stages_b, _stages_b_by_fractions, ChainStageB
        want = _walk_outcome(ref, case, k_max)
        assert _walk_outcome(walk, case, k_max) == want, (case, k_max)
        if not isinstance(want, tuple):
            # the repr names the class; the stage type must be exact too
            assert all(type(st) is stage for st in walk(case, k_max)), case
        assert _walk_outcome(nonnegativity_check, case) == _walk_outcome(
            _nonnegativity_by_fractions, case), case
        assert _walk_outcome(check_constraints, case) == _walk_outcome(
            _check_constraints_by_walk, case), case
        counts["raised" if isinstance(want, tuple) else "stages"] += 1
    # both outcomes are well represented
    assert counts["stages"] > 150 and counts["raised"] > 150, counts


def _wall_cases():
    # (case, breaks): each wall met exactly, and missed by one
    for a, d in ((3, 1), (5, 2), (7, 3)):
        pivot = frozenset({(2 * d, 0)})
        for i in range(2 * d):
            j = 2 * a * d - a * i  # a i + j >= 2ad
            yield O3CaseA(a, d, d + 1, pivot | {(i, j)}), False
            yield O3CaseA(a, d, d + 1, pivot | {(i, j - 1)}), True
        for i in range(d):
            j = -(-(2 * a * d - 1 - (2 * i + 1) * a) // 2)  # (2i+1) a + 2j >= 2ad - 1
            yield O3CaseA(a, d, d + 1, pivot, frozenset({(i, j)})), False
            yield O3CaseA(a, d, d + 1, pivot, frozenset({(i, j - 1)})), True
        yield O3CaseA(a, d, d + 1, pivot), False  # (2 alpha - 1) a >= 2ad + 1
        yield O3CaseA(a, d, d, pivot), True
        for i in range(2 * d + 1):
            j = a * (2 * d + 1 - i)  # first equation, down 2d + 1 - i per stage
            yield O3CaseB(a, d, frozenset({(i, j)})), False
            yield O3CaseB(a, d, frozenset({(i, j - 1)})), True
        for i in range(d):
            j = a * (d - i) - 1  # second equation, down d - i per stage
            yield O3CaseB(a, d, frozenset(), frozenset({(i, j)})), False
            yield O3CaseB(a, d, frozenset(), frozenset({(i, j - 1)})), True


def test_nonnegativity_matches_the_walk():
    # the walk never fires once check_constraints has passed, so certifying
    # by check_constraints alone changes no report and no exception
    raised = 0
    for case, _ in _chain_cases():
        want = _walk_outcome(_nonnegativity_by_walk, case)
        assert _walk_outcome(nonnegativity_check, case) == want, case
        raised += isinstance(want, tuple)
    assert raised > 150, raised
    for case, breaks in _wall_cases():
        want = _walk_outcome(_nonnegativity_by_walk, case)
        assert isinstance(want, tuple) == breaks, case
        assert _walk_outcome(nonnegativity_check, case) == want, case
    # O(|support|): a chain of a billion stages is certified at once
    a = 10**9 + 1
    big = O3CaseA(a, 1, 2, frozenset({(2, 0), (0, 2 * a)}), frozenset({(1, 0)}))
    assert nonnegativity_check(big).checks == 4 * a


def test_shape_b_constraints_do_not_walk(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the shape-B check must not walk the stages")

    monkeypatch.setattr(chains, "beta_k_b", forbidden)
    monkeypatch.setattr(chains, "gamma_k_b", forbidden)
    a = 10**9 + 1
    # x^0 z^j falls by 2d + 1 = 3 per stage: first negative at j // 3 + 1
    j = 10**9
    with pytest.raises(ConstraintViolation) as exc:
        check_constraints(O3CaseB(a, 1, frozenset({(0, j), (5, 0)})))
    k = j // 3 + 1
    assert (exc.value.i, exc.value.j, exc.value.k) == (0, j, k)
    assert str(exc.value) == f"first-equation exponent negative at stage {k} on (0, {j})"
    # a tie at stage k: the second-equation x^1 z^(k-2) falls by d = 1 per
    # stage from k - 1; the first support is reported, as the walk meets it
    tie = O3CaseB(a, 1, frozenset({(0, j)}), frozenset({(0, k - 2), (0, k + 5)}))
    with pytest.raises(ConstraintViolation) as exc:
        nonnegativity_check(tie)
    assert (exc.value.i, exc.value.j, exc.value.k) == (0, j, k)
    # without the first-support term the second-equation one is reported
    with pytest.raises(ConstraintViolation) as exc:
        check_constraints(O3CaseB(a, 1, frozenset(), tie.supp_b))
    assert (exc.value.i, exc.value.j, exc.value.k) == (0, k - 2, k)
    assert nonnegativity_check(O3CaseB(a, 1, frozenset({(4, 0)}))).checks == a


def test_constraints_certify_the_walks():
    # check_constraints and the shape-A pivot are the whole certificate:
    # past them every stage below a hits its threshold, with both shape-A
    # witnesses, and every exponent is >= 0, so no walk refuses a stage
    cases = [case for case, _ in _chain_cases()] + [case for case, _ in _wall_cases()]
    walked = 0
    for case in cases:
        try:
            check_constraints(case)
        except ConstraintViolation:
            continue
        d = case.d
        if isinstance(case, O3CaseA):
            if (2 * d, 0) not in case.supp_a:
                with pytest.raises(ConstraintViolation, match="pivot"):
                    chain_simulate(case)
                continue
            stages = chain_simulate(case)
            for st in stages[:-1]:
                assert st.sigma_weight == 2 * d, (case, st.k)
                assert st.witnesses == (st.lead, f"x{4 * d}z0"), (case, st.k)
            exps = [st.y_exponent for st in stages] + [
                e for st in stages for _, e in st.a_exponents + st.b_exponents
            ]
        else:
            stages = chain_stages_b(case)
            for st in stages[:-1]:
                assert st.wt_first == 2 * d + 1, (case, st.k)
                assert st.wt_second == Fraction(2 * d + 1, 2), (case, st.k)
            exps = [e for st in stages for _, e in st.p_exponents + st.q_exponents]
        assert min(exps, default=0) >= 0, case
        walked += 1
    assert walked > 150, walked


def test_closed_forms_equal_the_paper_terms():
    # gamma_k and delta_k halve one even numerator into an int; the paper
    # writes them term by term
    half = Fraction(1, 2)
    for k in range(13):
        odd = half if k % 2 else Fraction(0)
        for d in range(5):
            for i in range(9):
                for j in range(9):
                    paper = Fraction(k * (2 * i + 1), 2) - k * d + j + odd
                    assert gamma_k(i, j, k, d) == paper
                    assert type(gamma_k(i, j, k, d)) is int
            for alpha in range(9):
                paper = Fraction(k * (2 * alpha - 1), 2) - k * d - odd
                assert delta_k(k, alpha, d) == paper
                assert type(delta_k(k, alpha, d)) is int
