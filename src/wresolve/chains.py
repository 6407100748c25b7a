"""Alternating half-weight blow-up chains over a cD/2 point.

A divisorial extraction of discrepancy a/2 (a odd >= 3) over a cD/2
point factors through a chain Z_a -> ... -> Z_1 -> Z_0 = X of a blow-ups
whose weights alternate with the stage parity.  Two shapes occur,
distinguished by how the axial index r couples to (a, d):

    shape A:  r = 2 a d - 1,   hypersurface germ
              u^2 + y^2 z + sum a_ij x^(2i) z^j
                  + sum b_ij u x^(2i+1) z^j + l y x^(2 alpha - 1)
    shape B:  r = (2 d + 1) a - 2,   codimension-two germ
              u^2 + y w + sum a_ij x^(2i) z^j  and
              y z + x^(2d+1) + sum b_ij x^(2i+1) z^(j+1) + w

Only z-exponents move along the chain.  This module tracks them in
closed form, checks the support constraints that keep them nonnegative,
and simulates the stages: at every stage below the top the equation
weight must come out at the fixed threshold (2d for shape A; 2d+1 and
(2d+1)/2 for the two shape-B equations), each blow-up has discrepancy
1/2, and the stage-a exponents are the germ data of the singular point
the chain ends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstraintViolation, WeightMismatch


def _clean_support(raw) -> frozenset:
    out = frozenset((int(i), int(j)) for i, j in raw)
    if any(i < 0 or j < 0 for i, j in out):
        raise ValueError("support exponents must be nonnegative")
    return out


@dataclass(frozen=True)
class O3CaseA:
    """Shape-A chain data; r = 2ad - 1."""

    a: int
    d: int
    alpha: int
    supp_a: frozenset = frozenset()
    supp_b: frozenset = frozenset()

    def __post_init__(self):
        if self.a < 3 or self.a % 2 == 0:
            raise ValueError("need odd a >= 3")
        if self.d < 1:
            raise ValueError("need d >= 1")
        if self.alpha < 1:
            raise ValueError("need alpha >= 1")
        object.__setattr__(self, "supp_a", _clean_support(self.supp_a))
        object.__setattr__(self, "supp_b", _clean_support(self.supp_b))

    @property
    def r(self) -> int:
        return 2 * self.a * self.d - 1


@dataclass(frozen=True)
class O3CaseB:
    """Shape-B chain data; r = (2d+1)a - 2."""

    a: int
    d: int
    supp_a: frozenset = frozenset()
    supp_b: frozenset = frozenset()

    def __post_init__(self):
        if self.a < 3 or self.a % 2 == 0:
            raise ValueError("need odd a >= 3")
        if self.d < 1:
            raise ValueError("need d >= 1")
        object.__setattr__(self, "supp_a", _clean_support(self.supp_a))
        object.__setattr__(self, "supp_b", _clean_support(self.supp_b))

    @property
    def r(self) -> int:
        return (2 * self.d + 1) * self.a - 2


def _half(k: int) -> Fraction:
    return Fraction(1, 2) if k % 2 else Fraction(0)


def beta_k(i: int, j: int, k: int, d: int) -> int:
    """Stage-k z-exponent on the shape-A term x^(2i) z^j."""
    return k * (i - 2 * d) + j


def gamma_k(i: int, j: int, k: int, d: int) -> Fraction:
    """Stage-k z-exponent on the shape-A term u x^(2i+1) z^j."""
    return Fraction(k * (2 * i + 1), 2) - k * d + j + _half(k)


def delta_k(k: int, alpha: int, d: int) -> Fraction:
    """Stage-k z-exponent on the shape-A term y x^(2 alpha - 1)."""
    return Fraction(k * (2 * alpha - 1), 2) - k * d - _half(k)


def beta_k_b(i: int, j: int, k: int, d: int) -> int:
    """Stage-k z-exponent on the shape-B first-equation term x^(2i) z^j."""
    return k * (i - 2 * d - 1) + j


def gamma_k_b(i: int, j: int, k: int, d: int) -> int:
    """Stage-k z-exponent on the shape-B second-equation term x^(2i+1)."""
    return j + 1 + k * (i - d)


def check_constraints(case) -> None:
    """Support admissibility; raises ConstraintViolation with the witness.

    Shape A: a i + j >= 2 a d on the first support, (2i+1) a + 2 j >=
    2 a d - 1 on the second, (2 alpha - 1) a >= 2 a d + 1.  Shape B:
    both exponent families stay nonnegative through stage a, which is
    what the analogous support staircases amount to.
    """
    a, d = case.a, case.d
    if isinstance(case, O3CaseA):
        for i, j in sorted(case.supp_a):
            if a * i + j < 2 * a * d:
                raise ConstraintViolation(
                    f"first-support ({i}, {j}) below the a*i + j >= {2 * a * d} wall",
                    i=i, j=j,
                )
        for i, j in sorted(case.supp_b):
            if (2 * i + 1) * a + 2 * j < 2 * a * d - 1:
                raise ConstraintViolation(
                    f"second-support ({i}, {j}) below the (2i+1)a + 2j >= {2 * a * d - 1} wall",
                    i=i, j=j,
                )
        if (2 * case.alpha - 1) * a < 2 * a * d + 1:
            raise ConstraintViolation(
                f"alpha = {case.alpha} below the (2 alpha - 1) a >= {2 * a * d + 1} wall"
            )
        return
    if isinstance(case, O3CaseB):
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
        return
    raise TypeError(f"unsupported case {type(case).__name__}")


@dataclass(frozen=True)
class NonnegativityReport:
    a: int
    d: int
    checks: int
    ok: bool = True


def nonnegativity_check(case) -> NonnegativityReport:
    """Verify every chain exponent is a nonnegative integer through stage a.

    For shape A this re-walks the bounding chain: beta >= j (a - k) / a
    from the support wall, and the half-integral gamma / delta exponents
    are integers >= -1/2, hence >= 0.  ConstraintViolation carries the
    first offending (i, j, k).  For shape B check_constraints already
    walks every exponent through stage a, so only the count remains.
    """
    check_constraints(case)
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
    return NonnegativityReport(a=a, d=d, checks=checks, ok=True)


def chain_weights(case, k: int) -> tuple[Fraction, ...]:
    """Blow-up weight vector at stage k (alternates with parity).

    Shape A orders the coordinates (x, y, z, u), shape B (x, y, z, u, w);
    x and z always carry 1/2 and 1.
    """
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


@dataclass(frozen=True)
class ChainStage:
    """One shape-A stage: exponents, equation weight, discrepancy."""

    k: int
    weights: tuple[Fraction, ...]
    lead: str
    a_exponents: tuple
    b_exponents: tuple
    y_exponent: int
    sigma_weight: Fraction
    discrepancy: Fraction
    witnesses: tuple[str, ...]


def chain_simulate(case: O3CaseA, k_max: int | None = None) -> tuple[ChainStage, ...]:
    """Walk the shape-A chain and certify the stage weights.

    Every stage strictly below a must have equation weight exactly 2d
    (WeightMismatch otherwise), witnessed by the parity lead and by
    x^(4d), which therefore must sit in the first support
    (ConstraintViolation when missing).  Stage a carries the germ data
    of the endpoint.
    """
    check_constraints(case)
    a, d = case.a, case.d
    if (2 * d, 0) not in case.supp_a:
        raise ConstraintViolation(
            "first support must contain the pivot (2d, 0)", i=2 * d, j=0
        )
    if k_max is None:
        k_max = a
    if not (0 <= k_max <= a):
        raise ValueError("stage range is 0..a")
    target = Fraction(2 * d)
    stages = []
    for k in range(k_max + 1):
        w = chain_weights(case, k)
        wx, wy, wz, wu = w
        odd = k % 2 == 1
        lead = "u2z" if odd else "y2z"
        monos: list[tuple[str, Fraction]] = []
        monos.append(("u2z" if odd else "u2", 2 * wu + (wz if odd else 0)))
        monos.append(("y2" if odd else "y2z", 2 * wy + (0 if odd else wz)))
        a_exps = []
        for i, j in sorted(case.supp_a):
            e = beta_k(i, j, k, d)
            if e < 0:
                raise WeightMismatch(
                    f"negative z-exponent on x^{2 * i} at stage {k}",
                    stage=k, monomial=(i, j),
                )
            a_exps.append(((i, j), e))
            monos.append((f"x{2 * i}z{e}", 2 * i * wx + e * wz))
        b_exps = []
        for i, j in sorted(case.supp_b):
            g = gamma_k(i, j, k, d)
            if g.denominator != 1 or g < 0:
                raise WeightMismatch(
                    f"z-exponent {g} on u x^{2 * i + 1} invalid at stage {k}",
                    stage=k, monomial=(i, j),
                )
            g = int(g)
            b_exps.append(((i, j), g))
            monos.append((f"ux{2 * i + 1}z{g}", wu + (2 * i + 1) * wx + g * wz))
        dl = delta_k(k, case.alpha, d)
        if dl.denominator != 1 or dl < 0:
            raise WeightMismatch(
                f"z-exponent {dl} on the y-term invalid at stage {k}", stage=k
            )
        dl = int(dl)
        monos.append((f"yx{2 * case.alpha - 1}z{dl}",
                      wy + (2 * case.alpha - 1) * wx + dl * wz))
        sigma_wt = min(wt for _, wt in monos)
        if k < a and sigma_wt != target:
            bad = min(monos, key=lambda m: m[1])
            raise WeightMismatch(
                f"stage {k} weight {sigma_wt} != {target}",
                stage=k, monomial=bad[0],
            )
        witnesses = tuple(
            name for name, wt in monos
            if wt == sigma_wt and (name == lead or name == f"x{4 * d}z0")
        )
        stages.append(
            ChainStage(
                k=k,
                weights=w,
                lead=lead,
                a_exponents=tuple(a_exps),
                b_exponents=tuple(b_exps),
                y_exponent=dl,
                sigma_weight=sigma_wt,
                discrepancy=sum(w) - target - 1,
                witnesses=witnesses,
            )
        )
    return tuple(stages)


@dataclass(frozen=True)
class ChainStageB:
    """One shape-B stage: exponent pair and the two equation weights."""

    k: int
    weights: tuple[Fraction, ...]
    p_exponents: tuple
    q_exponents: tuple
    wt_first: Fraction
    wt_second: Fraction
    discrepancy: Fraction


def chain_stages_b(case: O3CaseB, k_max: int | None = None) -> tuple[ChainStageB, ...]:
    """Walk the shape-B chain; stage weights must be 2d+1 and (2d+1)/2."""
    check_constraints(case)
    a, d = case.a, case.d
    if k_max is None:
        k_max = a
    if not (0 <= k_max <= a):
        raise ValueError("stage range is 0..a")
    t1 = Fraction(2 * d + 1)
    t2 = Fraction(2 * d + 1, 2)
    stages = []
    for k in range(k_max + 1):
        w = chain_weights(case, k)
        wx, wy, wz, wu, ww = w
        odd = k % 2 == 1
        first: list[tuple[str, Fraction]] = [
            ("u2", 2 * wu), ("yw", wy + ww)]
        p_exps = []
        for i, j in sorted(case.supp_a):
            e = beta_k_b(i, j, k, d)
            if e < 0:
                raise WeightMismatch(
                    f"negative first-equation exponent at stage {k}",
                    stage=k, monomial=(i, j),
                )
            p_exps.append(((i, j), e))
            first.append((f"x{2 * i}z{e}", 2 * i * wx + e * wz))
        second: list[tuple[str, Fraction]] = [
            ("y" if odd else "yz", wy + (0 if odd else wz)),
            (f"x{2 * d + 1}", (2 * d + 1) * wx),
            ("wz" if odd else "w", ww + (wz if odd else 0)),
        ]
        q_exps = []
        for i, j in sorted(case.supp_b):
            e = gamma_k_b(i, j, k, d)
            if e < 0:
                raise WeightMismatch(
                    f"negative second-equation exponent at stage {k}",
                    stage=k, monomial=(i, j),
                )
            q_exps.append(((i, j), e))
            second.append((f"x{2 * i + 1}z{e}", (2 * i + 1) * wx + e * wz))
        wt1 = min(wt for _, wt in first)
        wt2 = min(wt for _, wt in second)
        if k < a and (wt1, wt2) != (t1, t2):
            raise WeightMismatch(
                f"stage {k} weights ({wt1}, {wt2}) != ({t1}, {t2})", stage=k
            )
        stages.append(
            ChainStageB(
                k=k,
                weights=w,
                p_exponents=tuple(p_exps),
                q_exponents=tuple(q_exps),
                wt_first=wt1,
                wt_second=wt2,
                discrepancy=sum(w) - wt1 - wt2 - 1,
            )
        )
    return tuple(stages)


@dataclass(frozen=True)
class DepthIdentity:
    """Depth ledger across the chain, relative to the endpoint depth."""

    a: int
    r: int
    dep_q3: int
    dep_x_upper: int
    dep_y: int
    check: bool


def depth_identity(case, dep_q3: int) -> DepthIdentity:
    """Depth bookkeeping: dep(Y) against the chain bound on dep(X).

    Shape A: dep(X) <= a + dep(Q3) + a(4d - 2) and dep(Y) = dep(Q3) + 2r.
    Shape B: dep(X) <= a + dep(Q3) + 4ad and dep(Y) = dep(Q3) + 2r + 2.
    In both shapes dep(Y) = bound + a - 2 exactly; check records the
    inequality dep(Y) >= bound + a - 2.
    """
    if dep_q3 < 0:
        raise ValueError("endpoint depth must be >= 0")
    a, d, r = case.a, case.d, case.r
    if isinstance(case, O3CaseA):
        upper = a + dep_q3 + a * (4 * d - 2)
        dep_y = dep_q3 + 2 * r
    elif isinstance(case, O3CaseB):
        upper = a + dep_q3 + 4 * a * d
        dep_y = dep_q3 + 2 * r + 2
    else:
        raise TypeError(f"unsupported case {type(case).__name__}")
    return DepthIdentity(
        a=a, r=r, dep_q3=dep_q3, dep_x_upper=upper, dep_y=dep_y,
        check=dep_y >= upper + a - 2,
    )
