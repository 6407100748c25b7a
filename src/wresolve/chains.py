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
closed form and simulates the stages.  check_constraints (with the
shape-A pivot x^(4d)) is the one certificate of the chain: it keeps every
exponent a nonnegative integer through stage a, and it makes the equation
weight of every stage below the top come out at the fixed threshold (2d
for shape A; 2d+1 and (2d+1)/2 for the two shape-B equations).  The walks
report the weights they measure.  Every stage's discrepancy, stage a
included, is the weighted blow-up's: the weights' sum less the equation
weights, less 1 (sum w - w(f) - 1 for the shape-A hypersurface, sum w -
w(f1) - w(f2) - 1 for the shape-B germ).  Below the top that is 1/2; at
stage a the equation weight may fall below its threshold and the
discrepancy rises with it.  The stage-a exponents are the germ data of
the singular point the chain ends on.

Every chain weight is a half-integer, so the walks weigh monomials in
doubled weights (x -> 1, z -> 2, y, u, w -> 2d-1, 2d+1 or 2d+3) and do
integer work per stage; Fractions appear only in the stage fields.
beta_k, gamma_k, delta_k, beta_k_b and gamma_k_b keep the exact integer
closed forms the walks are checked against.  At a fixed parity p of the
stage k = 2m + p each of those exponents moves by a constant every two
stages, so both walks compute all five families by one row rule
(``_rows_at``): a row (monomial, b, s, c), built once per parity, has
exponent b + m s and doubled weight c + 2 (b + m s).

Each shape's rules are attributes of its record class (O3CaseA lists
them): its weight offsets, its certified y-term count, its depth terms,
its walls and its walk.  The shared entry points read those and branch on
no shape; ``O3_SHAPES`` lists both shapes for the ``o3`` subcommand.

Both walks return one stage row per stage, up to a + 1 of them, and run
with the cyclic collector paused (``errors.paused_gc``): the rows hold no
cycles, so the pause loses nothing, and the state of the collector is
restored when a walk returns or raises.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import ConstraintViolation, InvalidParameter, _Record, _int, _support, paused_gc


def _check_a_d(a, d) -> None:
    """The checks both shapes make of a and d: ints (a float or a bool is
    refused), a odd >= 3 and d >= 1."""
    if type(a) is not int or type(d) is not int:
        raise InvalidParameter(f"a and d must be ints, not ({a!r}, {d!r})")
    if a < 3 or a % 2 == 0:
        raise InvalidParameter("need odd a >= 3")
    if d < 1:
        raise InvalidParameter("need d >= 1")


class O3CaseA(_Record, namedtuple("O3CaseA", "a d alpha supp_a supp_b")):
    """Shape-A chain data; r = 2ad - 1.

    The shape's rules are its attributes, and the shared entry points read
    nothing else of it: _offsets puts the doubled weights of y and u at 2d
    plus an odd offset, per parity of the stage; _y_terms counts the y-term
    exponents certified per stage (delta); _depth_terms gives the chain's
    share of dep(X) and dep(Y) - dep(Q3); _check_walls and _walk are the
    shape's part of check_constraints and its stage walk.
    """

    __slots__ = ()
    _offsets = ((-1, 1), (1, -1))
    _y_terms = 1
    _depth_terms = property(lambda self: (self.a * (4 * self.d - 2), 2 * self.r))

    def __new__(cls, a, d, alpha, supp_a=frozenset(), supp_b=frozenset()):
        _check_a_d(a, d)
        if _int(alpha, "alpha") < 1:
            raise InvalidParameter("need alpha >= 1")
        return super().__new__(cls, a, d, alpha, _support(supp_a), _support(supp_b))

    @property
    def r(self) -> int:
        return 2 * self.a * self.d - 1

    def _check_walls(self) -> None:
        a, d, alpha = self.a, self.d, self.alpha
        for i, j in sorted(self.supp_a):
            if a * i + j < 2 * a * d:
                raise ConstraintViolation(
                    f"first-support ({i}, {j}) below the a*i + j >= {2 * a * d} wall",
                    i=i, j=j,
                )
        for i, j in sorted(self.supp_b):
            if (2 * i + 1) * a + 2 * j < 2 * a * d - 1:
                raise ConstraintViolation(
                    f"second-support ({i}, {j}) below the (2i+1)a + 2j >= {2 * a * d - 1} wall",
                    i=i, j=j,
                )
        if (2 * alpha - 1) * a < 2 * a * d + 1:
            raise ConstraintViolation(
                f"alpha = {alpha} below the (2 alpha - 1) a >= {2 * a * d + 1} wall"
            )

    def _walk(self, k_max):
        return chain_simulate(self, k_max)


class O3CaseB(_Record, namedtuple("O3CaseB", "a d supp_a supp_b")):
    """Shape-B chain data; r = (2d+1)a - 2.  Its rules are the attributes
    that O3CaseA describes; y, u and w sit at 2d plus the offsets."""

    __slots__ = ()
    _offsets = ((-1, 1, 3), (3, 1, -1))
    _y_terms = 0
    _depth_terms = property(lambda self: (4 * self.a * self.d, 2 * self.r + 2))

    def __new__(cls, a, d, supp_a=frozenset(), supp_b=frozenset()):
        _check_a_d(a, d)
        return super().__new__(cls, a, d, _support(supp_a), _support(supp_b))

    @property
    def r(self) -> int:
        return (2 * self.d + 1) * self.a - 2

    def _check_walls(self) -> None:
        first, second = _lines_b(self)
        witness = None
        for equation, lines in (("first", first), ("second", second)):
            for (i, j), base, slope, _ in lines:
                if slope < 0:
                    k = base // -slope + 1
                    if k <= self.a and (witness is None or k < witness[0]):
                        witness = (k, equation, i, j)
        if witness is not None:
            k, equation, i, j = witness
            raise ConstraintViolation(
                f"{equation}-equation exponent negative at stage {k} on ({i}, {j})",
                i=i, j=j, k=k,
            )

    def _walk(self, k_max):
        return chain_stages_b(self, k_max)


# both chain shapes, as the ``o3`` subcommand offers them
O3_SHAPES = (O3CaseA, O3CaseB)


def beta_k(i: int, j: int, k: int, d: int) -> int:
    """Stage-k z-exponent on the shape-A term x^(2i) z^j."""
    return k * (i - 2 * d) + j


def gamma_k(i: int, j: int, k: int, d: int) -> int:
    """Stage-k z-exponent on the shape-A term u x^(2i+1) z^j:
    k (2i + 1) / 2 - k d + j + (k mod 2) / 2, as an int: the numerator
    over 2 is even (see nonnegativity_check), so halving it is exact."""
    return (k * (2 * i + 1) - 2 * k * d + 2 * j + k % 2) // 2


def delta_k(k: int, alpha: int, d: int) -> int:
    """Stage-k z-exponent on the shape-A term y x^(2 alpha - 1):
    k (2 alpha - 1) / 2 - k d - (k mod 2) / 2, as an int, halved exactly
    as gamma_k is."""
    return (k * (2 * alpha - 1) - 2 * k * d - k % 2) // 2


def beta_k_b(i: int, j: int, k: int, d: int) -> int:
    """Stage-k z-exponent on the shape-B first-equation term x^(2i) z^j."""
    return k * (i - 2 * d - 1) + j


def gamma_k_b(i: int, j: int, k: int, d: int) -> int:
    """Stage-k z-exponent on the shape-B second-equation term x^(2i+1)."""
    return j + 1 + k * (i - d)


def _lines_b(case: O3CaseB):
    """Shape-B z-exponents as (monomial, base, slope, x-degree) rows: the
    first-equation terms x^(2i) z^j, then the second-equation x^(2i+1)."""
    d = case.d
    first = [((i, j), j, i - 2 * d - 1, 2 * i) for i, j in sorted(case.supp_a)]
    second = [((i, j), j + 1, i - d, 2 * i + 1) for i, j in sorted(case.supp_b)]
    return first, second


def check_constraints(case) -> None:
    """Support admissibility; raises ConstraintViolation with the witness.

    Shape A: a i + j >= 2 a d on the first support, (2i+1) a + 2 j >=
    2 a d - 1 on the second, (2 alpha - 1) a >= 2 a d + 1.  Shape B:
    both exponent families stay nonnegative through stage a, which is
    what the analogous support staircases amount to.  Each exponent is
    base + k * slope with base >= 0, so a falling one first goes negative
    at k = base // -slope + 1; the witness is the one with the smallest
    such k <= a, earliest in support order on ties, as a stage-by-stage
    walk would meet it.  Each shape's walls are its record's _check_walls.
    """
    case._check_walls()


class NonnegativityReport(
    namedtuple("NonnegativityReport", "checks ok", defaults=(True,))
):
    """Exponents certified nonnegative through stage a, and the verdict."""

    __slots__ = ()


def nonnegativity_check(case) -> NonnegativityReport:
    """Certify every chain exponent is a nonnegative integer through stage a.

    check_constraints is the whole certificate, so this runs in
    O(|support|) and raises what it raises.  For 1 <= k <= a:

    * shape A, beta = j + k (i - 2d):  a beta - j (a - k) = k (a i + j - 2 a d)
      >= 0 by the first-support wall, so beta >= j (a - k) / a >= 0;
    * shape A, 2 gamma = 2j + k (2i + 1 - 2d) + (k mod 2) is even, since
      k times an odd number plus (k mod 2) is; without the (k mod 2) term
      it is affine in k, >= 0 at k = 0 and >= -1 at k = a by the
      second-support wall, so 2 gamma >= -1, hence >= 0;
    * shape A, 2 delta = k (2 alpha - 1 - 2d) - (k mod 2) is even for the
      same reason, and the alpha wall makes the slope >= 1, so
      2 delta >= k - 1 >= 0;
    * shape B: check_constraints finds each falling exponent's first
      negative stage itself.

    checks counts the exponents certified: a per support term, plus a for
    shape A's delta.
    """
    check_constraints(case)
    per_stage = len(case.supp_a) + len(case.supp_b) + case._y_terms
    return NonnegativityReport(checks=case.a * per_stage, ok=True)


def _doubled_weights(case, k: int) -> tuple[int, ...]:
    """Twice the stage-k blow-up weights: x -> 1, z -> 2, and the rest at
    2d plus the shape's odd offsets for the parity of k."""
    y, *rest = (2 * case.d + o for o in case._offsets[k % 2])
    return (1, y, 2, *rest)


def chain_weights(case, k: int) -> tuple[Fraction, ...]:
    """Blow-up weight vector at stage k (alternates with parity).

    Shape A orders the coordinates (x, y, z, u), shape B (x, y, z, u, w);
    x and z always carry 1/2 and 1.
    """
    return tuple(Fraction(w, 2) for w in _doubled_weights(case, _int(k, "stage")))


class ChainStage(
    namedtuple(
        "ChainStage",
        "k weights lead a_exponents b_exponents y_exponent sigma_weight"
        " discrepancy witnesses",
    )
):
    """One shape-A stage: exponents, equation weight, discrepancy."""

    __slots__ = ()


# the discrepancy of every stage at its thresholds, shared by those stages
_HALF = Fraction(1, 2)


def _stage_range(case, k_max: int | None, pivot=None) -> int:
    """The prologue of both walks, and the last stage they walk to.

    check_constraints first, then (shape A) the pivot the first support
    must contain, then k_max: a by default, else within 0..a."""
    check_constraints(case)
    if pivot is not None and pivot not in case.supp_a:
        raise ConstraintViolation(
            "first support must contain the pivot (2d, 0)", i=pivot[0], j=0
        )
    if k_max is None:
        return case.a
    if not (0 <= _int(k_max, "k_max") <= case.a):
        raise InvalidParameter("stage range is 0..a")
    return k_max


def _rows_at(rows, m: int, wts: list) -> tuple:
    """Exponents at stage k = 2m + p of rows (monomial, b, s, c) built for
    the parity p; appends each row's doubled weight c + 2 e to wts.

    Each closed form is affine in k, or half of an affine form with a
    (k mod 2) term, so at a fixed parity it is b + m s, with b its value
    at k = p and s its change over two stages.  With t_i = 2i + 1 - 2d
    and t = 2 alpha - 1 - 2d:

        shape, term           closed form               b                   s
        A  x^(2i) z^j         j + k (i - 2d)            j + p (i - 2d)      2 (i - 2d)
        A  u x^(2i+1) z^j     (2j + k t_i + p) / 2      j + p (i + 1 - d)   t_i
        A  y x^(2 alpha - 1)  (k t - p) / 2             p (t - 1) / 2       t
        B  x^(2i) z^j         j + k (i - 2d - 1)        j + p (i - 2d - 1)  2 (i - 2d - 1)
        B  x^(2i+1) z^(j+1)   j + 1 + k (i - d)         j + 1 + p (i - d)   2 (i - d)

    (t is odd, so (t - 1) / 2 is exact.)  x weighs 1 and z weighs 2, so a
    row weighs c + 2 e, where c is the row's x-degree plus, for shape A's
    u- and y-terms, the doubled weight of u or y at parity p.
    """
    exps = []
    for ij, b, s, c in rows:
        e = b + m * s
        exps.append((ij, e))
        wts.append(c + 2 * e)
    return tuple(exps)


@paused_gc
def chain_simulate(case: O3CaseA, k_max: int | None = None) -> tuple[ChainStage, ...]:
    """Walk the shape-A chain and report the measured stage weights.

    The first support must contain the pivot (2d, 0) (ConstraintViolation
    when missing).  check_constraints and the pivot then certify that every
    stage below a has equation weight exactly 2d, witnessed by the parity
    lead and by x^(4d).  In doubled weights (x -> 1, z -> 2, target 4d),
    with n = k + 1 and 1 <= n <= a for the stages k < a:

    * the lead (y^2 z at even k, u^2 z at odd k) weighs 4d and the other
      built-in monomial 4d + 2;
    * a beta term weighs 4d + 2 [n (i - 2d) + j], affine in n and >= 4d at
      n = 0 (j >= 0) and at n = a (the first wall); the pivot weighs 4d;
    * a gamma term weighs 4d + n (2i + 1 - 2d) + 2j + [k even].  The
      affine part n (2i + 1 - 2d) + 2j is >= 0 at n = 0 and >= -1 at
      n = a by the second wall; an integer line that falls is then
      >= 0 up to n = a - 1, which bounds every odd k (a is odd), and at
      even k the [k even] adds the missing 1;
    * the y-term weighs 4d + n (2 alpha - 1 - 2d) at odd k and one less at
      even k, and the alpha wall makes that slope >= 1.

    So the walk reports what it measures: sigma_weight 2d and both
    witnesses below a, and at stage a the germ data of the endpoint.
    Every stage's discrepancy is sum w - sigma_weight - 1: the shared 1/2
    at the threshold, and (sum of doubled weights - 2 - low) / 2, for the
    lowest doubled monomial weight low, where stage a leaves it.

    The walk weighs monomials in doubled weights, so every stage is
    integer work.  Everything that depends only on the parity of k -- the
    weights, the built-in monomials' weights, the lead and its slot, the
    witness tuples, the exponent rows of _rows_at and the Fraction stage
    fields -- is built once before the loop and shared by the stages that
    hit the threshold; each stage is one tuple built straight from its
    fields.
    """
    d, alpha = case.d, case.alpha
    pivot = (2 * d, 0)
    k_max = _stage_range(case, k_max, pivot)
    supp_a, supp_b = sorted(case.supp_a), sorted(case.supp_b)
    t = 2 * alpha - 1 - 2 * d  # the y-term's slope over two stages
    target = 4 * d
    sigma_weight = Fraction(target, 2)
    # per parity: the weights of the two built-in monomials (z multiplies
    # u^2 at odd k and y^2 at even k), the stage fields shared by every
    # stage of that parity, the doubled weights' sum less 2 (a stage off
    # the threshold measures its discrepancy from it), the witnesses, and
    # the beta, gamma and y-term rows.  The witnesses are the parity lead
    # (y^2 z at even k, u^2 z at odd k: slot 1 or 0 of the weight list)
    # and the pivot x^(4d) z^0, at a fixed slot after the built-ins;
    # witnesses[lead hits][pivot hits] names them.
    pivot_name = f"x{4 * d}z0"
    pivot_slot = 2 + supp_a.index(pivot)
    per_parity = []
    for p, lead, lead_slot in ((0, "y2z", 1), (1, "u2z", 0)):
        ws = _doubled_weights(case, p)
        _, wy, wz, wu = ws
        per_parity.append((
            (2 * wu + (wz if p else 0), 2 * wy + (0 if p else wz)),
            tuple(Fraction(w, 2) for w in ws),
            lead,
            lead_slot,
            sum(ws) - 2,
            (((), (pivot_name,)), ((lead,), (lead, pivot_name))),
            [((i, j), j + p * (i - 2 * d), 2 * (i - 2 * d), 2 * i) for i, j in supp_a],
            [((i, j), j + p * (i + 1 - d), 2 * i + 1 - 2 * d, wu + 2 * i + 1)
             for i, j in supp_b],
            [(None, p * (t - 1) // 2, t, wy + 2 * alpha - 1)],
        ))
    new = tuple.__new__
    stages = []
    append = stages.append
    for k in range(k_max + 1):
        m = k >> 1
        built_in, weights, lead, lead_slot, rest, witnesses, beta, gamma, y_term = (
            per_parity[k & 1])
        wts = list(built_in)
        a_exps = _rows_at(beta, m, wts)
        b_exps = _rows_at(gamma, m, wts)
        ((_, dl),) = _rows_at(y_term, m, wts)
        low = min(wts)
        at = low == target
        append(new(ChainStage, (
            k, weights, lead, a_exps, b_exps, dl,
            sigma_weight if at else Fraction(low, 2),
            _HALF if at else Fraction(rest - low, 2),
            witnesses[wts[lead_slot] == low][wts[pivot_slot] == low],
        )))
    return tuple(stages)


class ChainStageB(
    namedtuple(
        "ChainStageB",
        "k weights p_exponents q_exponents wt_first wt_second discrepancy",
    )
):
    """One shape-B stage: exponent pair and the two equation weights."""

    __slots__ = ()


@paused_gc
def chain_stages_b(case: O3CaseB, k_max: int | None = None) -> tuple[ChainStageB, ...]:
    """Walk the shape-B chain and report the two measured equation weights.

    check_constraints certifies that every stage below a has weights 2d+1
    and (2d+1)/2.  In doubled weights the thresholds are 4d+2 and 2d+1,
    which u^2, y w and x^(2d+1) reach at every stage.  A support row of
    either equation weighs its threshold plus 2 (base + n slope), twice
    its own exponent at stage n = k + 1, and check_constraints keeps that
    exponent >= 0 through stage a; the other built-in monomials weigh
    more.  Every stage's discrepancy is sum w - wt_first - wt_second - 1:
    the shared 1/2 at the thresholds, and measured from the two weights
    where stage a leaves them.  As in chain_simulate the walk does integer
    work per stage, builds the weights, built-in weights, rows and Fraction
    stage fields once per parity, and builds each stage straight from its
    fields.
    """
    d = case.d
    k_max = _stage_range(case, k_max)
    t1, t2 = 4 * d + 2, 2 * d + 1
    wt_first, wt_second = Fraction(t1, 2), Fraction(t2, 2)
    # per parity: the doubled weights' sum less 2, the weights, the
    # weights of the built-in monomials u^2, y w (first equation) and y,
    # x^(2d+1), w (second; z multiplies y at even k and w at odd k), and
    # the rows of both equations, read off _lines_b: x weighs 1, so c is
    # the x-degree
    per_parity = []
    for p in (0, 1):
        ws = _doubled_weights(case, p)
        wx, wy, wz, wu, ww = ws
        per_parity.append((
            sum(ws) - 2,
            tuple(Fraction(w, 2) for w in ws),
            (2 * wu, wy + ww),
            (wy + (0 if p else wz), (2 * d + 1) * wx, ww + (wz if p else 0)),
            *([(ij, base + p * slope, 2 * slope, x_deg) for ij, base, slope, x_deg in lines]
              for lines in _lines_b(case)),
        ))
    new = tuple.__new__
    stages = []
    append = stages.append
    for k in range(k_max + 1):
        m = k >> 1
        rest, weights, built_in1, built_in2, first, second = per_parity[k & 1]
        wts1 = list(built_in1)
        p_exps = _rows_at(first, m, wts1)
        wts2 = list(built_in2)
        q_exps = _rows_at(second, m, wts2)
        w1, w2 = min(wts1), min(wts2)
        append(new(ChainStageB, (
            k, weights, p_exps, q_exps,
            wt_first if w1 == t1 else Fraction(w1, 2),
            wt_second if w2 == t2 else Fraction(w2, 2),
            _HALF if w1 == t1 and w2 == t2 else Fraction(rest - w1 - w2, 2))))
    return tuple(stages)


class DepthIdentity(namedtuple("DepthIdentity", "dep_q3 dep_x_upper dep_y check")):
    """Depth ledger across the chain, relative to the endpoint depth."""

    __slots__ = ()


def depth_identity(case, dep_q3: int) -> DepthIdentity:
    """Depth bookkeeping: dep(Y) against the chain bound on dep(X).

    Shape A: dep(X) <= a + dep(Q3) + a(4d - 2) and dep(Y) = dep(Q3) + 2r.
    Shape B: dep(X) <= a + dep(Q3) + 4ad and dep(Y) = dep(Q3) + 2r + 2.
    In both shapes dep(Y) = bound + a - 2 exactly; check records the
    inequality dep(Y) >= bound + a - 2.
    """
    if _int(dep_q3, "endpoint depth") < 0:
        raise InvalidParameter("endpoint depth must be >= 0")
    a = case.a
    chain, rise = case._depth_terms
    upper = a + dep_q3 + chain
    dep_y = dep_q3 + rise
    return DepthIdentity(
        dep_q3=dep_q3, dep_x_upper=upper, dep_y=dep_y, check=dep_y >= upper + a - 2
    )
