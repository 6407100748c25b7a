"""cA/r germ calculus: weighted-blow-up transforms and the depth invariant.

A cA/r germ is a hypersurface quotient xy + g(z^r, u) = 0 under the
1/r(beta, -beta, 1, r) action, gcd(beta, r) = 1.  Only the monomial
support of g matters here: a support element (i, j) stands for the
monomial z^(r i) u^j, coefficients are taken generic, and cancellation
between terms is out of scope.  The three core numbers are

    axial weight   lam       = min { j : (0, j) in support }
    slope minima   nu_s      = min { s i + j : (i, j) in support }
    stabilizer     t         = min { s >= 1 : nu_s = lam }

and the minimal number of depth-one extractions needed to reach a
Gorenstein model is exactly lam * r - t.  ``depth_search`` recovers the
same number without that formula: it walks the blow-up stages down the
one residual every split of a stage shares and adds up the stage prices.
It exists so the closed form can be checked against an independent route.
The walk builds each residual through ``_residual``, the one home of the
residual rule, and never calls ``blowup_step``: a split it chose itself
needs no re-check, and it drops the cyclic points a step would build.

A blow-up with weights 1/r(r1, r2, 1, r), r1 + r2 = r nu_1, leaves two
cyclic quotient points of indices r1 and r2 (type 1/ri(r, -r, -1), stored
axis-last) and, when nu_1 < lam, a residual germ with the same r and beta
and support { (i, i + j - nu_1) }.  Splits are assumed to satisfy
r1 = beta, r2 = -beta mod r.

An index-n cyclic point has depth n - 1, by induction on n: splitting it
into indices a and n - a costs 1 + (a - 1) + (n - a - 1) = n - 1 whatever
a is.  So every split of a stage costs the same 1 + (r1 - 1) + (r2 - 1) =
r nu_1 - 1, and the walk prices each stage once and takes its first split
(beta, r nu_1 - beta).  ``cyclic_depth_search`` checks n - 1 by exhaustive
search; only the ``cyclic-depth-search`` sweep and the tests call it.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .baskets import CyclicQuotient, TerminalClass
from .errors import InvalidParameter, InvalidSplit, SearchLimitExceeded, _Record, _int, _support


class CARGerm(_Record, namedtuple("CARGerm", "r beta support")):
    """Monomial data of a cA/r germ: index r, axis weight beta (stored mod
    r), support (a frozenset of (i, j) pairs); every number an int, and a
    float or a bool is refused, not truncated."""

    __slots__ = ()

    def __new__(cls, r, beta, support):
        if _int(r, "germ index") < 1:
            raise InvalidParameter("germ index must be >= 1")
        residue = _int(beta, "beta") % r
        if gcd(residue, r) != 1:
            raise InvalidParameter(f"beta = {beta} not coprime to r = {r}")
        support = _support(support)
        if not support:
            raise InvalidParameter("support must be nonempty")
        if (0, 0) in support:
            raise InvalidParameter("constant term: germ not singular at the origin")
        if not any(i == 0 for i, _ in support):
            raise InvalidParameter("no axial monomial: axial weight would be infinite")
        return tuple.__new__(cls, (r, residue, support))


def axial_weight(g: CARGerm) -> int:
    """lam = least u-exponent on the axis; equals aw of the germ."""
    return min(j for i, j in g.support if i == 0)


def nu(g: CARGerm, s: int) -> int:
    """Weighted support minimum nu_s = min s*i + j."""
    if _int(s, "slope") < 1:
        raise InvalidParameter("slope must be >= 1")
    return min(s * i + j for i, j in g.support)


def tvalue(g: CARGerm) -> int:
    """Least s >= 1 with nu_s = lam, i.e. s >= ceil((lam - j) / i) for every i > 0."""
    lam = axial_weight(g)
    return max([1] + [-((j - lam) // i) for i, j in g.support if i > 0])


def depth_formula(g: CARGerm) -> int:
    """Depth lam*r - t; a Gorenstein germ (r = 1) has depth 0."""
    if g.r == 1:
        return 0
    return axial_weight(g) * g.r - tvalue(g)


class BlowupResult(namedtuple("BlowupResult", "cyclic_points residual")):
    """Outcome of one depth-one blow-up of a cA/r germ.

    Two cyclic quotient points of indices r1, r2 (r1 + r2 = r nu_1; index
    1 entries are smooth) and the residual germ, present iff nu_1 < lam
    (None otherwise).
    """

    __slots__ = ()


def _quotient_point(index: int, r: int) -> CyclicQuotient:
    # type 1/index(r, -r, -1), folding pair first, axis last
    return CyclicQuotient(index, (r, -r, -1))


def admissible_splits(g: CARGerm) -> tuple[tuple[int, int], ...]:
    """All (r1, r2) with r1 + r2 = r nu_1 and r1 = beta mod r.

    There are exactly nu_1 of them; a Gorenstein germ has none.
    """
    if g.r == 1:
        return ()
    total = g.r * nu(g, 1)
    return tuple((r1, total - r1) for r1 in range(g.beta, total, g.r))


def blowup_step(g: CARGerm, r1: int, r2: int) -> BlowupResult:
    """Apply the weighted blow-up 1/r(r1, r2, 1, r) to the germ."""
    if g.r == 1:
        raise InvalidSplit("Gorenstein germ admits no depth-one blow-up")
    n1 = nu(g, 1)
    if min(_int(r1, "r1", InvalidSplit), _int(r2, "r2", InvalidSplit)) < 1:
        raise InvalidSplit(f"split ({r1}, {r2}) must be positive")
    if r1 + r2 != g.r * n1:
        raise InvalidSplit(
            f"split ({r1}, {r2}) does not sum to r*nu_1 = {g.r * n1}"
        )
    if r1 % g.r != g.beta or r2 % g.r != (-g.beta) % g.r:
        raise InvalidSplit(
            f"split ({r1}, {r2}) breaks the congruence r1 = {g.beta} mod {g.r}"
        )
    points = (_quotient_point(r1, g.r), _quotient_point(r2, g.r))
    residual = _residual(g, n1) if n1 < axial_weight(g) else None
    return BlowupResult(cyclic_points=points, residual=residual)


def _residual(g: CARGerm, n1: int) -> CARGerm:
    """Residual germ of a stage with nu_1 = n1 < lam: same r and beta,
    support { (i, i + j - n1) }.

    Built positionally, past CARGerm's checks, because it passes them by
    construction.  r and beta are g's own, beta already reduced mod r and
    coprime to it.  Each entry has i >= 0, and i + j - n1 >= 0 because
    n1 = min(i + j).  The axial entry (0, lam) becomes (0, lam - n1) with
    lam - n1 >= 1, so the support is nonempty, has an axial monomial and
    keeps the axial weight finite.  (0, 0) cannot appear: it would come
    from an axial (0, j) with j = n1, but every axial j satisfies
    j >= lam > n1.
    """
    support = frozenset([(i, i + j - n1) for i, j in g.support])
    return tuple.__new__(CARGerm, (g.r, g.beta, support))


def _cyclic_depth_table(r_max: int) -> list[int]:
    """Exhaustive-search depth of every index n <= r_max, bottom up
    (entry n; entry 0 is unused)."""
    depth = [0] * (r_max + 1)
    for n in range(2, r_max + 1):
        depth[n] = 1 + min(depth[a] + depth[n - a] for a in range(1, n // 2 + 1))
    return depth


def cyclic_depth_search(r: int) -> int:
    """Minimal extraction count for a cyclic point, by exhaustive splits.

    Every depth-one extraction over an index-r point splits it into
    indices a and r - a; this searches all of them (a superset of the
    geometrically realized ones, which is harmless because every branch
    bottoms out at the same total: 1 + (a - 1) + (r - a - 1) = r - 1).
    It is the oracle for the r - 1 that depth_search prices points by.
    """
    if _int(r, "index") < 1:
        raise InvalidParameter("index must be >= 1")
    return _cyclic_depth_table(r)[r]


def depth_search(g: CARGerm, limit: int | None = None) -> int:
    """Depth of the cheapest admissible blow-up sequence, found by walking it.

    Independent of depth_formula.  Every split of a stage leaves the same
    residual germ and costs the same: it leaves cyclic points of indices
    r1 + r2 = r nu_1, and an index-n point costs n - 1 (a split into a and
    n - a costs 1 + (a - 1) + (n - a - 1)), so 1 + (r1 - 1) + (r2 - 1) =
    r nu_1 - 1.  The search adds these stage prices while it walks down
    the residuals, along the first split of each stage, keeping only the
    current stage; each residual comes from ``_residual``, and no
    ``blowup_step`` is made.
    limit caps the step count of any single resolution path (default
    lam * r, which no path can legally reach since the depth is
    lam * r - t); exceeding it raises SearchLimitExceeded.
    """
    return sum(cost for *_, cost in _walk(g, limit))


def resolution_tree(g: CARGerm, limit: int | None = None) -> dict:
    """Depth search that also reports one optimal resolution tree."""
    if g.r == 1:
        return {"kind": "germ", "index": 1, "dep": 0, "split": None,
                "quotients": [], "residual": None}
    tree, dep = None, 0
    for g, n1, r1, r2, cost in reversed(list(_walk(g, limit))):
        dep += cost
        tree = {
            "kind": "germ",
            "index": g.r,
            "axial_weight": axial_weight(g),
            "nu1": n1,
            "dep": dep,
            "split": [r1, r2],
            "splits_considered": n1,
            "quotients": [{"index": r, "dep": r - 1} for r in (r1, r2)],
            "residual": tree,
        }
    return tree


def _walk(g: CARGerm, limit: int | None):
    """Yield (germ, nu_1, r1, r2, cost) per stage down the residual chain,
    charging each cost to the path budget; a Gorenstein germ has no stage.

    The next germ is ``_residual(g, nu_1)``, without ``blowup_step``: the
    split (beta, r nu_1 - beta) is admissible by construction.  The axial
    weight drops by nu_1 per stage, so the walk tracks it instead of
    rereading it, and it ends at the stage where nu_1 = lam."""
    if limit is not None:
        _int(limit, "limit")
    if g.r == 1:
        return
    lam = axial_weight(g)
    budget = lam * g.r if limit is None else limit
    while True:
        n1 = nu(g, 1)
        cost = g.r * n1 - 1
        if cost > budget:
            raise SearchLimitExceeded(
                f"path cost {cost} exceeds the ceiling {budget}"
            )
        budget -= cost
        yield g, n1, g.beta, g.r * n1 - g.beta, cost
        if n1 == lam:
            return
        g = _residual(g, n1)
        lam -= n1


class DepthBound(_Record, namedtuple("DepthBound", "lower upper exact")):
    """Depth estimate: optional lower bound, hard upper bound, exactness.
    Built by keyword only; each bound given must be an int, and a float or
    a bool is refused."""

    __slots__ = ()

    def __new__(cls, *, lower=None, upper, exact=False):
        if _int(upper, "upper depth bound") < 0 or (
            lower is not None and _int(lower, "lower depth bound") < 0
        ):
            raise InvalidParameter("depth bounds must be >= 0")
        if lower is not None and lower > upper:
            raise InvalidParameter("lower bound exceeds upper bound")
        if exact and lower != upper:
            raise InvalidParameter("exact bound needs lower = upper")
        return super().__new__(cls, lower, upper, exact)

    def __getnewargs_ex__(self):
        # copy and pickle rebuild through __new__, which takes keywords only
        return (), self._asdict()


def depth_bound(tc: TerminalClass) -> DepthBound:
    """Depth of a terminal point: the depth rule of its row in the class
    table (``baskets._KINDS``), exact where a formula exists and an upper
    bound otherwise."""
    _, depth, datum = tc._rules()
    upper, exact = depth(datum)
    return DepthBound(lower=upper if exact else None, upper=upper, exact=exact)
