"""Verification sweeps shared by the CLI ``verify`` command and the test
suite's acceptance gate.

Each sweep cross-checks one family of claims by an independent route
(closed formula against exhaustive search, threshold bound against a
linear scan, simulated chain stages against closed-form exponents, shape
A's y-term included, and against the discrepancy sum w - (equation
weights) - 1 of every stage, stage a included) and reports a
SweepResult. The chain check computes each closed-form exponent once,
holds it to the paper's recurrence, and then reads the walk's stages in
one pass. A sweep is a stream of cases, each a ``(check, *args)``
tuple, fed to one runner that calls ``check(*args)``, times and counts
them. A check returns what broke, or None; one that raises fails its
case, and the next case runs. A raise while the stream is set up or
makes a case ends the sweep as a failure at that case's number, so no
sweep function raises. The runner names a failing case by the repr of
its args, so a check never names its own case; what several cases share
(the per-run cache of corr(X), the mutants a trace end depth accepts)
goes in as a keyword bound by ``functools.partial`` and is not part of
the name. Everything is deterministic; the randomized sweeps take an
explicit seed.

The sweeps share no state, so ``run_all`` spreads them over the CPUs the
process may use, in forked children with a fixed split, and returns the
list one process would (each ``elapsed`` timed where its sweep ran).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import marshal
import os
import random
import signal
import threading
import time
from collections import namedtuple
from fractions import Fraction
from math import gcd

from . import chains, germs, neighborhoods, riemannroch, traces
from .baskets import Basket, CyclicQuotient, normalize_cyclic
from .errors import InvalidParameter
from .germs import CARGerm


class SweepResult(
    namedtuple("SweepResult", "name ok cases elapsed detail", defaults=("",))
):
    """One sweep's verdict, case count, seconds and first failure."""

    __slots__ = ()

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        extra = f" {self.detail}" if self.detail else ""
        return (
            f"[{mark}] {self.name}: {self.cases} cases "
            f"in {self.elapsed:.2f}s{extra}"
        )


def _run(name: str, make) -> SweepResult:
    """Call ``check(*args)`` for each ``(check, *args)`` of the stream that
    ``make()`` returns; a check that raises fails its case, and a raise in
    ``make`` or while the stream makes a case fails the sweep there.
    Report the failures and the first failing case's args, or the number
    of the case being made, and message.  A sweep that checks no case
    fails."""
    start = time.perf_counter()
    count = failed = 0
    try:
        for case in make():  # indexed: a starred unpacking would build a list
            count += 1
            try:
                message = case[0](*case[1:])
            except Exception as exc:
                message = f"raised {type(exc).__name__}: {exc}"
            if message is not None:
                failed += 1
                if failed == 1:
                    first = f"{', '.join(map(repr, case[1:]))}: {message}"
    except Exception as exc:
        failed += 1
        if failed == 1:
            first = (f"while making case {count + 1}: "
                     f"raised {type(exc).__name__}: {exc}")
    if failed:
        detail = f"{failed} failed, first: {first}"
    else:
        detail = "" if count else "no cases checked"
    return SweepResult(
        name=name,
        ok=count > 0 and not failed,
        cases=count,
        elapsed=time.perf_counter() - start,
        detail=detail,
    )


def _units(r):
    return [b for b in range(1, r) if gcd(b, r) == 1]


def _below(rng: random.Random, n: int) -> int:
    """A uniform draw from range(n), n >= 1, in one frame.

    This is the rejection loop of ``Random._randbelow``, so it takes the
    same bits from rng's stream, and returns the same value, as
    ``rng.randrange(n)``; ``a + _below(rng, b - a + 1)`` is
    ``rng.randint(a, b)`` and ``seq[_below(rng, len(seq))]`` is
    ``rng.choice(seq)``.  The randomized sweeps draw through it, or
    (``random_trace``'s steps) run the same loop inline, and see the
    streams those calls would give."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _check_cyclic_search(r: int, found: int) -> str | None:
    if found != r - 1:
        return f"search {found} != {r - 1}"
    return None


def _check_cyclic_germ(r: int, beta: int) -> str | None:
    via_germ = germs.depth_search(CARGerm(r, beta, frozenset({(0, 1)})))
    if via_germ != r - 1:
        return f"germ route {via_germ} != {r - 1}"
    return None


def sweep_cyclic_depth(r_max: int) -> SweepResult:
    """Exhaustive-search depth of cyclic points vs the closed form r - 1,
    which depth_search prices them by; one table serves every index."""
    def cases():
        searched = germs._cyclic_depth_table(r_max)
        for r in range(2, r_max + 1):
            yield _check_cyclic_search, r, searched[r]
            for beta in _units(r):
                yield _check_cyclic_germ, r, beta

    return _run("cyclic-depth-search", cases)


def _grid(i_max: int, j_max: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(i_max + 1) for j in range(j_max + 1) if i or j]


def iter_germ_supports():
    """Systematic support family: the axial singletons {(0, j)}, j <= 4;
    each of them paired with a point of the grid i <= 4, j <= 8; and the
    triples on the grid i <= 2, j <= 4 with an axial point j <= 4.  A pair
    of two axial points comes once, from its lower point."""
    axial = [(0, j) for j in range(1, 5)]
    for a in axial:
        yield frozenset({a})
    for a in axial:
        for p in _grid(4, 8):
            if p[0] or p[1] > a[1]:
                yield frozenset({a, p})
    for combo in itertools.combinations(_grid(2, 4), 3):
        axials = [j for i, j in combo if i == 0]
        if not axials or min(axials) > 4:
            continue
        yield frozenset(combo)


def _germ_indices(r_max: int) -> list[tuple[int, int]]:
    """Every (r, beta) of the germ family: r in range(2, r_max + 1) and
    beta a unit mod r, which are CARGerm's index and coprimality checks."""
    return [(r, beta) for r in range(2, r_max + 1) for beta in _units(r)]


def iter_germ_family(r_max: int):
    """Every support of ``iter_germ_supports`` at every (r, beta) of
    ``_germ_indices``, support by support.

    Each support goes through CARGerm's checks once: its support checks do
    not depend on (r, beta).  Its germs are then built positionally, past
    the checks, like ``germs._residual`` builds residuals: every (r, beta)
    passes the index and coprimality checks by construction, with beta
    already reduced mod r.  A generator: the family is never held in
    memory."""
    indices = _germ_indices(r_max)
    for support in iter_germ_supports():
        support = CARGerm(2, 1, support).support
        for r, beta in indices:
            yield tuple.__new__(CARGerm, (r, beta, support))


def _transverse_indices(r_max: int) -> dict[tuple[int, int], int]:
    """Per (r, beta) of the germ family, the index of the normal form of
    the transverse quotient 1/r(beta, -beta, 1): the one basket entry of
    a germ at (r, beta) is aw copies of that point (``_ca_r_entry``)."""
    return {
        (r, beta): normalize_cyclic(CyclicQuotient(r, (beta, -beta, 1)))[1]
        for r, beta in _germ_indices(r_max)
    }


def _basket_window(g: CARGerm, index: int) -> tuple[int, int]:
    """The window [Xi - aw, Xi - 1] of the germ's basket, n = aw copies of
    a point of the given index, so Xi = n * index."""
    n = germs.axial_weight(g)
    return n * index - n, n * index - 1


def _check_germ_depth(g: CARGerm, index: int) -> str | None:
    searched = germs.depth_search(g)
    formula = germs.depth_formula(g)
    lo, hi = _basket_window(g, index)
    if searched != formula:
        return f"search {searched}, formula {formula}"
    if not (lo <= searched <= hi):
        return f"depth {searched} outside [{lo}, {hi}]"
    return None


def sweep_germ_depth(r_max: int) -> SweepResult:
    """Search depth == formula depth lam*r - t, inside the basket window;
    the transverse quotient of each (r, beta) is normalized once."""
    def cases():
        indices = _transverse_indices(r_max)
        for g in iter_germ_family(r_max):
            yield _check_germ_depth, g, indices[g.r, g.beta]

    return _run("germ-depth-dual-route", cases)


def _check_residual(g: CARGerm, lam: int, n1: int) -> str | None:
    r1, r2 = germs.admissible_splits(g)[0]
    res = germs.blowup_step(g, r1, r2).residual
    if res is None:
        return "missing residual"
    if germs.axial_weight(res) != lam - n1:
        return "lam recursion broke"
    if germs.tvalue(res) != germs.tvalue(g) - 1:
        return "t recursion broke"
    for s in range(2, lam + 2):
        if germs.nu(res, s - 1) != germs.nu(g, s) - n1:
            return f"nu recursion broke at s={s}"
    return None


def sweep_residual_recursion(r_max: int) -> SweepResult:
    """After one blow-up: lam drops by nu_1, t drops by 1, nu reindexes."""
    def cases():
        for g in iter_germ_family(r_max):
            lam = germs.axial_weight(g)
            n1 = germs.nu(g, 1)
            if n1 < lam:
                yield _check_residual, g, lam, n1

    return _run("residual-recursion", cases)


def _check_rr_bounds(case: riemannroch.ContractionCase, data, corr_x) -> str | None:
    bound = riemannroch.aw_upper_bound(case)
    if bound > data.sufficient_bound:
        return f"bound {bound} too large"
    # independent route: linear scan of the chi threshold over the cD/2
    # point of axial weight awx.  The Y side (1/2 (a/n)^3 E^3 + corr(Y)) is
    # fixed per case; corr(X) is summed over the actual cD/2 basket, never
    # read off the aw/4 slope that the bound assumes.
    base = riemannroch.delta_chi(
        data.a_over_n, data.e3, data.basket_y, Basket()
    )

    def jump(awx):
        return base - corr_x(awx)

    scan = 0
    awx = 1
    while jump(awx) >= 1:
        scan = awx
        awx += 1
    if scan != bound:
        return f"scan {scan} != bound {bound}"
    if bound >= 1 and jump(bound) < 1:
        return "threshold fails at the bound"
    if jump(bound + 1) >= 1:
        return "threshold holds above the bound"
    for awx in range(1, data.sufficient_bound + 1):
        if not riemannroch.case_depth_check(case, awx).ok:
            return f"depth check failed at aw={awx}"
    if case.tag in (riemannroch.E1_A4, riemannroch.E1_A2):
        rp = case.rprime
        if riemannroch.case_depth_check(case, rp - 1).dep_y[0] - 1 != 2 * rp - 2:
            return "dep(Y) - 1 != 2r' - 2"
    return None


def sweep_rr_bounds(rp_max: int) -> SweepResult:
    """Axial-weight bounds from the chi threshold, plus case depth checks,
    over every r' <= rp_max that case_data takes."""
    def cases():
        # corr(X) of the cD/2 point of each axial weight, summed over its
        # basket once per run: one cache serves every case of the scan
        corr_x = functools.cache(lambda awx: riemannroch.rr_correction(
            riemannroch.cd2_basket(awx)))
        check = functools.partial(_check_rr_bounds, corr_x=corr_x)
        for tag in (riemannroch.E1_A4, riemannroch.E1_A2, riemannroch.E2):
            for rp in range(1, rp_max + 1):
                case = riemannroch.ContractionCase(tag, rp)
                try:
                    data = riemannroch.case_data(case)
                except InvalidParameter:
                    continue  # r' too small, or a non-terminal basket of Y
                yield check, case, data

    return _run("chi-threshold-bounds", cases)


def _check_e11(case: riemannroch.ContractionCase) -> str | None:
    rep = riemannroch.case_depth_check(case)
    if rep.dep_y != (6, 6):
        return f"dep(Y) = {rep.dep_y} != (6, 6)"
    if rep.dep_x_upper != 7:
        return f"dep(X) bound = {rep.dep_x_upper} != 7"
    if not rep.ok:
        return "depth comparison failed"
    return None


def check_e11() -> SweepResult:
    """E11 case: dep(Y) = 6 from the index-2 and index-6 points, dep(X) <= 7."""
    def cases():
        yield _check_e11, riemannroch.ContractionCase(riemannroch.E11)

    return _run("e11-depth", cases)


def _check_en_exceptional(
    case: neighborhoods.ExceptionalIAIACase, r1: int
) -> str | None:
    v = neighborhoods.key_check(case, r1=r1)
    if (v.s * r1 - 2) % case.r != 0:
        return f"s*r1 = {v.s * r1} is not 2 mod r"
    if v.s * r1 < 2:
        return "witness failed"
    if not v.nonpositive:
        return f"K_Y.C_Y = {v.ky_cy} > 0"
    return None


def sweep_en_exceptional(r_max: int) -> SweepResult:
    """Exceptional IA+IA: s*r1 = 2 mod r, s*r1 >= 2 and K_Y.C_Y <= 0 for
    the minimal admissible r1 and the two r and 2r above it."""
    def cases():
        for r in range(5, r_max + 1, 2):
            for a2 in range(r // 2 + 1, r):
                if gcd(a2, r) != 1:
                    continue
                case = neighborhoods.ExceptionalIAIACase(r, a2)
                base = neighborhoods.minimal_r1(case)
                for step in range(3):
                    yield _check_en_exceptional, case, base + step * r

    return _run("en-exceptional-iaia", cases)


def _check_en_semistable(case: neighborhoods.SemistableIAIACase) -> str | None:
    v = neighborhoods.key_check(case)
    if (v.r1 * v.delta - case.rprime) % case.r != 0:
        return f"r1*delta = {v.r1 * v.delta} is not r' mod r"
    if v.r1 * v.delta < case.rprime:
        return "witness failed"
    if not v.nonpositive:
        return "K_Y.C_Y > 0"
    return None


def sweep_en_semistable(r_max: int) -> SweepResult:
    """Semistable IA+IA: r1*delta = r' mod r, r1*delta >= r' and
    K_Y.C_Y <= 0 over all shapes."""
    def cases():
        units = [_units(r) for r in range(r_max + 1)]  # one list per index
        shapes = (
            neighborhoods.SemistableIAIACase(r, a, rp, ap)
            for rp in range(2, r_max + 1)
            for r in range(rp, r_max + 1)
            for a in units[r]
            for ap in units[rp]
            if a * rp + ap * r - r * rp > 0
        )
        return zip(itertools.repeat(_check_en_semistable), shapes)

    return _run("en-semistable-iaia", cases)


def _check_en_iib(case: neighborhoods.IIBCase) -> str | None:
    cf = neighborhoods.cf_intersection(case)
    if cf.numerator > cf.denominator:  # cf > 1, compared in integers
        return "fiber degree above 1"
    return None


def sweep_en_iib(entry_max: int) -> SweepResult:
    """IIB: fiber degree min(3/r1, 2/r2) <= 1 over the congruence grid."""
    def cases():
        r1s, r2s, r3s = (range(low, entry_max + 1, 4) for low in (3, 2, 1))
        shapes = itertools.product(r1s, r2s, r3s, r3s)
        return zip(itertools.repeat(_check_en_iib),
                   itertools.starmap(neighborhoods.IIBCase, shapes))

    return _run("en-iib-fiber-degree", cases)


def _ceil_div(p: int, q: int) -> int:
    return -(-p // q)


def _random_support(rng: random.Random, i_count: int, low) -> set:
    """Zero to four draws (i, j): i from range(i_count), then j from
    max(0, low(i)) up to 6 above it."""
    support = set()
    for _ in range(_below(rng, 5)):
        i = _below(rng, i_count)
        support.add((i, max(0, low(i)) + _below(rng, 7)))
    return support


def random_case_a(rng: random.Random, a: int, d: int) -> chains.O3CaseA:
    supp_a = {(2 * d, 0)} | _random_support(
        rng, 3 * d + 3, lambda i: 2 * a * d - a * i)
    supp_b = _random_support(
        rng, 2 * d + 3, lambda i: _ceil_div(2 * a * d - 1 - (2 * i + 1) * a, 2))
    alpha = d + 1 + _below(rng, 4)
    return chains.O3CaseA(a, d, alpha, supp_a, supp_b)


def random_case_b(rng: random.Random, a: int, d: int) -> chains.O3CaseB:
    supp_a = _random_support(rng, 2 * d + 4, lambda i: (2 * d + 1) * a - a * i)
    supp_b = _random_support(rng, d + 3, lambda i: a * (d - i) - 1)
    return chains.O3CaseB(a, d, supp_a, supp_b)


def _check_depth_identity(case, dep_q3: int) -> str | None:
    ident = chains.depth_identity(case, dep_q3)
    if not ident.check or ident.dep_y != ident.dep_x_upper + case.a - 2:
        return "depth identity broke"
    return None


def _rules_a(case):
    """Shape A's rules, as _chain_failure reads them: its walk (looked up
    on chains at each call), the stage fields of its equation weights and
    their values below the top stage, whether a stage below the top names
    a weight witness, and its exponent families.  A family is the reader
    of its rows off a stage, its name in failures, its support, its closed
    form, the form's stage-0 offset, its steps by parity and its stage-a
    formula.  The y-term is the family of the one row (alpha, 0)."""
    a, d, r = case.a, case.d, case.r
    y_term = (case.alpha, 0)
    return chains.chain_simulate, ("sigma_weight",), (2 * d,), True, (
        (lambda st: st.a_exponents, "beta", case.supp_a, chains.beta_k, 0, (-2 * d, -2 * d),
         lambda i, j: a * i + j - r - 1),
        (lambda st: st.b_exponents, "gamma", case.supp_b, chains.gamma_k, 0, (1 - d, -d),
         lambda i, j: ((2 * i + 1) * a + 2 * j - r) // 2),
        (lambda st: ((y_term, st.y_exponent),), "delta", (y_term,),
         lambda alpha, _, k, d: chains.delta_k(k, alpha, d), 0, (-1 - d, -d),
         lambda alpha, _: (2 * a * alpha - a - r - 2) // 2))


def _rules_b(case):
    """Shape B's rules, laid out as _rules_a's; stage 0 is the germ
    itself, x^(2i) z^j and x^(2i+1) z^(j+1)."""
    a, d, r = case.a, case.d, case.r
    return chains.chain_stages_b, ("wt_first", "wt_second"), (
        2 * d + 1, Fraction(2 * d + 1, 2)), False, (
        (lambda st: st.p_exponents, "first exponent", case.supp_a, chains.beta_k_b, 0,
         (-2 * d - 1, -2 * d - 1), lambda i, j: a * i + j - r - 2),
        (lambda st: st.q_exponents, "second exponent", case.supp_b, chains.gamma_k_b, 1,
         (-d, -d), lambda i, j: j + 1 + a * (i - d)))


def _chain_failure(case, dep_q3: int, rules) -> str | None:
    """The first failure of one chain case by its shape's rules, or None.

    First the closed forms: each family's ``form(i, j, k, d)`` of each
    (i, j) of its support, for k = 0..a, is j + offset at stage 0 (the
    germ itself) and steps by i + step[k % 2] from stage k to k + 1, the
    paper's recurrence; each value is computed once and kept as the
    family's column.  Then one pass over the walk's stages: nonnegative
    exponents; below the top, the threshold weights, the discrepancy 1/2
    and (shape A) a weight witness; at the top, the discrepancy sum w -
    (equation weights) - 1 from the stage's own fields; then each family's
    rows ((i, j), e): the column's value at every stage k below a, and the
    stage-a formula ``top_form(i, j)`` at the top.  Last, the depth
    identity."""
    walk, fields, wants, witnessed, families = rules
    a, d = case.a, case.d
    row_checks = []
    for rows, name, support, form, offset, step, top_form in families:
        row_checks.append((rows, name, top_form, column := {}))
        for i, j in support:
            column[i, j] = values = [form(i, j, k, d) for k in range(a + 1)]
            want = j + offset
            for k, e in enumerate(values):
                if e != want:
                    return f"{name} recurrence broke" if k else f"stage-0 {name} mismatch"
                want += i + step[k % 2]
    half = Fraction(1, 2)
    for st in walk(case):
        k, weights = st.k, [getattr(st, field) for field in fields]
        top = k == a
        if any(e < 0 for rows, *_ in families for _, e in rows(st)):
            return f"negative exponent at stage {k}"
        for w, want in zip(weights, () if top else wants):
            if w != want:
                return f"stage {k} weight {w}"
        if st.discrepancy != (sum(st.weights) - sum(weights) - 1 if top else half):
            return f"stage {k} discrepancy {st.discrepancy}"
        if witnessed and not top and not st.witnesses:
            return f"stage {k} lost its weight witnesses"
        for rows, name, top_form, column in row_checks:
            for (i, j), e in rows(st):
                want = top_form(i, j) if top else column[i, j][k]
                if e != want:
                    return (f"top-stage {name} {e} != {want}" if top
                            else f"stage {k} {name} {e} != {want}")
    return _check_depth_identity(case, dep_q3)


def _check_case_a(case, dep_q3: int) -> str | None:
    return _chain_failure(case, dep_q3, _rules_a(case))


def _check_case_b(case, dep_q3: int) -> str | None:
    return _chain_failure(case, dep_q3, _rules_b(case))


def sweep_o3_chains(cases_per_shape: int, seed: int) -> SweepResult:
    """Randomized chain data for both shapes: recurrences, nonnegativity,
    stage weights, every stage's discrepancy (1/2 below stage a, sum w -
    (equation weights) - 1 at the top), every stage's exponents, shape
    A's y-term included (the closed forms below stage a, the stage-a
    formulas at the top), and the depth identity."""
    def cases():
        rng = random.Random(seed)
        combos = [(a, d) for a in (3, 5, 7, 9) for d in (1, 2, 3)]
        per_combo = _ceil_div(cases_per_shape, len(combos))
        # each case, then its endpoint depth: one stream of draws
        for a, d in combos:
            for _ in range(per_combo):
                yield _check_case_a, random_case_a(rng, a, d), _below(rng, 13)
                yield _check_case_b, random_case_b(rng, a, d), _below(rng, 13)

    return _run("o3-chain-calculus", cases)


def _moves_at(dep: int):
    """The moves of a generated step from depth dep: the number of kinds
    there and its draw width, then per kind (in draw order) the number of
    its after-depths, their draw width and one TraceStep per after-depth,
    in order.  A Flop keeps dep and a blow-down to an LCI curve keeps the
    Gorenstein terminus 0: neither draws, so its width is 0."""
    kinds = (traces.FLOP, traces.DIV_TO_POINT, traces.DIV_TO_CURVE) + (
        (traces.FLIP, traces.WEXTRACTION) if dep else (traces.BLOWDOWN_LCI,))
    afters = {
        traces.FLOP: range(dep, dep + 1),
        traces.FLIP: range(dep),
        traces.WEXTRACTION: range(dep - 1, dep + 3),
        traces.DIV_TO_POINT: range(max(0, dep - 1), dep + 3),
        traces.DIV_TO_CURVE: range(dep + 1),
        traces.BLOWDOWN_LCI: range(1),
    }
    rows = []
    for kind in kinds:
        depths = afters[kind]
        fixed = kind in (traces.FLOP, traces.BLOWDOWN_LCI)
        rows.append((len(depths), 0 if fixed else len(depths).bit_length(),
                     tuple(traces.TraceStep(kind, dep, after) for after in depths)))
    return len(kinds), len(kinds).bit_length(), tuple(rows)


def random_trace(rng: random.Random, moves: dict | None = None):
    """A valid trace of 1 to 12 steps from a depth of at most 10.

    Each step draws its kind, then its after-depth, from ``moves``, a
    table from depth to ``_moves_at(depth)`` filled the first time a trace
    reaches that depth; without a table the call makes a fresh one.  Both
    draws are ``_below``'s rejection loop written out on
    ``rng.getrandbits`` (a width of 0 takes no bits), so a trace takes the
    same bits, and is the same trace, as with ``randint`` and ``choice``.
    A step is the table's prebuilt TraceStep, so the steps one table
    gives are built once each, through the constructor."""
    if moves is None:
        moves = {}
    bits = rng.getrandbits
    dep = _below(rng, 11)
    steps = []
    for _ in range(1 + _below(rng, 12)):
        try:
            n, k, kinds = moves[dep]
        except KeyError:
            n, k, kinds = moves[dep] = _moves_at(dep)
        r = bits(k)
        while r >= n:
            r = bits(k)
        n, k, row = kinds[r]
        r = bits(k)
        while r >= n:
            r = bits(k)
        step = row[r]
        steps.append(step)
        dep = step.dep_after
    return traces.FactorizationTrace(tuple(steps))


def _violating_steps(trace):
    """The steps whose single appending to the trace must be rejected."""
    dep = trace.steps[-1].dep_after if trace.steps else 0
    yield traces.TraceStep(traces.FLOP, dep, dep + 1)
    yield traces.TraceStep(traces.FLIP, dep, dep)
    yield traces.TraceStep(traces.DIV_TO_CURVE, dep, dep + 1)
    if trace.steps:
        # chaining break: step starts at the wrong depth
        yield traces.TraceStep(traces.FLOP, dep + 1, dep + 1)
    if dep == 0:
        yield traces.TraceStep(traces.WEXTRACTION, 0, 3)
    if dep >= 2:
        yield traces.TraceStep(traces.WEXTRACTION, dep, dep - 2)
        yield traces.TraceStep(traces.DIV_TO_POINT, dep, dep - 2)
    if dep >= 1:
        yield traces.TraceStep(traces.BLOWDOWN_LCI, dep, 0)


def _check_trace(t, accepted: dict) -> str | None:
    if not traces.validate_trace(t).valid:
        return "generated trace rejected"
    # the prefix is valid, so a mutant is valid exactly when its last step is
    end = t.steps[-1].dep_after
    if end not in accepted:
        accepted[end] = next(
            (last for last in _violating_steps(t)
             if traces._check_run((last,), end, len(t.steps))[0]),
            None,
        )
    last = accepted[end]
    return None if last is None else f"mutant accepted: {last}"


def sweep_trace_rules(n_traces: int, seed: int) -> SweepResult:
    """Metamorphic check: generated traces pass, every mutation fails.

    A trace is validated once; a mutant only appends a step to it, so only
    that step is checked, from the depth the trace ends at.  The mutants of
    a nonempty trace, and whether each step passes its rule and continues
    the chain, depend on that end depth alone (the index a diagnostic
    carries never decides ``ok``), and ``random_trace`` never yields an
    empty trace.  So each end depth's mutants are checked once, on its
    first trace, and later traces ending there reuse the first accepted
    mutant (or None) from ``accepted``.  The traces draw their steps from
    one table of moves per run, bound like ``accepted``, so a run builds
    each step of a depth it reaches once, and nothing is kept from one
    run to the next."""
    def cases():
        check = functools.partial(_check_trace, accepted={})
        draw = functools.partial(random_trace, moves={})
        traced = map(draw, itertools.repeat(random.Random(seed), n_traces))
        return zip(itertools.repeat(check), traced)

    return _run("trace-rule-metamorphic", cases)


def run_all(
    cyclic_max: int = 25,
    germ_r_max: int = 7,
    rr_max: int = 40,
    en_r_max: int = 99,
    semi_max: int = 30,
    iib_max: int = 51,
    o3_cases: int = 200,
    trace_count: int = 10000,
    seed: int = 20240817,
) -> list[SweepResult]:
    """The ten sweeps' results, in this order.  They run in as many
    processes as ``_processes`` gives (see ``_dispatch``); the list is the
    one a single process returns."""
    return _dispatch([
        (sweep_cyclic_depth, cyclic_max),
        (sweep_germ_depth, germ_r_max),
        (sweep_residual_recursion, germ_r_max),
        (sweep_rr_bounds, rr_max),
        (check_e11,),
        (sweep_en_exceptional, en_r_max),
        (sweep_en_semistable, semi_max),
        (sweep_en_iib, iib_max),
        (sweep_o3_chains, o3_cases, seed),
        (sweep_trace_rules, trace_count, seed + 1),
    ])


def _processes(calls: int) -> int:
    """One process per CPU this process may use, at most one per call; one
    where ``os.fork`` or the CPU affinity is missing, or where another
    thread runs (a fork copies only the calling thread)."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), calls)


def _dispatch(calls: list[tuple]) -> list[SweepResult]:
    """``fn(*args)`` for each ``(fn, *args)`` of ``calls``, in order.

    With n processes, call i runs in process i mod n: process 0 is this
    one, the others forked children, so every run splits the calls the
    same way.  A child sends each result down its pipe with ``marshal``.
    This process runs its share, reads each child's results off its pipe
    and reaps every child; on a raise it kills them first.  A call that no
    child reported runs here after the others: its child died, or
    ``os.fork`` failed to start it, and then no later child is started."""
    n = _processes(len(calls))
    results, children = [None] * len(calls), []
    try:
        for k in range(1, n):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to be had: its calls rerun here
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                _child(calls[k::n], write)
            os.close(write)
            children.append((pid, open(read, "rb"), range(k, len(calls), n)))
        for i in range(0, len(calls), n):
            results[i] = calls[i][0](*calls[i][1:])
        for _, pipe, mine in children:
            with contextlib.suppress(EOFError, ValueError, TypeError):  # it died
                for i in mine:
                    results[i] = SweepResult(*marshal.load(pipe))
    except BaseException:
        for pid, _, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            os.waitpid(pid, 0)
    return [res or call[0](*call[1:]) for res, call in zip(results, calls)]


def _child(calls: list[tuple], write: int):
    """Run calls in a forked child, each result down the pipe as it comes;
    leave through ``os._exit``, so the child never returns into its
    parent's stack nor flushes the stdio buffers it inherited."""
    try:
        with open(write, "wb") as pipe:
            for call in calls:
                marshal.dump(tuple(call[0](*call[1:])), pipe)
                pipe.flush()
    finally:
        os._exit(0)
