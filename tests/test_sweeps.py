"""Plumbing of the verification sweeps: reporting, generators, mutants."""

import errno
import functools
import itertools
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import wresolve
from wresolve import chains, germs, neighborhoods, riemannroch, sweeps, traces
from wresolve.baskets import _ca_r_entry
from wresolve.errors import InvalidParameter


def test_result_line_format():
    res = sweeps.SweepResult(name="demo", ok=True, cases=42, elapsed=0.1234)
    assert res.line() == "[PASS] demo: 42 cases in 0.12s"
    res = sweeps.SweepResult(
        name="demo", ok=False, cases=1, elapsed=2.0, detail="1 failed, first: 3: x"
    )
    assert res.line() == "[FAIL] demo: 1 cases in 2.00s 1 failed, first: 3: x"


def test_germ_family_is_substantial():
    family = list(sweeps.iter_germ_family(r_max=4))
    assert len(family) > 300
    assert len({(g.r, g.beta, g.support) for g in family}) == len(family)


# each support is checked once and its germs are built positionally; the
# family must be the one the public constructor builds, in the same order
@pytest.mark.parametrize("r_max", range(2, 8))
def test_positional_family_is_the_constructor_family(r_max):
    built = [germs.CARGerm(r, beta, support)
             for support in sweeps.iter_germ_supports()
             for r in range(2, r_max + 1)
             for beta in range(1, r) if gcd(beta, r) == 1]
    family = list(sweeps.iter_germ_family(r_max))
    assert family == built
    assert all(type(g) is germs.CARGerm and type(g.support) is frozenset
               for g in family)


def test_support_family_is_the_set_deduped_family_in_order():
    # reference: every axial singleton, then each axial point paired with
    # each grid point, a repeated pair dropped by a set, then the triples
    axial = [(0, j) for j in range(1, 5)]
    grid = [(i, j) for i in range(5) for j in range(9) if i or j]
    want = [frozenset({a}) for a in axial]
    seen = set()
    for a in axial:
        for p in grid:
            s = frozenset({a, p})
            if p != a and s not in seen:
                seen.add(s)
                want.append(s)
    small = [(i, j) for i in range(3) for j in range(5) if i or j]
    want += [frozenset(c) for c in itertools.combinations(small, 3)
             if any(i == 0 and j <= 4 for i, j in c)]
    assert list(sweeps.iter_germ_supports()) == want
    assert len(want) == 414


def test_one_window_per_index_pair_is_the_basket_entry_window():
    indices = sweeps._transverse_indices(7)
    assert len(indices) == 17
    for g in sweeps.iter_germ_family(7):
        entry = _ca_r_entry(g)
        xi = entry.n * entry.r
        assert sweeps._basket_window(g, indices[g.r, g.beta]) == (xi - entry.n, xi - 1)


def test_germ_sweep_normalizes_once_per_index_pair(monkeypatch):
    seen = []
    normalize = sweeps.normalize_cyclic
    monkeypatch.setattr(sweeps, "normalize_cyclic",
                        lambda q: seen.append(q) or normalize(q))
    res = sweeps.sweep_germ_depth(7)
    assert (res.ok, res.cases, len(seen)) == (True, 7038, 17)


def test_one_corr_x_per_axial_weight_is_the_cd2_correction():
    summed = []

    def correction(awx):
        summed.append(awx)
        return riemannroch.rr_correction(riemannroch.cd2_basket(awx))

    corr_x = functools.cache(correction)
    bounds = []
    for tag in (riemannroch.E1_A4, riemannroch.E1_A2, riemannroch.E2):
        for rp in range(1, 41):
            case = riemannroch.ContractionCase(tag, rp)
            try:
                data = riemannroch.case_data(case)
            except InvalidParameter:
                continue
            assert sweeps._check_rr_bounds(case, data, corr_x) is None
            bounds.append(riemannroch.aw_upper_bound(case))
    assert len(bounds) == 57
    # each case's scan runs to one past its bound, and sums each basket once
    assert summed == list(range(1, max(bounds) + 2))
    assert corr_x.cache_info().currsize == len(summed)
    for awx in summed:
        assert corr_x(awx) == riemannroch.rr_correction(riemannroch.cd2_basket(awx))


def test_random_traces_are_valid():
    rng = random.Random(99)
    for _ in range(300):
        t = sweeps.random_trace(rng)
        assert traces.validate_trace(t).valid


def rejected(step, index, dep):
    """Whether appending step at index to a valid trace standing at dep
    (None for the empty trace) gives an invalid trace."""
    return not traces._check_run((step,), dep, index)[0]


def test_violating_extensions_all_fail():
    rng = random.Random(7)
    for _ in range(200):
        t = sweeps.random_trace(rng)
        mutants = list(sweeps._violating_steps(t))
        assert len(mutants) >= 4
        for bad in mutants:
            assert rejected(bad, len(t.steps), t.steps[-1].dep_after)


def test_violating_extensions_of_empty_trace():
    empty = traces.FactorizationTrace(())
    for bad in sweeps._violating_steps(empty):
        assert rejected(bad, 0, None)


def test_random_o3_cases_pass_constraints():
    from wresolve import chains

    rng = random.Random(5)
    for _ in range(30):
        case_a = sweeps.random_case_a(rng, 3, 1)
        chains.check_constraints(case_a)
        case_b = sweeps.random_case_b(rng, 5, 2)
        chains.check_constraints(case_b)


def test_run_all_quick():
    results = sweeps.run_all(
        cyclic_max=6,
        germ_r_max=3,
        rr_max=10,
        en_r_max=15,
        semi_max=8,
        iib_max=11,
        o3_cases=6,
        trace_count=100,
    )
    assert len(results) == 10
    assert all(r.ok for r in results)
    names = [r.name for r in results]
    assert names[0] == "cyclic-depth-search"
    assert names[-1] == "trace-rule-metamorphic"


QUICK = dict(cyclic_max=6, germ_r_max=3, rr_max=10, en_r_max=15, semi_max=8,
             iib_max=11, o3_cases=6, trace_count=100)
# all 13: two cyclic checks and three o3 ones among them
CHECKS = sorted(name for name in vars(sweeps) if name.startswith("_check_"))


def _pin(monkeypatch, n):
    monkeypatch.setattr(sweeps, "_processes", lambda calls: n)


@pytest.fixture
def one_process(monkeypatch):
    """run_all in the calling process alone: for tests whose patches count
    calls across sweeps in this process's memory, which a forked child's
    calls would not reach."""
    _pin(monkeypatch, 1)


# a check that raises fails its case, and the runner goes on: every sweep
# still reports, and only the one behind the patched check fails
@pytest.mark.usefixtures("one_process")
@pytest.mark.parametrize("name", CHECKS)
def test_a_raising_check_fails_only_its_cases(monkeypatch, name):
    counts = [r.cases for r in sweeps.run_all(**QUICK)]
    calls = []

    def raising(*args, **shared):
        calls.append(args)
        raise KeyError("x")

    monkeypatch.setattr(sweeps, name, raising)
    results = sweeps.run_all(**QUICK)
    assert [r.cases for r in results] == counts
    failed = [r for r in results if not r.ok]
    assert len(failed) == 1 and calls
    assert failed[0].detail == (f"{len(calls)} failed, first: "
                                f"{', '.join(map(repr, calls[0]))}: raised KeyError: 'x'")


def _raising_once(passed, real):
    """real, except that the call after the first ``passed`` raises."""
    def patched(*args, **kwargs):
        nonlocal passed
        passed -= 1
        if passed == -1:
            raise KeyError("x")
        return real(*args, **kwargs)
    return patched


# per sweep, a call its stream makes while it builds cases, the calls of it
# that go through first (those an earlier sweep makes, or some of the
# sweep's own), and the cases checked before the raise; the calls after it
# go through too, as a later sweep's checks may make the same call
GENERATION = [
    ("cyclic-depth-search", germs, "_cyclic_depth_table", 0, 0),
    ("germ-depth-dual-route", sweeps, "_transverse_indices", 0, 0),
    ("residual-recursion", sweeps, "iter_germ_family", 1, 0),
    ("chi-threshold-bounds", riemannroch, "case_data", 0, 0),
    # the chi-threshold sweep builds one case per tag and r'
    ("e11-depth", riemannroch, "ContractionCase", 3 * QUICK["rr_max"], 0),
    ("en-exceptional-iaia", neighborhoods, "minimal_r1", 0, 0),
    ("en-semistable-iaia", neighborhoods, "SemistableIAIACase", 0, 0),
    ("en-iib-fiber-degree", neighborhoods, "IIBCase", 0, 0),
    ("o3-chain-calculus", sweeps, "random_case_a", 0, 0),
    ("trace-rule-metamorphic", sweeps, "random_trace", 0, 0),
    ("trace-rule-metamorphic", sweeps, "random_trace", 5, 5),
]


# a raise while a stream makes a case fails that sweep at the case's
# number, also before any case was checked, and every sweep still reports
@pytest.mark.usefixtures("one_process")
@pytest.mark.parametrize("sweep, module, name, passed, made", GENERATION)
def test_a_raise_while_making_a_case_fails_only_its_sweep(
    monkeypatch, sweep, module, name, passed, made
):
    clean = sweeps.run_all(**QUICK)
    monkeypatch.setattr(module, name, _raising_once(passed, getattr(module, name)))
    results = sweeps.run_all(**QUICK)
    assert [r.name for r in results] == [r.name for r in clean]
    for res, want in zip(results, clean):
        if res.name != sweep:
            assert (res.ok, res.cases, res.detail) == (True, want.cases, "")
    (res,) = [r for r in results if r.name == sweep]
    assert (res.ok, res.cases) == (False, made)
    assert res.detail == (f"1 failed, first: while making case {made + 1}: "
                          "raised KeyError: 'x'")


def test_runner_names_the_case_by_its_args_and_not_the_shared_keyword():
    def below(a, b, table):
        return None if a < b else f"{a} >= {b}"

    check = functools.partial(below, table={})
    res = sweeps._run("demo", lambda: ((check, n, 2) for n in range(4)))
    assert (res.ok, res.cases) == (False, 4)
    assert res.detail == "2 failed, first: 2, 2: 2 >= 2"
    res = sweeps._run("demo", lambda: [(check, 1, 2), (check, 0, None), (check, 3, 2)])
    assert res.detail == ("2 failed, first: 0, None: raised TypeError: "
                          "'<' not supported between instances of 'int' and 'NoneType'")
    assert sweeps._run("demo", list).detail == "no cases checked"


# the set-up a sweep does before its first case (a table, a seeded
# generator) runs inside the runner's guard, so a raise there fails that
# sweep by name; no sweep function raises
def test_a_raise_before_the_first_case_fails_only_its_sweep(monkeypatch):
    clean = sweeps.run_all(**QUICK)
    units = sweeps._units

    def raising(r):  # only the semistable sweep's table asks for r < 2
        if r < 2:
            raise KeyError("x")
        return units(r)

    monkeypatch.setattr(sweeps, "_units", raising)
    results = sweeps.run_all(**QUICK)
    for res, want in zip(results, clean):
        if res.name != "en-semistable-iaia":
            assert (res.name, res.ok, res.cases, res.detail) == (
                want.name, True, want.cases, "")
    (res,) = [r for r in results if not r.ok]
    assert (res.name, res.cases) == ("en-semistable-iaia", 0)
    assert res.detail == "1 failed, first: while making case 1: raised KeyError: 'x'"


@pytest.mark.parametrize("sweep, count", [
    (sweeps.sweep_o3_chains, 12), (sweeps.sweep_trace_rules, 40)])
def test_a_seed_random_refuses_fails_its_sweep(sweep, count):
    res = sweep(count, seed=[1])
    assert (res.ok, res.cases) == (False, 0)
    assert res.detail.startswith("1 failed, first: while making case 1: raised TypeError: ")


def _summary(results):
    return [(r.name, r.ok, r.cases, r.detail) for r in results]


def _always_raising(*args, **kwargs):
    raise KeyError("x")


# patches that hold no state, so each process sees the same ones: every
# check, and every call a stream makes, raising on each call
PATCHES = ([(sweeps, name) for name in CHECKS]
           + sorted({(module, name) for _, module, name, _, _ in GENERATION},
                    key=lambda p: (p[0].__name__, p[1])))


# call i runs in process i mod n, and the list is the one-process list
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("module, name", [(None, None)] + PATCHES,
                         ids=["clean"] + [f"{m.__name__}.{f}" for m, f in PATCHES])
def test_parallel_matches_one_process(monkeypatch, n, module, name):
    if module is not None:
        monkeypatch.setattr(module, name, _always_raising)
    _pin(monkeypatch, 1)
    alone = _summary(sweeps.run_all(**QUICK))
    _pin(monkeypatch, n)
    assert _summary(sweeps.run_all(**QUICK)) == alone


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# a sweep whose child dies runs again here: sweep 1 takes the child's
# every result with it, sweep 9 only its own (with two processes the
# child runs the odd sweeps)
@pytest.mark.parametrize("name", ["sweep_germ_depth", "sweep_trace_rules"])
def test_a_sweep_whose_child_dies_runs_here(monkeypatch, name):
    _pin(monkeypatch, 1)
    alone = _summary(sweeps.run_all(**QUICK))
    real, caller = getattr(sweeps, name), os.getpid()

    def dying(*args):
        if os.getpid() != caller:
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(sweeps, name, dying)
    _pin(monkeypatch, 2)
    assert _summary(sweeps.run_all(**QUICK)) == alone
    _no_children()


# os.fork refusing process 1, then process 2, of three: the calls of every
# process not started run here, and the list is the one-process list
@pytest.mark.parametrize("refused", [1, 2])
def test_a_refused_fork_runs_its_calls_here(monkeypatch, refused):
    _pin(monkeypatch, 1)
    alone = _summary(sweeps.run_all(**QUICK))
    real, forks = os.fork, itertools.count(1)

    def fork():
        if next(forks) == refused:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real()

    monkeypatch.setattr(os, "fork", fork)
    _pin(monkeypatch, 3)
    assert _summary(sweeps.run_all(**QUICK)) == alone
    assert next(forks) == refused + 1  # no fork after the refused one
    _no_children()


def test_no_child_outlives_run_all(monkeypatch):
    _pin(monkeypatch, 2)
    assert len(sweeps.run_all(**QUICK)) == 10
    _no_children()


class _Stop(BaseException):
    pass


# a raise in the caller kills the children before it reaps them: here the
# child would sleep a minute
def test_a_raise_in_the_caller_kills_the_children(monkeypatch):
    caller = os.getpid()

    def stuck_in_a_child(*args):
        if os.getpid() != caller:
            time.sleep(60)
        raise _Stop

    monkeypatch.setattr(sweeps, "sweep_germ_depth", stuck_in_a_child)
    monkeypatch.setattr(sweeps, "sweep_residual_recursion", stuck_in_a_child)
    _pin(monkeypatch, 2)
    start = time.perf_counter()
    with pytest.raises(_Stop):
        sweeps.run_all(**QUICK)
    assert time.perf_counter() - start < 30
    _no_children()


def test_verify_in_a_fresh_process_prints_ten_lines():
    src = str(Path(wresolve.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "wresolve", "verify"]
    for name, value in QUICK.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert len(lines) == 10 and all(ln.startswith("[PASS] ") for ln in lines)


def _parity_swapped(weights):
    return lambda case, k: weights(case, k + 1)


def _rows_moved(walk, field, by):
    # the walk with each row ((i, j), e) of the stage field moved to
    # e + by(k) at stage k
    def moved(case, k_max=None):
        return tuple(
            st._replace(**{field: tuple((ij, e + by(st.k)) for ij, e in getattr(st, field))})
            for st in walk(case, k_max))
    return moved


def _beta_lowered(walk):
    # every beta row one lower: the pivot exponent is -1 from stage 0
    return _rows_moved(walk, "a_exponents", lambda k: -1)


def _gamma_raised_at_even_stages(walk):
    # every gamma row one higher at even k: wrong below the top stage only,
    # since a is odd
    return _rows_moved(walk, "b_exponents", lambda k: 1 - k % 2)


# the first shape-A case of seed 20240817 and its endpoint depth, and the
# first two shape-B cases of that seed to fail a shifted closed form, as
# the runner names them
FIRST_A = ("O3CaseA(a=3, d=1, alpha=3, supp_a=frozenset({(2, 0), (2, 1), (5, 2)}), "
           "supp_b=frozenset({(1, 0), (1, 1), (0, 3), (0, 2)})), 8")
FIRST_B_BETA = ("O3CaseB(a=3, d=1, supp_a=frozenset({(2, 3), (4, 2), (0, 9), (1, 10)}), "
                "supp_b=frozenset({(2, 1)})), 4")
FIRST_B_GAMMA = ("O3CaseB(a=3, d=1, supp_a=frozenset(), "
                 "supp_b=frozenset({(2, 3), (1, 3), (3, 4), (3, 0)})), 11")


# the sweep checks the weights and exponents the walks measure at every
# stage, so a broken walk shows up as a failed sweep, not as an exception
# from the walk
@pytest.mark.parametrize("name, wrong, detail", [
    ("_doubled_weights", _parity_swapped, f"24 failed, first: {FIRST_A}: stage 0 weight 1"),
    ("chain_simulate", _beta_lowered,
     f"12 failed, first: {FIRST_A}: negative exponent at stage 0"),
    ("chain_simulate", _gamma_raised_at_even_stages,
     f"8 failed, first: {FIRST_A}: stage 0 gamma 3 != 2"),
], ids=["weights", "exponents", "even-stages"])
def test_o3_sweep_reports_a_broken_walk(monkeypatch, name, wrong, detail):
    monkeypatch.setattr(chains, name, wrong(getattr(chains, name)))
    res = sweeps.sweep_o3_chains(12, seed=20240817)
    assert not res.ok
    assert res.cases == 24  # both shapes of each of the 12 (a, d) draws
    assert res.detail == detail


def _raised(walk, field, top_only):
    # the walk with the stage field one higher at every stage, or at the
    # top stage k = a only
    def raised(case, k_max=None):
        return tuple(st._replace(**{field: getattr(st, field) + 1})
                     if st.k == case.a or not top_only else st
                     for st in walk(case, k_max))
    return raised


# the sweep checks the top stage's discrepancy against sum w - (equation
# weights) - 1 and shape A's y-term against delta_k at every stage, so a
# walk off in either fails it
@pytest.mark.parametrize("walk, field, top_only, detail", [
    ("chain_simulate", "discrepancy", True,
     f"12 failed, first: {FIRST_A}: stage 3 discrepancy 3/2"),
    ("chain_stages_b", "discrepancy", True,
     f"12 failed, first: {FIRST_B_GAMMA}: stage 3 discrepancy 3/2"),
    ("chain_simulate", "y_exponent", False, f"12 failed, first: {FIRST_A}: stage 0 delta 1 != 0"),
    ("chain_simulate", "y_exponent", True, f"12 failed, first: {FIRST_A}: top-stage delta 5 != 4"),
], ids=["top-discrepancy-a", "top-discrepancy-b", "y-term", "top-y-term"])
def test_o3_sweep_catches_a_walk_off_in_discrepancy_or_y_term(
        monkeypatch, walk, field, top_only, detail):
    monkeypatch.setattr(chains, walk, _raised(getattr(chains, walk), field, top_only))
    res = sweeps.sweep_o3_chains(12, seed=20240817)
    assert (res.ok, res.cases) == (False, 24)
    assert res.detail == detail


# each closed form is anchored at stage 0 as well as checked through its
# per-stage differences, so one shifted by a constant fails the sweep
@pytest.mark.parametrize("name, detail", [
    ("beta_k", f"204 failed, first: {FIRST_A}: stage-0 beta mismatch"),
    ("gamma_k", f"162 failed, first: {FIRST_A}: stage-0 gamma mismatch"),
    ("beta_k_b", f"163 failed, first: {FIRST_B_BETA}: stage-0 first exponent mismatch"),
    ("gamma_k_b",
     f"155 failed, first: {FIRST_B_GAMMA}: stage-0 second exponent mismatch"),
    ("delta_k", f"204 failed, first: {FIRST_A}: stage-0 delta mismatch"),
], ids=["beta_k", "gamma_k", "beta_k_b", "gamma_k_b", "delta_k"])
def test_o3_sweep_catches_a_shifted_closed_form(monkeypatch, name, detail):
    form = getattr(chains, name)
    monkeypatch.setattr(chains, name, lambda *args: form(*args) + 1)
    res = sweeps.sweep_o3_chains(200, seed=20240817)
    assert not res.ok
    assert res.cases == 408
    assert res.detail == detail


# the four support families of chain exponents: the name the sweep gives
# each, its closed form, and the walk and stage field that hold its rows
# (shape A's y-term, the fifth family, has one row and its own mutants)
FAMILIES = [
    ("beta", "beta_k", "chain_simulate", "a_exponents"),
    ("gamma", "gamma_k", "chain_simulate", "b_exponents"),
    ("first exponent", "beta_k_b", "chain_stages_b", "p_exponents"),
    ("second exponent", "gamma_k_b", "chain_stages_b", "q_exponents"),
]


# a closed form right at stages 0 and 1 but off from stage 2 on passes the
# stage-0 anchor, so only the per-stage differences catch it
@pytest.mark.parametrize("name, form, walk, rows", FAMILIES, ids=[f[1] for f in FAMILIES])
def test_o3_sweep_catches_a_closed_form_off_from_stage_2(
        monkeypatch, name, form, walk, rows):
    real = getattr(chains, form)
    monkeypatch.setattr(chains, form, lambda i, j, k, d: real(i, j, k, d) + (k >= 2))
    res = sweeps.sweep_o3_chains(200, seed=20240817)
    assert not res.ok
    assert res.cases == 408
    assert res.detail.endswith(f": {name} recurrence broke")


# the walk's top stage is checked against the paper's stage-a formula, and
# the detail shows the walk's exponent and the formula's
@pytest.mark.parametrize("name, form, walk, rows", FAMILIES, ids=[f[1] for f in FAMILIES])
def test_o3_sweep_catches_a_top_stage_row_off_by_one(monkeypatch, name, form, walk, rows):
    real = getattr(chains, walk)

    def raised_top(case):
        stages = real(case)
        top = stages[-1]
        raised = tuple((ij, e + 1) for ij, e in getattr(top, rows))
        return stages[:-1] + (top._replace(**{rows: raised}),)

    monkeypatch.setattr(chains, walk, raised_top)
    res = sweeps.sweep_o3_chains(200, seed=20240817)
    assert not res.ok
    assert res.cases == 408
    found = re.fullmatch(rf"\d+ failed, first: .*: top-stage {name} (\S+) != (\S+)",
                         res.detail)
    assert found
    assert Fraction(found[1]) == Fraction(found[2]) + 1


def test_runner_counts_every_case_after_a_failure(monkeypatch):
    formula = germs.depth_formula
    monkeypatch.setattr(germs, "depth_formula", lambda g: formula(g) + 1)
    res = sweeps.sweep_germ_depth(3)
    assert not res.ok
    assert res.cases == 1242
    assert res.detail == ("1242 failed, first: CARGerm(r=2, beta=1, "
                          "support=frozenset({(0, 1)})), 2: search 1, formula 2")


# the chi-threshold scan is a second route to aw_upper_bound: it must catch
# a wrong bound, and it must sum corr(X) over the cD/2 basket itself; the
# first case it reports is E1_a4 at r' = 5 with its case data
FIRST_RR = ("ContractionCase(tag='E1_a4', rprime=5), _CaseData(a_over_n=Fraction(2, 1), "
            "e3=Fraction(1, 5), basket_y=Basket(entries=(BasketEntry(b=1, r=10, n=1),)), "
            "sufficient_bound=4, dep_y=(9, 9))")


def test_rr_sweep_catches_a_wrong_bound(monkeypatch):
    bound = riemannroch.aw_upper_bound
    monkeypatch.setattr(riemannroch, "aw_upper_bound", lambda case: bound(case) + 1)
    res = sweeps.sweep_rr_bounds(40)
    assert res.ok is False
    assert res.detail == f"57 failed, first: {FIRST_RR}: scan 1 != bound 2"


def test_rr_sweep_reads_the_cd2_basket_at_every_step(monkeypatch):
    monkeypatch.setattr(
        riemannroch, "cd2_basket", lambda aw: riemannroch.Basket([(1, 2, aw + 1)])
    )
    res = sweeps.sweep_rr_bounds(40)
    assert res.ok is False
    assert res.detail == f"55 failed, first: {FIRST_RR}: scan 0 != bound 1"


# the first trace of seed 20240818
FIRST_TRACE = ("FactorizationTrace(steps=(TraceStep(kind='DivToPoint', dep_before=4, "
               "dep_after=3), TraceStep(kind='Flop', dep_before=3, dep_after=3)))")


def test_trace_sweep_counts_every_case_after_a_failure(monkeypatch):
    monkeypatch.setattr(
        traces, "validate_trace",
        lambda trace, **kw: traces.TraceVerdict(valid=False, diagnostics=()),
    )
    res = sweeps.sweep_trace_rules(40, seed=20240818)
    assert not res.ok
    assert res.cases == 40
    assert res.detail == f"40 failed, first: {FIRST_TRACE}: generated trace rejected"


def test_trace_sweep_catches_an_accepted_mutant(monkeypatch):
    # a Flop that changes the depth passes: the mutant Flop dep -> dep + 1
    # that every generated trace gets must be reported
    check = traces._check_run

    def lenient(steps, dep, start):
        _, diags = check(steps, dep, start)
        diags = [d._replace(ok=True) if d.kind == traces.FLOP and d.rule != "chaining" else d
                 for d in diags]
        return all(d.ok for d in diags), diags

    monkeypatch.setattr(traces, "_check_run", lenient)
    res = sweeps.sweep_trace_rules(50, seed=20240818)
    assert not res.ok
    assert res.cases == 50
    assert res.detail == (f"50 failed, first: {FIRST_TRACE}: mutant accepted: "
                          "TraceStep(kind='Flop', dep_before=3, dep_after=4)")


# The generators as they were written with Random.randint and choice; the
# sweeps draw through sweeps._below and must see the same streams.


def _randint_trace(rng):
    dep = rng.randint(0, 10)
    steps = []
    for _ in range(rng.randint(1, 12)):
        kinds = [traces.FLOP, traces.DIV_TO_POINT, traces.DIV_TO_CURVE]
        if dep == 0:
            kinds.append(traces.BLOWDOWN_LCI)
        else:
            kinds += [traces.FLIP, traces.WEXTRACTION]
        kind = rng.choice(kinds)
        if kind == traces.FLOP:
            after = dep
        elif kind == traces.FLIP:
            after = rng.randint(0, dep - 1)
        elif kind == traces.WEXTRACTION:
            after = rng.randint(dep - 1, dep + 2)
        elif kind == traces.DIV_TO_POINT:
            after = rng.randint(max(0, dep - 1), dep + 2)
        elif kind == traces.DIV_TO_CURVE:
            after = rng.randint(0, dep)
        else:
            after = 0
        steps.append(traces.TraceStep(kind, dep, after))
        dep = after
    return traces.FactorizationTrace(tuple(steps))


def _randint_case_a(rng, a, d):
    supp_a = {(2 * d, 0)}
    for _ in range(rng.randint(0, 4)):
        i = rng.randint(0, 3 * d + 2)
        supp_a.add((i, max(0, 2 * a * d - a * i) + rng.randint(0, 6)))
    supp_b = set()
    for _ in range(rng.randint(0, 4)):
        i = rng.randint(0, 2 * d + 2)
        low = max(0, -(-(2 * a * d - 1 - (2 * i + 1) * a) // 2))
        supp_b.add((i, low + rng.randint(0, 6)))
    alpha = d + 1 + rng.randint(0, 3)
    return chains.O3CaseA(a, d, alpha, frozenset(supp_a), frozenset(supp_b))


def _randint_case_b(rng, a, d):
    supp_a = set()
    for _ in range(rng.randint(0, 4)):
        i = rng.randint(0, 2 * d + 3)
        supp_a.add((i, max(0, (2 * d + 1) * a - a * i) + rng.randint(0, 6)))
    supp_b = set()
    for _ in range(rng.randint(0, 4)):
        i = rng.randint(0, d + 2)
        supp_b.add((i, max(0, a * (d - i) - 1) + rng.randint(0, 6)))
    return chains.O3CaseB(a, d, frozenset(supp_a), frozenset(supp_b))


@pytest.mark.parametrize("seed", [1, 20240818, 987654321])
def test_generators_draw_the_randint_streams(seed):
    ours, ref = random.Random(seed), random.Random(seed)
    for _ in range(2000):
        assert sweeps.random_trace(ours) == _randint_trace(ref)
    for a in (3, 5, 7, 9):
        for d in (1, 2, 3):
            for _ in range(20):
                assert sweeps.random_case_a(ours, a, d) == _randint_case_a(ref, a, d)
                assert sweeps.random_case_b(ours, a, d) == _randint_case_b(ref, a, d)
                # the depth identity's endpoint depth
                assert sweeps._below(ours, 13) == ref.randint(0, 12)
    assert ours.getstate() == ref.getstate()


def test_below_is_randrange():
    ours, ref = random.Random(5), random.Random(5)
    for n in [1, 2, 3, 4, 5, 7, 8, 9, 13, 64, 65, 1000, 2**40 + 3]:
        for _ in range(50):
            assert sweeps._below(ours, n) == ref.randrange(n)
    assert ours.getstate() == ref.getstate()
