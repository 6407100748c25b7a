"""The three benchmark workloads: inputs from a seed, and their references.

Each workload builds its inputs from ``--seed`` alone and checks every
answer against a reference computed here, independently of the code
under test, or built into the input (``cli_golden.json``).  A workload
exposes ``prepare(seed, scale)``, which is set-up, and ``run(state)``,
which is the measured phase and returns one ``Outcome`` per request.

Why these three:

* ``verify`` -- ``sweeps.run_all(seed)`` at default ranges, exactly what
  ``wresolve verify`` runs: many small cases through every layer, with
  ``traces`` doing about half the work.  A request is one sweep.
* ``large-inputs`` -- one caller making few, large library calls, one
  family per known cliff (search depth, ``tvalue``, cyclic normal form,
  chain walks, long traces).  Sizes come from a fixed ladder so the work
  per pass does not depend on the seed; the seed draws the rest.  A
  request is one library call.
* ``cli`` -- one client starting a fresh ``python -m wresolve.cli``
  process per request and waiting for it: interpreter start and import
  dominate.  A request is one process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCALES = ("full", "tiny")


@dataclass
class Outcome:
    """One request: its tag, latency in seconds, and whether it was right."""

    tag: str
    seconds: float
    ok: bool
    detail: str = ""


def _units(r: int) -> list[int]:
    return [b for b in range(1, r) if gcd(b, r) == 1]


def _fmt(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _crash(tag: str, started: float) -> Outcome:
    return Outcome(tag, time.perf_counter() - started, False,
                   traceback.format_exc(limit=3))


# ---------------------------------------------------------------- references


def ref_germ_depth(r: int, support) -> int:
    """lam*r - t with t = max(1, max over i>0, j<lam of ceil((lam-j)/i))."""
    if r == 1:
        return 0
    lam = min(j for i, j in support if i == 0)
    t = max([1] + [-(-(lam - j) // i) for i, j in support if i > 0 and j < lam])
    return lam * r - t


def ref_resolution_tree(r: int, beta: int, support) -> dict:
    """The first optimal tree: every split of a stage costs r*nu_1 - 1 and
    leaves the same residual, and an index-n point has depth n - 1."""
    lam = min(j for i, j in support if i == 0)
    n1 = min(i + j for i, j in support)
    r1, r2 = beta, r * n1 - beta
    residual = None
    total = r1 + r2 - 1
    if n1 < lam:
        residual = ref_resolution_tree(
            r, beta, {(i, i + j - n1) for i, j in support})
        total += residual["dep"]
    return {
        "kind": "germ", "index": r, "axial_weight": lam, "nu1": n1,
        "dep": total, "split": [r1, r2], "splits_considered": n1,
        "quotients": [{"index": r1, "dep": r1 - 1}, {"index": r2, "dep": r2 - 1}],
        "residual": residual,
    }


def ref_quotient(index: int, r: int) -> dict:
    """1/index(r, -r, -1): scaling by r^-1 gives (1, -1, -r^-1)."""
    out = {"index": index, "weights": [r % index, -r % index, -1 % index]}
    if index >= 2:
        b = -pow(r, -1, index) % index
        out["normal"] = [min(b, index - b), index]
    return out


TRACE_RULES = {
    "WExtraction": "dep_after >= dep_before - 1 >= 0",
    "Flip": "dep_after < dep_before",
    "Flop": "dep_after = dep_before",
    "DivToPoint": "dep_after >= dep_before - 1",
    "DivToCurve": "dep_after <= dep_before",
    "BlowDownLCI": "dep_before = 0",
}


def random_steps(rng: random.Random, n: int, max_dep: int = 10) -> list[tuple]:
    """n (kind, before, after) steps that obey every rule and chain."""
    dep = rng.randint(0, max_dep)
    steps = []
    for _ in range(n):
        kind = rng.choice(KINDS_AT_ZERO if dep == 0 else KINDS_ABOVE_ZERO)
        if kind == "Flop":
            after = dep
        elif kind == "Flip":
            after = rng.randint(0, dep - 1)
        elif kind == "WExtraction":
            after = rng.randint(dep - 1, dep + 2)
        elif kind == "DivToPoint":
            after = rng.randint(max(0, dep - 1), dep + 2)
        elif kind == "DivToCurve":
            after = rng.randint(0, dep)
        else:  # BlowDownLCI keeps the Gorenstein terminus
            after = 0
        steps.append((kind, dep, after))
        dep = after
    return steps


KINDS_AT_ZERO = ("Flop", "DivToPoint", "DivToCurve", "BlowDownLCI")
KINDS_ABOVE_ZERO = ("Flop", "DivToPoint", "DivToCurve", "Flip", "WExtraction")


def breaking_step(rng: random.Random, dep: int) -> tuple[tuple, str]:
    """A step starting at dep (or not, for a chaining break) that must fail,
    with the rule it breaks."""
    choices = [
        (("Flop", dep, dep + 1), TRACE_RULES["Flop"]),
        (("Flip", dep, dep), TRACE_RULES["Flip"]),
        (("DivToCurve", dep, dep + 1), TRACE_RULES["DivToCurve"]),
        (("Flop", dep + 1, dep + 1), "chaining"),
    ]
    if dep == 0:
        choices.append((("WExtraction", 0, 3), TRACE_RULES["WExtraction"]))
    else:
        choices.append((("BlowDownLCI", dep, 0), TRACE_RULES["BlowDownLCI"]))
    if dep >= 2:
        choices.append((("DivToPoint", dep, dep - 2), TRACE_RULES["DivToPoint"]))
    return rng.choice(choices)


def ref_induction(steps) -> bool:
    d0 = steps[0][1]
    return all(
        not (kind == "Flip" and before == 0)
        and not (kind in ("Flip", "DivToCurve") and before >= d0)
        for kind, before, _ in steps
    )


# -------------------------------------------------------------------- verify


SWEEP_NAMES = (
    "cyclic-depth-search", "germ-depth-dual-route", "residual-recursion",
    "chi-threshold-bounds", "e11-depth", "en-exceptional-iaia",
    "en-semistable-iaia", "en-iib-fiber-degree", "o3-chain-calculus",
    "trace-rule-metamorphic",
)
# Case counts at the default ranges, recorded at the commit that added the
# benchmark; they do not depend on the seed.
VERIFY_COUNTS = {
    "full": (223, 7038, 1411, 57, 1, 3006, 20016, 28561, 408, 10000),
    "tiny": (28, 1242, 249, 9, 1, 24, 22, 81, 24, 40),
}
VERIFY_RANGES = {
    "full": {},
    "tiny": dict(cyclic_max=8, germ_r_max=3, rr_max=8, en_r_max=9, semi_max=5,
                 iib_max=11, o3_cases=12, trace_count=40),
}


class Verify:
    name = "verify"
    requests_per_pass = len(SWEEP_NAMES)

    def prepare(self, seed: int, scale: str):
        from wresolve import sweeps

        return {"sweeps": sweeps, "seed": seed, "ranges": VERIFY_RANGES[scale],
                "counts": VERIFY_COUNTS[scale]}

    def run(self, state) -> list[Outcome]:
        started = time.perf_counter()
        try:
            results = state["sweeps"].run_all(seed=state["seed"], **state["ranges"])
        except Exception:
            return [_crash(name, started) for name in SWEEP_NAMES]
        out = []
        for name, want, res in zip(SWEEP_NAMES, state["counts"], results):
            ok = res.name == name and res.ok and res.cases == want > 0
            detail = "" if ok else f"{res.line()} (want {want} cases)"
            out.append(Outcome(name, res.elapsed, ok, detail))
        state["results"] = results
        return out

    def sweep_metrics(self, state) -> dict:
        """sweeps.<name>.s and .cases from the public SweepResult."""
        metrics = {}
        for res in state.get("results", ()):
            metrics[f"sweeps.{res.name}.s"] = res.elapsed
            metrics[f"sweeps.{res.name}.cases"] = res.cases
        return metrics


# -------------------------------------------------------------- large-inputs


def _decade(prefix: str, n: int) -> str:
    """Rung label by order of magnitude: 1000003 -> 'r1e6'."""
    return f"{prefix}1e{len(str(n)) - 1}"


def _unit(rng: random.Random, r: int) -> int:
    while True:
        u = rng.randrange(1, r)
        if gcd(u, r) == 1:
            return u


# Each family's sizes; the seed draws only the remaining data.
LADDER = {
    "full": {
        "search_L": (9, 12, 15, 18, 21, 24, 27),
        "formula_lam": (10**3, 10**4, 10**5, 10**6),
        "normalize_r": (1009, 10007, 100003, 1000003),
        "chain_a": (101, 1001, 10001),
        "trace_n": (10**3, 10**4, 10**5),
    },
    "tiny": {
        "search_L": (6, 9),
        "formula_lam": (10**2,),
        "normalize_r": (101,),
        "chain_a": (11,),
        "trace_n": (10**2,),
    },
}
SEARCH_R = 7  # fixed index: the search cost is set by L alone


@dataclass
class Request:
    tag: str  # family.rung
    call: object
    check: object


def rung_tags(scale: str) -> list[str]:
    """The tag of every large-inputs request, in the order they run."""
    ladder = LADDER[scale]
    tags = [f"germs.search.L{L}" for L in ladder["search_L"]]
    tags += ["germs.formula." + _decade("lam", n) for n in ladder["formula_lam"]]
    tags += ["baskets.normalize." + _decade("r", n) for n in ladder["normalize_r"]]
    for n in ladder["chain_a"]:
        tags += [f"chains.{walk}." + _decade("a", n) for walk in ("simulate", "stages_b")]
    for n in ladder["trace_n"]:
        tags += [f"traces.{kind}." + _decade("n", n) for kind in ("validate", "validate_mutant")]
    return tags


class LargeInputs:
    name = "large-inputs"

    def __init__(self, scale: str = "full"):
        self.requests_per_pass = len(rung_tags(scale))

    def prepare(self, seed: int, scale: str):
        # imported here, not at the top: a cli pass must not import wresolve
        from wresolve import baskets, chains, germs, traces

        rng = random.Random(f"large-inputs:{seed}")
        ladder = LADDER[scale]
        reqs = []

        # germs.depth_search on {(0,L),(3,0)} plus dominated monomials
        # (i >= 3, i + j > 3), which leave the nu_1 chain and so the cost alone
        for L in ladder["search_L"]:
            support = {(0, L), (3, 0)}
            while len(support) < 4:
                support.add((rng.randint(3, 6), rng.randint(1, L)))
            g = germs.CARGerm(SEARCH_R, _unit(rng, SEARCH_R), frozenset(support))
            want = ref_germ_depth(SEARCH_R, support)
            reqs.append(Request(f"germs.search.L{L}",
                                lambda g=g: germs.depth_search(g),
                                lambda got, want=want: got == want))

        # germs.depth_formula with t = lam - j0 close to lam (tvalue walks t)
        for lam in ladder["formula_lam"]:
            r = rng.randint(2, 50)
            support = {(0, lam), (1, rng.randint(0, 9)),
                       (rng.randint(2, 5), rng.randint(0, lam))}
            g = germs.CARGerm(r, _unit(rng, r), frozenset(support))
            want = ref_germ_depth(r, support)
            reqs.append(Request("germs.formula." + _decade("lam", lam),
                                lambda g=g: germs.depth_formula(g),
                                lambda got, want=want: got == want))

        # baskets.normalize_cyclic on (u, -u, u*b): normal form (min(b, r-b), r)
        for r in ladder["normalize_r"]:
            u, b = _unit(rng, r), _unit(rng, r)
            q = baskets.CyclicQuotient(r, (u, -u, u * b))
            want = (min(b, r - b), r)
            reqs.append(Request("baskets.normalize." + _decade("r", r),
                                lambda q=q: baskets.normalize_cyclic(q),
                                lambda got, want=want: tuple(got) == want))

        # chain walks: a + 1 stages, top-stage exponents in closed form
        for a in ladder["chain_a"]:
            case = _chain_case_a(rng, a, rng.randint(1, 3))
            reqs.append(Request("chains.simulate." + _decade("a", a),
                                lambda c=case: chains.chain_simulate(c),
                                lambda got, c=case: _check_top_a(c, got)))
            case = _chain_case_b(rng, a, rng.randint(1, 3))
            reqs.append(Request("chains.stages_b." + _decade("a", a),
                                lambda c=case: chains.chain_stages_b(c),
                                lambda got, c=case: _check_top_b(c, got)))

        # traces.validate_trace: a valid trace and a one-mutant of it
        for n in ladder["trace_n"]:
            steps = random_steps(rng, n)
            valid = traces.FactorizationTrace(tuple(traces.TraceStep(*s) for s in steps))
            m = rng.randrange(1, n)
            bad, _ = breaking_step(rng, steps[m - 1][2])
            mutant = traces.FactorizationTrace(
                valid.steps[:m] + (traces.TraceStep(*bad),) + valid.steps[m + 1:])
            reqs.append(Request("traces.validate." + _decade("n", n),
                                lambda t=valid: traces.validate_trace(t),
                                lambda v, n=n: v.valid and len(v.diagnostics) == n))
            reqs.append(Request("traces.validate_mutant." + _decade("n", n),
                                lambda t=mutant: traces.validate_trace(t),
                                lambda v, m=m: not v.valid and v.first_failure().index == m))
        return {"requests": reqs}

    def run(self, state) -> list[Outcome]:
        out = []
        for req in state["requests"]:
            tag = req.tag
            started = time.perf_counter()
            try:
                got = req.call()
                seconds = time.perf_counter() - started
                ok = bool(req.check(got))
            except Exception:
                out.append(_crash(tag, started))
                continue
            out.append(Outcome(tag, seconds, ok, "" if ok else "wrong answer"))
        return out


def _support(rng: random.Random, size: int, draw) -> frozenset:
    out = set()
    while len(out) < size:
        out.add(draw())
    return frozenset(out)


def _chain_case_a(rng, a, d):
    """Shape-A data on the support walls: a i + j >= 2ad, (2i+1)a + 2j >=
    2ad - 1, (2 alpha - 1) a >= 2ad + 1, with the pivot (2d, 0)."""
    from wresolve import chains

    def first():
        i = rng.randint(0, 3 * d + 2)
        return (i, max(0, 2 * a * d - a * i) + rng.randint(0, 6))

    def second():
        i = rng.randint(0, 2 * d + 2)
        return (i, max(0, -(-(2 * a * d - 1 - (2 * i + 1) * a) // 2)) + rng.randint(0, 6))

    supp_a = _support(rng, 3, first) | {(2 * d, 0)}
    return chains.O3CaseA(a=a, d=d, alpha=d + 1 + rng.randint(0, 3),
                          supp_a=supp_a, supp_b=_support(rng, 3, second))


def _chain_case_b(rng, a, d):
    """Shape-B data whose exponents stay nonnegative through stage a."""
    from wresolve import chains

    def first():
        i = rng.randint(0, 2 * d + 3)
        return (i, max(0, (2 * d + 1) * a - a * i) + rng.randint(0, 6))

    def second():
        i = rng.randint(0, d + 2)
        return (i, max(0, a * (d - i) - 1) + rng.randint(0, 6))

    return chains.O3CaseB(a=a, d=d, supp_a=_support(rng, 3, first),
                          supp_b=_support(rng, 3, second))


def _check_top_a(case, stages) -> bool:
    """Stage a: beta = a i + j - r - 1 and 2 gamma = (2i+1) a + 2j - r."""
    a, r = case.a, 2 * case.a * case.d - 1
    if len(stages) != a + 1:
        return False
    top = stages[-1]
    return (
        top.a_exponents == tuple(((i, j), a * i + j - r - 1) for i, j in sorted(case.supp_a))
        and top.b_exponents == tuple(
            ((i, j), ((2 * i + 1) * a + 2 * j - r) // 2) for i, j in sorted(case.supp_b))
    )


def _check_top_b(case, stages) -> bool:
    """Stage a: first = a i + j - r - 2, second = j + 1 + a (i - d)."""
    a, d = case.a, case.d
    r = (2 * d + 1) * a - 2
    if len(stages) != a + 1:
        return False
    top = stages[-1]
    return (
        top.p_exponents == tuple(((i, j), a * i + j - r - 2) for i, j in sorted(case.supp_a))
        and top.q_exponents == tuple(
            ((i, j), j + 1 + a * (i - d)) for i, j in sorted(case.supp_b))
    )


# ----------------------------------------------------------------------- cli


SUBCOMMANDS = ("basket", "depth", "resolve", "blowup", "en", "rr", "o3", "trace")


def _germ(rng: random.Random, r_max: int, lam_max: int, extra: int):
    r = rng.randint(2, r_max)
    support = {(0, rng.randint(1, lam_max))}
    for _ in range(extra):
        support.add((rng.randint(1, 4), rng.randint(0, 12)))
    return r, rng.choice(_units(r)), support


def _germ_json(r, beta, support, **more) -> str:
    return json.dumps({"r": r, "beta": beta, "support": sorted(map(list, support)), **more})


def _error(kind: str, message: str, **attrs) -> dict:
    return {"error": {"type": kind, "message": message, **attrs}}


def cli_mix(seed: int, scale: str) -> list[tuple[list[str], int, dict]]:
    """One pass of (argv, exit code, stdout JSON): three requests per
    subcommand, including malformed inputs (exit 1) and domain errors
    (exit 2).  Answers are computed here or taken from cli_golden.json."""
    rng = random.Random(f"cli:{seed}")
    golden = json.loads((HERE / "cli_golden.json").read_text())
    mix = []

    def add(sub, payload, code, want):
        text = payload if isinstance(payload, str) else json.dumps(payload)
        mix.append(([sub, text], code, want))

    def pick(sub):
        argv, code, want = rng.choice(golden[sub])
        mix.append((argv, code, want))

    # basket: cyclic normal form, a k-class from the table, then an error
    r = rng.randint(5, 60)
    u, b = rng.choice(_units(r)), rng.choice(_units(r))
    nb = min(b, r - b)
    add("basket", {"class": "cyclic", "r": r, "weights": [u, -u, u * b]}, 0,
        {"class": "cyclic", "entries": [[nb, r, 1]], "aw": 1, "sigma": nb, "xi": r})
    k = rng.randint(2, 40)
    add("basket", {"class": "cD/2", "k": k}, 0,
        {"class": "cD/2", "entries": [[1, 2, k]], "aw": k, "sigma": k, "xi": 2 * k})
    if rng.random() < 0.5:
        c = rng.randrange(r)
        add("basket", {"class": "cyclic", "r": r, "weights": [1, 1, c]}, 2,
            _error("NotTerminalForm", f"1/{r}(1, 1, {c}) has no (1, -1, b) form"))
    else:
        add("basket", {"class": f"cX/{k}"}, 1, _error("SchemaError", f"unknown class 'cX/{k}'"))

    # depth: closed form, a class bound, a missing key
    r, beta, support = _germ(rng, 40, 30, rng.randint(0, 3))
    add("depth", _germ_json(r, beta, support), 0,
        {"dep": ref_germ_depth(r, support), "exact": True})
    k = rng.randint(1, 50)
    add("depth", {"class": "cAx/4", "k": k}, 0,
        {"lower": None, "upper": 2 * k + 1, "exact": False})
    missing = rng.choice(["r", "beta", "support"])
    add("depth", {key: val for key, val in
                  {"r": r, "beta": beta, "support": [[0, 1]]}.items() if key != missing},
        1, _error("SchemaError", f"missing key '{missing}'"))

    # resolve: two trees, one search over its path ceiling
    for _ in range(2):
        r, beta, support = _germ(rng, 7, 5, rng.randint(0, 2))
        tree = ref_resolution_tree(r, beta, support)
        add("resolve", _germ_json(r, beta, support), 0, {"dep": tree["dep"], "tree": tree})
    r, beta, support = _germ(rng, 7, 5, 1)
    used = r * min(i + j for i, j in support) - 1
    limit = rng.randrange(used)
    add("resolve", _germ_json(r, beta, support, limit=limit), 2,
        _error("SearchLimitExceeded", f"path cost {used} exceeds the ceiling {limit}"))

    # blowup: two admissible splits, one split with the wrong sum
    for _ in range(2):
        r, beta, support = _germ(rng, 9, 6, rng.randint(0, 2))
        n1 = min(i + j for i, j in support)
        lam = min(j for i, j in support if i == 0)
        r1 = beta + r * rng.randrange(n1)
        r2 = r * n1 - r1
        residual = None
        if n1 < lam:
            residual = {"r": r, "beta": beta,
                        "support": sorted([i, i + j - n1] for i, j in support)}
        add("blowup", _germ_json(r, beta, support, r1=r1, r2=r2), 0,
            {"quotients": [ref_quotient(r1, r), ref_quotient(r2, r)], "residual": residual})
    n1 = min(i + j for i, j in support)
    add("blowup", _germ_json(r, beta, support, r1=beta, r2=r * n1 - beta + r), 2,
        _error("InvalidSplit",
               f"split ({beta}, {r * n1 - beta + r}) does not sum to r*nu_1 = {r * n1}"))

    # en: K_X.C = -1 + sum w_P(0), then two case shapes
    points = [[rp, f"{rng.randrange(rp)}/{rp}"] for rp in
              (rng.randint(2, 12) for _ in range(rng.randint(1, 3)))]
    kx = -1 + sum(Fraction(w) for _, w in points)
    add("en", {"points": points}, 0, {"kx_c": _fmt(kx)})
    pick("en")
    pick("en")

    # rr: the correction sum n b (r - b) / (2r), then two case checks
    entries = []
    for _ in range(rng.randint(1, 3)):
        r = rng.randint(2, 30)
        b = rng.choice([x for x in _units(r) if 2 * x <= r])
        entries.append([b, r, rng.randint(1, 5)])
    corr = sum(Fraction(n * b * (r - b), 2 * r) for b, r, n in entries)
    add("rr", {"basket": entries}, 0, {"correction": _fmt(corr)})
    pick("rr")
    pick("rr")

    for _ in range(3):
        pick("o3")

    # trace: a valid trace, a broken one, an unknown kind
    steps = random_steps(rng, rng.randint(1, 12))
    add("trace", {"steps": [{"kind": k, "before": b, "after": a} for k, b, a in steps]}, 0, {
        "valid": True, "induction": ref_induction(steps),
        "steps": [{"index": n, "kind": k, "rule": TRACE_RULES[k], "ok": True,
                   "note": "minimal-resolution extraction"
                   if k == "WExtraction" and a == b - 1 else ""}
                  for n, (k, b, a) in enumerate(steps)],
    })
    steps = random_steps(rng, rng.randint(1, 8))
    bad, rule = breaking_step(rng, steps[-1][2])
    n = len(steps)
    message = (f"step {n} breaks the chaining rule" if rule == "chaining"
               else f"step {n} ({bad[0]} {bad[1]} -> {bad[2]}) breaks: {rule}")
    add("trace", {"steps": [{"kind": k, "before": b, "after": a} for k, b, a in steps + [bad]]},
        2, _error("RuleViolation", message, index=n, rule=rule))
    add("trace", {"steps": [{"kind": "Twist", "before": 1, "after": 1}]}, 1,
        _error("SchemaError", "unknown step kind 'Twist'"))

    return mix[::3] if scale == "tiny" else mix


def child_env(root: Path) -> dict:
    """Environment for every child process: src on the path, no search
    ceiling inherited from the caller."""
    env = {k: v for k, v in os.environ.items() if k != "DEPTH_SEARCH_LIMIT"}
    env["PYTHONPATH"] = str(root / "src")
    return env


def check_cli_output(code, stdout: str, stderr: str, want_code: int, want: dict) -> tuple[bool, str]:
    if "Traceback" in stderr:
        return False, stderr.strip().splitlines()[-1]
    if code != want_code:
        return False, f"exit {code}, want {want_code}"
    try:
        got = json.loads(stdout)
    except ValueError:
        return False, f"stdout is not one JSON document: {stdout[:200]!r}"
    if got != want:
        return False, f"got {stdout.strip()[:300]}"
    return True, ""


class Cli:
    name = "cli"

    def __init__(self, scale: str = "full"):
        self.requests_per_pass = len(cli_mix(0, scale))

    def prepare(self, seed: int, scale: str):
        return {"mix": cli_mix(seed, scale), "env": child_env(HERE.parent)}

    def run(self, state) -> list[Outcome]:
        """Closed loop of one client: a fresh process per request."""
        out = []
        for argv, want_code, want in state["mix"]:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "wresolve.cli", *argv],
                capture_output=True, text=True, env=state["env"], timeout=60,
            )
            seconds = time.perf_counter() - started
            ok, detail = check_cli_output(proc.returncode, proc.stdout, proc.stderr,
                                          want_code, want)
            out.append(Outcome(argv[0], seconds, ok, detail))
        state["children_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return out

    def run_in_process(self, state) -> list[Outcome]:
        """The same requests through cli.main(argv) in this interpreter."""
        from wresolve import cli

        out = []
        for argv, want_code, want in state["mix"]:
            buf = io.StringIO()
            started = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            except Exception:
                out.append(_crash(argv[0], started))
                continue
            seconds = time.perf_counter() - started
            ok, detail = check_cli_output(code, buf.getvalue(), "", want_code, want)
            out.append(Outcome(argv[0], seconds, ok, detail))
        return out


def make(name: str, scale: str = "full"):
    if name == "verify":
        return Verify()
    if name == "large-inputs":
        return LargeInputs(scale)
    if name == "cli":
        return Cli(scale)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify", "large-inputs", "cli")
