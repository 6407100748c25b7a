"""Step rules, chaining, and induction certificates for factorizations;
and the record protocol every library record shares with StepDiagnostic."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from wresolve import baskets, chains, germs, neighborhoods, riemannroch, sweeps, traces
from wresolve.errors import RuleViolation
from wresolve.traces import (
    BLOWDOWN_LCI,
    DIV_TO_CURVE,
    DIV_TO_POINT,
    FLIP,
    FLOP,
    KINDS,
    WEXTRACTION,
    FactorizationTrace,
    StepDiagnostic,
    TraceStep,
    TraceVerdict,
    _check_run,
    _RULES,
    induction_certificate,
    validate_trace,
)


def step(kind, b, a):
    return TraceStep(kind, b, a)


def trace(*steps):
    return FactorizationTrace(tuple(steps))


def test_step_validation():
    with pytest.raises(ValueError):
        TraceStep("Smooth", 1, 1)
    with pytest.raises(ValueError):
        TraceStep(FLOP, -1, 0)


RULE_EXAMPLES = [
    (step(WEXTRACTION, 3, 2), True),
    (step(WEXTRACTION, 3, 7), True),  # extraction may raise the total
    (step(WEXTRACTION, 3, 1), False),
    (step(WEXTRACTION, 0, 0), False),  # nothing to extract at 0
    (step(FLIP, 3, 2), True),
    (step(FLIP, 3, 0), True),
    (step(FLIP, 3, 3), False),
    (step(FLIP, 0, 0), False),
    (step(FLOP, 2, 2), True),
    (step(FLOP, 3, 2), False),
    (step(DIV_TO_POINT, 2, 1), True),
    (step(DIV_TO_POINT, 2, 9), True),
    (step(DIV_TO_POINT, 2, 0), False),
    (step(DIV_TO_CURVE, 2, 2), True),
    (step(DIV_TO_CURVE, 2, 0), True),
    (step(DIV_TO_CURVE, 2, 3), False),
    (step(BLOWDOWN_LCI, 0, 0), True),
    (step(BLOWDOWN_LCI, 1, 0), False),
]


@pytest.mark.parametrize("st,ok", RULE_EXAMPLES)
def test_single_step_rules(st, ok):
    verdict = validate_trace(trace(st))
    assert verdict.valid is ok


def test_minimal_resolution_note():
    verdict = validate_trace(trace(step(WEXTRACTION, 3, 2)))
    assert verdict.diagnostics[0].note == "minimal-resolution extraction"
    verdict = validate_trace(trace(step(WEXTRACTION, 3, 3)))
    assert verdict.diagnostics[0].note == ""


def test_step_diagnostic_is_an_immutable_row():
    assert StepDiagnostic._fields == ("index", "kind", "rule", "ok", "note")
    assert StepDiagnostic(0, FLOP, "dep_after = dep_before", True).note == ""
    row = validate_trace(trace(step(WEXTRACTION, 3, 2))).diagnostics[0]
    assert repr(row) == (
        "StepDiagnostic(index=0, kind='WExtraction', "
        "rule='dep_after >= dep_before - 1 >= 0', ok=True, "
        "note='minimal-resolution extraction')"
    )
    assert row == (0, WEXTRACTION, "dep_after >= dep_before - 1 >= 0", True,
                   "minimal-resolution extraction")
    assert row._asdict()["note"] == "minimal-resolution extraction"


def _records():
    """One instance of every record class, with its field names in order."""
    g = germs.CARGerm(2, 1, frozenset({(0, 3), (1, 0)}))
    entry = baskets.BasketEntry(1, 2, 3)
    case_a = chains.O3CaseA(3, 1, 2, frozenset({(2, 0)}))
    case_b = chains.O3CaseB(3, 1)
    e2 = riemannroch.ContractionCase(riemannroch.E2, 6)
    steps = FactorizationTrace((TraceStep(WEXTRACTION, 3, 2),))
    return [
        (baskets.CyclicQuotient(5, (1, 4, 2)), ("r", "weights")),
        (entry, ("b", "r", "n")),
        (baskets.Basket((entry,)), ("entries",)),
        (baskets.TerminalClass("cA/r", germ=g), ("kind", "k", "quotient", "germ")),
        (g, ("r", "beta", "support")),
        (germs.blowup_step(g, 1, 1), ("cyclic_points", "residual")),
        (germs.DepthBound(lower=1, upper=2), ("lower", "upper", "exact")),
        (case_a, ("a", "d", "alpha", "supp_a", "supp_b")),
        (case_b, ("a", "d", "supp_a", "supp_b")),
        (chains.nonnegativity_check(case_a), ("checks", "ok")),
        (chains.chain_simulate(case_a)[1],
         ("k", "weights", "lead", "a_exponents", "b_exponents", "y_exponent",
          "sigma_weight", "discrepancy", "witnesses")),
        (chains.chain_stages_b(case_b)[1],
         ("k", "weights", "p_exponents", "q_exponents", "wt_first", "wt_second",
          "discrepancy")),
        (chains.depth_identity(case_a, 2), ("dep_q3", "dep_x_upper", "dep_y", "check")),
        (neighborhoods.ICCase(5), ("r",)),
        (neighborhoods.IIBCase(3, 2, 1, 1), ("r1", "r2", "r3", "r4")),
        (neighborhoods.IACase(7, 1, 3), ("r", "a1", "a2")),
        (neighborhoods.ExceptionalIAIACase(5, 3), ("r", "a2")),
        (neighborhoods.SemistableIAIACase(5, 2, 3, 2), ("r", "a", "rprime", "aprime")),
        (neighborhoods.IAIAIIICase(7, 5), ("r", "a2")),
        (neighborhoods.ENPoint(3, Fraction(1, 3)), ("r", "w0")),
        (neighborhoods.key_check(neighborhoods.IAIAIIICase(7, 5)),
         ("ky_cy", "nonpositive", "kx_c", "cf", "r1", "s", "delta")),
        (e2, ("tag", "rprime")),
        (riemannroch.case_data(e2),
         ("a_over_n", "e3", "basket_y", "sufficient_bound", "dep_y")),
        (riemannroch.case_depth_check(e2, 2), ("aw", "dep_y", "dep_x_upper", "ok")),
        (steps.steps[0], ("kind", "dep_before", "dep_after")),
        (steps, ("steps",)),
        (validate_trace(steps), ("valid", "diagnostics")),
        (validate_trace(steps).diagnostics[0], ("index", "kind", "rule", "ok", "note")),
        (sweeps.SweepResult("x", True, 1, 0.5), ("name", "ok", "cases", "elapsed", "detail")),
    ]


RECORDS = _records()


def test_every_record_class_is_listed():
    layers = (baskets, chains, germs, neighborhoods, riemannroch, sweeps, traces)
    defined = {
        obj for layer in layers for obj in vars(layer).values()
        if isinstance(obj, type) and issubclass(obj, tuple)
    }
    assert {type(record) for record, _ in RECORDS} == defined
    assert len(RECORDS) == 29


@pytest.mark.parametrize("record, fields", RECORDS,
                         ids=[type(record).__name__ for record, _ in RECORDS])
def test_every_record_is_an_immutable_row(record, fields):
    assert type(record)._fields == fields
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict
    for twin in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin == record


def test_verdicts_compare_and_find_their_first_failure():
    broken = trace(step(FLOP, 2, 2), step(FLIP, 3, 1), step(FLOP, 1, 2))
    verdict = validate_trace(broken)
    assert verdict == validate_trace(broken)
    assert verdict != validate_trace(trace(step(FLOP, 2, 2)))
    assert verdict.first_failure() == StepDiagnostic(
        1, FLIP, "chaining", False, "dep_before = 3 does not continue 2"
    )
    assert [d.ok for d in verdict.diagnostics] == [True, False, True, False]
    assert validate_trace(trace(step(FLOP, 2, 2))).first_failure() is None


def test_chaining():
    good = trace(step(WEXTRACTION, 3, 2), step(FLIP, 2, 1), step(FLOP, 1, 1))
    assert validate_trace(good).valid
    broken = trace(step(WEXTRACTION, 3, 2), step(FLIP, 1, 0))
    verdict = validate_trace(broken)
    assert not verdict.valid
    first = verdict.first_failure()
    assert first.rule == "chaining" and first.index == 1
    # the chain diagnostic comes on top of the per-step one
    assert len(verdict.diagnostics) == 3


def test_raise_on_violation():
    bad = trace(step(FLOP, 3, 2))
    with pytest.raises(RuleViolation) as exc:
        validate_trace(bad, raise_on_violation=True)
    assert exc.value.index == 0
    assert exc.value.rule == "dep_after = dep_before"
    assert str(exc.value) == "step 0 (Flop 3 -> 2) breaks: dep_after = dep_before"
    with pytest.raises(RuleViolation) as exc:
        validate_trace(
            trace(step(FLOP, 3, 3), step(FLOP, 2, 2)), raise_on_violation=True
        )
    assert exc.value.rule == "chaining"
    assert str(exc.value) == "step 1 breaks the chaining rule"


def test_empty_trace():
    assert validate_trace(trace()).valid
    assert induction_certificate(trace()) is True


def test_induction_certificate_examples():
    ok = trace(
        step(WEXTRACTION, 3, 2),
        step(FLIP, 2, 1),
        step(FLOP, 1, 1),
        step(DIV_TO_CURVE, 1, 0),
    )
    assert validate_trace(ok).valid
    assert induction_certificate(ok) is True

    # a flip at the starting depth is not covered by the hypothesis
    flip_first = trace(step(FLIP, 5, 4), step(FLOP, 4, 4))
    assert validate_trace(flip_first).valid
    assert induction_certificate(flip_first) is False

    # ... and neither is a divisor-to-curve step at the starting depth
    dtc_first = trace(step(DIV_TO_CURVE, 3, 3), step(FLOP, 3, 3))
    assert validate_trace(dtc_first).valid
    assert induction_certificate(dtc_first) is False

    # invalid traces never certify
    assert induction_certificate(trace(step(FLOP, 2, 1))) is False


def test_induction_certificate_depth_zero_flip():
    # a Flip step cannot exist at depth 0; the rule check already fails,
    # and the certificate must agree
    tr = trace(step(WEXTRACTION, 1, 1), step(FLIP, 1, 0), step(FLIP, 0, 0))
    assert induction_certificate(tr) is False


def test_certificate_allows_deep_extractions():
    # raising the depth above the start is fine as long as the
    # hypothesis-bound steps stay below it
    tr = trace(
        step(WEXTRACTION, 4, 6),
        step(FLOP, 6, 6),
        step(DIV_TO_POINT, 6, 5),
        step(FLIP, 5, 2),
    )
    assert validate_trace(tr).valid
    assert induction_certificate(tr) is False  # the flip sits above d0 = 4
    tr2 = trace(step(WEXTRACTION, 4, 3), step(FLIP, 3, 1), step(DIV_TO_CURVE, 1, 0))
    assert induction_certificate(tr2) is True


def seeded_step_lists(n, seed):
    """Step tuples of length 0 to 6 with depths up to 3: about a third
    break the chaining, and Flips at depth 0 occur."""
    rng = random.Random(seed)
    for _ in range(n):
        dep = rng.randint(0, 3)
        steps = []
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.25:
                dep = rng.randint(0, 3)
            after = rng.randint(0, 3)
            steps.append(step(rng.choice(KINDS), dep, after))
            dep = after
        yield tuple(steps)


def two_pass_certificate(tr):
    """Reference certificate: validate in full, then walk the steps again,
    with an explicit clause against Flips at depth 0."""
    if not validate_trace(tr).valid:
        return False
    if not tr.steps:
        return True
    d0 = tr.steps[0].dep_before
    for st in tr.steps:
        if st.kind == FLIP and st.dep_before == 0:
            return False
        if st.kind in (FLIP, DIV_TO_CURVE) and st.dep_before >= d0:
            return False
    return True


def test_certificate_matches_two_pass_reference():
    seen = set()
    for steps in seeded_step_lists(3000, seed=11):
        tr = FactorizationTrace(steps)
        got = induction_certificate(tr)
        assert got is two_pass_certificate(tr)
        broken = any(a.dep_after != b.dep_before for a, b in zip(steps, steps[1:]))
        zero_flip = any(st.kind == FLIP and st.dep_before == 0 for st in steps)
        seen.add((got, broken, zero_flip))
    # the lists reach every branch: certified, broken chains, zero-depth flips
    assert {(True, False, False), (False, True, False), (False, False, True)} <= seen


def raised(tr):
    try:
        validate_trace(tr, raise_on_violation=True)
    except RuleViolation as exc:
        return str(exc), exc.index, exc.rule
    return None


def violation(st, diag):
    """Message, index and rule of the error that a failed diagnostic of
    step st raises."""
    if diag.rule == "chaining":
        return f"step {diag.index} breaks the chaining rule", diag.index, "chaining"
    move = f"{st.kind} {st.dep_before} -> {st.dep_after}"
    return f"step {diag.index} ({move}) breaks: {diag.rule}", diag.index, diag.rule


def check_step(st, index, dep):
    """The diagnostics of step ``index`` of a trace that stands at model
    depth ``dep`` (None before the first step), one step at a time and
    through the StepDiagnostic constructor: a chaining diagnostic when the
    step does not start at ``dep``, then the step's rule diagnostic."""
    kind, b, a = st
    rule, holds = _RULES[kind]
    ok = holds(b, a)
    minimal = ok and kind == WEXTRACTION and a == b - 1
    note = "minimal-resolution extraction" if minimal else ""
    checked = StepDiagnostic(index, kind, rule, ok, note)
    if dep is None or dep == b:
        return (checked,)
    note = f"dep_before = {b} does not continue {dep}"
    return (StepDiagnostic(index, kind, "chaining", False, note), checked)


def test_validate_trace_is_a_fold_of_check_step():
    for steps in seeded_step_lists(3000, seed=12):
        if not steps:
            continue
        prefix, last = steps[:-1], steps[-1]
        head = validate_trace(FactorizationTrace(prefix))
        dep = prefix[-1].dep_after if prefix else None
        tail = check_step(last, len(prefix), dep)
        diags = head.diagnostics + tail
        want = TraceVerdict(valid=all(d.ok for d in diags), diagnostics=diags)
        got = validate_trace(FactorizationTrace(steps))
        assert got == want
        # every row is a whole StepDiagnostic, not a bare or short tuple
        assert type(got.diagnostics) is tuple
        assert all(type(d) is StepDiagnostic and len(d) == 5 for d in got.diagnostics)
        # a run of one step from the prefix's depth and index, as the
        # trace-rule sweep checks a mutant, gives the last step's rows
        assert _check_run((last,), dep, len(prefix)) == (all(d.ok for d in tail), list(tail))
        # the error is the prefix's, or else the first failure of the last step
        want_error = raised(FactorizationTrace(prefix))
        failed = [d for d in tail if not d.ok]
        if want_error is None and failed:
            want_error = violation(last, failed[0])
        assert raised(FactorizationTrace(steps)) == want_error
