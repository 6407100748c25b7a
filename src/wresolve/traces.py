"""Depth bookkeeping along a factorization into elementary birational steps.

A trace records, per step, the kind of operation and the total depth of
the ambient model before and after it.  The admissible kinds and their
depth rules:

    WExtraction   dep_before >= 1 and dep_after >= dep_before - 1
                  (equality flags extraction from a minimal resolution)
    Flip          dep_after < dep_before (strict drop; impossible at 0)
    Flop          dep_after = dep_before
    DivToPoint    dep_after >= dep_before - 1
    DivToCurve    dep_after <= dep_before
    BlowDownLCI   dep_before = 0 (smooth-curve blow-downs live in the
                  Gorenstein terminus)

plus the chaining condition that consecutive steps agree on the model
depth.  One transition, ``_check_run``, applies both to a run of steps
from a given depth and step index, in one loop.  ``validate_trace`` runs
it over the whole trace, and the trace-rule sweep runs it on the one step
a mutant appends.  The induction rule, ``_inductive``, is separate: every
Flip or DivToCurve must act strictly below the starting depth, as the
recursive step of a depth induction must.  ``induction_certificate``
asks for both; ``wresolve trace``, whose trace ``validate_trace`` has
already passed, asks only for the induction rule.

``_check_run`` builds at least one StepDiagnostic row per step, so a
10^5-step trace means 10^5 rows.  It runs with the cyclic collector paused
(``errors.paused_gc``): the rows hold no cycles, so the pause loses
nothing, and the state of the collector is restored when the walk returns
or raises.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvalidParameter, RuleViolation, _Record, paused_gc

WEXTRACTION = "WExtraction"
FLIP = "Flip"
FLOP = "Flop"
DIV_TO_POINT = "DivToPoint"
DIV_TO_CURVE = "DivToCurve"
BLOWDOWN_LCI = "BlowDownLCI"

KINDS = (WEXTRACTION, FLIP, FLOP, DIV_TO_POINT, DIV_TO_CURVE, BLOWDOWN_LCI)


class TraceStep(_Record, namedtuple("TraceStep", "kind dep_before dep_after")):
    """One step: operation kind and depth on either side.  Checked, then
    built as one tuple."""

    __slots__ = ()

    def __new__(cls, kind, dep_before, dep_after):
        if kind not in KINDS:
            raise InvalidParameter(f"unknown step kind {kind!r}")
        if type(dep_before) is not int or type(dep_after) is not int:
            raise InvalidParameter(f"depths must be ints, not ({dep_before!r}, {dep_after!r})")
        if dep_before < 0 or dep_after < 0:
            raise InvalidParameter("depths must be >= 0")
        return tuple.__new__(cls, (kind, dep_before, dep_after))


class FactorizationTrace(_Record, namedtuple("FactorizationTrace", "steps")):
    """A chain of TraceSteps; rule conformance is checked by validate_trace.
    A value that is no collection, or a step that is no TraceStep (a raw
    tuple included, which would skip TraceStep's checks), is refused with
    InvalidParameter."""

    __slots__ = ()

    def __new__(cls, steps=()):
        try:
            steps = tuple(steps)
        except TypeError:
            raise InvalidParameter(f"trace steps must be a collection, not {steps!r}") from None
        # one C-level pass over the step types, the refused step found after
        if not set(map(type, steps)) <= {TraceStep}:
            bad = next(s for s in steps if type(s) is not TraceStep)
            raise InvalidParameter(f"trace step must be a TraceStep, not {bad!r}")
        return tuple.__new__(cls, (steps,))


class StepDiagnostic(
    namedtuple("StepDiagnostic", "index kind rule ok note", defaults=("",))
):
    """One verdict row: step ``index`` of ``kind`` against ``rule``, whether
    it holds, and a note.  An immutable tuple, so a long trace costs one
    small allocation per row."""

    __slots__ = ()


class TraceVerdict(namedtuple("TraceVerdict", "valid diagnostics")):
    """Whether every diagnostic holds, and the diagnostics in step order."""

    __slots__ = ()

    def first_failure(self) -> StepDiagnostic | None:
        for d in self.diagnostics:
            if not d.ok:
                return d
        return None


# kind -> its rule text and the rule as a test of (dep_before, dep_after)
_RULES = {
    WEXTRACTION: ("dep_after >= dep_before - 1 >= 0", lambda b, a: a >= b - 1 >= 0),
    FLIP: ("dep_after < dep_before", lambda b, a: a < b),
    FLOP: ("dep_after = dep_before", lambda b, a: a == b),
    DIV_TO_POINT: ("dep_after >= dep_before - 1", lambda b, a: a >= b - 1),
    DIV_TO_CURVE: ("dep_after <= dep_before", lambda b, a: a <= b),
    BLOWDOWN_LCI: ("dep_before = 0", lambda b, a: b == 0),
}


@paused_gc
def _check_run(steps, dep: int | None, start: int) -> tuple[bool, list]:
    """Whether a run of steps holds, and its diagnostics in step order.

    The run stands at model depth ``dep`` (None before the first step of
    a trace) and its first step has index ``start``.  Each step gives a
    chaining diagnostic when it does not start at the depth the run stands
    at, then its rule diagnostic.  The rows are built straight from their
    fields, one tuple each, and the verdict is kept in the same pass.
    """
    new, rules, extraction = tuple.__new__, _RULES, WEXTRACTION
    rows = []
    append = rows.append
    valid = True
    for index, (kind, b, a) in enumerate(steps, start):
        rule, holds = rules[kind]
        if dep != b and dep is not None:
            note = f"dep_before = {b} does not continue {dep}"
            append(new(StepDiagnostic, (index, kind, "chaining", False, note)))
            valid = False
        if holds(b, a):
            # a WExtraction one depth down extracts from a minimal resolution
            minimal = kind == extraction and a == b - 1
            note = "minimal-resolution extraction" if minimal else ""
            append(new(StepDiagnostic, (index, kind, rule, True, note)))
        else:
            append(new(StepDiagnostic, (index, kind, rule, False, "")))
            valid = False
        dep = a
    return valid, rows


def validate_trace(trace: FactorizationTrace, raise_on_violation: bool = False) -> TraceVerdict:
    """Check every step rule and the depth chaining between steps.

    Returns a verdict with one diagnostic per step (plus one per broken
    chain link); with raise_on_violation the first failure raises
    RuleViolation carrying the step index and rule name.
    """
    valid, diags = _check_run(trace.steps, None, 0)
    verdict = TraceVerdict(valid=valid, diagnostics=tuple(diags))
    if valid or not raise_on_violation:
        return verdict
    first = verdict.first_failure()
    if first.rule == "chaining":
        message = f"step {first.index} breaks the chaining rule"
    else:
        step = trace.steps[first.index]
        move = f"{step.kind} {step.dep_before} -> {step.dep_after}"
        message = f"step {first.index} ({move}) breaks: {first.rule}"
    raise RuleViolation(message, index=first.index, rule=first.rule)


def _inductive(steps) -> bool:
    """Whether every Flip and DivToCurve step starts strictly below the
    first step's depth (they must land in models the induction hypothesis
    already covers); an empty run passes."""
    d0 = steps[0].dep_before if steps else None
    return not any(kind in (FLIP, DIV_TO_CURVE) and b >= d0 for kind, b, _ in steps)


def induction_certificate(trace: FactorizationTrace) -> bool:
    """True when the trace can serve as the step of a depth induction.

    Requires a valid trace that passes the induction rule: its Flip and
    DivToCurve steps all start strictly below the trace's initial depth.
    A Flip at depth 0 needs no check of its own: its rule dep_after <
    dep_before fails there, as depths are >= 0.  The empty trace
    certifies trivially.
    """
    return _check_run(trace.steps, None, 0)[0] and _inductive(trace.steps)
