"""Every check of the validating records that end in ``tuple.__new__``,
and the pair and int checks of the supports: one input per message,
and the message each one raises.  Every int field of a record refuses a
float or a bool: one input per field, and so does every int argument of
the chain walks, the depth identity and the depth searches: one float
and one bool each.  Every rational input refuses a float, a bool or a
str: one input of each per field.  And the record probe: any odd value in
any one field of a validating record builds it or raises a domain error,
through the constructor, ``_replace`` and ``_make`` alike; the function
probe does the same for the scalar arguments of the functions outside
the chain closed forms."""

from fractions import Fraction

import pytest

import wresolve
from wresolve.baskets import CD2, Basket, BasketEntry, CyclicQuotient, TerminalClass
from wresolve.chains import (
    O3CaseA,
    O3CaseB,
    chain_simulate,
    chain_stages_b,
    chain_weights,
    depth_identity,
)
from wresolve.errors import InvalidCaseData, InvalidParameter, WresolveError
from wresolve.germs import (
    CARGerm,
    DepthBound,
    blowup_step,
    cyclic_depth_search,
    depth_search,
    nu,
)
from wresolve.neighborhoods import (
    ENPoint,
    ExceptionalIAIACase,
    IACase,
    IAIAIIICase,
    ICCase,
    IIBCase,
    SemistableIAIACase,
    canonical_degree,
    key_check,
)
from wresolve.rationals import format_rat
from wresolve.riemannroch import (
    E1_A4,
    E2,
    ContractionCase,
    case_depth_check,
    cd2_basket,
    delta_chi,
)
from wresolve.traces import FLOP, FactorizationTrace, TraceStep


def depth_bounds(lower, upper):
    """DepthBound, which takes keywords only, from positional bounds."""
    return DepthBound(lower=lower, upper=upper)


NO_BASKET = Basket()
CASE_A, CASE_B = O3CaseA(3, 1, 2, {(2, 0)}), O3CaseB(3, 1)
GERM = CARGerm(5, 2, {(0, 2), (1, 1)})

CASES = [
    (TraceStep, ("Flap", 1, 1), ValueError, "unknown step kind 'Flap'"),
    (TraceStep, (["Flop"], 1, 1), ValueError, "unknown step kind ['Flop']"),
    (TraceStep, (FLOP, -1, 0), ValueError, "depths must be >= 0"),
    (TraceStep, (FLOP, 0, -1), ValueError, "depths must be >= 0"),
    (IIBCase, (5, 6, 5, 5), InvalidCaseData,
     "IIB weights must be = (3, 2, 1, 1) mod 4, got (5, 6, 5, 5)"),
    (IIBCase, (4, 6, 5, 5), InvalidCaseData,
     "IIB weights must be = (3, 2, 1, 1) mod 4, got (4, 6, 5, 5)"),
    (IIBCase, (-1, 6, 5, 5), InvalidCaseData,
     "IIB weights must be = (3, 2, 1, 1) mod 4, got (-1, 6, 5, 5)"),
    (IIBCase, (3, 3, 5, 5), InvalidCaseData,
     "IIB weights must be = (3, 2, 1, 1) mod 4, got (3, 3, 5, 5)"),
    (IIBCase, (3, -2, 5, 5), InvalidCaseData,
     "IIB weights must be = (3, 2, 1, 1) mod 4, got (3, -2, 5, 5)"),
    (IIBCase, (3, 2, 3, 5), InvalidCaseData,
     "IIB weights must be = (3, 2, 1, 1) mod 4, got (3, 2, 3, 5)"),
    (IIBCase, (3, 2, -3, 5), InvalidCaseData,
     "IIB weights must be = (3, 2, 1, 1) mod 4, got (3, 2, -3, 5)"),
    (IIBCase, (3, 2, 1, 2), InvalidCaseData,
     "IIB weights must be = (3, 2, 1, 1) mod 4, got (3, 2, 1, 2)"),
    (IIBCase, (3, 2, 1, -3), InvalidCaseData,
     "IIB weights must be = (3, 2, 1, 1) mod 4, got (3, 2, 1, -3)"),
    (SemistableIAIACase, (3, 1, 5, 2), InvalidCaseData, "need r >= r' >= 2"),
    (SemistableIAIACase, (5, 1, 1, 1), InvalidCaseData, "need r >= r' >= 2"),
    (SemistableIAIACase, (6, 2, 5, 2), InvalidCaseData, "a must be a unit mod r"),
    (SemistableIAIACase, (6, 5, 4, 2), InvalidCaseData, "a' must be a unit mod r'"),
    (SemistableIAIACase, (5, 1, 3, 1), InvalidCaseData,
     "semistable shape needs ar' + a'r - rr' > 0"),
    (SemistableIAIACase, (2, 1, 2, 1), InvalidCaseData,
     "semistable shape needs ar' + a'r - rr' > 0"),  # delta = 0
    (CARGerm, (0, 1, {(0, 1)}), ValueError, "germ index must be >= 1"),
    (CARGerm, (6, 4, {(0, 1)}), ValueError, "beta = 4 not coprime to r = 6"),
    (CARGerm, (5, 2, ()), ValueError, "support must be nonempty"),
    (CARGerm, (5, 2, {(0, 1), (1, -1)}), ValueError,
     "support exponents must be nonnegative"),
    (CARGerm, (5, 2, {(0, 2), (0, 0)}), ValueError,
     "constant term: germ not singular at the origin"),
    (CARGerm, (5, 2, {(1, 1)}), ValueError,
     "no axial monomial: axial weight would be infinite"),
    (CyclicQuotient, (0, (1, -1, 1)), ValueError, "quotient index must be >= 1"),
    (CyclicQuotient, (5, (1, 4)), ValueError, "need exactly three weights"),
    # a name is looked up in its public tuple, an unhashable one too
    (TerminalClass, (["cD/2"],), InvalidParameter, "unknown class kind ['cD/2']"),
    (ContractionCase, (["E2"], 3), InvalidParameter, "unknown case tag ['E2']"),
    # a basket takes a collection of rows, each of BasketEntry's shape
    (Basket, (7,), InvalidParameter, "basket rows are (b, r) or (b, r, n), not 7"),
    (Basket, (["x"],), InvalidParameter, "basket rows are (b, r) or (b, r, n), not 'x'"),
    (Basket, ([(1, 2), (1, 3, 1, 1)],), InvalidParameter,
     "basket rows are (b, r) or (b, r, n), not (1, 3, 1, 1)"),
    (CyclicQuotient, (5, 7), InvalidParameter, "need exactly three weights"),
    # a trace takes a collection of TraceSteps only
    (FactorizationTrace, (7,), InvalidParameter, "trace steps must be a collection, not 7"),
    # and refuses a raw tuple, which would skip TraceStep's checks
    (FactorizationTrace, ([(FLOP, 1.5, 1.5)],), InvalidParameter,
     "trace step must be a TraceStep, not ('Flop', 1.5, 1.5)"),
    (FactorizationTrace, ([TraceStep(FLOP, 1, 1), (FLOP, 1, 1)],), InvalidParameter,
     "trace step must be a TraceStep, not ('Flop', 1, 1)"),
    (BasketEntry, (3, 5), ValueError, "entry (3, 5) outside 0 < b <= r/2"),
    (BasketEntry, (0, 5), ValueError, "entry (0, 5) outside 0 < b <= r/2"),
    (BasketEntry, (2, 4), ValueError, "entry (2, 4) has gcd > 1"),
    (BasketEntry, (1, 3, 0), ValueError, "multiplicity must be >= 1"),
    # a value that is not an int, bools included, is refused, not truncated
    (CARGerm, (3, 1.5, {(0, 1)}), ValueError, "beta must be an int, not 1.5"),
    (CARGerm, (3, False, {(0, 1)}), ValueError, "beta must be an int, not False"),
    (CARGerm, (3, 1, {(0, 1.7)}), ValueError,
     "support exponents must be ints, not (0, 1.7)"),
    (CARGerm, (3, 1, [(0, 1), (True, 2)]), ValueError,
     "support exponents must be ints, not (True, 2)"),
    (CARGerm, (True, 1, {(0, 1)}), ValueError, "germ index must be an int, not True"),
    (CARGerm, (3.0, 1, {(0, 1)}), ValueError, "germ index must be an int, not 3.0"),
    (CyclicQuotient, (5, (1, -1, 2.9)), ValueError,
     "weights must be ints, not (1, -1, 2.9)"),
    (CyclicQuotient, (5, (True, 4, 2)), ValueError,
     "weights must be ints, not (True, 4, 2)"),
    (CyclicQuotient, (True, (0, 0, 0)), ValueError,
     "quotient index must be an int, not True"),
    (CyclicQuotient, (5.0, (1, 4, 2)), ValueError,
     "quotient index must be an int, not 5.0"),
    (O3CaseA, (3, 1, 2, {(2.0, 0)}), ValueError,
     "support exponents must be ints, not (2.0, 0)"),
    (O3CaseA, (3, 1, 2, {(2, 0)}, {(0, -1)}), ValueError,
     "support exponents must be nonnegative"),
    (O3CaseB, (3, 1, (), [(0, True)]), ValueError,
     "support exponents must be ints, not (0, True)"),
    # a support is a collection of (i, j) pairs, nothing else
    (CARGerm, (5, 2, [(0, 1, 2)]), InvalidParameter,
     "support must be (i, j) pairs, not [(0, 1, 2)]"),
    (CARGerm, (5, 2, 7), InvalidParameter, "support must be (i, j) pairs, not 7"),
    (CARGerm, (5, 2, [(0, 1), 3]), InvalidParameter,
     "support must be (i, j) pairs, not [(0, 1), 3]"),
    (O3CaseB, (3, 1, [(0, 1, 2)]), InvalidParameter,
     "support must be (i, j) pairs, not [(0, 1, 2)]"),
    (O3CaseA, (3, 1, 2, {(2, 0)}, [(1,)]), InvalidParameter,
     "support must be (i, j) pairs, not [(1,)]"),
    # the int fields of the other records, one input per field
    (TraceStep, (FLOP, 1.5, 1), ValueError, "depths must be ints, not (1.5, 1)"),
    (TraceStep, (FLOP, 1, True), ValueError, "depths must be ints, not (1, True)"),
    (O3CaseA, (3.0, 1, 2, {(2, 0)}), ValueError,
     "a and d must be ints, not (3.0, 1)"),
    (O3CaseA, (3, True, 2, {(2, 0)}), ValueError,
     "a and d must be ints, not (3, True)"),
    (O3CaseA, (3, 1, 2.5, {(2, 0)}), ValueError, "alpha must be an int, not 2.5"),
    (O3CaseB, (True, 1), ValueError, "a and d must be ints, not (True, 1)"),
    (O3CaseB, (3, 1.0), ValueError, "a and d must be ints, not (3, 1.0)"),
    (BasketEntry, (1.0, 3), ValueError, "basket entry must be ints, not (1.0, 3, 1)"),
    (BasketEntry, (True, 2), ValueError,
     "basket entry must be ints, not (True, 2, 1)"),
    (BasketEntry, (1, 3, 2.0), ValueError,
     "basket entry must be ints, not (1, 3, 2.0)"),
    (ENPoint, (2.5, 0), InvalidCaseData, "point index must be an int, not 2.5"),
    (ENPoint, (True, 0), InvalidCaseData, "point index must be an int, not True"),
    (ICCase, (5.0,), InvalidCaseData, "IC data must be ints, got (5.0,)"),
    (IIBCase, (3.0, 2, 1, 1), InvalidCaseData,
     "IIB data must be ints, got (3.0, 2, 1, 1)"),
    (IIBCase, (3, True, 1, 1), InvalidCaseData,
     "IIB data must be ints, got (3, True, 1, 1)"),
    (IIBCase, (3, 2, 1.0, 1), InvalidCaseData,
     "IIB data must be ints, got (3, 2, 1.0, 1)"),
    (IIBCase, (3, 2, 1, 1.0), InvalidCaseData,
     "IIB data must be ints, got (3, 2, 1, 1.0)"),
    (IACase, (5.0, 1, 2), InvalidCaseData, "IA data must be ints, got (5.0, 1, 2)"),
    (IACase, (5, True, 2), InvalidCaseData,
     "IA data must be ints, got (5, True, 2)"),
    (IACase, (5, 1, 2.0), InvalidCaseData, "IA data must be ints, got (5, 1, 2.0)"),
    (ExceptionalIAIACase, (5.0, 3), InvalidCaseData,
     "ExceptionalIAIA data must be ints, got (5.0, 3)"),
    (ExceptionalIAIACase, (5, 3.0), InvalidCaseData,
     "ExceptionalIAIA data must be ints, got (5, 3.0)"),
    (SemistableIAIACase, (5.0, 2, 3, 2), InvalidCaseData,
     "SemistableIAIA data must be ints, got (5.0, 2, 3, 2)"),
    (SemistableIAIACase, (5, 2.0, 3, 2), InvalidCaseData,
     "SemistableIAIA data must be ints, got (5, 2.0, 3, 2)"),
    (SemistableIAIACase, (5, 2, True, 2), InvalidCaseData,
     "SemistableIAIA data must be ints, got (5, 2, True, 2)"),
    (SemistableIAIACase, (5, 2, 3, 2.0), InvalidCaseData,
     "SemistableIAIA data must be ints, got (5, 2, 3, 2.0)"),
    (IAIAIIICase, (5.0, 3), InvalidCaseData,
     "IAIAIII data must be ints, got (5.0, 3)"),
    (IAIAIIICase, (5, True), InvalidCaseData,
     "IAIAIII data must be ints, got (5, True)"),
    (depth_bounds, (None, 2.5), InvalidParameter,
     "upper depth bound must be an int, not 2.5"),
    (depth_bounds, (None, True), InvalidParameter,
     "upper depth bound must be an int, not True"),
    (depth_bounds, (1.0, 2), InvalidParameter,
     "lower depth bound must be an int, not 1.0"),
    (depth_bounds, (False, 2), InvalidParameter,
     "lower depth bound must be an int, not False"),
    # the int arguments of the walks and searches
    (chain_simulate, (CASE_A, 1.5), InvalidParameter, "k_max must be an int, not 1.5"),
    (chain_simulate, (CASE_A, True), InvalidParameter, "k_max must be an int, not True"),
    (chain_stages_b, (CASE_B, 2.0), InvalidParameter, "k_max must be an int, not 2.0"),
    (chain_stages_b, (CASE_B, False), InvalidParameter,
     "k_max must be an int, not False"),
    (depth_identity, (CASE_A, 0.5), InvalidParameter,
     "endpoint depth must be an int, not 0.5"),
    (depth_identity, (CASE_B, True), InvalidParameter,
     "endpoint depth must be an int, not True"),
    (cyclic_depth_search, (2.5,), InvalidParameter, "index must be an int, not 2.5"),
    (cyclic_depth_search, (True,), InvalidParameter, "index must be an int, not True"),
    (depth_search, (GERM, 100.5), InvalidParameter, "limit must be an int, not 100.5"),
    (depth_search, (GERM, True), InvalidParameter, "limit must be an int, not True"),
    # rational inputs: an int or a Fraction, nothing converted
    (ENPoint, (2, 0.1), InvalidCaseData,
     "w_P(0) must be an int or a Fraction, not 0.1"),
    (ENPoint, (2, False), InvalidCaseData,
     "w_P(0) must be an int or a Fraction, not False"),
    (ENPoint, (2, "1/2"), InvalidCaseData,
     "w_P(0) must be an int or a Fraction, not '1/2'"),
    (key_check, (ICCase(5), -0.3), InvalidCaseData,
     "K_X . C must be an int or a Fraction, not -0.3"),
    (key_check, (ICCase(5), True), InvalidCaseData,
     "K_X . C must be an int or a Fraction, not True"),
    (key_check, (ICCase(5), "-1/2"), InvalidCaseData,
     "K_X . C must be an int or a Fraction, not '-1/2'"),
    (delta_chi, (0.5, 1, NO_BASKET, NO_BASKET), InvalidParameter,
     "a/n must be an int or a Fraction, not 0.5"),
    (delta_chi, (True, 1, NO_BASKET, NO_BASKET), InvalidParameter,
     "a/n must be an int or a Fraction, not True"),
    (delta_chi, ("2", 1, NO_BASKET, NO_BASKET), InvalidParameter,
     "a/n must be an int or a Fraction, not '2'"),
    (delta_chi, (2, 0.5, NO_BASKET, NO_BASKET), InvalidParameter,
     "E^3 must be an int or a Fraction, not 0.5"),
    (delta_chi, (2, True, NO_BASKET, NO_BASKET), InvalidParameter,
     "E^3 must be an int or a Fraction, not True"),
    (delta_chi, (2, "1/3", NO_BASKET, NO_BASKET), InvalidParameter,
     "E^3 must be an int or a Fraction, not '1/3'"),
]


@pytest.mark.parametrize("cls, args, error, message", CASES,
                         ids=[f"{c[0].__name__}-{c[1]}" for c in CASES])
def test_each_check_raises_its_message(cls, args, error, message):
    with pytest.raises(error) as exc:
        cls(*args)
    assert str(exc.value) == message


@pytest.mark.parametrize("cls, args, error, message", CASES,
                         ids=[f"{c[0].__name__}-{c[1]}" for c in CASES])
def test_each_check_raises_a_domain_error(cls, args, error, message):
    with pytest.raises(WresolveError):
        cls(*args)


@pytest.mark.parametrize("r1", [1.0, True])
def test_key_check_refuses_an_r1_that_is_not_an_int(r1):
    with pytest.raises(InvalidCaseData) as exc:
        key_check(ExceptionalIAIACase(5, 3), r1=r1)
    assert str(exc.value) == f"r1 must be an int, not {r1!r}"


@pytest.mark.parametrize("record, fields", [
    (TraceStep(FLOP, 2, 2), (FLOP, 2, 2)),
    (IIBCase(3, 2, 1, 5), (3, 2, 1, 5)),
    (SemistableIAIACase(5, 2, 3, 2), (5, 2, 3, 2)),
    (CARGerm(5, 7, [(0, 3), (1, 1)]), (5, 2, frozenset({(0, 3), (1, 1)}))),
    (CyclicQuotient(5, (7, -1, 12)), (5, (2, 4, 2))),
    (BasketEntry(2, 5), (2, 5, 1)),
], ids=lambda v: type(v).__name__)
def test_a_record_that_passes_is_its_type_and_fields(record, fields):
    cls = type(record)
    assert tuple(record) == fields
    assert record == cls._make(fields) and type(cls._make(fields)) is cls
    assert dict(zip(cls._fields, fields)) == record._asdict()


# The record probe: each validating record from one valid set of fields,
# with each field in turn set to each odd value.  The record builds or
# raises a domain error; no TypeError or AttributeError gets out.
ODD = (None, 7, 2.5, True, "x", ["a"], [1], (1, 2), {}, frozenset(), [(0, 1, 2)],
       -1, 0, Fraction(1, 2))
RECORDS = [
    (CyclicQuotient, dict(r=5, weights=(1, 4, 2))),
    (BasketEntry, dict(b=1, r=3, n=2)),
    (Basket, dict(entries=[(1, 3, 2)])),
    (TerminalClass, dict(kind=CD2, k=4, quotient=None, germ=None)),
    (O3CaseA, dict(a=3, d=1, alpha=2, supp_a={(2, 0)}, supp_b=frozenset())),
    (O3CaseB, dict(a=3, d=1, supp_a=frozenset(), supp_b=frozenset())),
    (CARGerm, dict(r=5, beta=2, support={(0, 2), (1, 1)})),
    (DepthBound, dict(lower=1, upper=2, exact=False)),
    (ENPoint, dict(r=3, w0=Fraction(1, 3))),
    (ICCase, dict(r=5)),
    (IIBCase, dict(r1=3, r2=2, r3=1, r4=1)),
    (IACase, dict(r=5, a1=1, a2=2)),
    (ExceptionalIAIACase, dict(r=5, a2=3)),
    (SemistableIAIACase, dict(r=5, a=3, rprime=3, aprime=2)),
    (IAIAIIICase, dict(r=5, a2=3)),
    (ContractionCase, dict(tag=E2, rprime=3)),
    (TraceStep, dict(kind=FLOP, dep_before=1, dep_after=1)),
    (FactorizationTrace, dict(steps=[TraceStep(FLOP, 1, 1)])),
]


def test_the_probe_covers_every_validating_record():
    exported = (getattr(wresolve, name) for name in wresolve.__all__)
    checked = {v for v in exported if isinstance(v, type) and "__new__" in vars(v)}
    assert checked == {record for record, _ in RECORDS}


@pytest.mark.parametrize("record, fields", RECORDS, ids=[r.__name__ for r, _ in RECORDS])
def test_an_odd_field_builds_or_raises_a_domain_error(record, fields):
    record(**fields)
    bad = []
    for name in fields:
        for odd in ODD:
            try:
                record(**{**fields, name: odd})
            except WresolveError:
                pass
            except Exception as exc:
                bad.append((name, odd, type(exc).__name__))
    assert bad == []


def _built(build):
    """What build() returns, or the type and message of the domain error it
    raises."""
    try:
        return build()
    except WresolveError as exc:
        return type(exc), str(exc)


# _replace and _make build through the constructor: each odd value in each
# field gives the record the constructor gives, or the error it raises
@pytest.mark.parametrize("record, fields", RECORDS, ids=[r.__name__ for r, _ in RECORDS])
def test_replace_and_make_build_through_the_constructor(record, fields):
    base = record(**fields)
    for name in fields:
        for odd in ODD:
            want = _built(lambda: record(**{**base._asdict(), name: odd}))
            assert _built(lambda: base._replace(**{name: odd})) == want, (name, odd)
            values = [odd if field == name else value
                      for field, value in zip(base._fields, base)]
            assert _built(lambda: record._make(values)) == want, (name, odd)
    # and _make keeps namedtuple's length check
    with pytest.raises(TypeError):
        record._make((*base, None))


# The function probe: each scalar argument below, in turn set to each odd
# value of the record probe, from one valid call.  The call answers or
# raises a domain error, and no answer holds a float or a bool: a float
# or a bool is refused, not carried into the answer.  A report's verdict
# ``ok`` is the one bool an answer may hold.
GERM = CARGerm(5, 2, {(0, 2), (1, 1)})
CALLS = [  # (function, valid args, the position probed, the argument's name)
    (nu, (GERM, 1), 1, "s"),
    (blowup_step, (GERM, 2, 8), 1, "r1"),
    (blowup_step, (GERM, 2, 8), 2, "r2"),
    (case_depth_check, (ContractionCase(E1_A4, 9), 2), 1, "aw"),
    (cd2_basket, (3,), 0, "aw"),
    (chain_weights, (O3CaseA(3, 1, 2, {(2, 0)}), 1), 1, "k-A"),
    (chain_weights, (O3CaseB(3, 1), 1), 1, "k-B"),
    (format_rat, (Fraction(1, 2),), 0, "q"),
    (canonical_degree, ([ENPoint(3, Fraction(1, 3))],), 0, "points"),
]


def _leaves(value):
    """The scalars an answer holds: its items, through tuples, lists, sets
    and dicts, and its fields but a report's verdict ok."""
    if isinstance(value, dict):
        value = list(value.values())
    elif hasattr(value, "_fields"):
        value = [v for name, v in zip(value._fields, value) if name != "ok"]
    if isinstance(value, (tuple, list, set, frozenset)):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


@pytest.mark.parametrize("function, args, position, name", CALLS,
                         ids=[f"{f.__name__}-{name}" for f, *_, name in CALLS])
def test_an_odd_argument_answers_or_raises_a_domain_error(function, args, position, name):
    function(*args)
    bad = []
    for odd in ODD:
        call = list(args)
        call[position] = odd
        try:
            answer = function(*call)
        except WresolveError:
            continue
        except Exception as exc:
            bad.append((name, odd, type(exc).__name__))
            continue
        if any(type(v) in (float, bool) for v in _leaves(answer)):
            bad.append((name, odd, answer))
    assert bad == []
