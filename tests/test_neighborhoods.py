"""Intersection numbers across depth-one extractions."""

from fractions import Fraction
from itertools import product, starmap
from math import gcd

import pytest

from wresolve.errors import InvalidCaseData
from wresolve.neighborhoods import (
    ENPoint,
    ExceptionalIAIACase,
    IACase,
    IAIAIIICase,
    ICCase,
    IIBCase,
    KeyVerdict,
    SemistableIAIACase,
    canonical_degree,
    cf_intersection,
    key_check,
    minimal_r1,
    _require_kx,
    _resolve_r1,
)


def test_canonical_degree():
    pts = [ENPoint(2, Fraction(1, 2)), ENPoint(5, Fraction(2, 5))]
    assert canonical_degree(pts) == Fraction(-1, 10)
    assert canonical_degree([]) == -1
    assert canonical_degree([ENPoint(3, Fraction(2, 3))]) == Fraction(-1, 3)


def test_point_validation():
    with pytest.raises(InvalidCaseData):
        ENPoint(0)
    with pytest.raises(InvalidCaseData):
        ENPoint(2, Fraction(3, 4))  # exceeds (r-1)/r
    with pytest.raises(InvalidCaseData):
        ENPoint(4, Fraction(-1, 4))


def test_cf_ic_iib():
    assert cf_intersection(ICCase(5)) == 1
    assert cf_intersection(IIBCase(7, 2, 5, 1)) == Fraction(3, 7)
    assert cf_intersection(IIBCase(3, 2, 1, 1)) == 1  # min(3/3, 2/2)
    with pytest.raises(InvalidCaseData, match="IIB fixes its weights"):
        cf_intersection(IIBCase(7, 2, 5, 1), r1=3)
    with pytest.raises(InvalidCaseData, match="IC fixes its weights"):
        cf_intersection(ICCase(5), r1=3)


def test_iib_fiber_degree_over_the_sweep_grid():
    # the integer comparison picks the smaller of 3/r1 and 2/r2 on the full
    # default verify grid, the tie r1 = 3, r2 = 2 included
    weights = product(range(3, 52, 4), range(2, 52, 4), range(1, 52, 4), range(1, 52, 4))
    seen = 0
    for r1, r2, r3, r4 in weights:
        got = cf_intersection(IIBCase(r1, r2, r3, r4))
        assert got == min(Fraction(3, r1), Fraction(2, r2)), (r1, r2, r3, r4)
        assert type(got) is Fraction
        seen += 1
    assert seen == 28_561
    assert cf_intersection(IIBCase(3, 2, 1, 1)) == Fraction(3, 3) == Fraction(2, 2)


def test_cf_ia_congruence():
    case = IACase(7, 2, 3)
    assert minimal_r1(case) == 3  # 2 * 3^(-1) = 10 = 3 mod 7
    assert cf_intersection(case) == Fraction(2, 3)
    assert cf_intersection(case, r1=10) == Fraction(2, 10)
    with pytest.raises(InvalidCaseData):
        cf_intersection(case, r1=4)  # wrong congruence class
    with pytest.raises(InvalidCaseData):
        cf_intersection(case, r1=-4)


def test_key_ic():
    v = key_check(ICCase(5), kx=Fraction(-1, 5))
    assert v.ky_cy == 0 and v.nonpositive
    v = key_check(ICCase(5), kx=Fraction(-1))
    assert v.ky_cy == Fraction(-4, 5)
    # K_X . C must come from the caller; the message names the en case
    with pytest.raises(InvalidCaseData, match=r"^IC needs the caller's K_X \. C$"):
        key_check(ICCase(5))
    with pytest.raises(InvalidCaseData):
        key_check(ICCase(5), kx=Fraction(-1, 10))  # above -1/r
    with pytest.raises(InvalidCaseData, match="IC fixes its weights"):
        key_check(ICCase(5), kx=Fraction(-1, 5), r1=3)  # refused, not dropped


def test_key_iib():
    v = key_check(IIBCase(7, 2, 5, 1), kx=Fraction(-1, 4))
    assert v.ky_cy == Fraction(-1, 7)
    assert v.cf == Fraction(3, 7)
    with pytest.raises(InvalidCaseData):
        key_check(IIBCase(7, 2, 5, 1), kx=Fraction(-1, 8))
    with pytest.raises(InvalidCaseData, match=r"^IIB needs the caller's K_X \. C$"):
        key_check(IIBCase(7, 2, 5, 1))
    with pytest.raises(InvalidCaseData, match="IIB fixes its weights"):
        key_check(IIBCase(7, 2, 5, 1), kx=Fraction(-1, 4), r1=3)


def test_key_ia():
    v = key_check(IACase(7, 2, 3), kx=Fraction(-1, 7))
    assert v.ky_cy == Fraction(-1, 21)
    assert v.r1 == 3
    v = key_check(IACase(7, 2, 3), kx=Fraction(-1, 7), r1=10)
    assert v.ky_cy == Fraction(-1, 7) + Fraction(2, 10) / 7
    with pytest.raises(InvalidCaseData, match=r"^IA needs the caller's K_X \. C$"):
        key_check(IACase(7, 2, 3))
    with pytest.raises(InvalidCaseData):
        key_check(IACase(7, 2, 3), kx=Fraction(1, 7))  # positive degree


def test_key_exceptional_frozen():
    v = key_check(ExceptionalIAIACase(5, 3))
    assert (v.ky_cy, v.kx_c, v.cf) == (0, Fraction(-1, 10), Fraction(1, 2))
    assert (v.r1, v.s) == (2, 1)
    assert v.nonpositive
    # any larger member of the congruence class only helps
    v = key_check(ExceptionalIAIACase(5, 3), r1=7)
    assert v.ky_cy == Fraction(-1, 14)
    assert v.nonpositive


def test_key_exceptional_equals_iii_variant():
    a = key_check(ExceptionalIAIACase(5, 3))
    b = key_check(IAIAIIICase(5, 3))
    assert a == b


def test_key_semistable_frozen():
    v = key_check(SemistableIAIACase(5, 2, 3, 2))
    assert (v.ky_cy, v.delta, v.r1) == (0, 1, 3)
    assert v.kx_c == Fraction(-1, 15)
    v = key_check(SemistableIAIACase(7, 5, 4, 3))
    assert (v.delta, v.r1) == (13, 3)
    assert v.ky_cy == Fraction(-5, 12)
    assert v.nonpositive


def test_key_compound_cases_reject_caller_kx():
    with pytest.raises(InvalidCaseData):
        key_check(ExceptionalIAIACase(5, 3), kx=Fraction(-1, 2))
    with pytest.raises(InvalidCaseData):
        key_check(SemistableIAIACase(5, 2, 3, 2), kx=Fraction(-1, 2))


def test_case_validation():
    with pytest.raises(InvalidCaseData):
        ICCase(4)
    with pytest.raises(InvalidCaseData):
        ICCase(3)
    with pytest.raises(InvalidCaseData):
        IIBCase(7, 2, 5, 2)
    with pytest.raises(InvalidCaseData):
        IACase(6, 2, 1)  # a1 shares a factor with r
    with pytest.raises(InvalidCaseData):
        IACase(7, 0, 3)
    with pytest.raises(InvalidCaseData, match="IA needs r >= 2"):
        IACase(1, 1, 1)
    with pytest.raises(InvalidCaseData):
        ExceptionalIAIACase(6, 5)  # even index
    with pytest.raises(InvalidCaseData):
        ExceptionalIAIACase(5, 2)  # a2 below r/2
    with pytest.raises(InvalidCaseData):
        ExceptionalIAIACase(9, 6)  # gcd(a2, r) > 1
    with pytest.raises(InvalidCaseData):
        SemistableIAIACase(3, 2, 5, 2)  # r < r'
    with pytest.raises(InvalidCaseData):
        SemistableIAIACase(5, 1, 3, 2)  # delta <= 0
    with pytest.raises(InvalidCaseData, match="a must be a unit mod r"):
        SemistableIAIACase(6, 2, 5, 4)
    with pytest.raises(InvalidCaseData, match="a' must be a unit mod r'"):
        SemistableIAIACase(5, 2, 4, 2)
    with pytest.raises(InvalidCaseData, match="IA\\+IA\\+III needs r >= 3"):
        IAIAIIICase(2, 1)
    with pytest.raises(InvalidCaseData, match="need r/2 < a2 < r"):
        IAIAIIICase(8, 3)
    with pytest.raises(InvalidCaseData, match="a2 must be a unit mod r"):
        IAIAIIICase(8, 6)


def test_semistable_delta():
    assert SemistableIAIACase(5, 2, 3, 2).delta == 1
    assert SemistableIAIACase(7, 5, 4, 3).delta == 13


def test_nonpositivity_across_family():
    # the compound IA verdicts are never positive for the minimal r1
    for r in range(3, 60, 2):
        for a2 in range(r // 2 + 1, r):
            if gcd(a2, r) != 1:
                continue
            assert key_check(ExceptionalIAIACase(r, a2)).nonpositive


def reference_key_check(case, kx=None, r1=None):
    """key_check as it stood with its witness checks, each failure an
    AssertionError: the congruences are claimed to make them unreachable."""
    if isinstance(case, ICCase):
        kx = _require_kx(case, kx, Fraction(-1), Fraction(-1, case.r))
        cf = Fraction(1)
        return KeyVerdict(kx + cf / case.r, kx + cf / case.r <= 0, kx, cf)
    if isinstance(case, IIBCase):
        kx = _require_kx(case, kx, Fraction(-1), Fraction(-1, 4))
        cf = min(Fraction(3, case.r1), Fraction(2, case.r2))
        return KeyVerdict(kx + cf / 4, kx + cf / 4 <= 0, kx, cf)
    if isinstance(case, IACase):
        kx = _require_kx(case, kx, Fraction(-1), Fraction(0))
        use = _resolve_r1(case, r1)
        cf = Fraction(case.a1, use)
        ky = kx + cf / case.r
        return KeyVerdict(ky, ky <= 0, kx, cf, r1=use)
    if isinstance(case, (ExceptionalIAIACase, IAIAIIICase)):
        if kx is not None:
            raise InvalidCaseData("this case computes K_X . C itself")
        s = 2 * case.a2 - case.r
        use = _resolve_r1(case, r1)
        assert s * use >= 2, f"witness product s*r1 = {s * use} < 2"
        kx_c = Fraction(-s, 2 * case.r)
        cf = Fraction(1, use)
        ky = kx_c + cf / case.r
        return KeyVerdict(ky, ky <= 0, kx_c, cf, r1=use, s=s)
    if isinstance(case, SemistableIAIACase):
        if kx is not None:
            raise InvalidCaseData("this case computes K_X . C itself")
        d = case.delta
        use = _resolve_r1(case, r1)
        assert (case.a * use - 1) // case.r != 0, "gamma = 0"
        assert (use * d - case.rprime) % case.r == 0, "r1 delta is not r' mod r"
        assert use * d >= case.rprime, f"witness r1*delta = {use * d} < r'"
        kx_c = Fraction(-d, case.r * case.rprime)
        cf = Fraction(1, use)
        ky = kx_c + cf / case.r
        return KeyVerdict(ky, ky <= 0, kx_c, cf, r1=use, delta=d)
    raise InvalidCaseData(f"no key rule for {type(case).__name__}")


def _outcome(check, case, kx, r1):
    """The verdict, or the domain error's type and message."""
    try:
        return check(case, kx=kx, r1=r1)
    except InvalidCaseData as exc:
        return type(exc), str(exc)


def _units(r):
    return [a for a in range(1, r) if gcd(a, r) == 1]


def _r1_choices(case):
    """The semistable sweep's None; for the others also the exceptional
    sweep's three members of the class and two values outside it."""
    if isinstance(case, SemistableIAIACase):
        return (None,)
    least = minimal_r1(case)
    return (None, least, least + case.r, least + 2 * case.r, least + 1, 0)


def _compound_cases():
    """The en sweep grids at their default ranges, IA+IA+III on the same
    a2 grid (every r >= 3), and the semistable shapes."""
    for r in range(3, 100):
        for a2 in _units(r):
            if 2 * a2 > r:
                if r % 2:
                    yield ExceptionalIAIACase(r, a2)
                yield IAIAIIICase(r, a2)
    for rp in range(2, 31):
        for r in range(rp, 31):
            for a in _units(r):
                for ap in _units(rp):
                    if a * rp + ap * r - r * rp > 0:
                        yield SemistableIAIACase(r, a, rp, ap)


def _differential_inputs():
    for case in _compound_cases():
        for r1 in _r1_choices(case):
            yield case, None, r1
        yield case, Fraction(-1, 2), None  # compound cases refuse a kx
    for r in range(2, 31):
        for a1 in _units(r):
            for a2 in _units(r):
                case = IACase(r, a1, a2)
                least = minimal_r1(case)
                for kx in (None, Fraction(-1, r), Fraction(1, r), Fraction(-1),
                           Fraction(-2)):
                    for r1 in (None, least, least + r, least + 1, 0):
                        yield case, kx, r1
    for r in range(5, 100, 2):
        for kx in (None, Fraction(-1), Fraction(-1, r), Fraction(-1, 2 * r)):
            yield ICCase(r), kx, None
    weights = product(range(3, 52, 4), range(2, 52, 4), range(1, 52, 4), range(1, 52, 4))
    for case in starmap(IIBCase, weights):
        yield case, Fraction(-1, 4), None
    for kx in (None, Fraction(-1), Fraction(-1, 8), Fraction(-1, 3)):
        yield IIBCase(7, 2, 5, 1), kx, None


def test_key_check_matches_the_witness_checking_reference():
    # every verdict, and every refusal's type and message, is unchanged;
    # no witness assertion of the reference ever fires
    seen = 0
    for case, kx, r1 in _differential_inputs():
        got = _outcome(key_check, case, kx, r1)
        assert got == _outcome(reference_key_check, case, kx, r1), (case, kx, r1)
        if isinstance(got, KeyVerdict):
            assert cf_intersection(case, r1) == got.cf
        seen += 1
    assert seen == 183_542
