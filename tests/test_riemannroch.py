"""Plurigenus corrections, chi-jump thresholds, and case depth checks."""

from fractions import Fraction

import pytest

from wresolve.baskets import Basket
from wresolve.errors import InvalidParameter
from wresolve.riemannroch import (
    E1_A2,
    E1_A4,
    E2,
    E11,
    O3,
    CaseDepthReport,
    ContractionCase,
    aw_upper_bound,
    case_data,
    case_depth_check,
    cd2_basket,
    delta_chi,
    rr_correction,
)


def test_correction_frozen():
    assert rr_correction(Basket()) == 0
    assert rr_correction(Basket([(1, 2)])) == Fraction(1, 4)
    assert rr_correction(Basket([(2, 5)])) == Fraction(3, 5)
    assert rr_correction(Basket([(1, 4), (1, 2)])) == Fraction(5, 8)
    assert rr_correction(Basket([(5, 18)])) == Fraction(65, 36)
    assert rr_correction(Basket([(1, 2, 7)])) == Fraction(7, 4)


def test_delta_chi_requires_positive_volume():
    with pytest.raises(ValueError):
        delta_chi(1, 0, Basket(), Basket())
    with pytest.raises(ValueError):
        delta_chi(1, -Fraction(1, 3), Basket(), Basket())


def test_delta_chi_closed_form():
    # with an empty X-basket the jump collapses to r'/4 (E1) or r'/2 (E2)
    for rp in range(5, 41, 2):
        d = case_data(ContractionCase(E1_A4, rp))
        assert delta_chi(d.a_over_n, d.e3, d.basket_y, Basket()) == Fraction(rp, 4)
    for rp in range(3, 41, 2):
        d = case_data(ContractionCase(E1_A2, rp))
        assert delta_chi(d.a_over_n, d.e3, d.basket_y, Basket()) == Fraction(rp, 4)
    for rp in range(2, 41, 2):
        d = case_data(ContractionCase(E2, rp))
        assert delta_chi(d.a_over_n, d.e3, d.basket_y, Basket()) == Fraction(rp, 2)


def test_delta_chi_linear_in_aw():
    d = case_data(ContractionCase(E1_A4, 9))
    for awx in range(1, 9):
        got = delta_chi(d.a_over_n, d.e3, d.basket_y, cd2_basket(awx))
        assert got == Fraction(9, 4) - Fraction(awx, 4)


def test_aw_upper_bound_frozen():
    assert aw_upper_bound(ContractionCase(E1_A4, 9)) == 5
    assert aw_upper_bound(ContractionCase(E1_A4, 13)) == 9
    assert aw_upper_bound(ContractionCase(E1_A2, 7)) == 3
    assert aw_upper_bound(ContractionCase(E1_A2, 3)) == 0  # threshold unreachable
    assert aw_upper_bound(ContractionCase(E2, 6)) == 8
    assert aw_upper_bound(ContractionCase(E2, 2)) == 0


def test_aw_upper_bound_is_maximal():
    # the bound is the last aw passing the threshold, and never exceeds
    # the classical sufficient bound
    for case in (
        ContractionCase(E1_A4, 9),
        ContractionCase(E1_A2, 7),
        ContractionCase(E2, 6),
    ):
        d = case_data(case)
        bound = aw_upper_bound(case)
        assert bound <= d.sufficient_bound
        if bound >= 1:
            assert delta_chi(d.a_over_n, d.e3, d.basket_y, cd2_basket(bound)) >= 1
        assert delta_chi(d.a_over_n, d.e3, d.basket_y, cd2_basket(bound + 1)) < 1


def test_case_parity_constraints():
    # the Y-basket entry must stay coprime, forcing r' odd for E1 and
    # even for E2; the out-of-parity values are rejected outright
    for rp in (6, 8, 10):
        with pytest.raises(InvalidParameter):
            case_data(ContractionCase(E1_A4, rp))
        with pytest.raises(InvalidParameter):
            case_data(ContractionCase(E1_A2, rp))
    for rp in (3, 5, 7):
        with pytest.raises(InvalidParameter):
            case_data(ContractionCase(E2, rp))
    with pytest.raises(InvalidParameter):
        case_data(ContractionCase(E1_A4, 5 - 2))  # needs r' > 4 as well
    with pytest.raises(InvalidParameter):
        case_data(ContractionCase(E11))


def test_case_tag_validation():
    with pytest.raises(ValueError):
        ContractionCase("E3")
    with pytest.raises(ValueError):
        ContractionCase(E1_A4)  # the family cases need r'
    with pytest.raises(ValueError):
        ContractionCase(E11, 5)  # the sporadic ones take none


@pytest.mark.parametrize("tag, rprime, message", [
    (E1_A4, 7.0, "E1_a4 needs an int r', not 7.0"),
    (E2, True, "E2 needs an int r', not True"),
    (E1_A2, "5", "E1_a2 needs an int r', not '5'"),
    (E2, 0, "E2 needs a positive r'"),
], ids=repr)
def test_case_needs_an_int_rprime(tag, rprime, message):
    # a float or a bool r' would reach gcd in case_data, or pass as r' = 1
    with pytest.raises(ValueError) as exc:
        ContractionCase(tag, rprime)
    assert str(exc.value) == message


def test_cd2_basket():
    b = cd2_basket(3)
    assert [(e.b, e.r, e.n) for e in b.entries] == [(1, 2, 3)]
    with pytest.raises(InvalidParameter):
        cd2_basket(0)


def test_case_depth_check_frozen():
    rep = case_depth_check(ContractionCase(E1_A4, 9), aw=8)
    assert rep == CaseDepthReport(8, (17, 17), 16, True)
    rep = case_depth_check(ContractionCase(E1_A2, 5), aw=4)
    assert rep == CaseDepthReport(4, (9, 9), 8, True)
    rep = case_depth_check(ContractionCase(E2, 4), aw=7)
    assert rep == CaseDepthReport(7, (14, 15), 14, True)


def test_case_depth_check_e11():
    rep = case_depth_check(ContractionCase(E11))
    assert rep.dep_y == (6, 6)
    assert rep.dep_x_upper == 7
    assert rep.ok


def test_case_depth_check_rejections():
    with pytest.raises(InvalidParameter):
        case_depth_check(ContractionCase(O3))
    with pytest.raises(InvalidParameter):
        case_depth_check(ContractionCase(E1_A4, 9))  # aw missing
    with pytest.raises(InvalidParameter):
        case_depth_check(ContractionCase(E1_A4, 9), aw=9)  # past the bound
    with pytest.raises(InvalidParameter):
        case_depth_check(ContractionCase(E2, 4), aw=0)
    with pytest.raises(InvalidParameter, match="E11 takes no aw"):
        case_depth_check(ContractionCase(E11), aw=3)  # E11 would drop it


def test_case_depth_check_holds_on_families():
    for rp in range(5, 30, 2):
        for awx in (1, rp - 1):
            assert case_depth_check(ContractionCase(E1_A4, rp), aw=awx).ok
    for rp in range(2, 30, 2):
        for awx in (1, 2 * rp - 1):
            assert case_depth_check(ContractionCase(E2, rp), aw=awx).ok
