from fractions import Fraction

import pytest

from heckediv import curve as C, forms as F, operators as O, pairing as P, verify as V
from heckediv.errors import UnknownDivisor


@pytest.mark.parametrize("suite", V.SUITES)
def test_suite_passes(suite):
    reports = V.run_suite(suite)
    assert reports, suite
    failing = [r for r in reports if not r.passed]
    assert not failing, [(r.name, r.lhs, r.rhs, r.detail) for r in failing]


def test_unknown_suite():
    with pytest.raises(ValueError):
        V.run_suite("nope")


def test_reports_serialize():
    for r in V.run_suite("algebra"):
        data = r.to_json()
        assert set(data) >= {"name", "lhs", "rhs", "exact", "tolerance", "passed"}


def test_divisor_hecke_checks_three_j_line_cases_exactly():
    cases = [r for r in V.run_suite("divisor-hecke") if "on the j-line" in r.name]
    assert len(cases) == 3
    assert all(r.exact and r.tolerance is None and r.passed for r in cases)


def test_bko_checks_six_pairings_exactly():
    cases = [r for r in V.run_suite("bko") if "_BKO" in r.name]
    assert len(cases) == 6
    assert all(r.exact and r.tolerance is None and r.passed for r in cases)


def test_bko_j_line_value_fails_on_a_wrong_table_entry(monkeypatch):
    # (j_1, E6) = (j(i) - 720)/2 = 504 = -Coeff_q(Theta E6/E6) holds only
    # with the table's j(i) = 1728
    e6 = F.FormExpression.of(F.Eisenstein(6))
    assert P._bko_sum(1, e6)[0] == P.r_at_s1(1, 1, e6) == 504
    monkeypatch.setitem(C.CM_J, -4, 1729)
    assert P._bko_sum(1, e6)[0] != P.r_at_s1(1, 1, e6)


# -- negative controls of the j-line check -------------------------------------

def test_j_line_refuses_points_of_class_number_two():
    # T(3) div(j - 1728) = 2[1,0,9] + 2[2,2,5] - 4[inf], discriminant -36
    jm = F.FormExpression.of(F.JMinus(Fraction(1728)))
    with pytest.raises(UnknownDivisor):
        V._j_line(C.hecke_divisor(3, C.divisor_of_form(jm, 1)))


def test_j_line_refuses_a_negative_coefficient():
    with pytest.raises(UnknownDivisor):
        V._j_line(C.point_divisor(1, C.POINT_I, -1))


def test_j_line_report_fails_against_the_wrong_operator():
    j = F.FormExpression.of(F.JMinus(Fraction(0)))
    img = O.hecke_multiplicative(j, 2, 1, prec=26).atoms[0][0].series
    TD = C.hecke_divisor(3, C.divisor_of_form(j, 1))
    assert not V._j_line_report("j|*T(2) against T(3) div(j)", img, TD).passed
