"""Input and wire-data validation raises typed errors, never bare asserts,
so every check also holds under ``python -O``."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from heckediv import algebra as A, curve as C, forms as F, niebur as NB, operators as O, \
    pairing as P, verify as V
from heckediv.curve import POINT_I
from heckediv.cyclotomic import Cyclo
from heckediv.errors import HeckeDivError, PrecisionExhausted, UnsupportedParameter
from heckediv.series import PuiseuxSeries as S


E4 = F.FormExpression.of(F.Eisenstein(4))
SHIFTED_J = F.FormExpression.of(F.JMinus(Fraction(0)), shift=1)


@pytest.mark.parametrize("call", [
    lambda: C.HeegnerPoint(1, 0, -1),
    lambda: Cyclo(5, (1, 2, 0, 0, 0)),
    lambda: F.EtaQuotientSpec.make(2, {3: 1}),
    lambda: F.FormExpression.of(F.Eisenstein(4), shift=1),
    lambda: SHIFTED_J * SHIFTED_J,
    lambda: F.hauptmodul_spec(7),
    lambda: F.expression_by_name("E5x"),
    lambda: O.hecke_additive_formula(S(1, 0, [1, 2]), 4, 2, "bogus"),
    lambda: O.apply_element(E4, A.t_n(2, 1), "bogus"),
    lambda: S(1, 0, [1]).rescale_exponents(0),
    lambda: F.expression_by_name("jminus:1/0"),
    lambda: F.expression_by_name("eta:2:1=24,1=2"),
    lambda: V.run_suite("bogus"),
])
def test_invalid_input_is_typed_and_a_value_error(call):
    # InvalidInput is a HeckeDivError for the library's callers and a
    # ValueError for the callers (the CLI among them) that catch one
    with pytest.raises(HeckeDivError) as info:
        call()
    assert isinstance(info.value, ValueError)


def test_divisor_sum_across_levels():
    with pytest.raises(UnsupportedParameter):
        C.point_divisor(1, POINT_I) + C.point_divisor(2, POINT_I)


def test_algebra_sum_across_levels():
    with pytest.raises(UnsupportedParameter):
        A.t_n(3, 1) + A.t_n(3, 2)


def test_lift_grid_needs_a_refinement():
    f = S(2, 1, [1, 0, 1])
    assert f.lift_grid(4).D == 4
    with pytest.raises(UnsupportedParameter):
        f.lift_grid(3)


def test_divisor_sums_check_the_level():
    D = C.point_divisor(1, POINT_I)
    with pytest.raises(UnsupportedParameter):
        P.verify_prop_divisor_sums(2, P.PointEvaluator(interior=abs, cusp_values={}), D, 2)


def test_jn_and_harmonic_slices_need_a_positive_index():
    for bad in (0, -1):
        with pytest.raises(UnsupportedParameter):
            F.jn(bad, 10)
        with pytest.raises(UnsupportedParameter):
            NB.harmonic_slice(2, bad, 10)


@pytest.mark.parametrize("exps", [{1: 1}, {1: -1}, {1: 24, 2: -24}, {1: -24, 2: 24}])
@pytest.mark.parametrize("prec", [0, -1, -30])
def test_eta_quotients_refuse_an_empty_window(exps, prec):
    # refused for either sign of r, as the rational Hecke route refuses it
    with pytest.raises(PrecisionExhausted):
        F.eta_quotient_qexp(F.EtaQuotientSpec.make(2, exps), prec)


def test_eta_quotients_refuse_a_nonpositive_argument():
    # m = -1 divides every level: the spec itself refuses it, before any
    # expansion, divisor or log-derivative reads it
    with pytest.raises(UnsupportedParameter):
        F.expression_by_name("eta:2:-1=24")
    for m in (0, -1, -2):
        with pytest.raises(UnsupportedParameter):
            F.EtaQuotientSpec.make(2, {m: 24})
    with pytest.raises(ValueError):
        F.EtaQuotientSpec.make(2, {3: 24})


def test_operators_refuse_a_form_off_its_level():
    t3 = F.expression_by_name("eta:3:1=12,3=-12")
    with pytest.raises(UnsupportedParameter):
        O.hecke_multiplicative(t3, 2, 1, 8)
    with pytest.raises(UnsupportedParameter):
        O.hecke_multiplicative_cosets(t3, 2, 1, 8)
    for mode in ("additive", "multiplicative"):
        with pytest.raises(UnsupportedParameter):
            O.apply_element(t3, A.t_n(2, 2), mode, 8)
    with pytest.raises(UnsupportedParameter):
        P.r_at_s1(1, 1, F.expression_by_name("eta:2:1=24,2=-24"))
    assert P.r_at_s1(6, 1, t3) == P.r_at_s1(3, 1, t3)


_UNDER_O = """
from heckediv import algebra as A, curve as C, forms as F, pairing as P
from heckediv.cyclotomic import Cyclo, _poly_divexact
from heckediv.series import PuiseuxSeries as S
assert False, "asserts must be stripped"
checks = [
    lambda: C.point_divisor(1, C.POINT_I) + C.point_divisor(2, C.POINT_I),
    lambda: A.t_n(3, 1) + A.t_n(3, 2),
    lambda: S(2, 1, [1]).lift_grid(3),
    lambda: P.verify_prop_divisor_sums(2, P.PointEvaluator(interior=abs, cusp_values={}),
                                       C.point_divisor(1, C.POINT_I), 2),
    lambda: _poly_divexact([1, 1], [0, 2]),
    lambda: _poly_divexact([1, 0, 1], [1, 1]),
    lambda: Cyclo.zeta(3).lift(4),
]
for check in checks:
    try:
        check()
        print("accepted")
    except Exception as exc:
        print(type(exc).__name__)
"""


@pytest.mark.parametrize("m,tau", [
    (-1, 1j), (1, -1j), (1, 0j), (-1, complex(0.3, 0.8)),
    (1, complex(0, math.inf)), (1, complex(0, math.nan)), (1, complex(math.nan, 1)),
])
def test_niebur_value_refuses_points_off_the_upper_half_plane(m, tau):
    # these used to return NaN silently or stall in the Bessel series
    with pytest.raises(UnsupportedParameter):
        NB.niebur_value(1, m, tau, NB.EvalParams(truncation=4))


def test_hecke_elements_need_positive_labels():
    for bad in (lambda: A.t_n(0, 1), lambda: A.t_n(-2, 1), lambda: A.t_ad(1, 0, 1),
                lambda: A.t_ad(1, -2, 1)):
        with pytest.raises(UnsupportedParameter):
            bad()


def test_slash_needs_an_upper_triangular_matrix():
    with pytest.raises(UnsupportedParameter):
        O._slash_upper(S(1, 0, [1, 2]), (1, 0, 1, 1), 0)


def test_checks_survive_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-O", "-c", _UNDER_O], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split() == ["UnsupportedParameter",
                                  "UnsupportedParameter", "UnsupportedParameter",
                                  "UnsupportedParameter",
                                  "InvariantViolation", "InvariantViolation",
                                  "UnsupportedParameter"]
