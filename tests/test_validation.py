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
from heckediv.errors import HeckeDivError, PrecisionExhausted, UnknownDivisor, \
    UnsupportedParameter
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


# each public entry where a level, a Hecke index or a digit count enters;
# a level below 1 used to divide by zero, fail on a None label, or answer
# (cusps(0) == (), a zero divisor, an image, coset representatives), and
# jn_value(1, i, -3) returned 1007.9999999998836
REFUSED_PARAMETERS = {
    "Divisor": lambda N: C.Divisor.make(N, {}, {}),
    "CanonicalPoint": lambda N: C.CanonicalPoint(N, (1, 0, 1), (0, 0)),
    "reduce_point": lambda N: C.reduce_point(POINT_I, N),
    "period": lambda N: C.period(POINT_I, N),
    "point_divisor": lambda N: C.point_divisor(N, POINT_I),
    "cusps": lambda N: C.cusps(N),
    "canonical_cusp": lambda N: C.canonical_cusp(1, 2, N),
    "cusp_divisor": lambda N: C.cusp_divisor(N, 1, 0),
    "divisor_of_form": lambda N: C.divisor_of_form(E4, N),
    "hecke_multiplicative": lambda N: O.hecke_multiplicative(E4, 2, N, 4),
    "hecke_multiplicative_cosets": lambda N: O.hecke_multiplicative_cosets(E4, 2, N, 4),
    "hecke_additive_formula": lambda N: O.hecke_additive_formula(E4.qexp(8), 4, 2, N=N),
    "left_coset_reps": lambda N: A.left_coset_reps(N, 2),
    "t_n": lambda N: A.t_n(2, N),
    "AlgebraElement": lambda N: A.AlgebraElement.make(N, {}),
    "EtaQuotientSpec": lambda N: F.EtaQuotientSpec.make(N, {1: 24}),
    "r_at_s1": lambda N: P.r_at_s1(N, 1, E4),
    "niebur_value": lambda N: NB.niebur_value(N, 1, 0.1 + 1.2j, NB.EvalParams(truncation=4)),
    "jn_value digits": lambda d: NB.jn_value(1, POINT_I, d),
    "bko_pairing digits": lambda d: P.bko_pairing(1, E4, d),
    "hecke_multiplicative n": lambda n: O.hecke_multiplicative(E4, n, 1, 4),
}


@pytest.mark.parametrize("value", [0, -1, -3])
@pytest.mark.parametrize("name", REFUSED_PARAMETERS)
def test_a_level_or_digit_count_below_one_is_refused(name, value):
    with pytest.raises(UnsupportedParameter):
        REFUSED_PARAMETERS[name](value)


# inputs the library refuses, each with its typed error
TYPED_REFUSALS = {
    "double_coset_reps off a label": (lambda: A.double_coset_reps(2, 3, 1),
                                      UnsupportedParameter),
    "algebra_multiply across levels": (lambda: A.algebra_multiply(A.t_n(2, 1), A.t_n(2, 2)),
                                       UnsupportedParameter),
    # t_2 takes -64 at (1 + i)/2, a fiber the Hauptmodul table does not hold
    "t_2 + 64": (lambda: C.divisor_of_form(
        F.FormExpression.of(F.EtaQuotient(F.hauptmodul_spec(2)), shift=64), 2), UnknownDivisor),
    "1/t_2 + 1": (lambda: C.divisor_of_form(
        F.FormExpression.of(F.EtaQuotient(F.EtaQuotientSpec.make(2, {1: -24, 2: 24})), shift=1),
        2), UnknownDivisor),
}


@pytest.mark.parametrize("name", TYPED_REFUSALS)
def test_a_refusal_raises_its_typed_error(name):
    call, error = TYPED_REFUSALS[name]
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
def test_a_spectral_s_that_is_not_finite_is_refused(s):
    # s = inf used to run the Poincare sums through NaN intermediates
    with pytest.raises(UnsupportedParameter):
        NB.EvalParams(s=s)
    with pytest.raises(UnsupportedParameter):
        P.r_numeric(1, 1, s, E4)


def test_the_empty_element_refuses_an_empty_window():
    # its multiplicative image is 1 with prec + 4 coefficients, refused as
    # every other element's is when prec + 4 < 1
    empty = A.AlgebraElement.make(1, {})
    assert O.apply_element(E4, empty, "multiplicative", -3).atoms[0][0].series == S.one(1)
    for prec in (-4, -5, -30):
        with pytest.raises(PrecisionExhausted):
            O.apply_element(E4, empty, "multiplicative", prec)
        with pytest.raises(PrecisionExhausted):
            O.apply_element(E4, A.t_n(2, 1), "multiplicative", prec)


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
