"""The rational route of the multiplicative Hecke operator against the
coset product over Q(zeta_d), its verification oracle.

The two routes must agree bit for bit: the same coefficients with the
same Python types, the same leading exponent, precision and weight, and
the same typed refusals.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from heckediv import algebra as A, forms as F, operators as O, verify as V
from heckediv.errors import HeckeDivError, NotIntegralSeries, PrecisionExhausted
from heckediv.series import PuiseuxSeries as S


def _eta(level, exps):
    return F.EtaQuotient(F.EtaQuotientSpec.make(level, exps))


FORMS = {
    "E4": (F.FormExpression.of(F.Eisenstein(4)), 1),
    "E6": (F.FormExpression.of(F.Eisenstein(6)), 1),
    "Delta": (F.FormExpression.of(F.DeltaShift(1)), 1),
    "j-1728": (F.FormExpression.of(F.JMinus(Fraction(1728))), 1),
    "E4^2 E6": (F.FormExpression.of((F.Eisenstein(4), 2), F.Eisenstein(6)), 1),
    "Delta E4": (F.FormExpression.of(F.DeltaShift(1), F.Eisenstein(4)), 1),
    "(eta1 eta3)^6": (F.FormExpression.of(_eta(3, {1: 6, 3: 6})), 3),
    "t3": (F.FormExpression.of(_eta(3, {1: 12, 3: -12})), 3),
    "j21-512": (F.FormExpression.of((_eta(2, {1: 24, 2: -24}), 1), shift=-512), 2),
}

# every n <= 7 the operator accepts; the levels are 1 or prime, so n = N is
# the p | N case
GRID = [(name, n) for name, (_, N) in FORMS.items()
        for n in range(1, 8) if n == N or gcd(n, N) == 1]


def exact(img):
    """Everything that must match: grid, leading exponent, every
    coefficient with its type, and the weight."""
    s = img.atoms[0][0].series
    return s.D, s.order, [(type(c), c) for c in s.coeffs], img.weight


def outcome(fn, *args):
    try:
        return exact(fn(*args))
    except HeckeDivError as exc:
        return type(exc)


@pytest.mark.parametrize("name,n", GRID)
def test_routes_agree_on_forms(name, n):
    f, N = FORMS[name]
    for prec in (8, 16, 24):
        fast = exact(O.hecke_multiplicative(f, n, N, prec))
        assert fast == exact(O.hecke_multiplicative_cosets(f, n, N, prec)), prec
        assert len(fast[2]) == prec


ELEMENTS = {
    "T(4)": A.t_n(4, 1),
    "T(2)T(2)": A.algebra_multiply(A.t_n(2, 1), A.t_n(2, 1)),
    "T(1,4) - T(2)": A.AlgebraElement.make(1, {(1, 4): 1, (1, 2): -1}),
    "T(3,3)": A.t_ad(3, 3, 1),
}
LEVEL1 = ("E4", "E6", "Delta", "j-1728")
# at N = 2 the square T(2)T(2) is T(1,4) alone, and 2 | N drops e = 2 from
# its Moebius inversion
APPLY_CASES = {**{label: (u, LEVEL1) for label, u in ELEMENTS.items()},
               "T(2)T(2) at N=2": (A.algebra_multiply(A.t_n(2, 2), A.t_n(2, 2)),
                                   ("j21-512",)),
               "T(4) at N=3": (A.t_n(4, 3), ("(eta1 eta3)^6", "t3"))}


@pytest.mark.parametrize("label", APPLY_CASES)
def test_apply_element_routes_agree(label):
    u, names = APPLY_CASES[label]
    for name in names:
        f, _ = FORMS[name]
        for prec in (8, 16):
            img = O.apply_element(f, u, "multiplicative", prec)
            s = img.atoms[0][0].series
            oracle = O._element_cosets(f, u, prec)
            assert (s.D, s.order, [(type(c), c) for c in s.coeffs]) == \
                (oracle.D, oracle.order, [(type(c), c) for c in oracle.coeffs]), name
            assert s.precision == prec + 4


@st.composite
def opaque_forms(draw):
    """A bare D = 1 expansion c_0 q^h + ... with rational c_0 != 1 and a
    window short enough that it, not prec, often limits the image."""
    c0 = draw(st.fractions(min_value=-5, max_value=5, max_denominator=4)
              .filter(lambda x: x not in (0, 1)))
    rest = draw(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=3),
                         max_size=20))
    order = draw(st.integers(-2, 2))
    weight = draw(st.sampled_from((0, 4)))
    return F.FormExpression.of(F.OpaqueSeries(S(1, order, [c0] + rest), weight, 1))


@settings(max_examples=60, deadline=None)
@given(f=opaque_forms(), n=st.integers(1, 5), N=st.sampled_from((1, 2, 3)),
       prec=st.integers(1, 10))
def test_routes_agree_on_short_opaque_series(f, n, N, prec):
    fast = outcome(O.hecke_multiplicative, f, n, N, prec)
    assert fast == outcome(O.hecke_multiplicative_cosets, f, n, N, prec)


def test_routes_agree_when_the_expansion_is_short_for_its_budget():
    # Delta as eta(tau)^12 eta(tau)^12: each factor lives on the grid
    # (1/2)Z, so qexp(P) knows only P/2 exponents; and a shift that cancels
    # the constant term of an opaque series moves its order up by two
    eta12 = _eta(1, {1: 12})
    halves = F.FormExpression.of(eta12, eta12)
    shifted = F.FormExpression.of(
        F.OpaqueSeries(S(1, 0, [1, 0, 3, Fraction(1, 2)] + [1] * 40), 0, 1), shift=-1)
    for f in (halves, shifted):
        for n in (2, 3, 4):
            for prec in (3, 6):
                assert exact(O.hecke_multiplicative(f, n, 1, prec)) == \
                    exact(O.hecke_multiplicative_cosets(f, n, 1, prec)), (n, prec)
    for u in ELEMENTS.values():
        img = O.apply_element(halves, u, "multiplicative", 4).atoms[0][0].series
        assert img == O._element_cosets(halves, u, 4)


def test_both_routes_refuse_an_empty_precision():
    e4, _ = FORMS["E4"]
    for fn in (O.hecke_multiplicative, O.hecke_multiplicative_cosets):
        with pytest.raises(PrecisionExhausted):
            fn(e4, 3, 1, 0)


def test_fractional_grid_takes_the_coset_route():
    # q^(1/2) is no form, yet its T(3) image is integral: the route depends
    # on the input alone
    half = F.FormExpression.of(F.OpaqueSeries(S(2, 1, [1, 0, 0, 0, 0, 0]), 0, 1))
    assert O.hecke_multiplicative(half, 3, 1, prec=4).atoms[0][0].series == S(1, 2, [-1])
    with pytest.raises(NotIntegralSeries):
        O.hecke_multiplicative(half, 2, 1, prec=4)


def test_rational_inputs_skip_the_coset_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("coset product on a D = 1 rational expansion")

    monkeypatch.setattr(O, "_slash_product", refuse)
    e4, _ = FORMS["E4"]
    O.hecke_multiplicative(e4, 7, 1, prec=16)
    O.hecke_multiplicative(FORMS["j21-512"][0], 2, 2, prec=16)
    O.apply_element(e4, A.t_n(4, 1), "multiplicative", prec=16)


def test_closed_form_atoms_skip_the_product_expansion(monkeypatch):
    # Theta(f)/f comes from the atoms, so no series is multiplied or
    # inverted on the way to the image
    def refuse(*args):
        raise AssertionError("series arithmetic on the atom route")

    monkeypatch.setattr(S, "__mul__", refuse)
    monkeypatch.setattr(S, "reciprocal", refuse)
    j = (F.FormExpression.of(F.JMinus(Fraction(0))), 1)
    names = ("E4", "E6", "Delta", "j-1728", "(eta1 eta3)^6", "t3")
    for f, N in [FORMS[name] for name in names] + [j]:
        for n in (2, 3, 5, 7):
            O.hecke_multiplicative(f, n, N, prec=12)
        O.apply_element(f, A.t_n(4, N), "multiplicative", prec=12)


def test_equivariance_suite_uses_the_coset_route(monkeypatch):
    calls = []
    cosets = O.hecke_multiplicative_cosets

    def spy(*args, **kwargs):
        calls.append(args[1:3])
        return cosets(*args, **kwargs)

    def refuse(*args):
        raise AssertionError("the equivariance check reached the rational route")

    monkeypatch.setattr(O, "hecke_multiplicative_cosets", spy)
    monkeypatch.setattr(O, "_rational_image", refuse)
    reports = V.run_suite("equivariance")
    assert reports and all(r.passed for r in reports)
    assert len(calls) == len(reports)
