"""The rational route of the multiplicative Hecke operator against the
coset product, its verification oracle, and the oracle against
references of its own.

The oracle multiplies the translates as norms of the d-dissection, with
no log-derivative and no character sum.  The two routes must agree bit
for bit: the same coefficients with the same Python types, the same
leading exponent, precision and weight, and the same typed refusals, on
grid 1 and on fractional grids alike.  The norm is checked against the
product of the translates evaluated numerically, and both routes against
the closed form of Delta|*T(n).
"""

from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from heckediv import algebra as A, forms as F, operators as O, pairing as P, verify as V
from heckediv.cyclotomic import Cyclo
from heckediv.errors import (HeckeDivError, NonUnitLeading, NotIntegralSeries,
                             PrecisionExhausted, UnsupportedParameter, UnsupportedWeight)
from heckediv.series import PuiseuxSeries as S


def _eta(level, exps):
    return F.EtaQuotient(F.EtaQuotientSpec.make(level, exps))


def element_cosets(f, u, prec):
    """Oracle: f|*u as the product of each term's coset product to the
    power of its multiplicity, with prec + 4 coefficients.  Each term reads
    its own double coset representatives and the (d/a)(prec + 4) exponents
    that the window rule of its product reads, as hecke_multiplicative_cosets
    does for T(n): no pair list of the rational route enters it."""
    out = None
    for (a, d), mult in u.terms:
        reps = A.double_coset_reps(a, d, u.N)
        piece = O._coset_product(O._expansion(f, d // a * (prec + 4)), reps, prec + 4) ** mult
        out = piece if out is None else out * piece
    return out


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
        img = fn(*args)
    except HeckeDivError as exc:
        return type(exc)
    if isinstance(img, S):
        return img.D, img.order, [(type(c), c) for c in img.coeffs]
    return exact(img) if isinstance(img, F.FormExpression) else img


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
            oracle = element_cosets(f, u, prec)
            assert (s.D, s.order, [(type(c), c) for c in s.coeffs]) == \
                (oracle.D, oracle.order, [(type(c), c) for c in oracle.coeffs]), name
            assert s.precision == prec + 4


@st.composite
def opaque_forms(draw):
    """A bare expansion c_0 q^(h/D) (1 + g_1 q + ...) on the grid (1/D)Z,
    D in {1, 2, 3, 4}, with rational c_0 != 1 and a window short enough
    that it, not prec, often limits the image; off D = 1, one coefficient
    may stray off the grid of the leading term, inside the window or
    past it."""
    D = draw(st.sampled_from((1, 2, 3, 4)))
    c0 = draw(st.fractions(min_value=-5, max_value=5, max_denominator=4)
              .filter(lambda x: x not in (0, 1)))
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=3)
    g = draw(st.lists(coeff, max_size=20))
    rest = [0] * (D * len(g))
    rest[D - 1::D] = g
    stray = draw(st.integers(0, 20 * D))
    if stray % D != D - 1 and stray < len(rest):
        rest[stray] = draw(coeff.filter(bool))
    order = draw(st.integers(-2 * D, 2 * D))
    weight = draw(st.sampled_from((0, 4)))
    return F.FormExpression.of(F.OpaqueSeries(S(D, order, [c0] + rest), weight, 1))


@settings(max_examples=80, deadline=None)
@given(f=opaque_forms(), n=st.integers(1, 5), N=st.sampled_from((1, 2, 3)),
       prec=st.integers(1, 10))
def test_routes_agree_on_short_opaque_series(f, n, N, prec):
    fast = outcome(O.hecke_multiplicative, f, n, N, prec)
    assert fast == outcome(O.hecke_multiplicative_cosets, f, n, N, prec)


def apply_mult(f, u, prec):
    return O.apply_element(f, u, "multiplicative", prec).atoms[0][0].series


@st.composite
def elements(draw, N):
    """A random element of R_0(N): up to three terms T(a, a m), (a, N) = 1,
    with multiplicities in [-2, 2]."""
    a_choices = [a for a in (1, 2, 3) if gcd(a, N) == 1]
    terms = draw(st.dictionaries(
        st.tuples(st.sampled_from(a_choices), st.integers(1, 4)).map(lambda t: (t[0], t[0] * t[1])),
        st.integers(-2, 2).filter(bool), min_size=1, max_size=3))
    return A.AlgebraElement.make(N, terms)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), f=opaque_forms(), N=st.sampled_from((1, 2, 3)), prec=st.integers(1, 6))
def test_apply_element_agrees_with_the_element_oracle(data, f, N, prec):
    u = data.draw(elements(N))
    assert outcome(apply_mult, f, u, prec) == outcome(element_cosets, f, u, prec)


def image_or_refusal(fn, *args):
    """The image's grid, leading exponent, typed coefficients, weight and
    level, or the type of its refusal."""
    try:
        img = fn(*args)
    except HeckeDivError as exc:
        return type(exc)
    return exact(img) + (img.level,)


@settings(max_examples=80, deadline=None)
@given(f=st.one_of(st.sampled_from([f for f, _ in FORMS.values()]), opaque_forms()),
       N=st.sampled_from((1, 2, 3)),
       n=st.integers(1, 7), p=st.integers(-5, 12))
def test_t_n_is_the_t_n_case_of_the_element_route(f, N, n, p):
    # f|*T(n) at prec p + 4 is f|*t_n(n, N) at p, bit for bit, refusals
    # included: one image route, whose window comes from the span n
    assume(gcd(n, N) == 1 or F.prime_factors(n) == [n])
    assert image_or_refusal(O.hecke_multiplicative, f, n, N, p + 4) == \
        image_or_refusal(O.apply_element, f, A.t_n(n, N), "multiplicative", p)


# eta quotients of non-integral order: their expansions live on the grid
# (1/D)Z of the order, and their images are integral only for some n
FRACTIONAL = {
    "eta^8": (_eta(1, {1: 8}), 1),
    "eta^12": (_eta(1, {1: 12}), 1),
    "eta^2": (_eta(1, {1: 2}), 1),
    "eta(t)eta(2t)": (_eta(2, {1: 1, 2: 1}), 2),
    "(eta(t)eta(2t))^4": (_eta(2, {1: 4, 2: 4}), 2),
    "eta^16/eta(3t)^4": (_eta(3, {1: 16, 3: -4}), 3),
}


@pytest.mark.parametrize("name", FRACTIONAL)
def test_routes_agree_on_fractional_eta_quotients(name):
    f, N = FRACTIONAL[name]
    f = F.FormExpression.of(f)
    # the expansion budgets count exponents, not grid units, so every
    # accepted image keeps its full precision
    for n in range(1, 6):
        for prec in (1, 4, 10):
            got = outcome(O.hecke_multiplicative, f, n, N, prec)
            assert got == outcome(O.hecke_multiplicative_cosets, f, n, N, prec), (n, prec)
            assert isinstance(got, type) or len(got[2]) == prec, (n, prec)
    for u in (A.t_n(4, N), A.t_ad(3, 3, N) if N != 3 else A.t_ad(2, 2, N),
              A.AlgebraElement.make(N, {(1, 2): 1, (1, 4): -1})):
        for prec in (1, 5):
            got = outcome(apply_mult, f, u, prec)
            assert got == outcome(element_cosets, f, u, prec)
            assert isinstance(got, type) or len(got[2]) == prec + 4, (u, prec)


def test_routes_agree_when_the_expansion_is_short_for_its_budget():
    # Delta as eta(tau)^12 eta(tau)^12: each factor lives on the grid
    # (1/2)Z, the product on Z; and a shift that cancels the constant term
    # of an opaque series moves its order up by two
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
        assert img == element_cosets(halves, u, 4)


def test_both_routes_refuse_an_empty_precision():
    e4, _ = FORMS["E4"]
    for fn in (O.hecke_multiplicative, O.hecke_multiplicative_cosets):
        with pytest.raises(PrecisionExhausted):
            fn(e4, 3, 1, 0)


def _apply_t_n(f, n, N, prec):
    return O.apply_element(f, A.t_n(n, N), "multiplicative", prec)


# eta^r with r odd has weight r/2: the route and its oracle refuse it by its
# weight before any product, whether or not the image would be integral
@pytest.mark.parametrize("r", (1, 3, 5, 9, 15, 21))
@pytest.mark.parametrize("n", (*range(2, 10), 24))
def test_both_routes_refuse_a_half_integral_weight(r, n):
    f = F.FormExpression.of(_eta(1, {1: r}))
    for fn in (O.hecke_multiplicative, O.hecke_multiplicative_cosets, _apply_t_n):
        with pytest.raises(UnsupportedWeight):
            fn(f, n, 1, 6)


def test_both_routes_refuse_a_half_integral_weight_at_level_2():
    f = F.FormExpression.of(_eta(2, {1: 1, 2: 2}))  # weight 3/2, order 5/24
    for n in (2, 3, 5):
        for fn in (O.hecke_multiplicative, O.hecke_multiplicative_cosets, _apply_t_n):
            with pytest.raises(UnsupportedWeight):
                fn(f, n, 2, 6)


def test_a_shifted_expression_that_cancels_is_refused_before_its_precision():
    # E4/E4 - 1 is identically 0: it has no order, and that refusal comes
    # before an empty or a short precision on every route
    e4 = F.Eisenstein(4)
    zero = F.FormExpression.of(e4, (e4, -1), shift=-1)
    for prec in (0, 3):
        for fn in (O.hecke_multiplicative, O.hecke_multiplicative_cosets, _apply_t_n):
            with pytest.raises(NonUnitLeading):
                fn(zero, 2, 1, prec)


def test_fractional_grid_takes_the_rational_route(monkeypatch):
    # q^(1/2) is no form, yet its T(3) image is integral: q^(1/2 * 4) times
    # the phase e((1/2)(3 - 1)/2) = -1; at T(2) the exponent 3/2 is refused
    def refuse(*args):
        raise AssertionError("coset product on a fractional grid")

    monkeypatch.setattr(O, "_coset_product", refuse)
    half = F.FormExpression.of(F.OpaqueSeries(S(2, 1, [1, 0, 0, 0, 0, 0]), 0, 1))
    assert O.hecke_multiplicative(half, 3, 1, prec=4).atoms[0][0].series == S(1, 2, [-1])
    with pytest.raises(NotIntegralSeries):
        O.hecke_multiplicative(half, 2, 1, prec=4)
    # a stray q^(1/2 + 7/2) shows at q^(2 + 7/6) in the T(3) image: inside
    # a window of 2 coefficients, past a window of 1
    stray = F.FormExpression.of(F.OpaqueSeries(S(2, 1, [1, 0, 0, 0, 0, 0, 0, 5]), 0, 1))
    with pytest.raises(NotIntegralSeries):
        O.hecke_multiplicative(stray, 3, 1, prec=2)
    assert O.hecke_multiplicative(stray, 3, 1, prec=1).atoms[0][0].series == S(1, 2, [-1])


def test_a_stray_coefficient_is_refused_where_the_image_shows_it():
    # q^(1/2 + 7/2) shows at q^(2 + 7/6) in the T(3) image: inside a window
    # of 2 coefficients, past a window of 1, in both routes
    stray = F.FormExpression.of(F.OpaqueSeries(S(2, 1, [1, 0, 0, 0, 0, 0, 0, 5]), 0, 1))
    for fn in (O.hecke_multiplicative, O.hecke_multiplicative_cosets):
        with pytest.raises(NotIntegralSeries):
            fn(stray, 3, 1, 2)
        assert fn(stray, 3, 1, 1).atoms[0][0].series == S(1, 2, [-1])


def test_each_double_coset_is_certified_on_its_own():
    # eta^12 = q^(1/2)(...): T(3,3) acts as the identity, so 2 T(3,3) maps
    # it to eta^24 = Delta, but the oracle certifies each term's product,
    # and eta^12 itself is no integral series
    f = F.FormExpression.of(_eta(1, {1: 12}))
    u = A.AlgebraElement.make(1, {(3, 3): 2})
    with pytest.raises(NotIntegralSeries):
        element_cosets(f, u, 4)
    with pytest.raises(NotIntegralSeries):
        O.apply_element(f, u, "multiplicative", 4)


def test_cyclotomic_coefficients_are_refused():
    # both routes multiply in Q: zeta_3 E4 is refused by each, though its
    # image would be E4|*T(2), since zeta_3^3 = 1
    e4 = F.eisenstein(4, 40)
    zeta3_e4 = S(e4.D, e4.order, [Cyclo.zeta(3) * c for c in e4.coeffs])
    f = F.FormExpression.of(F.OpaqueSeries(zeta3_e4, 4, 1))
    for fn in (O.hecke_multiplicative, O.hecke_multiplicative_cosets):
        with pytest.raises(UnsupportedParameter):
            fn(f, 2, 1, 8)
    with pytest.raises(UnsupportedParameter):
        element_cosets(f, A.t_n(2, 1), 4)


def test_rational_inputs_skip_the_coset_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("coset product on a D = 1 rational expansion")

    monkeypatch.setattr(O, "_coset_product", refuse)
    e4, _ = FORMS["E4"]
    O.hecke_multiplicative(e4, 7, 1, prec=16)
    O.hecke_multiplicative(FORMS["j21-512"][0], 2, 2, prec=16)
    O.apply_element(e4, A.t_n(4, 1), "multiplicative", prec=16)


def test_no_route_reaches_cyclotomic_arithmetic(monkeypatch):
    # fractional grids, p | N and level > 1, both modes of apply_element
    # and the level-N formula, with the oracles' answers taken first
    half = F.FormExpression.of(F.OpaqueSeries(S(2, 1, [1, 0, 2, 0, -1, 0, 3]), 0, 1))
    eta12 = F.FormExpression.of(_eta(1, {1: 12}))
    eta44 = F.FormExpression.of(_eta(2, {1: 4, 2: 4}))
    t2 = FORMS["j21-512"][0]
    mult = [(half, 3, 1), (eta12, 3, 1), (eta12, 2, 1), (eta44, 3, 2), (eta44, 5, 2),
            (t2, 2, 2), (t2, 3, 2)]
    elements = [(eta12, A.t_n(3, 1)), (eta44, A.t_n(3, 2)), (t2, A.t_n(2, 2)),
                (t2, A.AlgebraElement.make(2, {(1, 2): 1, (3, 3): -1}))]
    e4 = F.eisenstein(4, 40)
    formula = [(e4, 4, n, N) for N in (2, 3, 6) for n in (2, 3, 5)]
    want = ([outcome(O.hecke_multiplicative_cosets, f, n, N, 8) for f, n, N in mult]
            + [outcome(element_cosets, f, u, 6) for f, u in elements]
            + [outcome(O.hecke_additive_cosets, *args) for args in formula])

    def refuse(*args):
        raise AssertionError("cyclotomic arithmetic on a production route")

    # a twist by zeta_2 = -1 makes no Cyclo, so the translates are refused too
    monkeypatch.setattr(O, "_slash_upper", refuse)
    monkeypatch.setattr(Cyclo, "__init__", refuse)
    got = ([outcome(O.hecke_multiplicative, f, n, N, 8) for f, n, N in mult]
           + [outcome(apply_mult, f, u, 6) for f, u in elements]
           + [outcome(O.hecke_additive_formula, s, k, n, "normalized", N)
              for s, k, n, N in formula])
    assert got == want
    for f, u in elements[2:]:
        O.apply_element(f, u, "additive", 6)


def test_the_coset_oracles_multiply_in_q(monkeypatch):
    # fractional grids, p | N and level > 1, refusals included: neither
    # multiplicative oracle forms a twisted translate or an element of
    # Q(zeta_d)
    half = F.FormExpression.of(F.OpaqueSeries(S(2, 1, [1, 0, 2, 0, -1, 0, 3]), 0, 1))
    eta12 = F.FormExpression.of(_eta(1, {1: 12}))
    eta44 = F.FormExpression.of(_eta(2, {1: 4, 2: 4}))
    t2 = FORMS["j21-512"][0]
    e4, _ = FORMS["E4"]
    mult = [(half, 3, 1), (eta12, 3, 1), (eta12, 2, 1), (eta44, 3, 2), (eta44, 5, 2),
            (t2, 2, 2), (t2, 3, 2), (e4, 7, 1), (e4, 6, 1)]
    elements = [(eta12, A.t_n(3, 1)), (eta44, A.t_n(3, 2)), (t2, A.t_n(2, 2)),
                (t2, A.AlgebraElement.make(2, {(1, 2): 1, (3, 3): -1})),
                (e4, ELEMENTS["T(1,4) - T(2)"])]

    def refuse(*args):
        raise AssertionError("cyclotomic arithmetic in a multiplicative oracle")

    monkeypatch.setattr(O, "_slash_upper", refuse)
    monkeypatch.setattr(Cyclo, "__init__", refuse)
    got = ([outcome(O.hecke_multiplicative_cosets, f, n, N, 8) for f, n, N in mult]
           + [outcome(element_cosets, f, u, 6) for f, u in elements])
    assert got == ([outcome(O.hecke_multiplicative, f, n, N, 8) for f, n, N in mult]
                   + [outcome(apply_mult, f, u, 6) for f, u in elements])
    assert sum(not isinstance(x, type) for x in got) >= 10


def _delta_power(s, prec):
    """Delta^s = q^s prod_{m>=1} (1 - q^m)^(24 s) to `prec` coefficients,
    expanded factor by factor in a list of ints (Jacobi's product)."""
    out = [1] + [0] * (prec - 1)
    for m in range(1, prec):
        for _ in range(24 * s):
            for i in range(prec - 1, m - 1, -1):
                out[i] -= out[i - m]
    return S(1, s, out)


@pytest.mark.parametrize("n", range(1, 8))
def test_delta_image_is_a_signed_power_of_delta(n):
    # the image is a level-1 cusp form of weight 12 sigma(n) and order
    # sigma(n) at infinity, so a multiple of Delta^sigma(n); its leading
    # coefficient is the phase prod_{ad=n} e((d-1)/2) of the translates
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    s = sum(divisors)
    sign = (-1) ** sum(d - 1 for d in divisors)
    want = S(1, s, [sign * c for c in _delta_power(s, 10).coeffs])
    f, _ = FORMS["Delta"]
    for fn in (O.hecke_multiplicative, O.hecke_multiplicative_cosets):
        img = fn(f, n, 1, 10)
        assert img.weight == 12 * s and img.level == 1
        assert img.atoms[0][0].series == want, fn


def _mp(c):
    return mpmath.mpf(c.numerator) / c.denominator


@settings(max_examples=60, deadline=None)
@given(g=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=5),
                  min_size=1, max_size=9).filter(lambda g: g[0] != 0),
       d=st.integers(1, 7))
def test_dissection_norm_is_the_product_of_the_twists(g, d):
    # N_d(g)(x^d) = prod_{b<d} g(zeta_d^b x), a polynomial of degree at
    # most deg g in y = x^d, so len(g) coefficients hold all of it
    norm = O._dissection_norm(g, d, len(g))
    assert norm.precision == len(g) and norm.order == 0
    with mpmath.workdps(50):
        for x in (mpmath.mpc(0.3, 0.2), mpmath.mpc(-0.7, 0.5), mpmath.mpc(1.1, -0.4)):
            lhs = sum(_mp(Fraction(norm.coefficient(j))) * x ** (d * j) for j in range(len(g)))
            rhs = mpmath.mpf(1)
            for b in range(d):
                z = mpmath.expjpi(mpmath.mpf(2 * b) / d) * x
                rhs *= sum(_mp(c) * z ** k for k, c in enumerate(g))
            assert abs(lhs - rhs) <= mpmath.mpf(10) ** -40 * max(1, abs(rhs))


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


def _qexp_asks(monkeypatch):
    """The precisions asked of FormExpression.qexp, in order."""
    asked = []
    qexp = F.FormExpression.qexp

    def spy(f, prec):
        asked.append(prec)
        return qexp(f, prec)

    monkeypatch.setattr(F.FormExpression, "qexp", spy)
    return asked


def test_the_route_expands_exactly_the_exponents_it_reads(monkeypatch):
    # one ask of span * prec exponents of f; a shift that cancels the
    # constant term of E4^3/E6^2 adds the one exponent it cancels to that
    # ask, after f.order has read it with qexp(pole bound + 1) = qexp(3)
    asked = _qexp_asks(monkeypatch)
    t2, _ = FORMS["j21-512"]
    e = F.FormExpression.of((F.Eisenstein(4), 3), (F.Eisenstein(6), -2), shift=-1)
    for f, n, N, span in ((t2, 3, 2, 3), (t2, 2, 2, 2), (e, 2, 1, 2), (e, 5, 1, 5)):
        for prec in (1, 8, 16):
            asked.clear()
            O.hecke_multiplicative(f, n, N, prec)
            assert asked == ([span * prec] if f is t2 else [3, span * prec + 1])
    # the route, the oracle and both sides of the s = 1 check at T(3), prec 16
    for call, want in ((lambda: O.hecke_multiplicative(e, 3, 1, 16), [3, 49]),
                       (lambda: O.hecke_multiplicative_cosets(e, 3, 1, 16), [3, 49]),
                       (lambda: P.verify_equivariance(3, 3, e), [3, 13, 3, 11])):
        asked.clear()
        call()
        assert asked == want


LONG = [1] + [(7 * i) % 11 - 5 for i in range(1, 200)]


def _opaque(series, shift=0):
    return F.FormExpression.of(F.OpaqueSeries(series, 0, 1), shift=shift)


# each of these reads Theta(f)/f from an expansion of f: an atom with no
# closed form, shifts (two of them cancel leading terms), eta quotients of
# fractional order, and opaque series, on a grid finer than their order's
# or shorter than most reads
EXPANDED = {
    "j-5/3": (F.FormExpression.of(F.JMinus(Fraction(5, 3))), 1),
    "E4^3/E6^2-1": (F.FormExpression.of((F.Eisenstein(4), 3), (F.Eisenstein(6), -2),
                                        shift=-1), 1),
    "1+3q^2+...-1": (_opaque(S(1, 0, [1, 0, 3] + LONG[1:]), shift=-1), 1),
    "j21-512": FORMS["j21-512"],
    "eta^2": (F.FormExpression.of(_eta(1, {1: 2})), 1),
    "eta(t)eta(2t)": (F.FormExpression.of(_eta(2, {1: 1, 2: 1})), 2),
    "eta^16/eta(3t)^4": (F.FormExpression.of(_eta(3, {1: 16, 3: -4})), 3),
    "opaque": (_opaque(S(1, -1, LONG)), 1),
    "opaque on (1/2)Z": (_opaque(S(2, 0, [c if i % 2 == 0 else 0 for i, c in enumerate(LONG)]
                                   + [0, 1])), 1),
    "opaque at q^(1/2)": (_opaque(S(2, 1, [1] + [0, 3] * 150)), 1),
    "opaque short": (_opaque(S(1, 0, LONG[:9])), 1),
}


def _expanded_read(f, which, n, N, prec):
    """The call, as its outcome, and the exponents of f that it reads:
    span * prec for the image of T(n) by either route, m + 1 for r_at_s1
    at m = prec."""
    if which == "r_at_s1":
        return (lambda: outcome(P.r_at_s1, N, prec, f)), prec + 1
    fn = O.hecke_multiplicative if which == "route" else O.hecke_multiplicative_cosets
    return (lambda: outcome(fn, f, n, N, prec)), n * prec


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(EXPANDED)), which=st.sampled_from(("route", "oracle", "r_at_s1")),
       n=st.integers(1, 6), prec=st.integers(1, 8))
def test_each_read_expands_exactly_the_exponents_it_reads(name, which, n, prec):
    f, N = EXPANDED[name]
    assume(gcd(n, N) == 1 or F.prime_factors(n) == [n])
    call, budget = _expanded_read(f, which, n, N, prec)
    expansion = O._expansion
    asked = []

    def spy(g, b):
        asked.append(expansion(g, b))
        return asked[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(O, "_expansion", spy)
        full = call()
    # one expansion, known exactly `budget` exponents past the order of f
    # where the series reaches that far
    [series] = asked
    known = Fraction(series.cutoff, series.D) - f.order
    assert known == (min(budget, 9) if name == "opaque short" else budget)

    # one exponent fewer: r_at_s1 has nothing to read, and an image keeps
    # the ceil((known - 1)/span) coefficients of the window rule, one less
    # where span = 1; they are the leading ones of the full image
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(O, "_expansion", lambda g, b: expansion(g, b).truncate(g.order + known - 1))
        short = call()
    if which == "r_at_s1":
        assert short is PrecisionExhausted or full is PrecisionExhausted
    elif not isinstance(full, type):
        D, order, coeffs, weight = full
        keep = min(prec, -(-(known - 1) // n))
        assert short is PrecisionExhausted if keep < 1 else \
            short == (D, order, coeffs[:keep], weight)


@pytest.mark.parametrize("shift", (0, -1))
@pytest.mark.parametrize("n", (1, 2, 3, 5))
def test_both_routes_read_no_coefficient_past_span_prec(n, shift):
    # a zeta_3 past the span * prec exponents that either route reads is
    # read by neither, so both give the same image; one exponent lower,
    # both refuse it.  With shift -1, 1 + 3q^2 + ... starts at q^2.
    prec, order = 6, 2 if shift else 0
    for at, read in ((order + n * prec, False), (order + n * prec - 1, True)):
        coeffs = [1, 0, 3] + LONG[1:n * prec + 8]
        coeffs[at] = Cyclo.zeta(3)
        f = _opaque(S(1, 0, coeffs), shift)
        if read:
            for fn in (O.hecke_multiplicative, O.hecke_multiplicative_cosets):
                with pytest.raises(UnsupportedParameter):
                    fn(f, n, 1, prec)
        else:
            img = exact(O.hecke_multiplicative(f, n, 1, prec))
            assert img == exact(O.hecke_multiplicative_cosets(f, n, 1, prec))
            assert len(img[2]) == prec


def test_equivariance_suite_uses_the_coset_route(monkeypatch):
    calls = []
    cosets = O.hecke_multiplicative_cosets

    def spy(*args, **kwargs):
        calls.append(args[1:3])
        return cosets(*args, **kwargs)

    def refuse(*args):
        raise AssertionError("the equivariance check reached the rational route")

    monkeypatch.setattr(O, "hecke_multiplicative_cosets", spy)
    monkeypatch.setattr(O, "_multiplicative_image", refuse)
    reports = V.run_suite("equivariance")
    assert reports and all(r.passed for r in reports)
    assert len(calls) == len(reports)
