"""The series kernels against independent references.

The product reference stores a window as {exponent: coefficient} with
exact ``Fraction`` exponents, multiplies term by term, keeps the exponents
below the product's knowledge bound min(cutoff_a + v_b, cutoff_b + v_a),
and normalises by hand: strip leading zeros, move to the coarsest grid
that holds every nonzero exponent, and store integral values as ``int``.
It shares no code with ``PuiseuxSeries.__mul__`` or its Kronecker product.

The exp recurrence is checked as the inverse of the log recurrence, and
the eta quotients it builds against the product prod (1 - q^(m n))^r
expanded factor by factor with binomial series in a dict.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from heckediv import forms, series
from heckediv.cyclotomic import Cyclo
from heckediv.forms import EtaQuotientSpec, eisenstein, eta_quotient_qexp
from heckediv.series import KRONECKER_MIN_WIDTH, PuiseuxSeries as S
from heckediv.series import exp_coeffs, log_derivative_coeffs


def _terms(s):
    return {Fraction(s.order + i, s.D): c for i, c in enumerate(s.coeffs)}


def _reference_product(a, b):
    """(D, order, coeffs) of a * b, computed from the terms of a and b."""
    bound = min(Fraction(a.cutoff, a.D) + Fraction(b.order, b.D),
                Fraction(b.cutoff, b.D) + Fraction(a.order, a.D))
    prod = {}
    for e1, x in _terms(a).items():
        for e2, y in _terms(b).items():
            if e1 + e2 < bound:
                prod[e1 + e2] = prod.get(e1 + e2, 0) + x * y
    nonzero = {e: c for e, c in prod.items() if isinstance(c, Cyclo) or c != 0}
    if not nonzero:
        return 1, math.ceil(bound), ()
    D = math.lcm(*[e.denominator for e in nonzero])
    order = int(min(nonzero) * D)
    cutoff = math.ceil(bound * D)
    coeffs = []
    for n in range(order, cutoff):
        c = nonzero.get(Fraction(n, D), 0)
        if not isinstance(c, Cyclo) and Fraction(c).denominator == 1:
            c = int(c)
        coeffs.append(c)
    return D, order, tuple(coeffs)


def _fields(s):
    return s.D, s.order, s.coeffs


def _types(coeffs):
    return [type(c) for c in coeffs]


def _assert_product(a, b):
    got = a * b
    want = _reference_product(a, b)
    assert _fields(got) == want
    assert _types(got.coeffs) == _types(want[2])


DENOMINATORS = (1, 1, 2, 3, 7, 691, 3617, 2 ** 61 - 1)


@st.composite
def windows(draw):
    bits = draw(st.sampled_from((3, 64, 2000)))
    big = 2 ** bits
    num = st.one_of(st.just(0), st.integers(-big, big))
    if draw(st.booleans()):
        coeff = num
    else:
        coeff = st.builds(Fraction, num, st.sampled_from(DENOMINATORS))
    coeffs = draw(st.lists(coeff, min_size=1, max_size=64))
    D = draw(st.sampled_from((1, 1, 2, 3, 6)))
    order = draw(st.integers(-40, 40))
    return S(D, order, coeffs)


@settings(max_examples=150, deadline=None)
@given(windows(), windows())
def test_product_matches_the_dict_reference(a, b):
    _assert_product(a, b)


@pytest.mark.parametrize("n", [KRONECKER_MIN_WIDTH - 1, KRONECKER_MIN_WIDTH, 64])
def test_eisenstein_products_on_both_sides_of_the_threshold(n):
    # Fraction windows (E12) and int windows (E4), unequal lengths
    e4, e12 = eisenstein(4, n + 5), eisenstein(12, n)
    for a, b in ((e4, e4), (e12, e12), (e4, e12), (e12, e4.truncate(n + 3))):
        _assert_product(a, b)


@pytest.mark.parametrize("sign", [1, -1, "alternating"])
def test_coefficients_of_full_height_fill_their_slots(sign):
    # |c| = 2^k - 1 in every place makes each product coefficient as large
    # as the slot width allows; odd k = 4j - 1 leaves byte rounding least slack
    for k in (1, *range(3, 40, 4)):
        c = 2 ** k - 1
        coeffs = [c * (-1) ** i if sign == "alternating" else sign * c for i in range(64)]
        a = S(1, 0, coeffs)
        _assert_product(a, a)
        _assert_product(a, S(1, 0, coeffs[:40]))


def test_zeros_inside_the_window_and_a_zero_product_tail():
    a = S(1, -3, [5] + [0] * 30 + [-7, Fraction(1, 3)])
    b = S(1, 2, [Fraction(-2, 5)] + [0] * 40)
    _assert_product(a, b)
    _assert_product(b, b)


def test_the_zero_series_keeps_its_knowledge_bound():
    zero = S(1, 7, [])
    _assert_product(zero, eisenstein(4, 30))
    _assert_product(eisenstein(4, 30), zero)


def test_wide_rational_windows_take_the_kronecker_product(monkeypatch):
    calls = []
    real = series._kronecker_product

    def spy(x, y, n):
        calls.append(n)
        return real(x, y, n)

    monkeypatch.setattr(series, "_kronecker_product", spy)
    narrow = eisenstein(12, KRONECKER_MIN_WIDTH - 1)
    wide = eisenstein(12, KRONECKER_MIN_WIDTH)
    _ = narrow * narrow
    assert calls == []
    _ = wide * wide
    assert calls == [KRONECKER_MIN_WIDTH]


def test_a_cyclo_operand_keeps_the_schoolbook_product(monkeypatch):
    def refuse(*_):
        raise AssertionError("Cyclo windows must not be packed")

    monkeypatch.setattr(series, "_kronecker_product", refuse)
    z = Cyclo.zeta(3, 1)
    a = S(1, 0, [z] + [1] * 39)
    b = eisenstein(4, 40)
    got = a * b
    want = _reference_product(a, b)
    assert _fields(got) == want
    # the schoolbook loop adds Cyclo terms onto int zeros: every slot with
    # a Cyclo term holds a Cyclo, the others stay int
    assert all(isinstance(c, Cyclo) for c in got.coeffs)
    assert got.coeffs[0] == z and got.coeffs[1] == z * 240 + 1


# -- the exp recurrence ------------------------------------------------------

def _normal(x):
    return int(x) if Fraction(x).denominator == 1 else Fraction(x)


@st.composite
def units(draw):
    """[1, c_1, ..., c_{n-1}]: an int window or one of mixed denominators."""
    num = st.integers(-2 ** 40, 2 ** 40)
    if draw(st.booleans()):
        coeff = num
    else:
        coeff = st.builds(Fraction, num, st.sampled_from(DENOMINATORS)).map(_normal)
    return [1] + draw(st.lists(coeff, max_size=79))


@settings(max_examples=120, deadline=None)
@given(units(), st.sampled_from((0, 3, -7, Fraction(5, 24), Fraction(-1, 2))))
def test_exp_inverts_the_log_recurrence(c, h):
    n = len(c)
    l = log_derivative_coeffs(c, h, n)
    back = exp_coeffs(1, l, n)
    assert back == c
    assert _types(back) == _types(c)


def test_exp_ignores_the_order_term():
    # -24 sigma_1: the unit prod (1 - q^n)^24 of Delta
    l = [0, -24, -72, -96]
    want = [1, -24, 252, -1472]
    assert exp_coeffs(1, l, 4) == exp_coeffs(1, [Fraction(1, 3)] + l[1:], 4) == want
    assert exp_coeffs(5, l, 1) == [5]


# -- eta quotients -----------------------------------------------------------

def _binomial_series(r, a, bound):
    """{e: c} of (1 - q^a)^r for exponents e < bound."""
    out = {}
    for j in range(0, -(-bound // a)):
        c = (-1) ** j * math.comb(r, j) if r >= 0 else math.comb(-r + j - 1, j)
        if c:
            out[a * j] = c
    return out


def _reference_eta(exponents, prec):
    """(D, order, coeffs) of prod eta(m tau)^r with prec grid coefficients."""
    lead = Fraction(sum(m * r for m, r in exponents.items()), 24)
    D = lead.denominator
    bound = -(-prec // D)  # unit exponents e with e D < prec
    unit = {0: 1}
    for m, r in exponents.items():
        for k in range(1, bound):
            if m * k >= bound:
                break
            factor = _binomial_series(r, m * k, bound)
            prod = {}
            for e1, x in unit.items():
                for e2, y in factor.items():
                    if e1 + e2 < bound:
                        prod[e1 + e2] = prod.get(e1 + e2, 0) + x * y
            unit = prod
    coeffs = [0] * prec
    for e, c in unit.items():
        coeffs[e * D] = c
    return D, lead.numerator, tuple(coeffs)


@st.composite
def eta_specs(draw):
    level = draw(st.integers(1, 12))
    divisors = [m for m in range(1, level + 1) if level % m == 0]
    exps = {m: draw(st.integers(-24, 24)) for m in divisors}
    if draw(st.booleans()):
        # shift r_1 by the residue that makes the order sum m r / 24 integral
        shift = -sum(m * r for m, r in exps.items()) % 24
        exps[1] += shift if exps[1] + shift <= 24 else shift - 24
    return level, {m: r for m, r in exps.items() if r}


@settings(max_examples=120, deadline=None)
@given(eta_specs(), st.integers(1, 60))
def test_eta_quotient_matches_the_product_reference(spec, prec):
    level, exps = spec
    got = eta_quotient_qexp(EtaQuotientSpec.make(level, exps), prec)
    want = _reference_eta(exps, prec)
    assert _fields(got) == want
    assert _types(got.coeffs) == _types(want[2]) == [int] * prec


@pytest.mark.parametrize("level,exps", [
    (1, {1: 1}), (1, {1: -1}), (2, {1: 24, 2: -24}), (3, {1: 12, 3: -12}),
    (6, {1: 2, 2: 2, 3: 2, 6: 2}), (12, {1: -24, 12: 24}), (4, {}),
])
def test_named_eta_quotients_match_the_product_reference(level, exps):
    for prec in (1, 2, 23, 24, 25, 60):
        got = eta_quotient_qexp(EtaQuotientSpec.make(level, exps), prec)
        assert _fields(got) == _reference_eta(exps, prec)


def test_eta_quotients_take_no_series_product_or_reciprocal(monkeypatch):
    def refuse(*_):
        raise AssertionError("eta quotients are built by the exp recurrence")

    for name in ("__mul__", "__pow__", "reciprocal", "rescale_exponents"):
        monkeypatch.setattr(S, name, refuse)
    monkeypatch.setattr(forms, "euler_product", refuse)
    eta_quotient_qexp(EtaQuotientSpec.make(6, {1: 5, 2: -3, 6: 7}), 50)
    forms.hauptmodul_qexp(2, 40)
