"""The series product against an independent dict-based reference.

The reference stores a window as {exponent: coefficient} with exact
``Fraction`` exponents, multiplies term by term, keeps the exponents below
the product's knowledge bound min(cutoff_a + v_b, cutoff_b + v_a), and
normalises by hand: strip leading zeros, move to the coarsest grid that
holds every nonzero exponent, and store integral values as ``int``.  It
shares no code with ``PuiseuxSeries.__mul__`` or its Kronecker product.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from heckediv import series
from heckediv.cyclotomic import Cyclo
from heckediv.forms import eisenstein
from heckediv.series import KRONECKER_MIN_WIDTH, PuiseuxSeries as S


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
