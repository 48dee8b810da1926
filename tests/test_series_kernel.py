"""The series kernels against independent references.

The product reference stores a window as {exponent: coefficient} with
exact ``Fraction`` exponents, multiplies term by term, keeps the exponents
below the product's knowledge bound min(cutoff_a + v_b, cutoff_b + v_a),
and normalises by hand: strip leading zeros, move to the coarsest grid
that holds every nonzero exponent and the bound, and store integral
values as ``int``.
It shares no code with ``PuiseuxSeries.__mul__`` or its Kronecker product.

Products are also checked for the ring laws on narrow and wide windows:
associative and commutative exactly, unital and distributive where both
sides are known.

Sums, reciprocals and powers are checked against the same dict terms:
sums term by term below the smaller knowledge bound, reciprocals by the
geometric series sum_j t^j of 1/(1 - t), powers as successive reference
products, each with the order, grid, cutoff, values and coefficient types
of the result.  The triangular solve x = b/a is checked as b times that
reference reciprocal, and the reciprocal also against the schoolbook loop
it replaced.

The solve and both recurrences keep the values and types of the loops they
replaced (kept here as the labelled reference), from scratch and resumed.
The exp recurrence is checked as the inverse of the log recurrence, both
recurrences and the solve resumed from a prefix against one pass, and the eta
quotients the exp recurrence builds against the product
prod (1 - q^(m n))^r expanded factor by factor with binomial series in a
dict.
"""

import math
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from heckediv import forms
from heckediv.cyclotomic import Cyclo
from heckediv.errors import NonUnitLeading
from heckediv.forms import EtaQuotientSpec, eisenstein, eta_quotient_qexp
from heckediv.series import PuiseuxSeries as S
from heckediv.series import exp_coeffs, log_derivative_coeffs, solve_coeffs


def _terms(s):
    return {Fraction(s.order + i, s.D): c for i, c in enumerate(s.coeffs)}


def _dict_product(x, y, bound):
    """{e: c} of the product of two term dicts below the exponent `bound`."""
    prod = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            if e1 + e2 < bound:
                prod[e1 + e2] = prod.get(e1 + e2, 0) + c1 * c2
    return prod


def _reference_product(a, b):
    """(D, order, coeffs) of a * b, computed from the terms of a and b."""
    bound = min(Fraction(a.cutoff, a.D) + Fraction(b.order, b.D),
                Fraction(b.cutoff, b.D) + Fraction(a.order, a.D))
    return _normalised(_dict_product(_terms(a), _terms(b), bound), bound)


def _normalised(terms, bound):
    """(D, order, coeffs) of the series whose {exponent: coefficient} terms
    are known below the exponent `bound`: leading zeros stripped, on the
    coarsest grid that holds every nonzero exponent and `bound`, integral
    values as int."""
    nonzero = {e: c for e, c in terms.items() if isinstance(c, Cyclo) or c != 0}
    D = math.lcm(bound.denominator, *[e.denominator for e in nonzero])
    cutoff = int(bound * D)
    if not nonzero:
        return D, cutoff, ()
    order = int(min(nonzero) * D)
    coeffs = []
    for n in range(order, cutoff):
        c = nonzero.get(Fraction(n, D), 0)
        if not isinstance(c, Cyclo) and Fraction(c).denominator == 1:
            c = int(c)
        coeffs.append(c)
    return D, order, tuple(coeffs)


def _reference_sum(a, b):
    """(D, order, coeffs) of a + b: the terms of both, known below the
    smaller of the two knowledge bounds."""
    bound = min(Fraction(a.cutoff, a.D), Fraction(b.cutoff, b.D))
    total = {}
    for e, c in list(_terms(a).items()) + list(_terms(b).items()):
        if e < bound:
            total[e] = total.get(e, 0) + c
    return _normalised(total, bound)


def _reference_scalar_sum(a, c):
    """(D, order, coeffs) of a + c for a rational c, which knows every
    coefficient: c joins the constant term when a knows it."""
    bound = Fraction(a.cutoff, a.D)
    if not c or bound <= 0:
        return _fields(a)
    terms = _terms(a)
    terms[Fraction(0)] = terms.get(Fraction(0), 0) + c
    return _normalised(terms, bound)


def _reference_reciprocal(a):
    """(D, order, coeffs) of 1/a for a = a_0 q^v (1 - t), by the geometric
    series a_0^-1 q^-v sum_j t^j in dict products; it knows as many grid
    coefficients as a does."""
    terms = _terms(a)
    v = Fraction(a.order, a.D)
    a0 = Fraction(terms[v])
    width = Fraction(a.cutoff, a.D) - v
    t = {e - v: -c / a0 for e, c in terms.items() if e != v and c}
    total, power = {Fraction(0): Fraction(1)}, {Fraction(0): Fraction(1)}
    while power:
        power = _dict_product(power, t, width)
        for e, c in power.items():
            total[e] = total.get(e, 0) + c
    return _normalised({e - v: c / a0 for e, c in total.items()}, width - v)


def _reference_power(a, k):
    """(D, order, coeffs) of a^k: 1 known to max(precision, 1) integral
    exponents for k = 0, else |k| - 1 successive reference products of
    a (or of the reference reciprocal for k < 0)."""
    if k == 0:
        return _normalised({Fraction(0): 1}, max(a.precision, 1))
    base = S(*_reference_reciprocal(a)) if k < 0 else a
    out = base
    for _ in range(abs(k) - 1):
        out = S(*_reference_product(out, base))
    return _fields(out)


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
def windows(draw, max_size=64, heights=(3, 64, 2000)):
    bits = draw(st.sampled_from(heights))
    big = 2 ** bits
    num = st.one_of(st.just(0), st.integers(-big, big))
    if draw(st.booleans()):
        coeff = num
    else:
        coeff = st.builds(Fraction, num, st.sampled_from(DENOMINATORS))
    coeffs = draw(st.lists(coeff, min_size=1, max_size=max_size))
    D = draw(st.sampled_from((1, 1, 2, 3, 6)))
    order = draw(st.integers(-40, 40))
    return S(D, order, coeffs)


@settings(max_examples=150, deadline=None)
@given(windows(), windows())
def test_product_matches_the_dict_reference(a, b):
    _assert_product(a, b)


@pytest.mark.parametrize("n", [1, 2, 15, 16, 64])
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


@settings(max_examples=100, deadline=None)
@given(windows(max_size=20), windows(max_size=20), windows(max_size=20))
def test_products_are_associative_commutative_and_unital(a, b, c):
    # both groupings know the exponents below the same bound
    # min(cutoff_a + v_b + v_c, ...), so they agree as stored series
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert (a * S.one(len(b.coeffs))).agrees_with(a)


@settings(max_examples=100, deadline=None)
@given(windows(max_size=20), windows(max_size=20), windows(max_size=20))
def test_products_distribute_over_sums(a, b, c):
    # a (b + c) and a b + a c may know different windows: compare where
    # both are known
    assert (a * (b + c)).agrees_with(a * b + a * c)
    assert ((b + c) * a).agrees_with(b * a + c * a)


def test_a_cyclo_operand_sums_and_scales():
    # the additive coset oracle adds twisted translates and scales them by
    # the automorphy factor; the kernel multiplies no Cyclo window.  In a
    # sum every slot with a Cyclo term holds a Cyclo and the others stay
    # int; a zero scalar leaves the zero series with the cutoff kept
    z = Cyclo.zeta(3, 1)
    a = S(1, 0, [z] + [1] * 39)
    got = a + eisenstein(4, 40)
    assert _fields(got) == _reference_sum(a, eisenstein(4, 40))
    assert isinstance(got.coeffs[0], Cyclo) and got.coeffs[0] == z + 1
    assert all(type(c) is int for c in got.coeffs[1:])
    half = a * Fraction(1, 2)
    assert half.coeffs == (z * Fraction(1, 2),) + (Fraction(1, 2),) * 39
    assert isinstance(half.coeffs[0], Cyclo)
    assert a * 0 == S(1, 40, [])


# -- sums, reciprocals and powers ---------------------------------------------

def _assert_fields(got, want):
    assert _fields(got) == want
    assert got.cutoff == want[1] + len(want[2])
    assert _types(got.coeffs) == _types(want[2])


SCALARS = st.one_of(st.integers(-2 ** 70, 2 ** 70),
                    st.builds(Fraction, st.integers(-99, 99), st.sampled_from(DENOMINATORS)))


@settings(max_examples=150, deadline=None)
@given(windows(), windows())
def test_sum_matches_the_dict_reference(a, b):
    want = _reference_sum(a, b)
    _assert_fields(a + b, want)
    _assert_fields(b + a, want)


@settings(max_examples=100, deadline=None)
@given(windows(), SCALARS)
def test_scalar_sum_matches_the_dict_reference(a, c):
    want = _reference_scalar_sum(a, c)
    _assert_fields(a + c, want)
    _assert_fields(c + a, want)


def test_sums_that_cancel_keep_the_smaller_knowledge_bound():
    a = S(2, -3, [Fraction(1, 3), 0, 4, 5])
    _assert_fields(a - a, _reference_sum(a, -a))
    _assert_fields(a + (-a).truncate(0), _reference_sum(a, (-a).truncate(0)))
    _assert_fields(S(1, 4, []) + a, _reference_sum(S(1, 4, []), a))
    # a constant beyond the knowledge bound leaves the window alone
    _assert_fields(S(1, -5, [2, 3]) + 7, _fields(S(1, -5, [2, 3])))


@settings(max_examples=120, deadline=None)
@given(windows(max_size=20, heights=(3, 64)))
def test_reciprocal_matches_the_geometric_series(a):
    if a.is_zero():
        with pytest.raises(NonUnitLeading):
            a.reciprocal()
        return
    _assert_fields(a.reciprocal(), _reference_reciprocal(a))


def _loop_reciprocal(a):
    """(D, order, coeffs) of 1/a by the schoolbook loop the kernel used
    before the triangular solve, skipping zero terms."""
    c = a.coeffs
    inv0 = Fraction(1) / c[0]
    out = [inv0] + [0] * (len(c) - 1)
    for k in range(1, len(c)):
        s = 0
        for i in range(1, k + 1):
            if c[i] and out[k - i]:
                s = s + c[i] * out[k - i]
        out[k] = -inv0 * s if s else 0
    return _fields(S(a.D, -a.order, out))


@settings(max_examples=120, deadline=None)
@given(windows())
def test_reciprocal_equals_the_schoolbook_loop(a):
    if not a.is_zero():
        _assert_fields(a.reciprocal(), _loop_reciprocal(a))


@settings(max_examples=120, deadline=None)
@given(windows(max_size=20, heights=(3, 64)), st.data())
def test_solve_is_b_times_the_reference_reciprocal(a, data):
    if a.is_zero():
        return
    n = len(a.coeffs)
    num = st.integers(-2 ** 64, 2 ** 64)
    coeff = st.one_of(st.just(0), num, st.builds(Fraction, num, st.sampled_from(DENOMINATORS)))
    b = data.draw(st.lists(coeff, min_size=n, max_size=n))
    want = S(*_reference_product(S(1, 0, b), S(*_reference_reciprocal(S(1, 0, a.coeffs)))))
    want = [want.coefficient(e) for e in range(n)]
    got = solve_coeffs(a.coeffs, b, n)
    assert got == want
    assert _types(got) == _types(want)
    p = data.draw(st.integers(1, n))
    earlier = solve_coeffs(a.coeffs[:p], b[:p], p)
    assert earlier == got[:p]
    assert solve_coeffs(a.coeffs, b, n, tuple(earlier)) == got


# Reference: the three kernels as they were before two ints were divided by
# one divmod.  The loops are those of solve_coeffs, log_derivative_coeffs
# and exp_coeffs; the division tests two ints for an int quotient, and
# divides anything else as Fractions.

def _reference_div(x, y):
    if type(x) is int and type(y) is int and x % y == 0:
        return x // y
    q = Fraction(x) / y
    return q.numerator if q.denominator == 1 else q


def _reference_solve(a, b, n, prefix=()):
    x = list(prefix)
    for m in range(len(x), n):
        x.append(_reference_div(b[m] - sum(map(mul, a[1:m + 1], reversed(x))), a[0]))
    return x


def _reference_log(c, h, n, prefix=()):
    return _reference_solve(c, [(h + m) * c[m] for m in range(n)], n, prefix)


def _reference_exp(c0, l, n, prefix=()):
    c = list(prefix) or [c0]
    for m in range(len(c), n):
        c.append(_reference_div(sum(map(mul, l[1:m + 1], reversed(c))), m))
    return c


def _reduced(coeffs):
    """Each value an int where it is integral, else a Fraction that is not."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in coeffs)


# ints and Fractions, integral ones among them (Fraction(4, 1) is drawn as is)
KERNEL_VALUES = st.one_of(st.integers(-10 ** 30, 10 ** 30),
                          st.fractions(max_denominator=12).map(lambda x: x * 7))
LEADS = st.sampled_from((1, -1, 3, Fraction(2, 5)))


@settings(max_examples=150, deadline=None)
@given(a0=LEADS, rest=st.lists(KERNEL_VALUES, max_size=24), data=st.data())
def test_kernels_keep_the_values_and_types_of_the_reference_loops(a0, rest, data):
    a = [a0] + rest
    n = len(a)
    b = data.draw(st.lists(KERNEL_VALUES, min_size=n, max_size=n))
    h = data.draw(st.one_of(st.integers(-5, 5), st.sampled_from((Fraction(1, 2), Fraction(-7, 3)))))
    p = data.draw(st.integers(0, n))
    cases = [(solve_coeffs, _reference_solve, (a, b)),
             (log_derivative_coeffs, _reference_log, (a, h)),
             (exp_coeffs, _reference_exp, (a0, b))]
    for kernel, reference, args in cases:
        want = reference(*args, n)
        for got in (kernel(*args, n), kernel(*args, n, tuple(kernel(*args, p)))):
            assert [(type(x), x) for x in got] == [(type(x), x) for x in want], kernel
        assert _reduced(want), kernel


@settings(max_examples=120, deadline=None)
@given(windows(max_size=12, heights=(3, 64)), st.integers(-3, 4))
def test_power_matches_the_dict_reference(a, k):
    if a.is_zero() and k < 0:
        with pytest.raises(NonUnitLeading):
            a ** k
        return
    _assert_fields(a ** k, _reference_power(a, k))


# -- the log-derivative -------------------------------------------------------

@st.composite
def log_windows(draw):
    """Rational windows on the grids D in {1, 2, 3, 24} at orders of either
    sign, led by a coefficient other than 0 and +-1, with int or Fraction
    entries."""
    num = st.integers(-2 ** 40, 2 ** 40)
    coeff = st.one_of(num, st.builds(Fraction, num, st.sampled_from(DENOMINATORS)))
    lead = draw(coeff.filter(lambda c: c not in (0, 1, -1)))
    D = draw(st.sampled_from((1, 2, 3, 24)))
    return S(D, draw(st.integers(-60, 60)), [lead] + draw(st.lists(coeff, max_size=40)))


@settings(max_examples=150, deadline=None)
@given(log_windows())
def test_log_derivative_is_theta_times_the_reciprocal(a):
    # the oracle divides by the series; the route under test is the log
    # recurrence over the window, values divided by D
    _assert_fields(a.log_derivative(), _fields(a.theta() * a.reciprocal()))


def test_log_derivative_inverts_no_series(monkeypatch):
    def refuse(*_):
        raise AssertionError("the log-derivative runs the log recurrence")

    monkeypatch.setattr(S, "reciprocal", refuse)
    monkeypatch.setattr(S, "__truediv__", refuse)
    ld = S(24, -5, [3, 0, Fraction(1, 7), 0, 0, 2]).log_derivative()
    assert (ld.D, ld.order) == (24, 0)
    # 3 L_2 + (1/7)(-5) = (-5 + 2)(1/7) in grid units, so L_2 = 2/21
    assert ld.coeffs[:3] == (Fraction(-5, 24), 0, Fraction(1, 252))
    e4 = eisenstein(4, 8).log_derivative()
    assert (e4.order, e4.coeffs[:3]) == (1, (240, -53280, 12288960))
    with pytest.raises(NonUnitLeading):
        S(1, 3, []).log_derivative()


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


@settings(max_examples=120, deadline=None)
@given(units(), st.sampled_from((0, 3, -7, Fraction(5, 24), Fraction(-1, 2))), st.data())
def test_the_log_recurrence_resumes_from_a_prefix(c, h, data):
    n = len(c)
    whole = log_derivative_coeffs(c, h, n)
    p = data.draw(st.integers(1, n))
    # the prefix an earlier, shorter call returned, as a list and a tuple
    earlier = log_derivative_coeffs(c[:p], h, p)
    assert earlier == whole[:p]
    for prefix in (earlier, tuple(earlier)):
        got = log_derivative_coeffs(c, h, n, prefix)
        assert got == whole
        assert _types(got) == _types(whole)
    assert earlier == whole[:p]  # the prefix is read, never extended in place
    # the exp recurrence, resumed from the unit's first p coefficients
    for prefix in (c[:p], tuple(c[:p])):
        got = exp_coeffs(1, whole, n, prefix)
        assert got == c
        assert _types(got) == _types(c)


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
    eta_quotient_qexp(forms.hauptmodul_spec(2), 40)
