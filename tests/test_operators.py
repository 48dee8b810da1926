from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from heckediv import algebra as A, forms as F, operators as O
from heckediv.cyclotomic import Cyclo
from heckediv.errors import HeckeDivError, UnsupportedParameter, UnsupportedWeightParity
from heckediv.series import PuiseuxSeries as S


def series_of(expr_img):
    return expr_img.atoms[0][0].series


# -- additive: the coefficient formula ----------------------------------------

def test_additive_formula_jn():
    img = O.hecke_additive_formula(F.j_shifted(30), 0, 2)
    assert img.agrees_with(F.jn(2, 12))
    assert img.coefficient(-2) == 1 and img.coefficient(0) == 72


def test_additive_formula_delta_eigenform():
    d = F.delta(24)
    img = O.hecke_additive_formula(d, 12, 2)
    # the normalized operator carries n^(1-k/2) = 2^-5: eigenvalue -24/32
    assert img.agrees_with(Fraction(-3, 4) * d)


def test_additive_formula_classical_normalization():
    d = F.delta(24)
    img = O.hecke_additive_formula(d, 12, 2, normalization="classical")
    assert img.agrees_with(-24 * d)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.sampled_from([4, 6, 8, 10, 12, 14]))
def test_additive_formula_level_n_eigenvalues(N, n, k):
    # for (n, N) = 1 the classical T(n) at level N has eigenvalue
    # sigma_{k-1}(n) on E_k and tau(n) on Delta (k = 12 draws Delta)
    assume(gcd(n, N) == 1)
    prec = 10 * n + 10
    f = F.delta(prec) if k == 12 else F.eisenstein(k, prec)
    eigenvalue = f.coefficient(n) if k == 12 else F.sigma(k - 1, n)
    img = O.hecke_additive_formula(f, k, n, "classical", N)
    assert img.cutoff >= 10
    assert img.agrees_with(eigenvalue * f)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("k", [4, 6])
def test_up_of_eisenstein_at_level_p_is_not_the_level_one_eigenvalue(p, k):
    # negative control: at p | N the formula is U_p, which keeps E_k's
    # constant term, so sigma_{k-1}(p) E_k is not its image
    f = F.eisenstein(k, 10 * p + 10)
    img = O.hecke_additive_formula(f, k, p, "classical", p)
    assert img.coefficient(0) == 1
    assert not img.agrees_with(F.sigma(k - 1, p) * f)


def test_additive_formula_constant_eigenvalue():
    for p in (2, 3, 5):
        img = O.hecke_additive_formula(S.one(8), 0, p)
        assert img.coefficient(0) == p + 1


def test_additive_formula_rejects_odd_weight():
    with pytest.raises(UnsupportedWeightParity):
        O.hecke_additive_formula(F.delta(8), 11, 2)


def test_additive_cross_oracle():
    # the coset route and the coefficient formula agree on their common domain
    for n in range(2, 7):
        f = F.j_shifted(14 * n)
        a = O.hecke_additive_formula(f, 0, n)
        b = O.hecke_additive_cosets(f, 0, n, 1)
        assert a.agrees_with(b)
    e6 = F.eisenstein(6, 40)
    assert O.hecke_additive_formula(e6, 6, 3).agrees_with(
        O.hecke_additive_cosets(e6, 6, 3, 1))


def test_additive_cosets_identity():
    f = F.eisenstein(4, 10)
    assert O.hecke_additive_cosets(f, 4, 1, 1).agrees_with(f)


def test_additive_cosets_rejects_odd_weight():
    with pytest.raises(UnsupportedWeightParity):
        O.hecke_additive_cosets(F.delta(8), 11, 2, 1)


def test_additive_cosets_detects_non_modular_input():
    # integral inputs always project (the full twist periods cancel), but a
    # fractional-grid series inconsistent with level-1 modularity leaves
    # exponent-1/4 content behind and the integrality certificate fires
    from heckediv.errors import NotIntegralSeries
    junk = S(2, 0, [1, 1, 3, -2, 5, 1])  # 1 + q^(1/2) + 3q + ...
    with pytest.raises(NotIntegralSeries):
        O.hecke_additive_cosets(junk, 0, 2, 1)


def test_additive_cosets_level2_hauptmodul():
    # U_2-type action at p | N: coefficient of q^M is 2 c(2M)
    t = F.eta_quotient_qexp(F.hauptmodul_spec(2), 30)
    img = O.hecke_additive_cosets(t, 0, 2, 2)
    for M in range(-1, 10):
        assert img.coefficient(M) == 2 * t.coefficient(2 * M)


# -- additive at level N: the formula against the coset oracle ---------------

def _eta(level, exps):
    return F.FormExpression.of(F.EtaQuotient(F.EtaQuotientSpec.make(level, exps)))


# integral expansions with their weights and levels, negative weight included
ADDITIVE_FORMS = {
    "E4": (F.FormExpression.of(F.Eisenstein(4)), 4),
    "Delta": (F.FormExpression.of(F.DeltaShift(1)), 12),
    "j-1728": (F.FormExpression.of(F.JMinus(Fraction(1728))), 0),
    "E4/Delta": (F.FormExpression.of(F.Eisenstein(4), (F.DeltaShift(1), -1)), -8),
    "t2": (_eta(2, {1: 24, 2: -24}), 0),
    "(eta1 eta3)^6": (_eta(3, {1: 6, 3: 6}), 6),
    "eta(2t)^12": (_eta(4, {2: 12}), 6),
    "(eta1 eta2 eta3 eta6)^2": (_eta(6, {1: 2, 2: 2, 3: 2, 6: 2}), 4),
}
LEVEL_CASES = [(name, N) for name, (f, _) in ADDITIVE_FORMS.items()
               for N in range(1, 7) if N % f.level == 0]


def additive_outcome(fn, *args):
    try:
        s = fn(*args)
    except HeckeDivError as exc:
        return type(exc)
    s = s.atoms[0][0].series if isinstance(s, F.FormExpression) else s
    return s.D, s.order, [(type(c), c) for c in s.coeffs]


@pytest.mark.parametrize("name,N", LEVEL_CASES)
def test_additive_formula_matches_the_cosets_at_every_level(name, N):
    # bit for bit, types and window included, at p | N (U_p) and with the
    # same refusal of a composite n sharing a factor with N
    f, k = ADDITIVE_FORMS[name]
    for width in (3, 10, 40):
        s = f.qexp(width)
        for n in range(1, 6):
            want = additive_outcome(O.hecke_additive_cosets, s, k, n, N)
            assert additive_outcome(O.hecke_additive_formula, s, k, n, "normalized", N) == want
            if isinstance(want, tuple):
                classical = O.hecke_additive_cosets(s, k, n, N) * Fraction(n) ** (k // 2 - 1)
                want = additive_outcome(lambda: classical)
            assert additive_outcome(O.hecke_additive_formula, s, k, n, "classical", N) == want


def test_additive_formula_is_u_p_at_p_dividing_the_level():
    t = F.eta_quotient_qexp(F.hauptmodul_spec(2), 30)
    img = O.hecke_additive_formula(t, 0, 2, "classical", 2)
    assert [img.coefficient(M) for M in range(-1, 14)] == \
        [t.coefficient(2 * M) for M in range(-1, 14)]
    with pytest.raises(UnsupportedParameter):
        O.hecke_additive_formula(t, 0, 4, "classical", 2)


def test_additive_formula_refuses_inputs_off_the_rational_grid():
    # the same refusal at every level: the coset route answered
    # NotIntegralSeries at level 3 for the fractional grid
    eta8 = F.expression_by_name("eta:3:1=8").qexp(24)
    for N in (1, 3):
        with pytest.raises(UnsupportedParameter):
            O.hecke_additive_formula(eta8, 4, 2, "normalized", N)
    with pytest.raises(UnsupportedParameter):
        e4 = F.eisenstein(4, 10)
        O.hecke_additive_formula(S(e4.D, e4.order, [Cyclo.zeta(3) * c for c in e4.coeffs]), 4, 2)


def slash_sum_over_double_cosets(f, u, prec):
    """The additive image of u by the slash sum over the representatives
    of each double coset, over Q(zeta_d), with apply_element's budget."""
    k = f.weight
    if not u.terms:
        raise UnsupportedParameter("empty element")
    series = f.qexp(max(a * d for (a, d), _ in u.terms) * prec + 8)
    if k % 2:
        raise UnsupportedWeightParity(f"odd weight {k}")
    total = None
    for (a, d), mult in u.terms:
        for rep in A.double_coset_reps(a, d, u.N):
            term = O._slash_upper(series, rep, k) * mult
            total = term if total is None else total + term
    return O._certified(total)


def test_cancelled_pairs_still_bound_the_additive_window():
    # T(2, 8) acts as T(1, 4): its pairs cancel those of T(1, 4), yet the
    # translates q^(M/4) of both still end the slash sum's window
    e4 = F.FormExpression.of(F.Eisenstein(4))
    for terms in ({(1, 4): 1, (2, 8): -1}, {(1, 4): 1, (2, 8): -1, (1, 2): 1}):
        u = A.AlgebraElement.make(1, terms)
        got = additive_outcome(O.apply_element, e4, u, "additive", 5)
        assert got == additive_outcome(slash_sum_over_double_cosets, e4, u, 5)


@st.composite
def level_elements(draw):
    name, N = draw(st.sampled_from(LEVEL_CASES))
    a_choices = [a for a in (1, 2, 3) if gcd(a, N) == 1]
    label = st.sampled_from(a_choices).flatmap(
        lambda a: st.integers(1, 4 if a == 1 else 2).map(lambda m: (a, a * m)))
    terms = draw(st.dictionaries(label, st.integers(-2, 2).filter(bool), min_size=1, max_size=3))
    return name, A.AlgebraElement.make(N, terms)


@settings(max_examples=30, deadline=None)
@given(case=level_elements(), prec=st.integers(1, 4))
def test_apply_element_additive_matches_the_double_coset_slash_sum(case, prec):
    # pairs that cancel between terms still bound the window, as in the
    # slash sum; T(a, a) acts as the identity
    name, u = case
    f, _ = ADDITIVE_FORMS[name]
    got = additive_outcome(O.apply_element, f, u, "additive", prec)
    assert got == additive_outcome(slash_sum_over_double_cosets, f, u, prec)


# -- multiplicative -----------------------------------------------------------

def test_e4_mult_t2_known_identity():
    e4 = F.FormExpression.of(F.Eisenstein(4))
    img = O.hecke_multiplicative(e4, 2, 1, prec=33)
    rhs = F.eisenstein(12, 34) - Fraction(36882000, 691) * F.delta(34)
    assert series_of(img).equal_through(rhs, 30)
    assert img.weight == 12


def test_e4_mult_t3_known_identity():
    e4 = F.FormExpression.of(F.Eisenstein(4))
    img = O.hecke_multiplicative(e4, 3, 1, prec=33)
    rhs = F.eisenstein(16, 34) + Fraction(44449152000, 3617) * (
        F.eisenstein(4, 34) * F.delta(34))
    assert series_of(img).equal_through(rhs, 30)
    assert img.weight == 16


def test_level2_hauptmodul_shift_identity():
    spec = F.hauptmodul_spec(2)
    f = F.FormExpression.of((F.EtaQuotient(spec), 1), shift=-512)
    img = O.hecke_multiplicative(f, 2, 2, prec=34)
    t = F.eta_quotient_qexp(spec, 40)
    rhs = -t + 286720 + 2097152 * t.reciprocal()
    assert series_of(img).equal_through(rhs, 30)
    assert img.weight == 0


def test_mult_rejects_composite_sharing_level():
    e4 = F.FormExpression.of(F.Eisenstein(4))
    with pytest.raises(UnsupportedParameter):
        O.hecke_multiplicative(e4, 4, 2, prec=8)


def test_weight_and_order_bookkeeping():
    delta = F.FormExpression.of(F.DeltaShift(1))
    for n in (2, 3, 4):
        img = O.hecke_multiplicative(delta, n, 1, prec=10)
        s = series_of(img)
        assert img.weight == 12 * F.sigma(1, n)
        assert s.leading_exponent() == F.sigma(1, n)


def test_multiplicativity_in_f():
    pairs = [(F.Eisenstein(4), F.Eisenstein(6)),
             (F.Eisenstein(4), F.DeltaShift(1)),
             (F.Eisenstein(6), F.DeltaShift(1))]
    for n in (2, 3):
        for a, b in pairs:
            fa = F.FormExpression.of(a)
            fb = F.FormExpression.of(b)
            fab = F.FormExpression.of(a, b)
            lhs = series_of(O.hecke_multiplicative(fab, n, 1, prec=14))
            rhs = series_of(O.hecke_multiplicative(fa, n, 1, prec=16)) * \
                series_of(O.hecke_multiplicative(fb, n, 1, prec=16))
            assert lhs.agrees_with(rhs, through=10)


def test_representation_law_t2_t2():
    # (f|*T(2))|*T(2) = f|*(T(2) T(2)) through the algebra product
    delta = F.FormExpression.of(F.DeltaShift(1))
    once = O.hecke_multiplicative(delta, 2, 1, prec=40)
    twice = series_of(O.hecke_multiplicative(once, 2, 1, prec=26))
    via_algebra = series_of(O.apply_element(
        delta, A.algebra_multiply(A.t_n(2, 1), A.t_n(2, 1)), "multiplicative", prec=26))
    assert twice.agrees_with(via_algebra, through=24)


def test_composition_formula():
    # f|*T(m)T(n) = prod_{d | (m,n)} (f|*T(mn/d^2))^d
    delta = F.FormExpression.of(F.DeltaShift(1))
    cases = {(2, 2): [(4, 1), (1, 2)], (2, 3): [(6, 1)], (4, 2): [(8, 1), (2, 2)]}
    for (m, n), factors in cases.items():
        lhs = series_of(O.apply_element(
            delta, A.algebra_multiply(A.t_n(m, 1), A.t_n(n, 1)),
            "multiplicative", prec=20))
        rhs = None
        for arg, exp in factors:
            piece = series_of(O.hecke_multiplicative(delta, arg, 1, prec=24)) ** exp
            rhs = piece if rhs is None else rhs * piece
        assert lhs.agrees_with(rhs, through=16), (m, n)


def test_scalar_cosets_fix_forms():
    e4 = F.FormExpression.of(F.Eisenstein(4))
    for q in (3, 5):
        img = O.apply_element(e4, A.t_ad(q, q, 1), "multiplicative", prec=12)
        assert series_of(img).agrees_with(F.eisenstein(4, 12))
        add = O.apply_element(e4, A.t_ad(q, q, 1), "additive", prec=12)
        assert series_of(add).agrees_with(F.eisenstein(4, 12))


def test_apply_element_additive_linearity():
    e4 = F.FormExpression.of(F.Eisenstein(4))
    u, v = A.t_n(2, 1), A.t_n(3, 1)
    lhs = series_of(O.apply_element(e4, u + v, "additive", prec=10))
    rhs = series_of(O.apply_element(e4, u, "additive", prec=10)) + \
        series_of(O.apply_element(e4, v, "additive", prec=10))
    assert lhs.agrees_with(rhs, through=8)


def test_apply_element_additive_rejects_odd_weight():
    # eta(tau) eta(23 tau) has weight 1; the slash-sum route of
    # hecke_additive_cosets refuses it, and so must apply_element
    f = F.FormExpression.of(F.EtaQuotient(F.EtaQuotientSpec.make(23, {1: 1, 23: 1})))
    assert f.weight == 1
    with pytest.raises(UnsupportedWeightParity):
        O.apply_element(f, A.t_n(2, 23), "additive", prec=8)
    with pytest.raises(UnsupportedWeightParity):
        O.hecke_additive_cosets(f.qexp(24), 1, 2, 23)


def test_apply_element_empty_element():
    # the empty element sums no slashes, so there is no additive image with
    # a precision to state; multiplicatively it is the empty product
    e4 = F.FormExpression.of(F.Eisenstein(4))
    empty = A.AlgebraElement.make(1, {})
    with pytest.raises(UnsupportedParameter):
        O.apply_element(e4, empty, "additive", prec=10)
    one = O.apply_element(e4, empty, "multiplicative", prec=10)
    assert one.weight == 0
    assert series_of(one) == S(1, 0, [1] + [0] * 13)


def test_theta_pairing_equivariance_coefficients():
    # Coeff_q^m of Theta(f|*T(p))/(f|*T(p)) = Coeff_q^pm + p Coeff_q^(m/p);
    # the rational route is built on this identity, so the image comes
    # from the coset product
    e4 = F.FormExpression.of(F.Eisenstein(4))
    base = F.eisenstein(4, 40).log_derivative()
    for p in (2, 3):
        img = series_of(O.hecke_multiplicative_cosets(e4, p, 1, prec=20))
        ld = img.log_derivative()
        for m in (1, 2, 3):
            rhs = Fraction(base.coefficient(p * m))
            if m % p == 0:
                rhs += p * Fraction(base.coefficient(m // p))
            assert Fraction(ld.coefficient(m)) == rhs
