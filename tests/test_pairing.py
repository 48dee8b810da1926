import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from heckediv import curve as C, forms as F, niebur as NB, operators as O, pairing as P
from heckediv.curve import HeegnerPoint as H, OMEGA, POINT_I
from heckediv.errors import (MissingCuspValue, NotIntegralSeries, PrecisionExhausted,
                             UnknownDivisor, UnsupportedParameter)
from heckediv.niebur import EvalParams
from heckediv.series import PuiseuxSeries as S

E4 = F.FormExpression.of(F.Eisenstein(4))
E6 = F.FormExpression.of(F.Eisenstein(6))
DELTA = F.FormExpression.of(F.DeltaShift(1))
JM1728 = F.FormExpression.of(F.JMinus(Fraction(1728)))


def jn_evaluator(n: int, digits: int = 50) -> P.PointEvaluator:
    """Oracle: j_n on X_0(1) summed from its q-series at each point
    (``niebur.jn_value``), with the cusp value 24 sigma_1(n) at infinity.
    The library pairs against j_n exactly on the j-line instead."""
    inf = C.canonical_cusp(1, 0, 1)
    return P.PointEvaluator(
        interior=lambda z: NB.jn_value(n, z, digits),
        cusp_values={inf: 24 * F.sigma(1, n)},
        name=f"j_{n}",
    )


def test_pair_e4_against_j1():
    res = P.bko_pairing(1, E4)
    assert abs(res.value + 240) < mpmath.mpf(10) ** -25
    # breakdown: a single interior point with coefficient 1/3, at which
    # j_1 = j - 720 = -720 exactly
    assert len(res.breakdown) == 1
    assert res.breakdown[0][1] == Fraction(1, 3)
    assert res.breakdown[0][2] == -720 and not res.exact


def test_pair_constant_evaluator_gives_degree():
    inf = C.canonical_cusp(1, 0, 1)
    one = P.PointEvaluator(interior=lambda z: 1, cusp_values={inf: 1}, name="1")
    D = (C.point_divisor(1, POINT_I, Fraction(5, 7))
         + C.cusp_divisor(1, 1, 0, Fraction(-2, 7)))
    res = P.pair(one, D)
    assert abs(res.value - float(D.degree)) < 1e-12


def test_pair_missing_cusp_value():
    bare = P.PointEvaluator(interior=lambda z: 0, cusp_values={}, name="bare")
    with pytest.raises(MissingCuspValue):
        P.pair(bare, C.cusp_divisor(1, 1, 0, 1))


def _z_double(z):
    return z.approx()


def _z_mp(z):
    """z at the ambient mpmath precision."""
    return mpmath.mpc(-z.B, mpmath.sqrt(-z.discriminant)) / (2 * z.A)


def _mp_sum(terms):
    """sum c v over (c, v) with c a Fraction, at the ambient mpmath precision."""
    return sum((mpmath.mpf(c.numerator) / c.denominator * mpmath.mpc(v) for c, v in terms),
               mpmath.mpc(0))


def test_pair_sums_in_the_arithmetic_of_the_values():
    inf = C.canonical_cusp(1, 0, 1)
    D = (C.point_divisor(1, POINT_I, Fraction(5, 7)) + C.point_divisor(1, OMEGA, Fraction(1, 3))
         + C.cusp_divisor(1, 1, 0, Fraction(2, 3)))
    # int values: an exact Fraction, the breakdown holding the ints
    res = P.pair(P.PointEvaluator(lambda z: z.discriminant, {inf: 3}), D)
    assert res.exact and res.value == Fraction(-13, 7) and type(res.value) is Fraction
    assert sorted(type(v).__name__ for _, _, v in res.breakdown) == ["int"] * 3
    # doubles: a complex, within a few ulps of the sum at 30 digits
    res = P.pair(P.PointEvaluator(_z_double, {inf: 1 + 1j}), D)
    assert type(res.value) is complex and not res.exact
    with mpmath.workdps(30):
        want = _mp_sum([(Fraction(5, 7), _z_mp(POINT_I)), (Fraction(1, 3), _z_mp(OMEGA)),
                        (Fraction(2, 3), 1 + 1j)])
        assert abs(res.value - complex(want)) <= 1e-15 * abs(want)
    # mpmath values: an mpc at the ambient precision
    with mpmath.workdps(60):
        res = P.pair(P.PointEvaluator(_z_mp, {inf: mpmath.mpc(1, 1)}), D)
        assert isinstance(res.value, mpmath.mpc) and not res.exact
        want = _mp_sum([(Fraction(5, 7), _z_mp(POINT_I)), (Fraction(1, 3), _z_mp(OMEGA)),
                        (Fraction(2, 3), 1 + 1j)])
        assert abs(res.value - want) < mpmath.mpf(10) ** -55


def test_hecke_image_evaluator_sums_in_the_arithmetic_of_the_values():
    from heckediv.algebra import left_coset_reps
    inf = C.canonical_cusp(1, 0, 1)
    z = H(1, 1, 2)  # (-1 + sqrt(-7))/2
    images = [C.act_matrix(m, z) for m in left_coset_reps(1, 3)]
    ints = P.hecke_image_evaluator(P.PointEvaluator(lambda w: w.A, {inf: 2}), 3, 1)
    assert ints.interior(z) == sum(w.A for w in images) and type(ints.interior(z)) is int
    assert ints.cusp_values == {inf: 8}  # T(3) has four cosets, each fixing infinity
    assert P.pair(ints, C.point_divisor(1, z, Fraction(1, 2))).exact
    doubles = P.hecke_image_evaluator(P.PointEvaluator(_z_double, {}), 3, 1)
    assert type(doubles.interior(z)) is complex
    with mpmath.workdps(30):
        want = sum(_z_mp(w) for w in images)
        assert abs(doubles.interior(z) - complex(want)) <= 1e-15 * abs(want)
    with mpmath.workdps(60):
        mp = P.hecke_image_evaluator(P.PointEvaluator(_z_mp, {}), 3, 1).interior(z)
        assert isinstance(mp, mpmath.mpc)
        assert abs(mp - sum(_z_mp(w) for w in images)) < mpmath.mpf(10) ** -55


def test_hecke_image_evaluator_skips_a_cusp_whose_images_have_no_value():
    # on X_0(9), T(2) sends the cusp 1/3 to 2/3 by all three cosets, and back
    third, two_thirds = C.canonical_cusp(1, 3, 9), C.canonical_cusp(2, 3, 9)
    half = P.PointEvaluator(interior=lambda z: 0, cusp_values={third: 1})
    assert P.hecke_image_evaluator(half, 2, 9).cusp_values == {}
    both = P.PointEvaluator(interior=lambda z: 0, cusp_values={third: 1, two_thirds: 5})
    assert P.hecke_image_evaluator(both, 2, 9).cusp_values == {third: 15, two_thirds: 3}


def test_pair_linearity_exact_in_breakdown():
    ev = jn_evaluator(1, digits=40)
    D1 = C.point_divisor(1, POINT_I, Fraction(1, 2))
    D2 = C.point_divisor(1, OMEGA, Fraction(1, 3)) + C.cusp_divisor(1, 1, 0, -1)
    whole = P.pair(ev, D1 + D2)
    split = P.pair(ev, D1).value + P.pair(ev, D2).value
    assert abs(whole.value - split) < mpmath.mpf(10) ** -30


def test_bko_pairing_values_match_log_derivative():
    # f = j - 1728: (j_1, f) = (1728 - 720) - 24 = 984
    res = P.bko_pairing(1, JM1728)
    assert abs(res.value - 984) < mpmath.mpf(10) ** -25
    assert P.r_at_s1(1, 1, JM1728) == 984


def test_bko_delta():
    res = P.bko_pairing(1, DELTA)
    assert abs(res.value - 24) < mpmath.mpf(10) ** -30
    res2 = P.bko_pairing(2, DELTA)
    assert abs(res2.value - 24 * 3) < mpmath.mpf(10) ** -30


def test_bko_consistency_grid():
    # |(j_n, f)_BKO - R_{1,n,0}(f)| < 1e-20 at 50 digits
    for f in (E4, E6, JM1728):
        for n in (1, 2, 3):
            got = P.bko_pairing(n, f, digits=50).value
            want = P.r_at_s1(1, n, f)
            w = mpmath.mpf(want.numerator) / want.denominator
            assert abs(got - w) < mpmath.mpf(10) ** -20, (f, n)


# the level-1 forms whose divisors have point keys: E_k where dim M_k = 1,
# Delta, and j - c at every class-number-one j-invariant
BKO_FORMS = ([F.FormExpression.of(F.Eisenstein(k)) for k in (4, 6, 8, 10, 14)] + [DELTA]
             + [F.FormExpression.of(F.JMinus(Fraction(c))) for c in C.CM_J.values()])


def test_numeric_bko_pairing_is_an_oracle_for_the_exact_j_line_value():
    # oracle: the numeric route (j_n summed from its Fourier series at 50
    # digits) against the exact j-line value of bko_pairing, to 40
    # significant digits; the exact value is in turn -Coeff_{q^n}(Theta f/f)
    for f in BKO_FORMS:
        for n in range(1, 6):
            exact = P._bko_sum(n, f)[0]
            assert exact == P.r_at_s1(1, n, f), (f, n)
            if n <= 4:
                D = C.divisor_of_form(f, 1)
                with mpmath.workdps(60):
                    # Delta's divisor is the cusp alone: pair sums its int
                    # cusp value exactly, to a Fraction
                    got = mpmath.mpmathify(P.pair(jn_evaluator(n, 50), D).value)
                    want = mpmath.mpf(exact.numerator) / exact.denominator
                    assert abs(got - want) <= mpmath.mpf(10) ** -40 * max(1, abs(want)), (f, n)
                    assert abs(P.bko_pairing(n, f, 50).value - want) \
                        <= mpmath.mpf(10) ** -48 * max(1, abs(want)), (f, n)


BKO_ATOMS = [F.Eisenstein(k) for k in (4, 6, 8, 10, 14)] + [F.DeltaShift(1)] \
    + [F.JMinus(Fraction(c)) for c in C.CM_J.values()]


@settings(max_examples=60, deadline=None)
@given(factors=st.lists(st.tuples(st.sampled_from(BKO_ATOMS), st.sampled_from((-2, -1, 1, 2, 3))),
                        min_size=1, max_size=3),
       n=st.integers(1, 60))
def test_exact_bko_pairing_is_the_s1_rohrlich_sum(factors, n):
    # (j_n, f)_BKO = -Coeff_{q^n}(Theta f/f) for every product of the atoms:
    # the left side is the Faber recursion at the CM j-values of div(f),
    # the right side the log-derivative of f's expansion
    f = F.FormExpression.of(*factors)
    assert P._bko_sum(n, f)[0] == P.r_at_s1(1, n, f)


def test_exact_bko_pairing_fails_against_the_next_coefficient():
    # negative control: the same check at the wrong index
    for f in (E4, JM1728):
        for n in range(1, 30):
            assert P._bko_sum(n, f)[0] != P.r_at_s1(1, n + 1, f), (f, n)


def test_exact_bko_pairing_at_large_n():
    # far past where the q-series route is practical (n = 100 took minutes)
    for n in (100, 200):
        res = P.bko_pairing(n, E4)
        want = P.r_at_s1(1, n, E4)
        assert P._bko_sum(n, E4)[0] == want
        with mpmath.workdps(60):
            assert abs(res.value / (mpmath.mpf(want.numerator) / want.denominator) - 1) \
                < mpmath.mpf(10) ** -48


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("name", ["E4", "Delta", "E12"])
def test_bko_pairing_refuses_n_below_one(n, name):
    # checked before the divisor: Delta at n = 0 used to return 0, E12 to
    # raise UnknownDivisor and n = -1 an IndexError
    with pytest.raises(UnsupportedParameter):
        P.bko_pairing(n, F.expression_by_name(name))


def test_bko_pairing_refuses_e12():
    # E12/Delta = j - 432000/691 has its zero at no point of the CM table
    with pytest.raises(UnknownDivisor):
        P.bko_pairing(1, F.expression_by_name("E12"))


def test_r_at_s1_values():
    assert P.r_at_s1(1, 1, E4) == -240
    assert P.r_at_s1(1, 2, E4) == 53280
    assert P.r_at_s1(1, 1, DELTA) == 24


def _eta(level, exps):
    return F.EtaQuotient(F.EtaQuotientSpec.make(level, exps))


# (N, f) over every atom kind: E_k with the int constant 240 and with the
# Fraction constant 65520/691, Delta(m tau), eta quotients of integral and
# of fractional order, j - 1728, j - c with a Fraction c, the shift
# j_21 - 512, a shift that cancels the leading term, and an opaque series
R_AT_S1_FORMS = [
    (1, E4), (1, F.FormExpression.of(F.Eisenstein(12))), (2, F.FormExpression.of(F.DeltaShift(2))),
    (1, F.FormExpression.of((F.Eisenstein(4), 2), F.Eisenstein(6), (F.DeltaShift(1), -1))),
    (3, F.FormExpression.of(_eta(3, {1: 6, 3: 6}))), (1, F.FormExpression.of(_eta(1, {1: 12}))),
    (2, F.FormExpression.of(_eta(2, {1: 2, 2: 2}))), (1, JM1728),
    (1, F.FormExpression.of(F.JMinus(Fraction(5, 3)))),
    (2, F.FormExpression.of((_eta(2, {1: 24, 2: -24}), 1), shift=-512)),
    (1, F.FormExpression.of((F.Eisenstein(4), 3), (F.Eisenstein(6), -2), shift=-1)),
    (1, F.FormExpression.of(F.OpaqueSeries(F.eisenstein(8, 40), 8, 1))),
]
R_AT_S1_IDS = ["E4", "E12", "Delta(2tau)", "E4^2E6/Delta", "eta3", "eta^12", "eta^2eta2^2",
               "j-1728", "j-5/3", "j21-512", "E4^3/E6^2-1", "opaque E8"]
R_AT_S1_M = (1, 2, 7, 20, 33)


def _series_route(f, m):
    """-Coeff_{q^m}(Theta f / f) as theta times the reciprocal of an
    expansion reaching well past q^m: the oracle of r_at_s1."""
    s = f.qexp(m + 12)
    if s.D != 1:
        s = f.qexp(s.D * (m + 12))
    return -Fraction((s.theta() * s.reciprocal()).coefficient(m))


@pytest.mark.parametrize("N, f", R_AT_S1_FORMS, ids=R_AT_S1_IDS)
def test_r_at_s1_equals_the_series_route(N, f):
    want = {m: _series_route(f, m) for m in R_AT_S1_M}
    # the store of Theta(E_k)/E_k warmed in ascending and in descending m
    for ms in (R_AT_S1_M, R_AT_S1_M[::-1]):
        F._prefixes.cache_clear()
        for m in ms:
            got = P.r_at_s1(N, m, f)
            assert type(got) is Fraction and got == want[m], (m, got, want[m])


def test_r_at_s1_builds_no_expansion_from_closed_forms(monkeypatch):
    def refuse(*_):
        raise AssertionError("r_at_s1 reads the atoms' log-derivatives")

    F._prefixes.cache_clear()
    monkeypatch.setattr(S, "reciprocal", refuse)
    monkeypatch.setattr(S, "__mul__", refuse)
    monkeypatch.setattr(F.FormExpression, "qexp", refuse)
    assert P.r_at_s1(1, 1, JM1728) == 984
    assert P.r_at_s1(1, 2, E4) == 53280
    assert P.r_at_s1(2, 2, F.FormExpression.of(F.DeltaShift(2))) == 48
    assert P.r_at_s1(1, 1, F.FormExpression.of(F.Eisenstein(12))) == Fraction(-65520, 691)


def test_r_at_s1_fallback_inverts_no_series(monkeypatch):
    # the shifted Hauptmodul is built by the exp recurrence, so only the
    # log-derivative could reach for a reciprocal
    monkeypatch.setattr(S, "reciprocal", lambda *_: pytest.fail("no reciprocal"))
    f = F.FormExpression.of((_eta(2, {1: 24, 2: -24}), 1), shift=-512)
    assert P.r_at_s1(2, 1, f) == 536
    assert P.r_at_s1(2, 2, f) == 286744


def test_r_at_s1_refuses_m_below_one():
    with pytest.raises(UnsupportedParameter):
        P.r_at_s1(1, 0, E4)


def test_r_at_s1_refuses_an_expansion_off_grid_1():
    # eta(tau)/eta(2 tau) + 5 = 5 + q^(-1/24)(1 - q + ...) is no function on
    # X_0(2): the constant sits off the grid q^(-1/24) Z of its order
    f = F.FormExpression.of(_eta(2, {1: 1, 2: -1}), shift=5)
    with pytest.raises(NotIntegralSeries):
        P.r_at_s1(2, 1, f)


@st.composite
def opaque_units(draw):
    """(D, order, g, m): an opaque c_0 q^(order/D) g with g on grid 1 and
    rational coefficients, and m >= 1 with g known through q^m exactly."""
    D = draw(st.sampled_from((1, 2, 3)))
    m = draw(st.integers(1, 12))
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    g = [draw(coeff.filter(bool))] + draw(st.lists(coeff, min_size=m, max_size=m))
    return D, draw(st.integers(-2 * D, 2 * D)), g, m


def _on_grid(D, order, g):
    coeffs = [0] * (D * (len(g) - 1) + 1)
    coeffs[::D] = g
    return S(D, order, coeffs)


@settings(max_examples=60, deadline=None)
@given(opaque_units())
def test_r_at_s1_reads_exactly_m_plus_one_exponents(data):
    # an expansion known through q^m past its order answers at q^m, and one
    # known an exponent less is PrecisionExhausted
    D, order, g, m = data
    want = -Fraction(_on_grid(D, order, g).log_derivative().coefficient(m))
    f, short = (F.FormExpression.of(F.OpaqueSeries(_on_grid(D, order, x), 0, 1))
                for x in (g, g[:-1]))
    assert P.r_at_s1(1, m, f) == want
    with pytest.raises(PrecisionExhausted):
        P.r_at_s1(1, m, short)


def test_r_at_s1_reads_past_a_shift_that_cancels_its_whole_first_window():
    # f - 1 starts at q^2: Theta/f at q^0 reads exponents the first
    # expansion of one exponent does not reach; a window the shift cancels
    # through its end gives no order at all
    g = S(1, 0, [1, 0, 3, Fraction(1, 2)] + [1] * 40)
    f = F.FormExpression.of(F.OpaqueSeries(g, 0, 1), shift=-1)
    assert P.verify_equivariance(2, 0, f).lhs == "6"
    assert P.r_at_s1(1, 1, f) == -Fraction(1, 6)
    cancelled = F.FormExpression.of(F.OpaqueSeries(S(1, 0, [1, 0, 0]), 0, 1), shift=-1)
    with pytest.raises(PrecisionExhausted):
        P.r_at_s1(1, 1, cancelled)


def test_r_numeric_on_e4():
    params = EvalParams(truncation=150, digits=14, s=1.5)
    res = P.r_numeric(1, 1, 1.5, E4, params)
    want = NB.niebur_value(1, 1, OMEGA, params).value / 3
    assert abs(res.value - want) < 1e-9


def test_r_numeric_carries_the_point_error_estimates():
    # div(E4) = (1/3) rho, so the estimate is a third of the point's
    params = EvalParams(truncation=40, digits=14, s=1.5)
    res = P.r_numeric(1, 1, 1.5, E4, params)
    want = NB.niebur_value(1, 1, OMEGA, params).error_estimate / 3
    assert res.error_estimate == pytest.approx(want, rel=1e-12)
    assert P.bko_pairing(1, E4, 20).error_estimate is None


def test_r_numeric_eisenstein_m0():
    params = EvalParams(truncation=150, digits=14, s=2.0)
    res = P.r_numeric(1, 0, 2.0, E4, params)
    want = NB.niebur_value(1, 0, OMEGA, params).value / 3
    assert abs(res.value - want) < 1e-9


def test_r_numeric_refuses_cusp_divisors():
    with pytest.raises(MissingCuspValue):
        P.r_numeric(1, 1, 1.5, DELTA)


def test_verify_equivariance_known_values():
    r = P.verify_equivariance(2, 1, E4)
    assert r.passed and r.lhs == "-53280" and r.exact
    r3 = P.verify_equivariance(3, 1, E4)
    assert r3.passed and r3.lhs == "12288960"


def test_equivariance_refuses_m_below_zero_before_any_expansion(monkeypatch):
    # m = 0 reads the order on both sides
    for n, f, order in [(2, E4, "0"), (3, JM1728, "-4")]:
        r = P.verify_equivariance(n, 0, f)
        assert r.passed and (r.lhs, r.rhs) == (order, order)
    monkeypatch.setattr(O, "_expansion", lambda *_: pytest.fail("expanded for m < 0"))
    for n, m, f in [(2, -1, E4), (2, -2, E4), (2, -5, E4), (3, -1, JM1728)]:
        with pytest.raises(UnsupportedParameter):
            P.verify_equivariance(n, m, f)


def test_equivariance_asks_the_coset_product_for_m_plus_one_coefficients(monkeypatch):
    precs = []
    cosets = O.hecke_multiplicative_cosets

    def spy(f, n, N, prec):
        precs.append(prec)
        return cosets(f, n, N, prec)

    monkeypatch.setattr(O, "hecke_multiplicative_cosets", spy)
    for m in (1, 3):
        assert P.verify_equivariance(2, m, JM1728).passed
    assert precs == [2, 4]


def test_equivariance_full_grid():
    for f in (E4, E6, DELTA, JM1728):
        for p in (2, 3, 5):
            for m in (1, 2, 3):
                assert P.verify_equivariance(p, m, f, 1).passed, (f, p, m)


# forms of level 1, 2 and 3, of orders -1, 0 and 1
LEVEL_FORMS = {
    1: (E4, DELTA, JM1728),
    2: (F.FormExpression.of((_eta(2, {1: 24, 2: -24}), 1), shift=-512),
        F.FormExpression.of(_eta(2, {1: 8, 2: 8}))),
    3: (F.FormExpression.of(_eta(3, {1: 6, 3: 6})), F.FormExpression.of(_eta(3, {1: 12, 3: -12}))),
}


def test_equivariance_for_composite_n_and_p_dividing_the_level():
    # the right side sum a l_(dm/a) over ad = n, (a, N) = 1, a | m: the
    # two-term l_(pm) + p l_(m/p) holds only for a prime p not dividing N,
    # and reported these correct images as failures
    r = P.verify_equivariance(4, 2, E4)
    assert r.passed and r.lhs == "-8041801037378592960"
    r = P.verify_equivariance(2, 2, LEVEL_FORMS[2][0], 2)
    assert r.passed and r.lhs == "-82226315288"
    for N, fs in LEVEL_FORMS.items():
        for n in range(1, 8):
            if math.gcd(n, N) > 1 and F.prime_factors(n) != [n]:
                continue
            for f in fs:
                for m in range(1, 5):
                    assert P.verify_equivariance(n, m, f, N).passed, (N, n, m, f)


def test_divisor_sum_identity_j1():
    D = C.point_divisor(1, POINT_I)
    rep = P.verify_prop_divisor_sums(2, jn_evaluator(1, 60), D, 1,
                                     tolerance=1e-20)
    assert rep.passed
    # both sides equal j_1(2i) + j_1(i/2) + j_1((i+1)/2) = 2*286776 + 1008
    lhs = P.pair(jn_evaluator(1, 60), C.hecke_divisor(2, D)).value
    assert abs(lhs - 574560) < mpmath.mpf(10) ** -25


def test_divisor_sum_identity_constant():
    inf = C.canonical_cusp(1, 0, 1)
    one = P.PointEvaluator(interior=lambda z: 1, cusp_values={inf: 1}, name="1")
    D = C.point_divisor(1, OMEGA, Fraction(1, 3)) + C.cusp_divisor(1, 1, 0, 2)
    for n in (2, 3):
        rep = P.verify_prop_divisor_sums(n, one, D, 1, tolerance=1e-25)
        assert rep.passed


def test_divisor_sum_identity_j2_on_divE4():
    D = C.divisor_of_form(E4, 1)
    rep = P.verify_prop_divisor_sums(2, jn_evaluator(2, 50), D, 1,
                                     tolerance=1e-18)
    assert rep.passed


def test_theorem_410_numeric_s15():
    """R_{1,1}(1.5; (j-1728)|*T(2)) vs R_{1,2}(1.5; j-1728), the m/p term
    vanishing: the image's j-polynomial is -prod (x - j(z))^{n_z} over
    T(2) div(j-1728) under the exact j-values, so that divisor is the
    image's, and the cusp value is 0 on both sides."""
    img = O.hecke_multiplicative(JM1728, 2, 1, prec=26).atoms[0][0].series
    poly = C.weight0_to_j_polynomial(img)
    TD = C.hecke_divisor(2, C.divisor_of_form(JM1728, 1))
    j = {POINT_I: 1728, H(1, 0, 4): 287496}
    assert max(poly) == 3 and img.leading_exponent() == TD.cusp_coefficient(1, 0)
    for x in range(4):  # four values fix the cubic
        assert sum(c * x ** i for i, c in poly.items()) == -math.prod(
            (x - j[key.representative()]) ** int(n) for key, n in TD.interior)

    inf = C.canonical_cusp(1, 0, 1)
    params = EvalParams(truncation=300, digits=14, s=1.5)
    F1 = P.PointEvaluator(interior=lambda z: NB.niebur_value(1, 1, z, params).value,
                          cusp_values={inf: 0}, name="F_{1,-1}")
    F2 = P.PointEvaluator(interior=lambda z: NB.niebur_value(1, 2, z, params).value,
                          cusp_values={inf: 0}, name="F_{1,-2}")
    lhs = P.pair(F1, TD).value
    rhs = P.pair(F2, C.divisor_of_form(JM1728, 1)).value
    err_budget = sum(NB.niebur_value(1, 1, key.representative(), params).error_estimate
                     for key, _ in TD.interior) + \
        NB.niebur_value(1, 2, POINT_I.approx(), params).error_estimate
    assert abs(lhs - rhs) < max(err_budget, 1e-3)


def test_eval_report_json():
    r = P.verify_equivariance(2, 1, E4)
    data = r.to_json()
    assert data["passed"] is True and data["exact"] is True
