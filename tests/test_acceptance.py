"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success (run pytest with -s or -v to
see them); tolerances and runtime budgets are pinned to the stated values.
"""

import math
import random
import time
from fractions import Fraction

import mpmath

from heckediv import algebra as A, curve as C, forms as F, niebur as NB, \
    operators as O, pairing as P
from heckediv.curve import HeegnerPoint as H, OMEGA, POINT_I
from heckediv.niebur import EvalParams
from heckediv.series import PuiseuxSeries as S


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_acceptance_1_multiplicative_hecke_images():
    t0 = time.time()
    e4 = F.FormExpression.of(F.Eisenstein(4))
    img2 = O.hecke_multiplicative(e4, 2, 1, prec=33).atoms[0][0].series
    rhs2 = F.eisenstein(12, 34) - Fraction(36882000, 691) * F.delta(34)
    assert img2.equal_through(rhs2, 30)
    img3 = O.hecke_multiplicative(e4, 3, 1, prec=33).atoms[0][0].series
    rhs3 = F.eisenstein(16, 34) + Fraction(44449152000, 3617) * (
        F.eisenstein(4, 34) * F.delta(34))
    assert img3.equal_through(rhs3, 30)
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    _report(1, f"E4|*T(2) and E4|*T(3) exact through 30 coefficients "
               f"[{elapsed:.2f}s]")


def test_acceptance_2_bko_log_derivative_series():
    ld = F.eisenstein(4, 10).log_derivative()
    assert [ld.coefficient(i) for i in (1, 2, 3)] == [240, -53280, 12288960]
    e4 = F.FormExpression.of(F.Eisenstein(4))
    l2 = O.hecke_multiplicative(e4, 2, 1, prec=8).atoms[0][0].series.log_derivative()
    l3 = O.hecke_multiplicative(e4, 3, 1, prec=8).atoms[0][0].series.log_derivative()
    assert l2.order >= 1 and l2.coefficient(1) == -53280
    assert l3.order >= 1 and l3.coefficient(1) == 12288960
    _report(2, "Theta E4/E4 and the T*(2), T*(3) log-derivative leads are exact")


def test_acceptance_3_hecke_algebra():
    t0 = time.time()
    assert A.algebra_multiply(A.t_n(2, 1), A.t_n(2, 1)) == \
        A.AlgebraElement.make(1, {(1, 4): 1, (2, 2): 3})
    assert A.t_n(4, 1) == A.AlgebraElement.make(1, {(1, 4): 1, (2, 2): 1})
    for N in (1, 2, 3):
        for m in range(1, 7):
            for n in range(1, 7):
                lhs = A.algebra_multiply(A.t_n(m, N), A.t_n(n, N))
                rhs = None
                for d in range(1, min(m, n) + 1):
                    if m % d or n % d or math.gcd(d, N) != 1:
                        continue
                    term = d * A.algebra_multiply(
                        A.t_ad(d, d, N), A.t_n(m * n // (d * d), N))
                    rhs = term if rhs is None else rhs + term
                assert lhs == rhs, (m, n, N)
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"
    _report(3, f"Example 2.2 products and the T(m)T(n) formula over "
               f"m,n<=6, N in {{1,2,3}} [{elapsed:.2f}s]")


def test_acceptance_4_divisor_hecke_action():
    D1 = C.point_divisor(1, POINT_I) + C.cusp_divisor(1, 1, 0, -1)
    got1 = C.hecke_divisor(2, D1)
    want1 = (2 * C.point_divisor(1, H(1, 0, 4)) + C.point_divisor(1, POINT_I)
             + C.cusp_divisor(1, 1, 0, -3))
    assert got1 == want1
    D2 = C.point_divisor(2, POINT_I) + C.cusp_divisor(2, 1, 0, -1)
    got2 = C.hecke_divisor(2, D2)
    want2 = (C.point_divisor(2, H(4, 0, 1)) + C.point_divisor(2, H(2, -2, 1))
             + C.cusp_divisor(2, 1, 0, -2))
    assert got2 == want2 and len(got2.interior) == 2
    _report(4, "T(2)([i]-[inf]) equals 2[2i]+[i]-3[inf] at level 1 and "
               "[i/2]+[(i+1)/2]-2[inf] at level 2, exact keys")


def test_acceptance_5_theorem_32_round_trip():
    jm = F.FormExpression.of(F.JMinus(Fraction(1728)))
    img = O.hecke_multiplicative(jm, 2, 1, prec=26).atoms[0][0].series
    poly = C.weight0_to_j_polynomial(img)
    TD = C.hecke_divisor(2, C.divisor_of_form(jm, 1))
    assert TD.cusp_coefficient(1, 0) == img.leading_exponent() == -3
    j = {POINT_I: 1728, H(1, 0, 4): 287496}  # exact CM values, j(2i) = 66^3
    assert {j[key.representative()]: n for key, n in TD.interior} == {1728: 1, 287496: 2}
    # -(x - 1728)(x - 287496)^2, expanded
    assert poly == {3: -1, 2: 576720, 1: -83647536192, 0: 142826025627648}
    _report(5, "div((j-1728)|*T(2)) is -(j-1728)(j-287496)^2, which is "
               "T(2)div(j-1728) under the exact j-values j(i), j(2i)")


def test_acceptance_6_equivariance_failure_at_p_dividing_N():
    spec = F.hauptmodul_spec(2)
    f = F.FormExpression.of((F.EtaQuotient(spec), 1), shift=-512)
    img = O.hecke_multiplicative(f, 2, 2, prec=34).atoms[0][0].series
    t = F.eta_quotient_qexp(spec, 40)
    rhs = -t + 286720 + 2097152 * t.reciprocal()
    assert img.equal_through(rhs, 30)
    TD = C.hecke_divisor(2, C.divisor_of_form(f, 2))
    assert img.leading_exponent() == -1
    assert TD.cusp_coefficient(1, 0) == -2
    assert img.leading_exponent() != TD.cusp_coefficient(1, 0)
    _report(6, "(j_21-512)|*T(2) = -j_21 + 286720 + 2097152/j_21 exactly; "
               "cusp orders -1 vs -2 certify the failure at p | N")


def test_acceptance_7_exact_rohrlich_equivariance():
    t0 = time.time()
    cases = [F.FormExpression.of(F.Eisenstein(4)),
             F.FormExpression.of(F.Eisenstein(6)),
             F.FormExpression.of(F.DeltaShift(1)),
             F.FormExpression.of(F.JMinus(Fraction(1728)))]
    for f in cases:
        for p in (2, 3, 5):
            for m in (1, 2, 3):
                assert P.verify_equivariance(p, m, f, 1).passed, (f, p, m)
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"
    _report(7, f"36 exact equivariance cases in rational arithmetic "
               f"[{elapsed:.2f}s]")


def test_acceptance_8_bko_numeric():
    with mpmath.workdps(55):
        val = NB.jn_value(1, OMEGA, 45)
        assert abs(val + 720) < mpmath.mpf(10) ** -30
        e4 = F.FormExpression.of(F.Eisenstein(4))
        for n in (1, 2, 3):
            got = P.bko_pairing(n, e4, digits=50).value
            want = P.r_at_s1(1, n, e4)
            diff = abs(got - mpmath.mpf(want.numerator) / want.denominator)
            assert diff < mpmath.mpf(10) ** -20, (n, diff)
    _report(8, "j_1(omega) = -720 to 30 digits; (j_n, E4)_BKO matches the "
               "coefficient route to 1e-20 at 50 digits")


def test_acceptance_9_p_plication():
    through = 25
    for (N, m, p) in ((1, 1, 2), (1, 2, 2), (1, 1, 3)):
        base = NB.harmonic_slice(N, m, through * p + m * p + 12)
        lhs = O.hecke_additive_cosets(base, 0, p, N).theta()
        rhs = NB.harmonic_slice(N, p * m, through + p * m + 6).theta()
        if m % p == 0:
            rhs = rhs + p * NB.harmonic_slice(N, m // p, through + 6).theta()
        assert lhs.equal_through(rhs, through), (N, m, p)
    for (N, m, p) in ((2, 1, 2), (4, 1, 2)):
        base = NB.harmonic_slice(N, m, through * p + m * p + 12)
        lhs = O.hecke_additive_cosets(base, 0, p, N).theta()
        rhs = NB.harmonic_slice(N, p * m, through + p * m + 6).theta()
        if m % p == 0:
            rhs = rhs + p * NB.harmonic_slice(N // p, m // p, through + 6).theta()
        rhs = rhs - NB.harmonic_slice(N // p, m, through + 6).rescale_exponents(p).theta()
        assert lhs.equal_through(rhs, through), (N, m, p)
    _report(9, "p-plication identities exact through 25 coefficients for "
               "(1,1,2), (1,2,2), (1,1,3), (2,1,2), (4,1,2)")


def test_acceptance_10_niebur_numerics():
    t0 = time.time()
    params = EvalParams(truncation=300, digits=14, s=1.5)
    lhs = sum(NB.niebur_value(1, 1, w, params).value
              for w in (2j, 0.5j, 0.5 + 0.5j))
    rhs = NB.niebur_value(1, 2, 1j, params).value
    assert abs(lhs - rhs) < 1e-3, abs(lhs - rhs)
    params2 = EvalParams(truncation=300, digits=14, s=2.0)
    lhs0 = sum(NB.niebur_value(1, 0, w, params2).value
               for w in (2j, 0.5j, 0.5 + 0.5j))
    rhs0 = (2 ** 2 + 2 ** -1) * NB.niebur_value(1, 0, 1j, params2).value
    assert abs(lhs0 - rhs0) / abs(rhs0) < 1e-3
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
    _report(10, f"F|T(2) = F_2 within 1e-3 and the s=2 eigenrelation within "
                f"rel 1e-3 at C=300 [{elapsed:.2f}s]")


def test_acceptance_11_property_suites():
    # valence degrees
    for N in (1, 2, 3, 4):
        for expr, k in ((F.FormExpression.of(F.Eisenstein(4)), 4),
                        (F.FormExpression.of(F.DeltaShift(1)), 12),
                        (F.FormExpression.of(F.JMinus(Fraction(1728))), 0)):
            assert C.divisor_of_form(expr, N).degree == \
                Fraction(k * F.psl2_index(N), 12)

    # ring-homomorphism laws in all three representations
    t2sq = A.algebra_multiply(A.t_n(2, 1), A.t_n(2, 1))
    assert t2sq == A.AlgebraElement.make(1, {(1, 4): 1, (2, 2): 3})
    delta = F.FormExpression.of(F.DeltaShift(1))
    once = O.hecke_multiplicative(delta, 2, 1, prec=36)
    twice = O.hecke_multiplicative(once, 2, 1, prec=22).atoms[0][0].series
    via = O.apply_element(delta, t2sq, "multiplicative", prec=22).atoms[0][0].series
    assert twice.agrees_with(via, through=20)
    e4s = F.eisenstein(4, 60)
    add_twice = O.hecke_additive_formula(
        O.hecke_additive_formula(e4s, 4, 2), 4, 2)
    # T(2)^2 = T(4) + 2 T(2,2), and the scalar coset acts as the identity
    add_via = O.hecke_additive_formula(e4s, 4, 4) + 2 * e4s
    assert add_twice.agrees_with(add_via, through=10)
    D = C.point_divisor(1, POINT_I) - C.cusp_divisor(1, 1, 0, 1)
    lhs = C.hecke_divisor(2, C.hecke_divisor(2, D))
    rhs = None
    for (a, d), mult in t2sq.terms:
        part = D if (a, d) == (2, 2) else None
        if part is None:
            inter, cusps = {}, {}
            for key, v in D.interior:
                z = key.representative()
                for mat in A.double_coset_reps(a, d, 1):
                    img, _ = C.reduce_point(C.act_matrix(mat, z), 1)
                    inter[img] = inter.get(img, Fraction(0)) + v
            for cc, v in D.cusp_part:
                for mat in A.double_coset_reps(a, d, 1):
                    a2 = mat[0] * cc.a + mat[1] * cc.c
                    c2 = mat[2] * cc.a + mat[3] * cc.c
                    g = math.gcd(abs(a2), abs(c2))
                    img = C.canonical_cusp(a2 // g, c2 // g, 1)
                    cusps[img] = cusps.get(img, Fraction(0)) + v
            part = C.Divisor.make(1, inter, cusps)
        part = mult * part
        rhs = part if rhs is None else rhs + part
    assert lhs == rhs

    # reduce_point idempotence under 1000 random translates per level
    rng = random.Random(2024)
    seeds = [POINT_I, OMEGA, H(1, 0, 4), H(2, -2, 1), H(3, 2, 5), H(1, 1, 7)]
    for N in (1, 2, 3):
        for i in range(1000):
            z = seeds[i % len(seeds)]
            key, _ = C.reduce_point(z, N)
            g = (1, 0, 0, 1)
            for _ in range(rng.randint(1, 14)):
                g = A.mat_mul(g, rng.choice(
                    [(1, 1, 0, 1), (1, -1, 0, 1), (1, 0, N, 1), (1, 0, -N, 1)]))
            key2, _ = C.reduce_point(C.act_matrix(g, z), N)
            assert key2 == key
            key3, _ = C.reduce_point(key.representative(), N)
            assert key3 == key

    # integral projection succeeds on every full Galois-orbit sum
    rng = random.Random(99)
    for n in (2, 3, 5):
        for _ in range(8):
            base = S(1, rng.randint(-2, 1),
                     [rng.randint(1, 6)] +
                     [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                      for _ in range(6)])
            total = None
            for j in range(n):
                t = O._slash_upper(base, (1, j, 0, n), 0)
                total = t if total is None else total + t
            O._certified(total)
    _report(11, "valence degrees, homomorphism laws in all three "
                "representations, 3000 reduction translates, Galois-orbit "
                "projections: zero failures")
