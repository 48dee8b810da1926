import itertools
import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, reject, settings, strategies as st

from heckediv import algebra as A, curve as C, forms as F, operators as O
from heckediv.curve import HeegnerPoint as H, POINT_I, OMEGA
from heckediv.errors import NotPolynomialInJ, UnknownDivisor


def random_gamma0(N, rng, size=18):
    T, V = (1, 1, 0, 1), (1, 0, N, 1)
    Ti, Vi = (1, -1, 0, 1), (1, 0, -N, 1)
    out = (1, 0, 0, 1)
    for _ in range(rng.randint(1, size)):
        out = A.mat_mul(out, rng.choice([T, Ti, V, Vi]))
    return out


# -- cusps ---------------------------------------------------------------------

def test_cusp_systems():
    assert [(repr(c), c.width) for c in C.cusps(1)] == [("inf", 1)]
    assert [(repr(c), c.width) for c in C.cusps(2)] == [("inf", 1), ("0/1", 2)]
    assert [(repr(c), c.width) for c in C.cusps(4)] == [("inf", 1), ("0/1", 4), ("1/2", 1)]


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 8, 9, 10, 12])
def test_cusp_widths_sum_to_index(N):
    assert sum(c.width for c in C.cusps(N)) == F.psl2_index(N)


def test_cusp_canonicalization():
    # 1/1 ~ 0 on X_0(4); 3/2 ~ 1/2 (a mod gcd(c, N/c))
    assert C.canonical_cusp(1, 1, 4) == C.canonical_cusp(0, 1, 4)
    assert C.canonical_cusp(3, 2, 4) == C.canonical_cusp(1, 2, 4)
    assert C.canonical_cusp(1, 4, 4) == C.canonical_cusp(1, 0, 4)


# Brute-force reference, independent of the closed-form invariant: the
# Gamma_0(N)-class of a/c read off the T-orbit of the bottom row (c, d) of
# a lift (a b; c d) in SL_2(Z), as the least P^1(Z/N) label over the N
# translates (c, d + j c).

def orbit_key(a, c, N):
    g = gcd(a, c)
    a, c = a // g, c // g
    if c < 0 or (c == 0 and a < 0):
        a, c = -a, -c
    d = pow(a, -1, c) if c else 1  # (a b; c d) in SL_2(Z)
    return min(A.p1_label(c % N, (d + j * c) % N, N) for j in range(N))


def reference_cusps(N):
    """One cusp per orbit key, a/c with c | N and the least admissible a,
    the class of 1/N shown as infinity: the system the scan used to build."""
    inf_key = orbit_key(1, 0, N)
    out, seen = [], set()
    for c in (c for c in range(1, N + 1) if N % c == 0):
        g = gcd(c, N // c)
        for a0 in (x for x in range(g) if gcd(x, g) == 1):
            a = 0 if c == 1 else (a0 or 1)
            while c > 1 and gcd(a, c) != 1:
                a += g
            key = orbit_key(a, c, N)
            if key not in seen:
                seen.add(key)
                width = min(h for h in range(1, N + 1) if c * c * h % N == 0)
                out.append((1, 0, 1) if key == inf_key else (a, c, width))
    return sorted(out, key=lambda t: (t[1], t[0]))


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 60), data=st.data())
def test_cusp_invariant_matches_the_orbit_scan(N, data):
    side = st.integers(-2 * N, 2 * N)
    pairs = data.draw(st.lists(st.tuples(side, side).filter(lambda p: gcd(*p) == 1),
                               min_size=2, max_size=10))
    canon = [C.canonical_cusp(a, c, N) for a, c in pairs]
    scan = [orbit_key(a, c, N) for a, c in pairs]
    # the same partition, and each answer lies in the class it names
    assert len(set(zip(canon, scan))) == len(set(canon)) == len(set(scan))
    assert [orbit_key(cc.a, cc.c, N) for cc in canon] == scan


def test_cusps_match_the_orbit_scan():
    for N in range(1, 121):
        assert [(cc.a, cc.c, cc.width) for cc in C.cusps(N)] == reference_cusps(N), N


# -- matrix action and reduction -------------------------------------------------

def test_act_matrix_examples():
    assert C.act_matrix((2, 0, 0, 1), POINT_I) == H(1, 0, 4)
    assert C.act_matrix((1, 1, 0, 2), POINT_I) == H(4, -4, 2)
    assert C.act_matrix((1, 0, 0, 2), POINT_I) == H(4, 0, 1)


def test_act_matrix_root_consistency():
    rng = random.Random(4)
    for _ in range(40):
        z = H(rng.randint(1, 5), rng.randint(-4, 4), rng.randint(5, 9))
        mat = (rng.randint(1, 3), rng.randint(-3, 3), 0, rng.randint(1, 3))
        w = C.act_matrix(mat, z)
        a, b, c, d = mat
        zc = z.approx()
        expected = (a * zc + b) / (c * zc + d)
        got = w.approx()
        assert abs(expected - got) < 1e-9


def test_reduce_point_classical_identifications():
    key_half_i, wit = C.reduce_point(H(4, 0, 1), 1)       # [i/2] = [2i]
    assert key_half_i.form == (1, 0, 4)
    assert wit == (0, -1, 1, 0)
    key_ip1, _ = C.reduce_point(H(2, -2, 1), 1)           # [(i+1)/2] = [i]
    assert key_ip1.form == (1, 0, 1)
    key_omega_shift, _ = C.reduce_point(H(1, -33, 273), 1)  # omega + 17
    assert key_omega_shift.form == (1, 1, 1)


def test_reduce_point_boundary_convention():
    # omega itself is canonical (not omega + 1)
    key, _ = C.reduce_point(OMEGA, 1)
    assert key.form == (1, 1, 1)
    # the other corner [1, -1, 1] (root at Re = +1/2) reduces to omega
    key2, _ = C.reduce_point(H(1, -1, 1), 1)
    assert key2.form == (1, 1, 1)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_reduce_point_idempotent_and_gamma0_invariant(N):
    rng = random.Random(100 + N)
    seeds = [POINT_I, OMEGA, H(1, 0, 4), H(2, -2, 1), H(3, 2, 5), H(1, 1, 7)]
    count = 0
    while count < 1000:
        z = seeds[count % len(seeds)]
        key, _ = C.reduce_point(z, N)
        rep = key.representative()
        key_rep, _ = C.reduce_point(rep, N)
        assert key_rep == key  # idempotence on the canonical representative
        g = random_gamma0(N, rng)
        key_g, _ = C.reduce_point(C.act_matrix(g, z), N)
        assert key_g == key
        count += 1


def test_periods():
    assert C.period(POINT_I, 1) == 2
    assert C.period(OMEGA, 1) == 3
    assert C.period(H(1, 0, 4), 1) == 1
    # at level 2 the class of i is no longer elliptic, (1+i)/2 is
    assert C.period(POINT_I, 2) == 1
    assert C.period(H(2, 2, 1), 2) == 2
    assert C.period(OMEGA, 3) == 1
    assert C.period(H(3, 3, 1), 3) == 3


# Reference, labelled: the act-and-reduce route, which never calls
# curve._class_label (one stabilizer orbit for the label and the period).
# The key of z is the least P^1(Z/N) label of the bottom rows of inv s (inv
# the inverse of the reduction witness, s over the stabilizer of the reduced
# form); the period reads the elliptic element e = inv S wit (inv U wit over
# omega) for membership in Gamma_0(N); the classes over a level-1 point are
# the keys of its images under a lift of every P^1(Z/N) label, each with the
# period of its representative.

def _inverse(m):
    a, b, c, d = m
    return (d, -b, -c, a)


def _stabilizer(form):
    if form == (1, 0, 1):
        return [(1, 0, 0, 1), C.S_MAT]
    if form == (1, 1, 1):
        return [(1, 0, 0, 1), C.U_MAT, A.mat_mul(C.U_MAT, C.U_MAT)]
    return [(1, 0, 0, 1)]


def reference_key(z, N):
    red, wit = C._gauss_reduce(z.primitive())
    form = (red.A, red.B, red.C)
    inv = _inverse(wit)
    labels = []
    for s in _stabilizer(form):
        g = A.mat_mul(inv, s)
        labels.append(A.p1_label(g[2] % N, g[3] % N, N))
    return C.CanonicalPoint(N, form, min(labels)), wit


def reference_period(z, N):
    red, wit = C._gauss_reduce(z.primitive())
    inv = _inverse(wit)
    for form, elliptic, order in (((1, 0, 1), C.S_MAT, 2), ((1, 1, 1), C.U_MAT, 3)):
        if (red.A, red.B, red.C) == form:
            e = A.mat_mul(A.mat_mul(inv, elliptic), wit)
            return order if e[2] % N == 0 else 1
    return 1


def reference_classes_over(form, N):
    base = H(*form)
    out = {}
    for lab in C._p1_points(N):
        key, _ = reference_key(C.act_matrix(C.p1_lift(lab, N), base), N)
        if key not in out:
            out[key] = reference_period(key.representative(), N)
    return tuple(out.items())


LEVEL1_POINTS = [(1, 1, 1), (1, 0, 1), (1, 0, 4), (2, 1, 3)]  # omega, i, 2i, trivial


@pytest.mark.parametrize("N", range(1, 61))
def test_classes_over_a_point_match_the_act_and_reduce_reference(N):
    for form in LEVEL1_POINTS:
        got = C._classes_over(form, N)
        assert got == reference_classes_over(form, N), (form, N)
        # the stabilizer orbits partition P^1(Z/N): sum |orbit| = psi(N)
        stab = len(_stabilizer(form))
        assert sum(stab // per for _, per in got) == F.psl2_index(N)


@st.composite
def points_and_levels(draw):
    """(z, N): a point of omega, i or two trivial-stabilizer orbits moved by
    a random word in T^k and S and scaled by a content, at a level N."""
    z = H(*draw(st.sampled_from(LEVEL1_POINTS)))
    g = (1, 0, 0, 1)
    for k in draw(st.lists(st.integers(-5, 5), max_size=6)):
        g = A.mat_mul(A.mat_mul((1, k, 0, 1), C.S_MAT), g)
    z = C.act_matrix(g, z)
    content = draw(st.integers(1, 3))
    z = H(content * z.A, content * z.B, content * z.C)
    N = draw(st.one_of(st.integers(1, 60), st.sampled_from([101, 127, 144, 210])))
    return z, N


@settings(max_examples=300, deadline=None)
@given(points_and_levels())
def test_key_witness_and_period_match_the_reference(point):
    z, N = point
    key, wit = C.reduce_point(z, N)
    assert (key, wit) == reference_key(z, N)
    assert C.act_matrix(wit, z.primitive()) == H(*key.form)
    assert C.period(z, N) == reference_period(z, N)
    assert key.period() == reference_period(key.representative(), N)


# -- divisors and the Hecke action ------------------------------------------------

def test_hecke_divisor_example_level1():
    D = C.point_divisor(1, POINT_I) + C.cusp_divisor(1, 1, 0, -1)
    got = C.hecke_divisor(2, D)
    want = (2 * C.point_divisor(1, H(1, 0, 4)) + C.point_divisor(1, POINT_I)
            + C.cusp_divisor(1, 1, 0, -3))
    assert got == want


def test_hecke_divisor_example_level2():
    D = C.point_divisor(2, POINT_I) + C.cusp_divisor(2, 1, 0, -1)
    got = C.hecke_divisor(2, D)
    want = (C.point_divisor(2, H(4, 0, 1)) + C.point_divisor(2, H(2, -2, 1))
            + C.cusp_divisor(2, 1, 0, -2))
    assert got == want
    # and the two interior points really are distinct classes at level 2
    assert len(got.interior) == 2


def test_hecke_divisor_scalar_coset_identity():
    D = C.point_divisor(1, H(3, 2, 5), Fraction(2, 3)) + C.cusp_divisor(1, 1, 0, -1)
    for q in (2, 3):
        u = A.t_ad(q, q, 1)
        reps = A.double_coset_reps(q, q, 1)
        assert reps == [(q, 0, 0, q)]
        imgs = {}
        for key, v in D.interior:
            z = key.representative()
            img, _ = C.reduce_point(C.act_matrix(reps[0], z), 1)
            imgs[img] = v
        assert imgs == D.interior_dict()


def test_hecke_divisor_degree_scaling():
    D = C.point_divisor(1, H(3, 2, 5), Fraction(1, 2)) + C.cusp_divisor(1, 1, 0, 3)
    for n in (2, 3, 4):
        TD = C.hecke_divisor(n, D)
        assert TD.degree == len(A.left_coset_reps(1, n)) * D.degree


def test_hecke_divisor_module_law():
    # T(m)(T(n) D) matches applying the algebra product termwise
    D = C.point_divisor(1, POINT_I) - C.cusp_divisor(1, 1, 0, 1)
    for m, n in ((2, 3), (2, 2), (3, 3)):
        lhs = C.hecke_divisor(m, C.hecke_divisor(n, D))
        prod = A.algebra_multiply(A.t_n(m, 1), A.t_n(n, 1))
        rhs = None
        for (a, d), mult in prod.terms:
            part = _apply_label_divisor(a, d, D)
            part = mult * part
            rhs = part if rhs is None else rhs + part
        assert lhs == rhs, (m, n)


def _apply_label_divisor(a, d, D):
    reps = A.double_coset_reps(a, d, D.N)
    inter, cusps = {}, {}
    for key, v in D.interior:
        z = key.representative()
        for mat in reps:
            img, _ = C.reduce_point(C.act_matrix(mat, z), D.N)
            inter[img] = inter.get(img, Fraction(0)) + v
    for cc, v in D.cusp_part:
        for mat in reps:
            from math import gcd
            a2 = mat[0] * cc.a + mat[1] * cc.c
            c2 = mat[2] * cc.a + mat[3] * cc.c
            g = gcd(abs(a2), abs(c2))
            img = C.canonical_cusp(a2 // g, c2 // g, D.N)
            cusps[img] = cusps.get(img, Fraction(0)) + v
    return C.Divisor.make(D.N, inter, cusps)


# -- divisors of expressions ---------------------------------------------------

def test_divisor_of_eisenstein4():
    d = C.divisor_of_form(F.FormExpression.of(F.Eisenstein(4)), 1)
    assert d.interior_dict() == {C.reduce_point(OMEGA, 1)[0]: Fraction(1, 3)}
    assert d.degree == Fraction(1, 3)


def test_divisor_of_eisenstein6():
    d = C.divisor_of_form(F.FormExpression.of(F.Eisenstein(6)), 1)
    assert d.interior_dict() == {C.reduce_point(POINT_I, 1)[0]: Fraction(1, 2)}


def test_divisor_of_j_minus_1728():
    d = C.divisor_of_form(F.FormExpression.of(F.JMinus(Fraction(1728))), 1)
    want = C.point_divisor(1, POINT_I) + C.cusp_divisor(1, 1, 0, -1)
    assert d == want


def test_divisor_of_delta():
    d = C.divisor_of_form(F.FormExpression.of(F.DeltaShift(1)), 1)
    assert d == C.cusp_divisor(1, 1, 0, 1)


def test_divisor_of_hauptmodul_level2():
    spec = F.hauptmodul_spec(2)
    d = C.divisor_of_form(F.FormExpression.of(F.EtaQuotient(spec)), 2)
    assert d == C.cusp_divisor(2, 0, 1, 1) + C.cusp_divisor(2, 1, 0, -1)


def test_divisor_of_shifted_hauptmodul():
    spec = F.hauptmodul_spec(2)
    f = F.FormExpression.of((F.EtaQuotient(spec), 1), shift=-512)
    d = C.divisor_of_form(f, 2)
    assert d == C.point_divisor(2, POINT_I) + C.cusp_divisor(2, 1, 0, -1)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_divisor_of_shifted_j_minus_c(N):
    # (j - c) + shift = j - (c - shift) at every level; j + 5 vanishes off
    # every class-number-one fiber
    f = F.FormExpression.of(F.JMinus(Fraction(1000)), shift=-728)
    want = C.divisor_of_form(F.FormExpression.of(F.JMinus(Fraction(1728))), N)
    assert C.divisor_of_form(f, N) == want
    with pytest.raises(UnknownDivisor):
        C.divisor_of_form(F.FormExpression.of(F.JMinus(Fraction(0)), shift=5), N)


@pytest.mark.parametrize("N", [1, 2, 6])
def test_divisor_of_j_minus_a_generic_constant_is_refused(N):
    # j - c has point keys only where c is a class-number-one j-invariant
    for expr in (F.expression_by_name("jminus:5"), F.expression_by_name("jminus:5/3"),
                 F.FormExpression.of(F.JMinus(Fraction(0)), shift=5)):
        with pytest.raises(UnknownDivisor):
            C.divisor_of_form(expr, N)


@pytest.mark.parametrize("N", [1, 2, 6])
def test_divisor_of_e12_and_e16_is_refused(N):
    # dim M_12 = dim M_16 = 2: each has a zero away from i and omega
    for name in ("E12", "E16"):
        with pytest.raises(UnknownDivisor):
            C.divisor_of_form(F.expression_by_name(name), N)


@pytest.mark.parametrize("D", sorted(C.CM_J))
def test_divisor_of_j_minus_a_class_number_one_j_invariant(D):
    # one simple zero at the point of discriminant D (e_z / e_z at omega
    # and i) and a simple pole at infinity
    b = D % 2
    z = H(1, b, (b - D) // 4)
    d = C.divisor_of_form(F.FormExpression.of(F.JMinus(Fraction(C.CM_J[D]))), 1)
    assert d == C.point_divisor(1, z) + C.cusp_divisor(1, 1, 0, -1)


def test_divisor_of_eisenstein_products_of_e4_and_e6():
    # E8 = E4^2, E10 = E4 E6, E14 = E4^2 E6
    w, i = C.reduce_point(OMEGA, 1)[0], C.reduce_point(POINT_I, 1)[0]
    for k, want in ((8, {w: Fraction(2, 3)}), (10, {w: Fraction(1, 3), i: Fraction(1, 2)}),
                    (14, {w: Fraction(2, 3), i: Fraction(1, 2)})):
        d = C.divisor_of_form(F.FormExpression.of(F.Eisenstein(k)), 1)
        assert d.interior_dict() == want and not d.cusp_part, k


def test_divisor_of_opaque_rejected():
    expr = F.FormExpression.of(F.OpaqueSeries(F.delta(5), 12, 1))
    with pytest.raises(UnknownDivisor):
        C.divisor_of_form(expr, 1)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 6])
def test_valence_formula_degrees(N):
    cases = [(F.FormExpression.of(F.Eisenstein(k)), k) for k in (4, 6, 8, 10, 14)]
    cases += [(F.FormExpression.of(F.JMinus(Fraction(c))), 0) for c in C.CM_J.values()]
    cases += [
        (F.FormExpression.of(F.DeltaShift(1)), 12),
        (F.FormExpression.of(F.Eisenstein(4), (F.DeltaShift(1), 2)), 28),
    ]
    for expr, k in cases:
        d = C.divisor_of_form(expr, N)
        assert d.degree == Fraction(k * F.psl2_index(N), 12), (expr, N)


def test_level_lift_consistency_with_ligozat():
    # Delta's cusp orders at level N: both the Ligozat route and the
    # width * (order at infinity) rule for level-1 forms
    for N in (2, 3, 4, 6):
        d = C.divisor_of_form(F.FormExpression.of(F.DeltaShift(1)), N)
        for cc in C.cusps(N):
            assert d.coefficient(cc) == cc.width


# -- weight-0 series as polynomials in j ----------------------------------------

def test_j_polynomial_simple_cases():
    from heckediv.series import PuiseuxSeries
    j = F.j_function(14)
    assert C.weight0_to_j_polynomial(j * j) == {2: Fraction(1)}
    assert C.weight0_to_j_polynomial(PuiseuxSeries.constant(2, 6)) == {0: Fraction(2)}


def test_j_polynomial_of_hecke_image():
    # (j - 1728)|*T(2) is -prod (x - j(z))^{n_z} over T(2) div(j - 1728),
    # with the exact CM values j(i) = 1728 and j(2i) = 66^3: four values fix
    # the cubic
    jm = F.FormExpression.of(F.JMinus(Fraction(1728)))
    img = O.hecke_multiplicative(jm, 2, 1, prec=26).atoms[0][0].series
    poly = C.weight0_to_j_polynomial(img)
    TD = C.hecke_divisor(2, C.divisor_of_form(jm, 1))
    j = {POINT_I: 1728, H(1, 0, 4): 287496}
    assert max(poly) == 3
    for x in range(4):
        assert sum(c * x ** i for i, c in poly.items()) == -prod(
            (x - j[key.representative()]) ** int(n) for key, n in TD.interior)


def test_j_polynomial_rejects_level2_function():
    t = F.eta_quotient_qexp(F.hauptmodul_spec(2), 14)
    with pytest.raises(NotPolynomialInJ):
        C.weight0_to_j_polynomial(t)


def test_j_polynomial_refuses_a_grid_or_a_window_it_cannot_read():
    from heckediv.series import PuiseuxSeries
    j = F.j_function(8)
    with pytest.raises(NotPolynomialInJ, match="fractional exponents"):
        C.weight0_to_j_polynomial(j.rescale_exponents(Fraction(1, 2)))
    # j + c known through q^-1 only: the constant c is unknown
    for f in (PuiseuxSeries(1, -1, [1]), j * j - j.truncate(0)):
        with pytest.raises(NotPolynomialInJ, match="no constant term"):
            C.weight0_to_j_polynomial(f)
    assert C.weight0_to_j_polynomial(j.truncate(1) + 5) == {1: 1, 0: 5}


def test_equivariance_failure_at_p_dividing_N():
    spec = F.hauptmodul_spec(2)
    f = F.FormExpression.of((F.EtaQuotient(spec), 1), shift=-512)
    img = O.hecke_multiplicative(f, 2, 2, prec=12).atoms[0][0].series
    TD = C.hecke_divisor(2, C.divisor_of_form(f, 2))
    assert img.leading_exponent() == -1
    assert TD.cusp_coefficient(1, 0) == -2
    # the divisor map is NOT equivariant here
    assert img.leading_exponent() != TD.cusp_coefficient(1, 0)


_NONZERO = [r for r in range(-8, 9) if r]


def _meets_ligozat(N, exponents):
    """The conditions under which an eta quotient is a form on Gamma_0(N)
    with a character (Gordon-Hughes, Newman; Ono, *The Web of Modularity*,
    ch. 1): sum d r_d = 0 = sum (N/d) r_d mod 24, which makes the orders
    at infinity and 0 integral, and an integral weight."""
    return (sum(d * r for d, r in exponents.items()) % 24 == 0
            and sum(N // d * r for d, r in exponents.items()) % 24 == 0
            and sum(exponents.values()) % 2 == 0)


@st.composite
def ligozat_quotients(draw):
    """(N, {d: r_d}) with N <= 20, at most four d | N and 0 < |r_d| <= 8,
    meeting Ligozat's conditions: the last two exponents are the nearest
    to their drawn values that meet them (rejected when none does)."""
    N = draw(st.integers(2, 20))
    ds = draw(st.lists(st.sampled_from([d for d in range(1, N + 1) if N % d == 0]),
                       min_size=1, max_size=4, unique=True))
    rs = draw(st.lists(st.sampled_from(_NONZERO), min_size=len(ds), max_size=len(ds)))
    k = len(ds) - min(2, len(ds))
    tails = sorted(itertools.product(_NONZERO, repeat=len(ds) - k),
                   key=lambda t: sum(abs(x - r) for x, r in zip(t, rs[k:])))
    for tail in tails:
        exponents = dict(zip(ds, rs[:k] + list(tail)))
        if _meets_ligozat(N, exponents):
            return N, exponents
    reject()


@settings(max_examples=120, deadline=None)
@given(ligozat_quotients(), st.data())
def test_divisor_map_is_equivariant_at_infinity(quotient, data):
    # the theorem at level N: ord_inf(f|*T(n)) from the leading exponent
    # of the Q-route image (operators) equals the infinity coefficient of
    # T(n) div(f) from Ligozat's cusp orders (curve); the sides share no code
    N, exponents = quotient
    n = data.draw(st.sampled_from([n for n in range(2, 12) if gcd(n, N) == 1]))
    f = F.FormExpression.of(F.EtaQuotient(F.EtaQuotientSpec.make(N, exponents)))
    image = O.hecke_multiplicative(f, n, N, prec=4)
    TD = C.hecke_divisor(n, C.divisor_of_form(f, N))
    assert image.order == TD.cusp_coefficient(1, 0), (N, exponents, n)


