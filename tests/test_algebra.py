import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from heckediv import algebra as A
from heckediv.errors import DeterminantMismatch, NotInDeltaN, UnsupportedParameter


def random_gamma0(N, rng, size=20):
    """A random element of Gamma_0(N) as a short word in generators."""
    T = (1, 1, 0, 1)
    Tinv = (1, -1, 0, 1)
    V = (1, 0, N, 1)
    Vinv = (1, 0, -N, 1)
    out = (1, 0, 0, 1)
    for _ in range(rng.randint(1, size)):
        out = A.mat_mul(out, rng.choice([T, Tinv, V, Vinv]))
    if rng.random() < 0.5:
        out = A.mat_mul(out, (-1, 0, 0, -1))
    return out


def test_left_coset_reps_level1_n2():
    assert A.left_coset_reps(1, 2) == [(2, 0, 0, 1), (1, 0, 0, 2), (1, 1, 0, 2)]


def test_left_coset_reps_level2_n2():
    assert A.left_coset_reps(2, 2) == [(1, 0, 0, 2), (1, 1, 0, 2)]


def test_left_coset_counts():
    for n in (2, 3, 4, 5, 6, 12):
        assert len(A.left_coset_reps(1, n)) == sum(d for d in range(1, n + 1) if n % d == 0)
    for N in (3, 5):
        for n in (2, 4):
            if math.gcd(n, N) == 1:
                sigma1 = sum(d for d in range(1, n + 1) if n % d == 0)
                assert len(A.left_coset_reps(N, n)) == sigma1
    for p, N in ((2, 2), (3, 3), (2, 4), (3, 6)):
        assert len(A.left_coset_reps(N, p)) == p


def test_left_coset_reps_rejects_bad_composite():
    with pytest.raises(UnsupportedParameter):
        A.left_coset_reps(2, 6)
    with pytest.raises(UnsupportedParameter):
        A.left_coset_reps(4, 4)


_SL2_GENERATORS = ((1, 1, 0, 1), (1, -1, 0, 1), (0, -1, 1, 0))


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.integers(-30, 30)] * 4),
       st.lists(st.sampled_from(_SL2_GENERATORS), max_size=12))
def test_hnf2_is_an_invariant_of_the_row_lattice(x, word):
    # gamma x has the rows of x recombined by gamma in SL_2(Z): the same
    # lattice, so the same Hermite form, whose lower-left entry the
    # Euclid loop must clear
    det = A.mat_det(x)
    assume(det > 0)
    gamma = (1, 0, 0, 1)
    for g in word:
        gamma = A.mat_mul(g, gamma)
    h = A.hnf2(x)
    assert A.hnf2(A.mat_mul(gamma, x)) == h
    a, b, c, d = h
    assert c == 0 and a > 0 and 0 <= b < d and a * d == det
    # x = g h with g = x h^-1 integral: h spans the rows of x
    g = A.mat_mul(x, (d, -b, 0, a))
    assert all(e % det == 0 for e in g)


def test_same_left_coset_examples():
    assert not A.same_left_coset((1, 0, 0, 2), (1, 1, 0, 2), 1)
    rng = random.Random(31)
    for N in (1, 2, 3):
        for rep in A.left_coset_reps(N, 5 if N != 5 else 2):
            g = random_gamma0(N, rng)
            assert A.same_left_coset(A.mat_mul(g, rep), rep, N)
    assert A.same_left_coset((2, 0, 0, 2), A.mat_mul((2, 0, 0, 2), (1, 1, 0, 1)), 1)


def test_same_left_coset_determinant_guard():
    with pytest.raises(DeterminantMismatch):
        A.same_left_coset((1, 0, 0, 2), (1, 0, 0, 3), 1)


def test_same_left_coset_is_equivalence():
    rng = random.Random(77)
    reps = A.left_coset_reps(1, 4)
    # reflexive, symmetric on translated representatives
    for r in reps:
        assert A.same_left_coset(r, r, 1)
    for r in reps:
        g = random_gamma0(1, rng)
        x = A.mat_mul(g, r)
        assert A.same_left_coset(x, r, 1) and A.same_left_coset(r, x, 1)
    # transitive: two independent translates of the same representative
    for r in reps:
        x = A.mat_mul(random_gamma0(1, rng), r)
        y = A.mat_mul(random_gamma0(1, rng), r)
        assert A.same_left_coset(x, y, 1)
    # distinct representatives stay distinct
    for i, r in enumerate(reps):
        for q in reps[i + 1:]:
            assert not A.same_left_coset(r, q, 1)


def test_double_coset_label_examples():
    assert A.double_coset_label((2, 0, 0, 2), 1) == (2, 2)
    assert A.double_coset_label((1, 1, 0, 4), 1) == (1, 4)
    assert A.double_coset_label((2, 2, 0, 2), 1) == (2, 2)


def test_double_coset_label_membership_guard():
    with pytest.raises(NotInDeltaN):
        A.double_coset_label((2, 0, 1, 1), 2)  # lower-left not divisible by 2
    with pytest.raises(NotInDeltaN):
        A.double_coset_label((2, 0, 0, 1), 2)  # upper-left shares a factor with N


def test_label_constant_on_double_coset_orbits():
    rng = random.Random(13)
    for N in (1, 2, 3):
        for lab in [(1, 4), (1, 6), (2, 2), (1, 12)]:
            a, d = lab
            if math.gcd(a, N) != 1:
                continue
            base = (a, 0, 0, d)
            if not A.in_delta_n(base, N):
                continue
            for _ in range(25):
                g1 = random_gamma0(N, rng)
                g2 = random_gamma0(N, rng)
                m = A.mat_mul(A.mat_mul(g1, base), g2)
                assert A.double_coset_label(m, N) == lab


def test_example_2_2_product():
    t2 = A.t_n(2, 1)
    prod = A.algebra_multiply(t2, t2)
    assert prod == A.AlgebraElement.make(1, {(1, 4): 1, (2, 2): 3})


def test_t2_t3_is_t6():
    assert A.algebra_multiply(A.t_n(2, 1), A.t_n(3, 1)) == A.t_n(6, 1)


def test_identity_element():
    u = A.t_n(5, 1)
    assert A.algebra_multiply(u, A.identity(1)) == u
    assert A.algebra_multiply(A.identity(1), u) == u


def test_t_n_expansions():
    assert A.t_n(4, 1) == A.AlgebraElement.make(1, {(1, 4): 1, (2, 2): 1})
    for p in (2, 3, 5, 7):
        assert A.t_n(p, 4) == A.AlgebraElement.make(4, {(1, p): 1})
    assert A.t_n(12, 2) == A.AlgebraElement.make(2, {(1, 12): 1})
    assert A.t_n(36, 1) == A.AlgebraElement.make(1, {(1, 36): 1, (2, 18): 1, (3, 12): 1, (6, 6): 1})


def test_commutativity_small_generators():
    for N in (1, 2, 3):
        gens = []
        for p in (2, 3, 5, 7):
            gens.append(A.t_n(p, N))
        for q in (5, 7):
            if math.gcd(q, N) == 1:
                gens.append(A.t_ad(q, q, N))
        for i, u in enumerate(gens):
            for v in gens[i + 1:]:
                assert A.algebra_multiply(u, v) == A.algebra_multiply(v, u)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_hecke_product_formula(N):
    # T(m) T(n) = sum over d | (m, n), (d, N) = 1 of d T(d,d) T(mn/d^2)
    for m in range(1, 7):
        for n in range(1, 7):
            lhs = A.algebra_multiply(A.t_n(m, N), A.t_n(n, N))
            rhs = None
            for d in range(1, min(m, n) + 1):
                if m % d or n % d or math.gcd(d, N) != 1:
                    continue
                term = d * A.algebra_multiply(A.t_ad(d, d, N),
                                              A.t_n(m * n // (d * d), N))
                rhs = term if rhs is None else rhs + term
            assert lhs == rhs, (m, n, N)


def test_scalar_coset_absorption():
    # T(q,q) T(a,d) = T(qa, qd) with multiplicity 1
    prod = A.algebra_multiply(A.t_ad(3, 3, 1), A.t_n(2, 1))
    assert prod == A.AlgebraElement.make(1, {(3, 6): 1})


def test_make_rejects_bad_labels():
    with pytest.raises(UnsupportedParameter):
        A.AlgebraElement.make(2, {(2, 4): 1})   # gcd(a, N) != 1
    with pytest.raises(UnsupportedParameter):
        A.AlgebraElement.make(1, {(3, 4): 1})   # a does not divide d
