import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from heckediv import algebra as A
from heckediv.errors import UnsupportedParameter


# -- oracle: the general left-coset key ---------------------------------------
# An independent route to the left coset of any matrix of Delta_N, kept only
# to check the upper-triangular key of `A._multiply_cosets`: the Hermite form
# of the row lattice by a Euclid loop, plus the P^1(Z/N) class of the
# unimodular part by the scan `A.p1_label`, and the elementary-divisor label
# of any matrix of Delta_N.

def mat_det(x):
    return x[0] * x[3] - x[1] * x[2]


def hnf2(x):
    """Hermite form (a b; 0 d), a > 0, 0 <= b < d, of the row lattice of x."""
    a, b, c, d = x
    det = mat_det(x)
    assert det > 0, x
    r1, r2 = (a, b), (c, d)
    while r2[0]:
        q = r1[0] // r2[0]
        r1, r2 = r2, (r1[0] - q * r2[0], r1[1] - q * r2[1])
    if r1[0] < 0:
        r1 = (-r1[0], -r1[1])
    dd = abs(det // r1[0])
    return (r1[0], r1[1] % dd, 0, dd)


def left_coset_key(x, N):
    """Exact invariant of the left coset Gamma_0(N) x: x = s h with
    s in SL_2(Z) and h = hnf2(x), keyed by h and the class of s's bottom row."""
    h = hnf2(x)
    ha, hb, _, hd = h
    det = ha * hd
    s = A.mat_mul(x, (hd, -hb, 0, ha))
    assert all(v % det == 0 for v in s), (x, h)
    return (h, A.p1_label(s[2] // det, s[3] // det, N))


def double_coset_label(x, N):
    """Elementary-divisor label (a, d) of Gamma_0(N) x Gamma_0(N) for x in
    Delta_N (det > 0, (a, N) = 1, N | c); ValueError for any other x."""
    if not (mat_det(x) > 0 and math.gcd(x[0], N) == 1 and x[2] % N == 0):
        raise ValueError(f"{x} is not in Delta_{N}")
    g = A.mat_content(x)
    return (g, mat_det(x) // g)


def multiply_by_oracle(u, v):
    """u * v in R_0(N) by grouping every product of representatives under
    the oracle key and labelling each group by `double_coset_label`."""
    N = u.N
    acc = {}
    for lab1, m1 in u.terms:
        for lab2, m2 in v.terms:
            groups = {}
            for x in A.double_coset_reps(*lab1, N):
                for y in A.double_coset_reps(*lab2, N):
                    p = A.mat_mul(x, y)
                    key = left_coset_key(p, N)
                    groups.setdefault(key, [double_coset_label(p, N), 0])[1] += 1
            counts = {}
            for label, cnt in groups.values():
                counts.setdefault(label, set()).add(cnt)
            for label, cnts in counts.items():
                assert len(cnts) == 1, (lab1, lab2, label, cnts)
                acc[label] = acc.get(label, 0) + m1 * m2 * cnts.pop()
    return A.AlgebraElement.make(N, acc)


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
    det = mat_det(x)
    assume(det > 0)
    gamma = (1, 0, 0, 1)
    for g in word:
        gamma = A.mat_mul(g, gamma)
    h = hnf2(x)
    assert hnf2(A.mat_mul(gamma, x)) == h
    a, b, c, d = h
    assert c == 0 and a > 0 and 0 <= b < d and a * d == det
    # x = g h with g = x h^-1 integral: h spans the rows of x
    g = A.mat_mul(x, (d, -b, 0, a))
    assert all(e % det == 0 for e in g)


def test_same_left_coset_examples():
    # Gamma_0(N) x = Gamma_0(N) y exactly where the oracle keys agree
    key = left_coset_key
    assert key((1, 0, 0, 2), 1) != key((1, 1, 0, 2), 1)
    rng = random.Random(31)
    for N in (1, 2, 3):
        for rep in A.left_coset_reps(N, 5):
            g = random_gamma0(N, rng)
            assert key(A.mat_mul(g, rep), N) == key(rep, N)
    assert key((2, 0, 0, 2), 1) == key(A.mat_mul((2, 0, 0, 2), (1, 1, 0, 1)), 1)


def test_left_coset_key_separates_the_representatives():
    # translates of one representative share its key, and the left-coset
    # representatives of one layer have distinct keys
    rng = random.Random(77)
    for N, n in ((1, 4), (2, 3), (3, 4), (6, 5)):
        reps = A.left_coset_reps(N, n)
        keys = [left_coset_key(r, N) for r in reps]
        assert len(set(keys)) == len(reps)
        for r, k in zip(reps, keys):
            x = A.mat_mul(random_gamma0(N, rng), r)
            y = A.mat_mul(random_gamma0(N, rng), r)
            assert left_coset_key(x, N) == left_coset_key(y, N) == k


def test_double_coset_label_examples():
    assert double_coset_label((2, 0, 0, 2), 1) == (2, 2)
    assert double_coset_label((1, 1, 0, 4), 1) == (1, 4)
    assert double_coset_label((2, 2, 0, 2), 1) == (2, 2)


def test_double_coset_label_membership_guard():
    with pytest.raises(ValueError):
        double_coset_label((2, 0, 1, 1), 2)  # lower-left not divisible by 2
    with pytest.raises(ValueError):
        double_coset_label((2, 0, 0, 1), 2)  # upper-left shares a factor with N


def test_label_constant_on_double_coset_orbits():
    rng = random.Random(13)
    for N in (1, 2, 3):
        for lab in [(1, 4), (1, 6), (2, 2), (1, 12)]:
            a, d = lab
            if math.gcd(a, N) != 1:
                continue
            base = (a, 0, 0, d)
            for _ in range(25):
                g1 = random_gamma0(N, rng)
                g2 = random_gamma0(N, rng)
                m = A.mat_mul(A.mat_mul(g1, base), g2)
                assert double_coset_label(m, N) == lab


def test_example_2_2_product():
    t2 = A.t_n(2, 1)
    prod = A.algebra_multiply(t2, t2)
    assert prod == A.AlgebraElement.make(1, {(1, 4): 1, (2, 2): 3})


def test_t2_t3_is_t6():
    assert A.algebra_multiply(A.t_n(2, 1), A.t_n(3, 1)) == A.t_n(6, 1)


def test_identity_element():
    u = A.t_n(5, 1)
    one = A.t_ad(1, 1, 1)
    assert A.algebra_multiply(u, one) == u
    assert A.algebra_multiply(one, u) == u


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


def _hecke_product_formula(m, n, N):
    # T(m) T(n) = sum over e | (m, n), (e, N) = 1 of e T(e,e) T(mn/e^2)
    rhs = None
    for e in range(1, min(m, n) + 1):
        if m % e or n % e or math.gcd(e, N) != 1:
            continue
        term = e * A.algebra_multiply(A.t_ad(e, e, N), A.t_n(m * n // (e * e), N))
        rhs = term if rhs is None else rhs + term
    return rhs


@pytest.mark.parametrize("N", [1, 2, 3])
def test_hecke_product_formula(N):
    for m in range(1, 7):
        for n in range(1, 7):
            assert A.algebra_multiply(A.t_n(m, N), A.t_n(n, N)) == \
                _hecke_product_formula(m, n, N), (m, n, N)


def test_hecke_product_formula_at_a_large_prime_level():
    N = 1009
    for m in range(1, 13):
        for n in range(1, 13):
            assert A.algebra_multiply(A.t_n(m, N), A.t_n(n, N)) == \
                _hecke_product_formula(m, n, N), (m, n)


def test_scalar_coset_absorption():
    # T(q,q) T(a,d) = T(qa, qd) with multiplicity 1
    prod = A.algebra_multiply(A.t_ad(3, 3, 1), A.t_n(2, 1))
    assert prod == A.AlgebraElement.make(1, {(3, 6): 1})


def test_make_rejects_bad_labels():
    with pytest.raises(UnsupportedParameter):
        A.AlgebraElement.make(2, {(2, 4): 1})   # gcd(a, N) != 1
    with pytest.raises(UnsupportedParameter):
        A.AlgebraElement.make(1, {(3, 4): 1})   # a does not divide d
    # the constructor checks too, so no operator reads T(2, 3) as T(1, 1)
    with pytest.raises(UnsupportedParameter):
        A.AlgebraElement(1, (((2, 3), 1),))


def _element(draw, N):
    # a t_n with n <= 40, (n, N) > 1 included, or a t_ad with ad <= 40
    kind = draw(st.sampled_from(["n", "ad"]))
    if kind == "n":
        return A.t_n(draw(st.integers(1, 40)), N)
    a = draw(st.integers(1, 6).filter(lambda a: math.gcd(a, N) == 1))
    d = a * draw(st.integers(1, 40 // (a * a)))
    return A.t_ad(a, d, N)


@st.composite
def _level_and_pair(draw):
    N = draw(st.integers(1, 60))
    return N, _element(draw, N), _element(draw, N)


@settings(max_examples=150, deadline=None)
@given(_level_and_pair())
def test_multiply_equals_grouping_by_the_oracle_key(case):
    N, u, v = case
    assert A.algebra_multiply(u, v) == multiply_by_oracle(u, v)


def test_multiply_reads_no_p1_class(monkeypatch):
    def refuse(*args):
        raise AssertionError("p1_label called")
    monkeypatch.setattr(A, "p1_label", refuse)
    t30 = A.t_n(30, 1009)
    prod = A.algebra_multiply(t30, t30)
    assert prod == A.AlgebraElement.make(1009, {
        (1, 900): 1, (2, 450): 3, (3, 300): 4, (5, 180): 6, (6, 150): 12,
        (10, 90): 18, (15, 60): 24, (30, 30): 72})
