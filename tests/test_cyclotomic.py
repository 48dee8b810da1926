"""Q(zeta_n) as the additive coset oracle uses it: roots of unity, lifts
to a larger order, sums and rational scalar multiples."""

import random

from heckediv.cyclotomic import Cyclo, cyclotomic_polynomial, euler_phi


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_zeta_demotes_to_rational():
    assert Cyclo.zeta(1) == 1
    assert Cyclo.zeta(2) == -1
    assert Cyclo.zeta(4, 2) == -1
    assert Cyclo.zeta(6, 3) == -1
    assert Cyclo.zeta(5, 0) == 1


def test_zeta_power_relations():
    z3 = Cyclo.zeta(3)
    assert 1 + z3 + Cyclo.zeta(3, 2) == 0
    assert Cyclo.zeta(3, 4) == z3 and Cyclo.zeta(3, -1) == Cyclo.zeta(3, 2)
    assert sum([Cyclo.zeta(5, k) for k in range(1, 5)], 0) == -1
    # the n-th roots of unity sum to 0, in the order of each root
    for n in range(2, 13):
        assert sum([Cyclo.zeta(n, k) for k in range(n)], 0) == 0


def test_mixed_order_arithmetic():
    # zeta_2 * zeta_3 = -zeta_3 = zeta_6^5
    z = Cyclo.zeta(2) * Cyclo.zeta(3)
    assert z == Cyclo.zeta(6, 5)
    assert Cyclo.zeta(6, 3) == -1
    # zeta_4 = zeta_12^3 and zeta_6 = zeta_12^2; a sum lands in the lcm order
    assert Cyclo.zeta(4).lift(12) == Cyclo.zeta(12, 3)
    assert Cyclo.zeta(6).lift(12) == Cyclo.zeta(12, 2)
    w = Cyclo.zeta(4) + Cyclo.zeta(6)
    assert w.order == 12 and w == Cyclo.zeta(12, 3) + Cyclo.zeta(12, 2)
    assert (Cyclo.zeta(4) + Cyclo.zeta(3)) + (-1) * Cyclo.zeta(3) == Cyclo.zeta(4)


def test_rationality_detection():
    z4 = Cyclo.zeta(4)
    assert not isinstance(z4 + Cyclo.zeta(4, 3), Cyclo)  # i + (-i) demotes
    v = z4 + (-1) * z4
    assert v == 0
    assert Cyclo.zeta(6) + Cyclo.zeta(6, 5) == 1  # 2 cos(pi/3)


def test_zero_test_by_truthiness():
    # the series kernel tests coefficients for zero by truthiness: every
    # sum or scalar multiple is falsy exactly when it equals 0
    rng = random.Random(3)
    for n in (3, 4, 5, 12):
        zs = [Cyclo.zeta(n, k) for k in range(n)]
        for _ in range(40):
            x, y = rng.choice(zs), rng.choice(zs)
            c = rng.randint(-2, 2)
            for r in (x + c * y, x + (-1) * y, c * x + (-c) * y, (x + y) * c + 1, x * 0):
                assert bool(r) == (r != 0), r
