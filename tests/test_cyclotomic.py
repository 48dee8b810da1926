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
    assert z3 * z3 * z3 == 1
    assert 1 + z3 + z3 * z3 == 0
    z5 = Cyclo.zeta(5)
    acc = 1
    for _ in range(5):
        acc = acc * z5
    assert acc == 1
    assert sum([Cyclo.zeta(5, k) for k in range(1, 5)], 0) == -1


def test_mixed_order_arithmetic():
    # zeta_2 * zeta_3 = zeta_6^5
    z = Cyclo.zeta(2) * Cyclo.zeta(3)
    assert z == Cyclo.zeta(6, 5)
    assert Cyclo.zeta(6, 3) == -1
    # zeta_4 * zeta_6 = zeta_12^5, landing in the lcm order
    w = Cyclo.zeta(4) * Cyclo.zeta(6)
    assert w == Cyclo.zeta(12, 5)
    assert (Cyclo.zeta(4) + Cyclo.zeta(3)) - Cyclo.zeta(3) == Cyclo.zeta(4)


def test_rationality_detection():
    z4 = Cyclo.zeta(4)
    assert not isinstance(z4 * z4, Cyclo)  # -1 demotes
    v = z4 + (-1) * z4
    assert v == 0


def test_zero_test_by_truthiness():
    # the series kernel tests coefficients for zero by truthiness: every
    # value that arithmetic returns is falsy exactly when it equals 0
    rng = random.Random(3)
    for n in (3, 4, 5, 12):
        zs = [Cyclo.zeta(n, k) for k in range(n)]
        for _ in range(40):
            x, y = rng.choice(zs), rng.choice(zs)
            c = rng.randint(-2, 2)
            for r in (x + c * y, x * y - y * x, x * (y - y) + c, (x + y) * (x - y)):
                assert bool(r) == (r != 0), r
