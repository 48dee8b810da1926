import json
import random
from fractions import Fraction

import pytest

from heckediv import operators as O
from heckediv.cyclotomic import Cyclo
from heckediv.errors import (NonUnitLeading, NotIntegralSeries, PrecisionExhausted,
                             UnsupportedParameter)
from heckediv.series import PuiseuxSeries as S


def geometric(prec):
    return S(1, 0, [1] * prec)


# -- the spec'd arithmetic examples -----------------------------------------

def test_difference_of_squares():
    a = S(1, 0, [1, 1, 0, 0, 0])
    b = S(1, 0, [1, -1, 0, 0, 0])
    assert (a * b).agrees_with(S(1, 0, [1, 0, -1, 0, 0]))


def test_geometric_series():
    g = S(1, 0, [1, -1, 0, 0])
    assert S.one(4) / g == geometric(4)


def test_self_division_is_one():
    from heckediv.forms import delta
    d = delta(12)
    one = d / d
    assert one.order == 0 and one.leading_coefficient() == 1
    assert one.agrees_with(S.one(one.precision))


def test_division_by_zero_leading_raises():
    z = S(1, 3, [])  # zero to precision
    with pytest.raises(NonUnitLeading):
        S.one(3) / z


# -- theta -------------------------------------------------------------------

def test_theta_monomial():
    assert S.q_power(5, 3).theta() == 5 * S.q_power(5, 3)


def test_theta_kills_constants():
    t = S.constant(7, 5).theta()
    assert t.is_zero() and t.cutoff == 5


def test_theta_on_E4_matches_sigma_oracle():
    from heckediv.forms import eisenstein, sigma
    th = eisenstein(4, 8).theta()
    # termwise: coefficient of q^n is n * 240 sigma_3(n)
    for n in range(1, 7):
        assert th.coefficient(n) == n * 240 * sigma(3, n)


def test_theta_is_a_derivation():
    rng = random.Random(1)
    for _ in range(10):
        f = S(2, rng.randint(-3, 2), [rng.randint(-4, 4) + 1] +
              [rng.randint(-4, 4) for _ in range(7)])
        g = S(2, rng.randint(-2, 3), [rng.randint(-4, 4) + 1] +
              [rng.randint(-4, 4) for _ in range(7)])
        lhs = (f * g).theta()
        rhs = f.theta() * g + f * g.theta()
        assert lhs.agrees_with(rhs)


# -- log derivative -----------------------------------------------------------

def test_log_derivative_of_E4():
    from heckediv.forms import eisenstein
    ld = eisenstein(4, 8).log_derivative()
    assert [ld.coefficient(i) for i in (1, 2, 3)] == [240, -53280, 12288960]


def test_log_derivative_monomial():
    ld = S.q_power(-1, 4).log_derivative()
    assert ld.agrees_with(S.constant(-1, 8))
    assert ld.coefficient(0) == -1 and ld.order == 0


def test_log_derivative_of_delta_is_sigma1_sum():
    from heckediv.forms import delta, sigma
    ld = delta(12).log_derivative()
    assert ld.coefficient(0) == 1
    for n in range(1, 10):
        assert ld.coefficient(n) == -24 * sigma(1, n)


def test_log_derivative_additive_on_products():
    rng = random.Random(3)
    for _ in range(8):
        f = S(1, rng.randint(-2, 1), [1] + [rng.randint(-3, 3) for _ in range(9)])
        g = S(1, rng.randint(-1, 2), [2] + [rng.randint(-3, 3) for _ in range(9)])
        lhs = (f * g).log_derivative()
        rhs = f.log_derivative() + g.log_derivative()
        assert lhs.agrees_with(rhs)


# -- rescale ----------------------------------------------------------

def test_rescale_monomial_relabeling():
    f = S(1, -1, [1, 24, 0, 0])
    r = f.rescale_exponents(2)
    assert r.coefficient(-2) == 1 and r.coefficient(0) == 24


def test_rescale_delta_half_grid():
    from heckediv.forms import delta
    r = delta(6).rescale_exponents(Fraction(1, 2))
    assert r.D == 2 and r.leading_exponent() == Fraction(1, 2)
    assert r.coefficient(Fraction(1, 2)) == 1 and r.coefficient(1) == -24


def test_rescale_j_cubing():
    from heckediv.forms import j_function
    r = j_function(6).rescale_exponents(3)
    assert r.coefficient(-3) == 1
    assert r.coefficient(0) == 744
    assert r.coefficient(3) == 196884


# -- the additive oracle's twist and certificate --------------------------------
#
# The kernel multiplies no Q(zeta_d): the additive coset oracle of
# heckediv.operators twists its translates (_slash_upper) and certifies
# their sum (_certified) itself.


def translate(f, b, d):
    """f((tau + b)/d), the weight-0 slash translate of the additive oracle."""
    return O._slash_upper(f, (1, b, 0, d), 0)


def test_twist_examples():
    # q at (tau + 1)/2 is e(1/2) q^(1/2); q^(1/2) at tau + 1 is e(1/2) q^(1/2)
    assert translate(S.q_power(1, 2), 1, 2).coefficient(Fraction(1, 2)) == -1
    half = translate(S.q_power(Fraction(1, 2), 2), 1, 1)
    assert half.coefficient(Fraction(1, 2)) == -1


def test_twist_zero_is_identity_and_cycles():
    rng = random.Random(5)
    f = S(3, -4, [1] + [rng.randint(-5, 5) for _ in range(9)])
    assert translate(f, 0, 1) == f and translate(f, 3, 1) == f
    # the twist depends on b mod 3 only, and the three twists sum to three
    # times the part of f on grid 1
    assert translate(f, 4, 1) == translate(f, 1, 1)
    assert translate(f, -1, 1) == translate(f, 2, 1)
    total = translate(f, 0, 1) + translate(f, 1, 1) + translate(f, 2, 1)
    assert total == S(3, -4, [3 * c if (i - 4) % 3 == 0 else 0 for i, c in enumerate(f.coeffs)])
    # Q(zeta_d) has sums but no products: a twisted series is not twisted again
    with pytest.raises(UnsupportedParameter):
        translate(translate(f, 1, 1), 1, 1)


def test_galois_orbit_sum_is_rational_grid():
    # Delta(tau/2) + Delta((tau + 1)/2) = 2 sum tau(2m) q^m
    from heckediv.forms import delta
    total = translate(delta(10), 0, 2) + translate(delta(10), 1, 2)
    proj = O._certified(total)
    assert proj.D == 1 and proj.leading_exponent() == 1 and proj.coefficient(1) == -48


def test_galois_orbit_projection_never_fails():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(12):
            base = S(1, rng.randint(-2, 2),
                     [rng.randint(-4, 4) + 5] +
                     [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6)])
            total = None
            for j in range(n):
                t = translate(base, j, n)
                total = t if total is None else total + t
            proj = O._certified(total)  # must not raise
            assert proj.D == 1


def test_projection_drops_known_zero_half_powers():
    f = S(2, 0, [1, 0, 5])
    p = O._certified(f)
    assert p.coefficient(0) == 1 and p.coefficient(1) == 5


def test_projection_rejects_genuine_half_power():
    with pytest.raises(NotIntegralSeries):
        O._certified(S.q_power(Fraction(1, 2), 3))


def test_projection_rejects_irrational_coefficient():
    f = S(1, 0, [Cyclo.zeta(3), 1, 0])
    with pytest.raises(NotIntegralSeries):
        O._certified(f)


# -- precision bookkeeping ------------------------------------------------------

def test_mul_precision_rule():
    a = S(1, 2, [1] + [0] * 9)   # window [2, 12)
    b = S(1, -1, [1] + [0] * 4)  # window [-1, 4)
    prod = a * b
    assert prod.order == 1
    assert prod.cutoff == min(12 + (-1), 4 + 2)


def test_div_then_mul_recovers_dividend():
    rng = random.Random(9)
    for _ in range(10):
        f = S(1, rng.randint(-2, 2), [1] + [rng.randint(-9, 9) for _ in range(9)])
        g = S(1, rng.randint(-2, 2), [3] + [rng.randint(-9, 9) for _ in range(9)])
        q = f / g
        assert (q * g).agrees_with(f)


def test_truncate_to_nothing_raises():
    from heckediv.forms import j_function
    with pytest.raises(PrecisionExhausted):
        j_function(5).truncate(-1)


def test_coefficient_beyond_cutoff_raises():
    f = S.one(3)
    with pytest.raises(PrecisionExhausted):
        f.coefficient(5)


def test_a_coarser_grid_claims_no_unknown_exponent():
    # 1 + q + O(q^(3/2)) knows nothing at q^(3/2); grid 1 would claim it
    with pytest.raises(PrecisionExhausted):
        S(2, 0, [1, 0, 1]).coefficient(Fraction(3, 2))
    # (1 + x + x^2)(1 - x) = 1 - x^3 for x = q^(1/2): the product knows
    # 1 + O(q^(3/2)), and its window agrees with 1 - q^(3/2)
    prod = S(2, 0, [1, 1, 1]) * S(2, 0, [1, -1, 0])
    with pytest.raises(PrecisionExhausted):
        prod.coefficient(Fraction(3, 2))
    assert prod.agrees_with(S(2, 0, [1, 0, 0, -1]))
    assert prod.cutoff == 3 and prod.D == 2
    # a zero series keeps the grid of its cutoff
    assert [(z.D, z.cutoff) for z in (S(2, 3, []), S(2, 4, []))] == [(2, 3), (1, 2)]
    assert S(2, 0, [1, 0, 1, 0]) == S(1, 0, [1, 1])


def test_equal_through_demands_coverage():
    a = S.one(3)
    b = S.one(10)
    with pytest.raises(PrecisionExhausted):
        a.equal_through(b, 7)
    assert a.equal_through(b, 2)


# -- JSON ---------------------------------------------------

def test_json_writes_rationals_as_strings():
    # exponents order/D, ..., every coefficient "num" or "num/den"
    f = S(2, -3, [Fraction(-36882000, 691), 2, 0, 0, 7])
    assert json.loads(json.dumps(f.to_json())) == {
        "D": 2, "order": -3, "precision": 5,
        "coeffs": ["-36882000/691", "2", "0", "0", "7"]}
