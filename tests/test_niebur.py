import cmath
import math
import sys
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from heckediv import forms as F, niebur as NB
from heckediv.curve import CM_J, HeegnerPoint as H, OMEGA, POINT_I, act_matrix
from heckediv.errors import ConvergenceBudgetExceeded, HeckeDivError, InvalidInput, \
    NonGenusZeroLevel, UnsupportedParameter
from heckediv.niebur import EvalParams
from heckediv.series import PuiseuxSeries as S
from test_forms import _jn_oracle


# -- the phi kernel: I-Bessel series in doubles ------------------------------------
#
# phi_m(v, s) = 2 pi sqrt(m v) I_{s-1/2}(2 pi m v), so at m = 1 and
# x = 2 pi v it is sqrt(2 pi x) I_nu(x) with nu = s - 1/2.

def _bessel_i(nu, x):
    import numpy as np
    return NB._phi_np(1, np.array([x / (2 * math.pi)]), nu + 0.5)[0] / math.sqrt(2 * math.pi * x)


def test_i_bessel_half_integer_closed_form():
    for x in (0.5, 1, 2, 5):
        want = math.sqrt(2 / (math.pi * x)) * math.sinh(x)
        assert abs(_bessel_i(0.5, x) - want) <= 1e-13 * want


def test_i_bessel_at_zero():
    import numpy as np
    for s in (2.0, 1.2):  # nu = 1.5, 0.7
        assert NB._phi_np(1, np.array([0.0]), s)[0] == 0


def test_i_bessel_recurrence():
    # I_{nu-1}(x) - I_{nu+1}(x) = (2 nu / x) I_nu(x)
    for nu, x in ((1.5, 2), (2.5, 3), (1.0, 1.7)):
        lhs = _bessel_i(nu - 1, x) - _bessel_i(nu + 1, x)
        rhs = 2 * nu / x * _bessel_i(nu, x)
        assert abs(lhs - rhs) <= 1e-12 * rhs


def test_phi_m0_branch():
    import numpy as np
    # 1.75 is exactly representable, so the comparison is exact
    assert NB._phi_np(0, np.array([1.75]), 2)[0] == 1.75 ** 2


def test_phi_half_integer_value():
    import numpy as np
    want = 2 * math.sinh(2 * math.pi)
    assert abs(NB._phi_np(1, np.array([1.0]), 1.0)[0] - want) <= 1e-13 * want


def test_phi_scaling_identity():
    import numpy as np
    # phi_m(x v, s) = phi_{mx}(v, s): phi depends on the product m v only
    for (m, v, s) in ((2, 0.77, 1.8), (3, 0.375, 1.5), (4, 1.1, 2.2)):
        got = NB._phi_np(m, np.array([v]), s)[0]
        want = NB._phi_np(1, np.array([m * v]), s)[0]
        assert abs(got - want) <= 1e-13 * want


# -- Niebur values ------------------------------------------------------------------

FAST = EvalParams(truncation=120, digits=14, s=1.5)


def test_modular_invariance_small_budget():
    tau = 0.25 + 1.0j
    f0 = NB.niebur_value(1, 1, tau, FAST).value
    f1 = NB.niebur_value(1, 1, tau + 1, FAST).value
    f2 = NB.niebur_value(1, 1, -1 / tau, FAST).value
    assert abs(f0 - f1) < 1e-8
    assert abs(f0 - f2) < 1e-3


def test_hecke_relation_prop43():
    lhs = sum(NB.niebur_value(1, 1, w, FAST).value for w in (2j, 0.5j, 0.5 + 0.5j))
    rhs = NB.niebur_value(1, 2, 1j, FAST).value
    assert abs(lhs - rhs) < 1e-3


def test_eisenstein_eigenrelation():
    P = EvalParams(truncation=120, digits=14, s=2.0)
    lhs = sum(NB.niebur_value(1, 0, w, P).value for w in (2j, 0.5j, 0.5 + 0.5j))
    rhs = (4 + 0.5) * NB.niebur_value(1, 0, 1j, P).value
    assert abs(lhs - rhs) / abs(rhs) < 1e-3


def test_level2_invariance():
    # F_{2,-1} is Gamma_0(2)-invariant but not SL_2(Z)-invariant
    P = EvalParams(truncation=150, digits=14, s=1.5)
    tau = 0.3 + 0.9j
    g = (1, 0, 2, 1)  # in Gamma_0(2)
    w = (tau * g[0] + g[1]) / (tau * g[2] + g[3])
    a = NB.niebur_value(2, 1, tau, P).value
    b = NB.niebur_value(2, 1, w, P).value
    assert abs(a - b) < 1e-3


def test_hecke_relation_p_dividing_level():
    # statement-level check at p | N: the T(p) image of F_{N,-m} combines
    # the level-N series at pm, the level-N/p series at m/p, and the
    # level-N/p series rescaled by p (the m/p term vanishes for m = 1)
    P = EvalParams(truncation=200, digits=14, s=1.5)
    tau = 0.3 + 1.1j
    lhs = (NB.niebur_value(2, 1, tau / 2, P).value
           + NB.niebur_value(2, 1, (tau + 1) / 2, P).value)
    rhs = NB.niebur_value(2, 2, tau, P).value \
        - NB.niebur_value(1, 1, 2 * tau, P).value
    assert abs(lhs - rhs) < 1e-3


def test_hecke_relation_p_dividing_level_m0():
    # m = 0 variant: p^s E_N + p^(1-s) E_{N/p} - E_{N/p}(p tau)
    s = 1.7
    P = EvalParams(truncation=200, digits=14, s=s)
    tau = 0.3 + 1.1j
    lhs = (NB.niebur_value(2, 0, tau / 2, P).value
           + NB.niebur_value(2, 0, (tau + 1) / 2, P).value)
    rhs = (2 ** s) * NB.niebur_value(2, 0, tau, P).value \
        + (2 ** (1 - s)) * NB.niebur_value(1, 0, tau, P).value \
        - NB.niebur_value(1, 0, 2 * tau, P).value
    assert abs(lhs - rhs) / abs(rhs) < 1e-3


def test_error_estimates_monotone_in_C():
    for tau in (1j, 0.3 + 1.2j):
        ests = [NB.niebur_value(1, 1, tau, EvalParams(truncation=Ci, digits=14, s=1.5)).error_estimate
                for Ci in (50, 100, 200)]
        assert all(e >= 0 for e in ests)
        assert all(ests[i + 1] <= ests[i] * (1 + 1e-9) for i in range(len(ests) - 1))


def test_eval_params_validation():
    with pytest.raises(UnsupportedParameter):
        EvalParams(truncation=0)
    with pytest.raises(UnsupportedParameter):
        EvalParams(s=1.0)
    # the sum runs in doubles: no digits beyond 15 to be had
    assert EvalParams(digits=15).digits == 15
    with pytest.raises(UnsupportedParameter):
        EvalParams(digits=16)


# -- independent references ----------------------------------------------------------

def _eisenstein_fourier(tau, s, dps=30):
    r"""E(tau, s), the sum of Im(gamma tau)^s over Gamma_inf \ SL_2(Z), from
    its Fourier expansion (Iwaniec, Spectral Methods of Automorphic Forms,
    2nd ed., ch. 3) with xi(z) = pi^(-z/2) Gamma(z/2) zeta(z):

        y^s + xi(2s-1)/xi(2s) y^(1-s) + 4 sqrt(y)/xi(2s)
            * sum_{n>=1} n^(s-1/2) sigma_{1-2s}(n) K_{s-1/2}(2 pi n y) cos(2 pi n x)
    """
    with mpmath.workdps(dps):
        x, y, s = mpmath.mpf(tau.real), mpmath.mpf(tau.imag), mpmath.mpf(s)

        def xi(z):
            return mpmath.pi ** (-z / 2) * mpmath.gamma(z / 2) * mpmath.zeta(z)

        value = y ** s + xi(2 * s - 1) / xi(2 * s) * y ** (1 - s)
        acc = mpmath.mpf(0)
        for n in range(1, 1000):
            sigma = sum(mpmath.mpf(d) ** (1 - 2 * s) for d in range(1, n + 1) if n % d == 0)
            size = n ** (s - 0.5) * sigma * mpmath.besselk(s - 0.5, 2 * mpmath.pi * n * y)
            acc += size * mpmath.cos(2 * mpmath.pi * n * x)
            if size < mpmath.mpf(10) ** (5 - dps):
                break
        return complex(value + 4 * mpmath.sqrt(y) / xi(2 * s) * acc)


@pytest.mark.parametrize("tau", (1j, 0.25 + 1j, -0.4 + 0.9j))
def test_m0_value_and_estimate_against_eisenstein_fourier(tau):
    # at m = 0 the c-tail really decays like C^(2-2s), so the empirical
    # estimate must track the true truncation error (ratio measured
    # 0.989-1.001 on this grid)
    for s in (1.5, 2.0):
        ref = _eisenstein_fourier(tau, s)
        for C in (150, 300):
            pv = NB.niebur_value(1, 0, tau, EvalParams(truncation=C, s=s))
            err = abs(pv.value - ref)
            assert 0.5 * pv.error_estimate <= err <= 1.5 * pv.error_estimate, (s, C, err)


@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("s", (1.01, 1.5, 2.0, 3.0))
def test_phi_np_against_mpmath_besseli(m, s):
    # phi_m(v, s) = 2 pi sqrt(m v) I_{s-1/2}(2 pi m v), over the whole range
    # of Im(gamma tau) the sums meet (worst case measured 5.0e-15)
    import numpy as np
    v = np.geomspace(1e-9, 4.0, 80)
    got = NB._phi_np(m, v, s)
    with mpmath.workdps(30):
        for vi, gi in zip(v, got):
            x = 2 * mpmath.pi * m * mpmath.mpf(float(vi))
            want = mpmath.sqrt(2 * mpmath.pi * x) * mpmath.besseli(s - 0.5, x)
            assert abs(gi - want) <= 1e-13 * want, (vi, gi, want)


def _window_route_sum(N, m, u, v, s, C):
    """Reference: the truncated Poincare sum with every row on its d-window
    (`NB._window_rows`), and its partial sums at the checkpoints: the route
    the closed-form rows are tested against.  It sums at u as given, where
    `niebur_value` sums at u mod 1."""
    return NB._partial_sums(NB._identity_term(m, u, v, s),
                            NB._window_rows(m, u, v, s, range(N, C * N + 1, N)), C)


def _direct_rows(N, m, tau, s, C):
    """Row sums of F_{N,-m}(tau, s) for c = N, 2N, .., CN over the windows of
    the fast path, term by term: gamma tau = (a tau + b)/(c tau + d) in
    complex arithmetic, with a = d^-1 mod c and b = (ad - 1)/c from Python
    integers, and the term phi_m(Im gamma tau) e(-m Re gamma tau)."""
    import numpy as np
    rows = []
    for c in range(N, C * N + 1, N):
        X = NB._row_halfwidth(c, tau.imag)
        center = -c * tau.real
        ws = []
        for d in range(math.ceil(center - X), math.floor(center + X) + 1):
            if math.gcd(d, c) == 1:
                a = pow(d, -1, c)
                ws.append((a * tau + (a * d - 1) // c) / (c * tau + d))
        w = np.array(ws)
        rows.append(complex(np.sum(NB._phi_np(m, w.imag, s)
                                   * np.exp(-2j * math.pi * m * w.real))))
    return rows


@pytest.mark.parametrize("N", (1, 2))
@pytest.mark.parametrize("m", (0, 1, 2))
def test_block_rows_against_direct_moebius_sum(N, m):
    # the fast path never forms gamma tau: it reads Im and Re off c, d and
    # the per-residue phase -2 pi m a/c.  Rows run to c = 5N, since every
    # unit mod c is its own inverse for c | 24.  They are read as
    # differences of running totals (C = 0 is the identity term alone), so
    # each carries the rounding of the totals it is read from.
    eps = 2.0 ** -52
    for tau in (1j, 0.25 + 1j, -0.37 + 0.6j):
        totals = [_window_route_sum(N, m, tau.real, tau.imag, 1.5, C)[0] for C in range(6)]
        for C, want in enumerate(_direct_rows(N, m, tau, 1.5, 5), start=1):
            got = totals[C] - totals[C - 1]
            tol = 1e-12 * abs(want) + 4 * eps * (abs(totals[C]) + abs(totals[C - 1]))
            assert abs(got - want) <= tol, (tau, C)


# -- CM values ---------------------------------------------------------------------

def test_j1_at_omega_is_minus_720():
    val = NB.jn_value(1, OMEGA, 40)
    assert abs(val + 720) < mpmath.mpf(10) ** -30


def test_j1_at_i():
    assert abs(NB.jn_value(1, POINT_I, 40) - 1008) < mpmath.mpf(10) ** -30


@pytest.mark.parametrize("D", sorted(CM_J))
def test_class_number_one_j_table_is_j1_plus_720(D):
    # the exact j-values behind the divisors of j - c and the bko and
    # divisor-hecke suites against the series of j_1 = j - 720 at the
    # principal form of discriminant D
    b = D % 2
    z = H(1, b, (b - D) // 4)
    assert abs(NB.jn_value(1, z, 40) + 720 - CM_J[D]) < mpmath.mpf(10) ** -25


def test_jn_value_reduces_first():
    # i/2 is outside the fundamental domain; exact reduction handles it
    assert abs(NB.jn_value(1, H(4, 0, 1), 30) - 286776) < mpmath.mpf(10) ** -20


@st.composite
def sl2z(draw):
    """(a, b, c, d) in SL_2(Z): a product of T^k S = [[k, -1], [1, 0]]."""
    a, b, c, d = 1, 0, 0, 1
    for k in draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4)):
        a, b, c, d = a * k + b, -a, c * k + d, -c
    return a, b, c, d


@st.composite
def cm_points(draw):
    """A HeegnerPoint [A, B, C] with A <= 6, |B| <= 6 and B^2 - 4AC < 0."""
    A, B = draw(st.integers(1, 6)), draw(st.integers(-6, 6))
    return H(A, B, draw(st.integers(B * B // (4 * A) + 1, B * B // (4 * A) + 5)))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from((1, 2, 3)), cm_points(), sl2z())
def test_jn_value_is_sl2z_invariant_on_cm_points(n, z, gamma):
    # gamma z lies anywhere in the upper half-plane, often far from the
    # fundamental domain; at n = 1 both values are j - 720 by mpmath's
    # kleinj at gamma z, a theta-function route that shares no code with
    # jn_value
    w = act_matrix(gamma, z)
    want = NB.jn_value(n, z)
    assert NB.jn_value(n, w) == want, (gamma, z)
    if n == 1:
        with mpmath.workdps(80):
            wc = mpmath.mpc(mpmath.mpf(-w.B) / (2 * w.A), mpmath.sqrt(-w.discriminant) / (2 * w.A))
            assert abs(1728 * mpmath.kleinj(wc) - 720 - want) <= mpmath.mpf(10) ** -40 * abs(want)


def test_jn_value_takes_cm_points_only():
    for z in (0.1 + 1.1j, 1j, mpmath.mpc(0.1, 0.3), (1, 0, 1), None):
        with pytest.raises(InvalidInput):
            NB.jn_value(1, z)


def test_evaluate_series_refuses_a_fractional_grid():
    with pytest.raises(UnsupportedParameter):
        NB.evaluate_series(F.eta_quotient_qexp(F.EtaQuotientSpec.make(1, {1: 1}), 5), 1j)


def test_evaluate_series_reads_fraction_coefficients():
    # 1/2 - (3/4) q at tau = i, q = e^(-2 pi)
    f = S(1, 0, [Fraction(1, 2), Fraction(-3, 4)])
    with mpmath.workdps(40):
        want = mpmath.mpf(1) / 2 - mpmath.mpf(3) / 4 * mpmath.exp(-2 * mpmath.pi)
        assert abs(NB.evaluate_series(f, 1j, 30) - want) < mpmath.mpf(10) ** -35


def test_jn_value_independent_truncations():
    # the evaluator's truncation choice does not matter beyond the target:
    # compare against a manual evaluation with twice the series length
    digits = 32
    for n in (1, 2, 3):
        got = NB.jn_value(n, OMEGA, digits)
        length = NB._series_length_for(n, math.sqrt(3) / 2, digits)
        series = F.jn(n, 2 * length + n)
        with mpmath.workdps(digits + 15):
            zc = mpmath.mpc(mpmath.mpf(-1) / 2, mpmath.sqrt(3) / 2)
            manual = NB.evaluate_series(series, zc, digits)
        assert abs(got - manual) < mpmath.mpf(10) ** -(digits - 2)


# -- harmonic slices ------------------------------------------------------------------

def test_slice_level1_is_j_up_to_constant():
    s = NB.harmonic_slice(1, 1, 12)
    assert s.theta().agrees_with(F.j_shifted(12).theta(), through=10)
    assert s.coefficient(0) == 0


def test_slice_level1_m2_is_j2_up_to_constant():
    # j_2 by the additive Hecke formula, not by the Faber recursion of the slice
    s = NB.harmonic_slice(1, 2, 12)
    assert s.theta().agrees_with(_jn_oracle(2, 14).theta(), through=10)


def test_slice_level2_m2_structure():
    s = NB.harmonic_slice(2, 2, 12)
    assert s.leading_exponent() == -2
    assert s.coefficient(-1) == 0 and s.coefficient(0) == 0
    # equals t^2 + 48 t + const with t the level-2 Hauptmodul
    t = F.eta_quotient_qexp(F.hauptmodul_spec(2), 16)
    assert s.theta().agrees_with((t * t + 48 * t).theta(), through=10)


def test_slice_rejects_other_levels():
    with pytest.raises(NonGenusZeroLevel):
        NB.harmonic_slice(6, 1, 8)


def _oracle_harmonic_slice(N, m, prec):
    """Oracle: the slice as t^m with its poles q^-(m-1), .., q^-1 stripped
    by lower powers of the Hauptmodul t, then its constant term, the route
    that the Faber recursion replaced."""
    t = F.j_shifted(prec + m + 2) if N == 1 else \
        F.eta_quotient_qexp(F.hauptmodul_spec(N), prec + m + 2)
    f = t ** m
    for e in range(m - 1, 0, -1):
        a = f.coefficient(-e)
        if a:
            f = f - a * t ** e
    return f - f.coefficient(0)


def _outcome(fn, *args):
    try:
        s = fn(*args)
    except HeckeDivError as e:
        return type(e)
    return s.D, s.order, s.coeffs, [type(c) for c in s.coeffs]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(1, 10), st.integers(-4, 60))
@example(1, 1, -2)  # the largest prec refused
@example(1, 10, -1)  # the smallest prec answered
@example(4, 10, 60)
def test_slice_is_the_pole_stripped_power_of_the_hauptmodul(N, m, prec):
    NB.harmonic_slice.cache_clear()
    assert _outcome(NB.harmonic_slice, N, m, prec) == _outcome(_oracle_harmonic_slice, N, m, prec)


# -- block-periodic rows against the element-by-element oracle ----------------------
#
# The oracle is the element-by-element route the fast path replaced: np.gcd
# over the whole window, a per-residue Python pow table, and a Bessel series
# that stops on max-reductions of the term and partial-sum vectors.  The
# fast path must reproduce it bit for bit.

def _oracle_phi_np(m, v, s):
    import numpy as np
    if m == 0:
        return v ** s
    nu = s - 0.5
    x = 2.0 * math.pi * m * v
    half = x / 2.0
    y = half * half
    term = np.ones_like(v)
    acc = term.copy()
    ymax = float(y.max()) if y.size else 0.0
    k = 1
    while True:
        term = term * (y / (k * (k + nu)))
        acc += term
        if ymax / ((k + 1) * (k + 1 + nu)) < 0.5 and \
                float(np.abs(term).max()) < 1e-18 * float(np.abs(acc).max() + 1e-300):
            break
        k += 1
        if k > 400:
            raise ConvergenceBudgetExceeded("vectorized Bessel series stalled")
    with np.errstate(divide="ignore"):
        lead = np.exp(nu * np.log(half) - math.lgamma(nu + 1.0))
    return 2.0 * math.pi * np.sqrt(m * v) * lead * acc


def _oracle_inverse_table(c):
    import numpy as np
    inv = np.zeros(c, dtype=np.int64)
    for r in range(c):
        if math.gcd(r, c) == 1:
            inv[r] = pow(r, -1, c)
    return inv


def _oracle_row(m, u, v, s, c):
    import numpy as np
    X = NB._row_halfwidth(c, v)
    center = -c * u
    d = np.arange(math.ceil(center - X), math.floor(center + X) + 1, dtype=np.int64)
    mask = np.gcd(d, c) == 1
    if not mask.any():
        return None
    d = d[mask]
    t = c * u + d.astype(np.float64)
    denom = t * t + (c * v) ** 2
    vg = v / denom
    amp = _oracle_phi_np(m, vg, s)
    if m:
        a = _oracle_inverse_table(c)[d % c]
        phase = -2.0 * math.pi * m * (a / float(c)) + 2.0 * math.pi * m * t / (c * denom)
        return complex(np.sum(amp * np.cos(phase)), np.sum(amp * np.sin(phase)))
    return complex(np.sum(amp))


def _oracle_window_rows(m, u, v, s, cs):
    import numpy as np
    return np.array([_oracle_row(m, u, v, s, int(c)) or 0j for c in cs])


def _oracle_sum_fast(N, m, u, v, s, C):
    import numpy as np
    total = complex(_oracle_phi_np(m, np.array([v]), s)[0]) * \
        complex(math.cos(2 * math.pi * m * u), -math.sin(2 * math.pi * m * u)) \
        if m else complex(v ** s)
    marks = NB._checkpoints(C)
    partials = []
    next_mark = 0
    for c in range(N, C * N + 1, N):
        row = _oracle_row(m, u, v, s, c)
        if row is not None:
            total += row
        while next_mark < len(marks) and c == marks[next_mark] * N:
            partials.append((marks[next_mark], total))
            next_mark += 1
    while next_mark < len(marks):
        partials.append((marks[next_mark], total))
        next_mark += 1
    return total, partials


# u = 0 gives windows of odd length 2X + 1 (integral centre -c u) in every
# row; u < 0 with the small v = 0.03 gives even length 2X; u = 1/2 mixes
# the two by the parity of c
ORACLE_TAUS = (1j, -0.37 + 0.03j, 0.5 + 1.3j)


@pytest.mark.parametrize("N", (1, 2, 3))
@pytest.mark.parametrize("m", (0, 1, 2, 3))
@pytest.mark.parametrize("s", (1.5, 2.0))
def test_block_rows_match_elementwise_oracle(N, m, s):
    for tau in ORACLE_TAUS:
        for C in (1, 2, 7, 40):
            got = _window_route_sum(N, m, tau.real, tau.imag, s, C)
            want = _oracle_sum_fast(N, m, tau.real, tau.imag, s, C)
            assert got[0] == want[0], (tau, C)
            assert got[1] == want[1], (tau, C)


def test_window_parities_covered():
    # the oracle grid sees both window parities
    lengths = set()
    for tau in ORACLE_TAUS:
        for c in (1, 2, 3, 7):
            X = NB._row_halfwidth(c, tau.imag)
            center = -c * tau.real
            lengths.add((math.floor(center + X) - math.ceil(center - X) + 1) - 2 * X)
    assert lengths == {0, 1}


@pytest.mark.parametrize("m", (0, 2))
def test_niebur_value_matches_elementwise_oracle(m, monkeypatch):
    # the d-window rows run only where the closed form would cost more
    # (m = 0 at small Im tau: every row) or where its terms cancel by more
    # than the error estimate allows (m = 2 at Im tau = 0.03: the rows of
    # the smallest c), so both cases take a point of small Im tau
    P = EvalParams(truncation=30, digits=14, s=1.5)
    tau = -0.21 + (1e-4j if m == 0 else 0.03j)
    if m == 0:
        closed, rows = NB._eisenstein_rows_cost(2, tau.imag, 1.5, 30)
        assert closed > rows
    windowed = []
    real = NB._window_rows

    def spy(m, u, v, s, cs):
        windowed.extend(int(c) for c in cs)
        return real(m, u, v, s, cs)

    monkeypatch.setattr(NB, "_window_rows", spy)
    got = NB.niebur_value(2, m, tau, P)
    assert windowed == list(range(2, 61, 2)) if m == 0 else 0 < len(windowed) < 30
    monkeypatch.setattr(NB, "_window_rows", _oracle_window_rows)
    want = NB.niebur_value(2, m, tau, P)
    assert got.value == want.value
    assert got.error_estimate == want.error_estimate


# moduli that cross 255/256 and 65535/65536, the old uint8/uint16/uint32
# table steps, and 2^16, where square-and-multiply leaves uint32 for int64
_MODULI = st.one_of(st.integers(1, 300), st.integers(250, 262), st.integers(65530, 65540))


@settings(max_examples=40, deadline=None)
@given(cs=st.lists(_MODULI, min_size=1, max_size=8, unique=True).map(sorted))
@example(cs=[*range(1, 2001), 65535, 65536, 65537, 2 * 65537, 3 * 5 * 7 * 11 * 13 * 17])
def test_inverse_pass_against_pow(cs):
    # the half-table of each c: r^-1 mod c at the units r <= c/2, 0 at the
    # other r <= c/2; a unit above c/2 reads c - inv[c - r].  The example
    # holds every c <= 2000, among them c = 1, 2, 4 and every p^k and 2 p^k
    # in range, the moduli whose units form a cyclic group
    flat = NB._inverse_pass(cs)
    assert flat.dtype == np.int64 and flat.size == sum(c // 2 + 1 for c in cs)
    start = 0
    for c in cs:
        table = flat[start:start + c // 2 + 1]
        start += c // 2 + 1
        upper = (c - table[1:(c - 1) // 2 + 1][::-1]) % c
        full = np.concatenate([table, upper])
        unit = np.gcd(np.arange(c), c) == 1
        assert not full[~unit].any(), c
        assert full[unit].tolist() == [pow(r, -1, c) for r in np.flatnonzero(unit).tolist()], c


def test_inverse_store_is_built_once_and_emptied_by_cache_clear():
    # the store keeps Kloosterman rows only, under (c, m), and no inverse
    # table; at Im tau = 1 every row of N = 2, C = 40 runs in closed form,
    # so it needs one row per modulus
    P = EvalParams(truncation=40, s=1.5)
    tau = 0.2137 + 1j
    moduli = list(range(2, 81, 2))
    NB._store.cache_clear()
    before = NB.niebur_value(2, 1, tau, P)
    store = NB._store()
    kept = dict(store.arrays)
    assert sorted(kept) == [(c, 1) for c in moduli]
    assert store.nbytes == sum(a.nbytes for a in kept.values())
    assert not any(a.flags.writeable for a in kept.values())
    # what is stored is read, not built again
    rows = NB._kloosterman_rows(np.array(moduli), 1)
    assert rows.tolist() == np.concatenate([kept[c, 1] for c in moduli]).tolist()
    again = NB.niebur_value(2, 1, tau, P)
    assert (again.value, again.error_estimate) == (before.value, before.error_estimate)
    assert store.arrays.keys() == kept.keys()
    assert all(store.arrays[k] is a for k, a in kept.items())
    for obj in vars(NB).values():
        clear = getattr(obj, "cache_clear", None)
        if clear is not None:
            clear()
    assert NB._store() is not store and not NB._store().arrays and NB._store().nbytes == 0
    after = NB.niebur_value(2, 1, tau, P)
    assert (after.value, after.error_estimate) == (before.value, before.error_estimate)
    assert NB._store().arrays.keys() == kept.keys()


@settings(max_examples=25, deadline=None)
@given(cs=st.lists(_MODULI, min_size=1, max_size=8, unique=True).map(sorted),
       cuts=st.lists(st.integers(0, 8), max_size=4).map(sorted),
       m=st.integers(1, 4), store_bytes=st.sampled_from((8, 1 << 16, NB.STORE_BYTES)))
def test_chunking_is_invisible(cs, cuts, m, store_bytes):
    # the rows are the same whether the moduli are built in one call, one
    # by one, or in any split, and whatever the chunk budget (STORE_BYTES /
    # 128 moduli elements: one modulus a chunk at 8 bytes)
    def built(split):
        rows = []
        for piece in split:
            NB._store.cache_clear()
            rows.append(NB._kloosterman_rows(np.array(piece), m))
        return np.concatenate(rows)

    cuts = [min(cut, len(cs)) for cut in cuts]
    splits = [[cs], [[c] for c in cs],
              [cs[a:b] for a, b in zip([0, *cuts], [*cuts, len(cs)]) if a < b]]
    with mock.patch.object(NB, "STORE_BYTES", store_bytes):
        rows, *others = [built(split) for split in splits]
    for other_rows in others:
        assert other_rows.tobytes() == rows.tobytes()
    NB._store.cache_clear()


@pytest.mark.parametrize("store_bytes, passes", [(8, 600), (NB.STORE_BYTES, 3)])
def test_a_cold_call_builds_each_row_once_a_chunk_at_a_time(monkeypatch, store_bytes, passes):
    # C = 600 at N = 1 needs rows of 180,300 values: three chunks of at most
    # 2^16 at the default bound, and one modulus a chunk at 8 bytes, where
    # the store keeps nothing; either way no row is built twice
    P = EvalParams(truncation=600)
    tau = 0.2137 + 1j
    NB._store.cache_clear()
    want = _bits(NB.niebur_value(1, 1, tau, P))
    monkeypatch.setattr(NB, "STORE_BYTES", store_bytes)
    NB._store.cache_clear()
    chunks = []
    real = NB._kloosterman_pass

    def spy(new, m):
        chunks.append(list(new))
        return real(new, m)

    monkeypatch.setattr(NB, "_kloosterman_pass", spy)
    assert _bits(NB.niebur_value(1, 1, tau, P)) == want
    assert [c for chunk in chunks for c in chunk] == list(range(1, 601))
    assert all(sum(chunk) <= store_bytes >> 7 for chunk in chunks if len(chunk) > 1)
    assert len(chunks) == passes
    NB._store.cache_clear()


def _bits(pv):
    return tuple(x.hex() for x in (pv.value.real, pv.value.imag, pv.error_estimate))


# float.hex of (Re, Im, error estimate) of niebur_value at C = 120, keyed by
# (N, m, s, k): k = 0 is tau = 0.2137 + i, k = 1 its image under (1 0; N 1).
# Recorded from the row-by-row build of the Kloosterman rows; a change in
# how the rows are built, stored or split must leave every bit in place
PINNED_BITS = {
    (1, 0, 1.5, 0): ('0x1.dd9ce8f8e69dep+1', '0x0.0p+0', '0x1.4a339a0f5679ap-7'),
    (1, 0, 1.5, 1): ('0x1.dcdf09ba2f4e6p+1', '0x0.0p+0', '0x1.04f337fdb8921p-6'),
    (1, 0, 2.0, 0): ('0x1.606cdec7ce85fp+1', '0x0.0p+0', '0x1.11b8c4766cbd5p-15'),
    (1, 0, 2.0, 1): ('0x1.606b461886e2bp+1', '0x0.0p+0', '0x1.53ca4e536de6ap-14'),
    (1, 1, 1.5, 0): ('0x1.3a434252298ffp+7', '-0x1.fe2d53518acbap+6', '0x1.8b256eee375c8p-5'),
    (1, 1, 1.5, 1): ('0x1.3a433b1e606e8p+7', '-0x1.fe2d5b94b95ccp+6', '0x1.9abc41df17669p-3'),
    (1, 1, 2.0, 0): ('0x1.2939a860992c6p+7', '-0x1.d02a9b37ddb3cp+6', '0x1.86e1ac9e5d0cbp-13'),
    (1, 1, 2.0, 1): ('0x1.2939a83a59bc1p+7', '-0x1.d02a9b64703bep+6', '0x1.57ba0b1748d0bp-10'),
    (1, 3, 1.5, 0): ('-0x1.14f9b92d77816p+27', '0x1.1869bc5faf9ecp+26', '0x1.feb6a5d1c8ed7p-2'),
    (1, 3, 1.5, 1): ('-0x1.14f9b92d727e2p+27', '0x1.1869bc5faf819p+26', '0x1.fa7b096e29246p-1'),
    (1, 3, 2.0, 0): ('-0x1.0b8c4e3300b6dp+27', '0x1.0f4741feb5242p+26', '0x1.b64c3f4bcfabdp-9'),
    (1, 3, 2.0, 1): ('-0x1.0b8c4e33008d6p+27', '0x1.0f4741feb5260p+26', '0x1.4351bb645531dp-7'),
    (2, 0, 1.5, 0): ('0x1.637cdba5a4aa2p+0', '0x0.0p+0', '0x1.b23d3237d06bap-10'),
    (2, 0, 1.5, 1): ('0x1.62dbe834b1c86p+0', '0x0.0p+0', '0x1.0aa69434843f5p-8'),
    (2, 0, 2.0, 0): ('0x1.1d9e7bd274cd5p+0', '0x0.0p+0', '0x1.69283ccda48c6p-19'),
    (2, 0, 2.0, 1): ('0x1.1d9d932ecb076p+0', '0x0.0p+0', '0x1.106cd4cd74f71p-16'),
    (2, 1, 1.5, 0): ('0x1.b351a8ae4aa50p+6', '-0x1.e8414e46f39f1p+8', '0x1.91d9c3d042442p-8'),
    (2, 1, 1.5, 1): ('0x1.b351bd9e4319cp+6', '-0x1.e8414aeb12f8cp+8', '0x1.a7c1b50b48856p-6'),
    (2, 1, 2.0, 0): ('0x1.8d52ad8925cabp+6', '-0x1.b6541b7d59e26p+8', '0x1.914ac09723df6p-17'),
    (2, 1, 2.0, 1): ('0x1.8d52adbddafefp+6', '-0x1.b6541b72c466cp+8', '0x1.e7b012de33cafp-14'),
    (2, 3, 1.5, 0): ('-0x1.6ac0fa0a26b6bp+26', '0x1.bcb78619727a2p+26', '0x1.04092f94649cap-4'),
    (2, 3, 1.5, 1): ('-0x1.6ac0fa0a1df7fp+26', '0x1.bcb786197e590p+26', '0x1.f08c07f6cfbeap-4'),
    (2, 3, 2.0, 0): ('-0x1.5e9b0c44936b1p+26', '0x1.add2e97439e0fp+26', '0x1.c0a0625ffb38cp-13'),
    (2, 3, 2.0, 1): ('-0x1.5e9b0c44935cbp+26', '0x1.add2e9743a25dp+26', '0x1.52ffe2cde90b3p-10'),
    (3, 0, 1.5, 0): ('0x1.35a251b2d7c42p+0', '0x0.0p+0', '0x1.b529f3722d94ap-11'),
    (3, 0, 1.5, 1): ('0x1.351ca5d7a96bbp+0', '0x0.0p+0', '0x1.7588c6bb0ed28p-9'),
    (3, 0, 2.0, 0): ('0x1.0b230a7a44a8cp+0', '0x0.0p+0', '0x1.e5cc10ab95db6p-21'),
    (3, 0, 2.0, 1): ('0x1.0b2265bf81b1cp+0', '0x0.0p+0', '0x1.62c1d5de59f61p-17'),
    (3, 1, 1.5, 0): ('0x1.c0b59d58a32efp+6', '-0x1.e89586ad02191p+8', '0x1.17a6e294acb32p-10'),
    (3, 1, 1.5, 1): ('0x1.c0b59773a9a6dp+6', '-0x1.e89591c578edep+8', '0x1.286a196e8eda0p-6'),
    (3, 1, 2.0, 0): ('0x1.955bf4b3b3288p+6', '-0x1.b6911b923cc0dp+8', '0x1.9ab21d7b56caap-20'),
    (3, 1, 2.0, 1): ('0x1.955bf49e7e2f3p+6', '-0x1.b6911ba9b7a4ep+8', '0x1.630241ecf26e4p-14'),
    (3, 3, 1.5, 0): ('-0x1.6ac0f4c634b7fp+26', '0x1.bcb77887ce71cp+26', '0x1.ccf0b41c7076fp-6'),
    (3, 3, 1.5, 1): ('-0x1.6ac0f4c63292dp+26', '0x1.bcb77887bfc50p+26', '0x1.febb977092ce5p-4'),
    (3, 3, 2.0, 0): ('-0x1.5e9b083908ce3p+26', '0x1.add2ddc50323ep+26', '0x1.08d4fc322f78ep-14'),
    (3, 3, 2.0, 1): ('-0x1.5e9b083908c74p+26', '0x1.add2ddc502d06p+26', '0x1.69045340b72a2p-10'),
}


@pytest.mark.parametrize("N, m, s, k", sorted(PINNED_BITS))
def test_niebur_value_keeps_its_pinned_bits(N, m, s, k):
    tau = 0.2137 + 1j
    point = (tau, tau / (N * tau + 1))[k]
    NB._store.cache_clear()
    assert _bits(NB.niebur_value(N, m, point, EvalParams(truncation=120, s=s))) == \
        PINNED_BITS[N, m, s, k]


@settings(max_examples=30, deadline=None)
@given(N_m=st.sampled_from([(1, 0), (1, 1), (3, 3)]), k=st.integers(-2 ** 50, 2 ** 50),
       j=st.integers(0, 2 ** 12 - 1), v=st.floats(0.5, 2.0))
@example(N_m=(3, 3), k=-2 ** 20, j=1024, v=1.0)
@example(N_m=(1, 1), k=2 ** 40, j=512, v=1.0)
def test_an_integer_shift_of_tau_keeps_every_bit(N_m, k, j, v):
    # (1 1; 0 1) lies in Gamma_0(N), so F(tau + k) = F(tau); the dyadic
    # u = j / 2^bits keeps tau + k exact, and the sum runs at Re tau mod 1
    N, m = N_m
    bits = min(12, 52 - abs(k).bit_length())
    u = (j % 2 ** bits) / 2 ** bits
    P = EvalParams(truncation=30, s=1.5)
    assert _bits(NB.niebur_value(N, m, complex(u + k, v), P)) == \
        _bits(NB.niebur_value(N, m, complex(u, v), P))


@pytest.mark.parametrize("N, m", [(1, 1), (2, 2), (3, 3)])
def test_the_store_never_changes_a_value(N, m):
    # tau and its image under (1 0; N 1) share Kloosterman rows; each value
    # is bitwise the same whether the store starts empty or holds the rows
    # the other point left, whichever point runs first
    P = EvalParams(truncation=300)
    tau = 0.2137 + 1j
    points = (tau, tau / (N * tau + 1))
    want, rows = {}, {}
    for z in points:
        NB._store.cache_clear()
        want[z] = _bits(NB.niebur_value(N, m, z, P))
        rows[z] = set(NB._store().arrays)
    assert rows[points[0]] & rows[points[1]]
    for first, second in (points, points[::-1]):
        NB._store.cache_clear()
        got = {first: _bits(NB.niebur_value(N, m, first, P))}
        got[second] = _bits(NB.niebur_value(N, m, second, P))
        assert got == want
        assert set(NB._store().arrays) == rows[first] | rows[second]


def test_the_store_stays_within_its_byte_bound(monkeypatch):
    P = EvalParams(truncation=200)
    tau = 0.2137 + 1j
    NB._store.cache_clear()
    want = _bits(NB.niebur_value(1, 1, tau, P))
    unbounded = NB._store().nbytes
    bound = 1 << 17
    monkeypatch.setattr(NB, "STORE_BYTES", bound)
    NB._store.cache_clear()
    assert _bits(NB.niebur_value(1, 1, tau, P)) == want
    store = NB._store()
    assert unbounded > bound >= store.nbytes == sum(a.nbytes for a in store.arrays.values())
    # the oldest go first, a block of rows at once: the last row built is
    # kept, and every block array left is kept whole
    assert (200, 1) in store.arrays
    blocks = {}
    for a in store.arrays.values():
        if a.base is not None:
            blocks.setdefault(id(a.base), [a.base, 0])[1] += a.nbytes
    assert blocks and all(base.nbytes == n for base, n in blocks.values())
    # the store counts exactly the bytes it keeps alive
    alive = {id(a if a.base is None else a.base): (a if a.base is None else a.base).nbytes
             for a in store.arrays.values()}
    assert store.nbytes == sum(alive.values())
    # an array larger than the bound is returned, not kept
    monkeypatch.setattr(NB, "STORE_BYTES", 8)
    NB._store.cache_clear()
    row = NB._kloosterman_rows(np.array([64]), 3)
    assert row.shape == (64,) and NB._store().nbytes <= 8
    NB._store.cache_clear()
    monkeypatch.undo()
    assert NB._kloosterman_rows(np.array([64]), 3).tolist() == row.tolist()


def _kappa_terms_60_steps(nu, v, a=0.0, weight=1.0):
    # oracle: `niebur._kappa_terms` as it ran before it stopped at its
    # fixed point, always 60 steps of the same iteration
    a = np.asarray(a, dtype=np.float64)
    const = NB._LOG_KAPPA_TOL + 0.5 * math.log(math.pi / 2) - (nu - 1) * math.log(2) \
        - math.lgamma(nu) - math.log(math.pi * v) + np.log(weight)
    z = np.maximum(const, 0.0) + 2 * nu + 40 + 4 * a
    for _ in range(60):
        z = np.maximum(const + (nu - 0.5) * np.log(z) + (nu * nu - 0.25) / (2 * z)
                       + 2 * np.sqrt(a) * np.sqrt(z), 2 * math.pi * v)
    K = np.ceil(z / (2 * math.pi * v))
    return np.where(K < 2.0 ** 62, K, np.inf)


@settings(max_examples=200, deadline=None)
@given(nu=st.floats(0.5001, 200.0),
       v=st.floats(1e-30, 1e3),
       a=st.lists(st.floats(0.0, 1e30), min_size=1, max_size=8),
       weight=st.floats(1.0, 1e6))
@example(nu=1.0, v=1e-25, a=[0.0], weight=1.0)          # K past 2^62: inf
@example(nu=1.0, v=1e-6, a=[1e-6, 1e30], weight=2.0)    # one inf in a vector
@example(nu=1.0, v=1.0, a=[math.inf], weight=2.0)       # z = inf
def test_kappa_terms_stops_at_its_fixed_point_with_the_same_k(nu, v, a, weight):
    with np.errstate(all="ignore"):
        got = NB._kappa_terms(nu, v, np.array(a), weight)
        want = _kappa_terms_60_steps(nu, v, np.array(a), weight)
    assert got.shape == want.shape and got.tolist() == want.tolist()


def test_kappa_terms_k_comes_back_inf_past_an_int64():
    with np.errstate(all="ignore"):
        K = NB._kappa_terms(1.0, 1e-6, np.array([1e-6, 1e30]), 2.0)
    assert math.isfinite(K[0]) and K[1] == math.inf


@settings(max_examples=150, deadline=None)
@given(m=st.integers(0, 3),
       s=st.floats(1.01, 3.0),
       v=st.lists(st.floats(1e-9, 4.0, allow_subnormal=False), min_size=1, max_size=40))
def test_phi_np_matches_oracle(m, s, v):
    import numpy as np
    arr = np.array(v)
    try:
        want = _oracle_phi_np(m, arr, s)
    except ConvergenceBudgetExceeded:
        with pytest.raises(ConvergenceBudgetExceeded):
            NB._phi_np(m, arr, s)
        return
    assert np.array_equal(NB._phi_np(m, arr, s), want)


def _no_row(*args):
    raise AssertionError("a row was summed for a point past the window bound")


@pytest.mark.parametrize("N,m,tau", [(1, 0, complex(0, 1e6)), (1, 1, complex(0.3, 1e3)),
                                     (3, 0, complex(0, 700.0)), (1, 0, complex(0, 1e300))])
def test_a_window_past_the_bound_is_refused_before_any_row(monkeypatch, N, m, tau):
    # these points run in closed form (or overflow); with the route sent to
    # the d-windows, the check reads the window size from _row_halfwidth
    # alone, after the route decision and before any row is summed
    monkeypatch.setattr(NB, "_eisenstein_rows_cost", lambda *args: (math.inf, 0.0))
    monkeypatch.setattr(NB, "_poincare_plan",
                        lambda N, m, u, v, s, C: (np.ones(C), np.zeros(C, dtype=bool)))
    for name in ("_window_rows", "_eisenstein_rows", "_poincare_rows", "_identity_term"):
        monkeypatch.setattr(NB, name, _no_row)
    assert 2 * NB._row_halfwidth(N, tau.imag) + 1 > NB.MAX_ROW_WINDOW
    with pytest.raises(UnsupportedParameter, match="d-window"):
        NB.niebur_value(N, m, tau, EvalParams(truncation=2))


@pytest.mark.parametrize("N,tau", [(1, complex(0, 1e6)), (3, complex(0.2, 700.0))])
def test_a_point_past_the_window_bound_runs_in_closed_form(monkeypatch, N, tau):
    # far up at m = 0 the kappa table has one entry and no window row runs:
    # the value is (Im tau)^1.5 plus the rows c = N, 2N, each
    # sqrt(pi) Gamma(1)/Gamma(3/2) phi(c) c^-3 (Im tau)^(-1/2) up to Fourier
    # terms below e^(-2 pi Im tau)
    monkeypatch.setattr(NB, "_window_rows", _no_row)
    v = tau.imag
    rows = sum(2 * v ** -0.5 * sum(math.gcd(r, c) == 1 for r in range(c)) / c ** 3
               for c in (N, 2 * N))
    got = NB.niebur_value(N, 0, tau, EvalParams(truncation=2)).value
    assert abs(got - (v ** 1.5 + rows)) <= 1e-15 * v ** 1.5 and got.imag == 0


@pytest.mark.parametrize("N,m,tau", [(1, 0, complex(0, 1e300)), (1, 1, complex(0.3, 1e3)),
                                     (2, 3, complex(0, 40.0)), (1, 0, complex(0.4, 1e290))])
def test_a_value_past_the_double_range_is_refused(N, m, tau):
    # (Im tau)^s at m = 0 and e^(2 pi m Im tau) at m >= 1 would overflow
    with pytest.raises(UnsupportedParameter, match="overflows a double"):
        NB.niebur_value(N, m, tau, EvalParams(truncation=2))


def test_points_up_to_im_tau_100_stay_inside_the_window_bound():
    for v in (1.0, 10.0, 100.0):
        for N in (1, 2, 3, 5):
            assert 2 * NB._row_halfwidth(N, v) + 1 <= NB.MAX_ROW_WINDOW
    got = NB.niebur_value(1, 0, complex(0.1, 100.0), EvalParams(truncation=2))
    assert math.isfinite(got.value.real) and got.value.real > 100.0 ** 1.5


@pytest.mark.parametrize("N", (0, -1))
def test_a_level_below_one_is_refused(N):
    with pytest.raises(UnsupportedParameter, match="level"):
        NB.niebur_value(N, 0, 1j)


# -- m = 0: the rows in closed form --------------------------------------------------
#
# Each Eisenstein row is exact in d (Moebius inversion, Poisson summation
# and a table of K_nu).  The references are independent of both steps: the
# rows summed one coprime residue class at a time, the d-window rows of
# the test-side reference _window_route_sum, and mpmath.besselk.

def _row_by_residue_classes(c, u, v, s):
    r"""Row c of the m = 0 sum, c^(-2s) v^s sum over r mod c coprime to c of
    sum_k ((u + r/c + k)^2 + v^2)^(-s), at 20 digits: the terms |k| <= 20
    directly, each tail by the binomial series in v^2 of Hurwitz zeta
    values (mpmath.nsum extrapolates the tails poorly near s = 1: 4e-4
    relative at s = 1.01)."""
    u, v, s = mpmath.mpf(u), mpmath.mpf(v), mpmath.mpf(s)
    acc = mpmath.mpf(0)
    for r in range(c):
        if math.gcd(r, c) == 1:
            x = u + mpmath.mpf(r) / c
            acc += mpmath.fsum(((x + k) ** 2 + v * v) ** -s for k in range(-20, 21))
            for y in (21 + x, 21 - x):
                j = 0
                while True:
                    term = mpmath.binomial(-s, j) * v ** (2 * j) * mpmath.zeta(2 * s + 2 * j, y)
                    acc += term
                    if abs(term) < mpmath.mpf(10) ** -24 * abs(acc):
                        break
                    j += 1
    return v ** s * mpmath.mpf(c) ** (-2 * s) * acc


M0_S = (1.01, 1.5, 2.0, 3.0)
M0_V = (1.0, 0.03, 0.011)


@pytest.mark.parametrize("v", M0_V)
@pytest.mark.parametrize("s", M0_S)
def test_closed_form_rows_against_residue_class_sums(s, v):
    u = -0.37
    with mpmath.workdps(20):
        want = {c: float(_row_by_residue_classes(c, u, v, s)) for c in range(1, 13)}
    for N in (1, 2, 3):
        rows, rounding = NB._eisenstein_rows(N, u, v, s, 12 // N)
        for c, got, bound in zip(range(N, 13, N), rows, rounding):
            assert abs(got - want[c]) <= 1e-13 * want[c] + bound, (N, c, got, want[c])


def _d_window_tail(N, v, s, C):
    """The part of the m = 0 rows c <= CN that the d-windows leave out:
    coprime d lie at density phi(c)/c, and each term is below
    v^s |cu + d|^(-2s), so the two tails together are at most
    (phi(c)/c) 2 v^s (X_c - c)^(1-2s)/(2s-1), counted from one residue
    block inside the window edge X_c."""
    tail = 0.0
    for c in range(N, C * N + 1, N):
        phi = sum(1 for r in range(c) if math.gcd(r, c) == 1)
        X = NB._row_halfwidth(c, v)
        tail += phi / c * 2 * v ** s * (X - c) ** (1 - 2 * s) / (2 * s - 1)
    return tail


@pytest.mark.parametrize("v", M0_V)
@pytest.mark.parametrize("s", M0_S)
def test_closed_form_against_the_d_window_rows(s, v):
    # the closed form sums each row over every d; the rows stop at their
    # windows, so the two differ by the d-window tail plus rounding.  u =
    # 1.3 also checks that the phase reads u mod 1.
    for N, u in ((1, 0.3), (2, -0.41), (3, 1.3)):
        C = 40
        rows, bounds = NB._eisenstein_rows(N, u, v, s, C)
        got, got_partials = NB._partial_sums(complex(v ** s), rows, C)
        rounding = float(bounds.sum())
        want, want_partials = _window_route_sum(N, 0, u, v, s, C)
        assert [c for c, _ in got_partials] == [c for c, _ in want_partials]
        tol = _d_window_tail(N, v, s, C) + rounding + 1e-15 * abs(want)
        assert got.real >= want.real - rounding - 1e-15 * abs(want), (N, got, want)
        assert abs(got - want) <= tol, (N, got, want, tol)


@pytest.mark.parametrize("nu", (0.51, 1.0, 1.5, 2.5))
def test_kappa_table_against_mpmath_besselk(nu):
    # kappa(z) = z^nu K_nu(z) / (2^(nu-1) Gamma(nu)) at z = 2 pi n v for
    # v = 1e-3, over z in [2 pi 1e-3, 40]: every dyadic block of the table
    # has its own quadrature grid, and the step shrinks like 1/sqrt(z)
    v = 1e-3
    K = math.ceil(40 / (2 * math.pi * v))
    table = NB._kappa_table(nu, v, K)
    ns = sorted({round(x) for x in np.geomspace(1, K, 120)})
    with mpmath.workdps(30):
        for n in ns:
            z = 2 * mpmath.pi * v * n
            want = z ** nu * mpmath.besselk(nu, z) / (2 ** (nu - 1) * mpmath.gamma(nu))
            assert abs(table[n] - want) <= 1e-13 * want, (n, float(z), table[n], want)


def _no_rows(*args):
    raise AssertionError("the d-window rows ran where the closed form is cheaper")


def _no_closed_form(*args):
    raise AssertionError("the closed form ran where the d-window rows are cheaper")


@pytest.mark.parametrize("N,tau", [(1, 0.25 + 1j), (2, -0.21 + 0.77j), (3, 0.4 + 1.1j),
                                   (2, 0.3 + 1e-3j)])
def test_m0_near_im_tau_1_never_reaches_the_window_rows(monkeypatch, N, tau):
    closed, rows = NB._eisenstein_rows_cost(N, tau.imag, 1.5, 30)
    assert closed <= rows
    want = NB._partial_sums(complex(tau.imag ** 1.5),
                            NB._eisenstein_rows(N, tau.real, tau.imag, 1.5, 30)[0], 30)[0]
    monkeypatch.setattr(NB, "_window_rows", _no_rows)
    assert NB.niebur_value(N, 0, tau, EvalParams(truncation=30, s=1.5)).value == want


def test_m0_below_the_cost_rule_runs_the_window_rows(monkeypatch):
    # the kappa table grows like 1/Im tau, the windows do not: at Im tau =
    # 1e-4 and C = 30 the rows cost less
    tau, P = -0.21 + 1e-4j, EvalParams(truncation=30, s=1.5)
    closed, rows = NB._eisenstein_rows_cost(2, tau.imag, 1.5, 30)
    assert closed > rows
    assert rows == sum(2 * NB._row_halfwidth(c, tau.imag) + 1 for c in range(2, 61, 2))
    monkeypatch.setattr(NB, "_eisenstein_rows", _no_closed_form)
    got = NB.niebur_value(2, 0, tau, P)
    # the value sums at the exact residue -0.21 of Re tau mod 1, as 0.79 =
    # -0.21 + 1 is no double; at 0.79 the rows differ in the last bits only
    assert got.value == _window_route_sum(2, 0, tau.real, tau.imag, 1.5, 30)[0]
    want = _window_route_sum(2, 0, tau.real % 1.0, tau.imag, 1.5, 30)[0]
    assert want != got.value and abs(got.value - want) <= got.error_estimate


def test_m0_falls_back_to_the_rows_when_cancellation_outgrows_the_tail(monkeypatch):
    # at s = 10 the c-tail is below 1e-25 while the closed form's terms
    # cancel by a factor 1e9 (Im tau = 0.1) in the rows of small c: their
    # rounding bound exceeds the error estimate, so those rows, and only
    # those, are summed over their d-windows
    tau, s, C = 0.3 + 0.1j, 10.0, 60
    closed, rows = NB._eisenstein_rows_cost(1, tau.imag, s, C)
    assert closed <= rows
    _, bounds = NB._eisenstein_rows(1, tau.real, tau.imag, s, C)
    windowed = []
    real = NB._window_rows

    def spy(m, u, v, s, cs):
        windowed.extend(int(c) for c in cs)
        return real(m, u, v, s, cs)

    monkeypatch.setattr(NB, "_window_rows", spy)
    got = NB.niebur_value(1, 0, tau, EvalParams(truncation=C, s=s))
    assert windowed == [1, 2, 3, 4]
    assert bounds[4:].sum() <= got.error_estimate < bounds[3:].sum()
    want = _window_route_sum(1, 0, tau.real, tau.imag, s, C)[0]
    assert abs(got.value - want) <= got.error_estimate


def test_mu_phi_sieve_against_trial_division():
    mu, phi = NB._mu_phi(400)
    assert mu[0] == 0
    for k in range(1, 401):
        ps = F.prime_factors(k)
        want_mu = 0 if len(set(ps)) < len(ps) else (-1) ** len(ps)
        assert mu[k] == want_mu, k
        assert phi[k] == sum(1 for r in range(k) if math.gcd(r, k) == 1), k


# -- m >= 1: the rows in closed form -------------------------------------------------
#
# Each row is the Fourier expansion of its Poisson-summed residue classes:
# Kloosterman sums by FFT, the K_nu table of m = 0 and the power series of
# I_mu and J_mu.  The references: the Kloosterman double loop in Python
# integers, mpmath's Bessel functions, and the rows summed over d-windows
# 16 times wider than the default ones.

@settings(max_examples=60, deadline=None)
@given(c=st.integers(1, 200), m=st.integers(1, 4), n=st.integers(-50, 50))
def test_kloosterman_against_the_double_loop(c, m, n):
    want = sum(cmath.exp(2j * math.pi * ((n * r - m * pow(r, -1, c)) % c) / c)
               for r in range(c) if math.gcd(r, c) == 1)
    got = NB._kloosterman_rows(np.array([c]), m)
    assert got.shape == (c,)
    assert abs(got[n % c] - want) <= 1e-12 * c, (c, m, n, got[n % c], want)
    assert got[0] == round(got[0]) or abs(got[0] - round(got[0])) < 1e-9


def test_kloosterman_rows_within_their_rounding_charge():
    # `_poincare_rows` charges 2^-45 c for each Kloosterman value; the
    # reference sums cos(2 pi ((k r - m r^-1) mod c)/c) over the units r
    # with math.fsum, so its own error stays below 14 c 2^-53.  Every c <=
    # 1200 runs in one block for each m <= 4; every k while c <= 64, eight
    # k a row above (the worst error measured over every k is 3.4 c 2^-53,
    # at c = 3)
    cs = np.arange(1, 1201)
    starts = (np.cumsum(cs) - cs).tolist()
    got = {m: NB._kloosterman_rows(cs, m) for m in (1, 2, 3, 4)}
    assert all(g.shape == (int(cs.sum()),) for g in got.values())
    for c, start in zip(cs.tolist(), starts):
        r = np.flatnonzero(np.gcd(np.arange(c), c) == 1)
        inv = np.array([pow(x, -1, c) for x in r.tolist()], dtype=np.int64)
        if c <= 64:
            k = np.arange(c)
        else:
            k = np.array(sorted({0, 1, c // 2, c - 1} | {(c * j) // 5 + j for j in range(1, 5)}))
        kr = k[:, None] * r
        for m, sums in got.items():
            terms = np.cos(2 * math.pi * ((kr - m * inv) % c) / c)
            want = np.array([math.fsum(row) for row in terms.tolist()])
            err = np.abs(sums[start + k] - want)
            assert np.all(err <= 2.0 ** -45 * c), (c, m, int(k[np.argmax(err)]), err.max())


# the largest Bessel argument a closed-form row may reach: its series
# takes at most x + 20 terms, within the series budget
X_ADMITTED = NB._SERIES_BUDGET - 20


@pytest.mark.parametrize("s", (1.01, 1.25, 1.5, 2.0, 3.7))
def test_bessel_ij_against_mpmath(s):
    # I^ has positive terms and keeps its digits (worst measured 1.2e-14
    # relative); J^ cancels, so its error is measured against I^ (worst
    # 2.2e-16)
    mu = 2 * s - 1
    x = np.concatenate(([0.0], np.geomspace(1e-4, X_ADMITTED, 70)))
    i_hat, j_hat = NB._bessel_ij(x * x / 4, mu)
    assert i_hat[0] == 1 and j_hat[0] == 1
    with mpmath.workdps(30):
        for xi, ih, jh in zip(x[1:], i_hat[1:], j_hat[1:]):
            X = mpmath.mpf(float(xi))
            norm = mpmath.gamma(mu + 1) * (2 / X) ** mu
            want_i = mpmath.besseli(mu, X) * norm
            want_j = mpmath.besselj(mu, X) * norm
            assert abs(ih - want_i) <= 1e-13 * want_i, (xi, ih, want_i)
            assert abs(jh - want_j) <= 1e-14 * want_i, (xi, jh, want_j)


@pytest.mark.parametrize("s", (1.01, 1.5, 2.0, 3.7, 10.0, 16.0))
def test_phi_past_the_series_budget_against_mpmath(s):
    # the largest argument passes the series budget, so the entries from
    # x = 300 on take the expansion of I_nu at infinity and those below
    # the series; each keeps its digits (worst measured 3.6e-16 relative
    # past 300, 1.5e-14 below)
    m = 3
    x = np.concatenate((np.geomspace(1.0, 299.0, 12), np.geomspace(300.0, 709.0, 30)))
    with pytest.raises(ConvergenceBudgetExceeded):
        NB._bessel_ij(x * x / 4, s - 0.5)
    v = x / (2 * math.pi * m)
    got = NB._phi_np(m, v, s)
    x = 2.0 * math.pi * m * v  # the argument as _phi_np rounds it
    with mpmath.workdps(30):
        for xi, g in zip(x, got):
            X = mpmath.mpf(float(xi))
            want = mpmath.sqrt(2 * mpmath.pi * X) * mpmath.besseli(s - 0.5, X)
            assert abs(g - want) <= 4e-14 * want, (xi, g, want)


def test_the_expansion_at_infinity_refuses_where_it_does_not_converge():
    # at order 49.5 and x = 660 neither the series nor the expansion
    # converges in doubles, although the value is a normal double
    with pytest.raises(ConvergenceBudgetExceeded):
        NB.niebur_value(1, 3, 35j, EvalParams(truncation=30, s=50.0))


def test_niebur_value_past_the_series_budget_is_invariant():
    # Im(-1/tau) = 33.3 puts the identity term of the image, and a d-window
    # term at tau, at x = 628, past the series budget: both values are
    # normal doubles (about 7.5e272) and agree within their estimates
    tau = 0.03j
    for C in (30, 300):
        a = NB.niebur_value(1, 3, tau, EvalParams(truncation=C))
        b = NB.niebur_value(1, 3, -1 / tau, EvalParams(truncation=C))
        assert 7e272 < abs(a.value) < 8e272
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate
    # the identity term at x = 660 is the value
    assert 3e286 < abs(NB.niebur_value(1, 3, 0.2 + 35j, EvalParams(truncation=30)).value) \
        < 3.5e286
    # at Im tau = 40 the identity term overflows, at 0.0255i (e^739) the
    # d-window term of the row c = 1
    for tau in (0.2 + 40j, 0.0255j):
        with pytest.raises(UnsupportedParameter):
            NB.niebur_value(1, 3, tau, EvalParams(truncation=30))


def test_the_plan_admits_no_series_past_the_budget():
    for N, m, tau, s in ((1, 3, 0.3 + 0.013j, 1.5), (2, 1, -0.4 + 0.02j, 2.0),
                         (1, 4, 0.1 + 3.0j, 1.05)):
        K, closed = NB._poincare_plan(N, m, tau.real, tau.imag, s, 80)
        c = N * np.arange(1, 81)
        x = 4 * math.pi * np.sqrt(m * K) / c
        assert closed.any()
        assert np.all(x[closed] <= X_ADMITTED)


def _wide_window_row(m, u, v, s, c, widen):
    """Row c over a d-window widen times the default one, summed with
    math.fsum, with the sum of the absolute values of its terms."""
    X = widen * NB._row_halfwidth(c, v)
    d = np.arange(math.ceil(-c * u - X), math.floor(-c * u + X) + 1, dtype=np.int64)
    d = d[np.gcd(d, c) == 1]
    t = c * u + d.astype(np.float64)
    denom = t * t + (c * v) ** 2
    amp = NB._phi_np(m, v / denom, s)
    a = _oracle_inverse_table(c)[d % c]
    phase = -2 * math.pi * ((m * a) % c) / c + 2 * math.pi * m * t / (c * denom)
    row = complex(math.fsum((amp * np.cos(phase)).tolist()),
                  math.fsum((amp * np.sin(phase)).tolist()))
    return row, float(amp.sum()), X


def _wide_window_tail(m, v, s, c, X):
    # the terms past |cu + d| = X - c are below phi_m's leading power
    # 2 pi m^s pi^(s-1/2) Y^s / Gamma(s+1/2) (times cosh(2 pi m Y) ~ 1);
    # at m = 0 the terms are Y^s
    lead = 2 * math.pi * m ** s * math.pi ** (s - 0.5) / math.gamma(s + 0.5) if m else 1.0
    return 1.01 * lead * v ** s * 2 * (X - c) ** (1 - 2 * s) / (2 * s - 1)


@pytest.mark.parametrize("v", (1.0, 0.05))
@pytest.mark.parametrize("s", (1.01, 1.5, 3.7))
@pytest.mark.parametrize("m", (1, 3))
def test_closed_form_rows_against_16x_window_rows(m, s, v):
    # the error is measured against the rounding bound of the row, which
    # scales with the sum of the absolute Fourier terms (rows near 1e-24
    # cancel), plus the reference's own tail and rounding; the worst
    # measured error is 0.4% of that
    for N, u in ((1, 0.27), (3, -0.41)):
        K, closed = NB._poincare_plan(N, m, u, v, s, 8)
        c = N * np.arange(1, 9, dtype=np.int64)
        rows, bounds = NB._poincare_rows(m, u, v, s, c[closed], K[closed])
        assert closed.sum() >= 6
        for ci, got, bound in zip(c[closed], rows, bounds):
            want, size, X = _wide_window_row(m, u, v, s, int(ci), 16)
            tol = bound + _wide_window_tail(m, v, s, int(ci), X) + 2.0 ** -50 * size
            assert abs(got - want) <= tol, (N, int(ci), got, want, tol)


# the fold of the full-sum reference: its window tail falls like
# WIDEN^(1-2s), 8 times below the default window's at s = 1.25
WIDEN = 4


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 6), m=st.integers(0, 4), s=st.floats(1.05, 4.0),
       u=st.floats(-0.5, 0.5), v=st.floats(0.02, 3.0), C=st.integers(4, 24))
@example(N=3, m=1, s=1.25, u=0.0, v=2.0, C=4)
@example(N=1, m=2, s=2.0, u=-0.17551692550551706, v=3.0, C=4)
@example(N=1, m=3, s=2.0, u=-0.03125, v=2.0, C=4)
def test_full_sums_against_the_window_route_within_the_estimate(N, m, s, u, v, C):
    # the closed-form rows change a value only by the d-window leftover of
    # the rows they replace, far below the reported c-tail estimate.  The
    # reference sums every row over a d-window WIDEN times the default one,
    # and its own window tail joins the tolerance: at the first example the
    # default windows are 1.5e-5 off, past the estimate of 1.0e-5.  The
    # other two sum at Re tau mod 1, where the identity term e^(2 pi m v)
    # dominates: at u + 1 = 0.8244830744944829 (u % 1.0, rounded) the value
    # 2.3e16 would move by 40, past its estimate of 23, and at u + 1 =
    # 0.96875 (exact) a phase 2 pi m u read off the unreduced u would move
    # 2.3e16 by 52, past 24
    try:
        rows = [_wide_window_row(m, u, v, s, c, WIDEN) for c in range(N, C * N + 1, N)]
    except ConvergenceBudgetExceeded:
        # a d-window term where neither the Bessel series nor its expansion
        # at infinity converges: cu near an integer at small Im tau puts
        # gamma tau near Im 1/(c^2 Im tau)
        assume(False)
    except UnsupportedParameter:
        # such a term past the double range: the value overflows with it,
        # and the sum refuses it too
        with pytest.raises(UnsupportedParameter):
            NB.niebur_value(N, m, complex(u, v), EvalParams(truncation=C, s=s))
        return
    want = NB._identity_term(m, u, v, s) + sum(row for row, _, _ in rows)
    tail = sum(_wide_window_tail(m, v, s, c, X) + 2.0 ** -50 * size
               for c, (_, size, X) in zip(range(N, C * N + 1, N), rows))
    got = NB.niebur_value(N, m, complex(u, v), EvalParams(truncation=C, s=s))
    assert abs(got.value - want) <= got.error_estimate + tail, (got, want, tail)


def test_window_rows_run_where_the_fourier_terms_cancel(monkeypatch):
    # the terms of row c peak near e^(2 pi m / (c^2 Im tau)): at Im tau =
    # 0.013 the rows of small c cancel past the error estimate and keep
    # their d-windows, the others run in closed form
    windowed = []
    real = NB._window_rows

    def spy(m, u, v, s, cs):
        windowed.extend(int(c) for c in cs)
        return real(m, u, v, s, cs)

    monkeypatch.setattr(NB, "_window_rows", spy)
    got = NB.niebur_value(1, 3, 0.3 + 0.013j, EvalParams(truncation=100, s=1.5))
    assert windowed == list(range(1, len(windowed) + 1)) and 1 <= len(windowed) <= 20
    assert math.isfinite(got.value.real)
    windowed.clear()
    NB.niebur_value(1, 3, 0.3 + 1.1j, EvalParams(truncation=100, s=1.5))
    assert len(windowed) <= 2


@pytest.mark.parametrize("nu", (0.51, 3.2))
def test_kappa_table_keeps_its_relative_digits_far_out(nu):
    # at m >= 1 kappa(z) multiplies I^(x), which grows like e^x, so the
    # table must stay accurate relative to kappa itself for z up to the
    # hundreds, where the quadrature nodes stride by the peak's width
    v = 0.013
    K = math.ceil(600 / (2 * math.pi * v))  # kappa(600) ~ 1e-261, still normal
    table = NB._kappa_table(nu, v, K)
    with mpmath.workdps(30):
        for n in sorted({round(x) for x in np.geomspace(64 / (2 * math.pi * v), K, 25)}):
            z = 2 * mpmath.pi * v * n
            want = z ** nu * mpmath.besselk(nu, z) / (2 ** (nu - 1) * mpmath.gamma(nu))
            assert abs(table[n] - want) <= 2e-13 * want, (n, float(z), table[n], want)


def test_gamma_overflow_at_large_s_is_a_typed_refusal():
    # at m >= 1 the identity term carries 1/Gamma(s + 1/2): at Im tau = 0.5
    # and s = 300 it is below e^-900, which a double does not hold.  At
    # m = 3 the rows still sum to a normal double, the value of the window
    # route; at m = 1 the sum itself underflows and is refused; m = 0 reads
    # no Gamma there and answers
    params = EvalParams(truncation=2, s=300)
    got = NB.niebur_value(1, 3, 0.3 + 0.5j, params).value
    want = _window_route_sum(1, 3, 0.3, 0.5, 300.0, 2)[0]
    assert abs(got) >= sys.float_info.min and abs(got - want) <= 1e-12 * abs(want)
    with pytest.raises(UnsupportedParameter, match="underflow"):
        NB.niebur_value(1, 1, 0.3 + 0.5j, params)
    got = NB.niebur_value(1, 0, 0.3 + 0.5j, params)
    assert math.isfinite(got.value.real) and got.value.real > 1e50


def test_a_normal_value_answers_where_the_identity_term_underflows():
    # at s = 200 the identity term at Im tau = 0.5 is below the double
    # range, but the term of the image -1/tau (row c = 1, Im 1.47)
    # outweighs every other term of the sum by more than 1e60 and is a normal
    # double: 2 pi sqrt(Y) I_(s-1/2)(2 pi Y) e(-X), X + iY = -1/tau
    tau = 0.3 + 0.5j
    got = NB.niebur_value(1, 1, tau, EvalParams(truncation=2, s=200.0)).value
    with mpmath.workdps(30):
        w = -1 / mpmath.mpc(tau)
        want = complex(2 * mpmath.pi * mpmath.sqrt(w.imag)
                       * mpmath.besseli(199.5, 2 * mpmath.pi * w.imag) * mpmath.expjpi(-2 * w.real))
    assert 1e-250 < abs(want) < 1e-230
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("s", (200.0, 300.0))
def test_large_s_answers_where_the_identity_term_is_a_double(s):
    # 1/Gamma(s + 1/2) alone is below the double range above s of about
    # 171.1; carried in logarithms with (x/2)^(s-1/2), the identity term
    # 2 pi sqrt(v) I_(s-1/2)(2 pi v) e(-u) at Im tau = 40 is a normal double
    # and the rows, about c^(-2s) of it, are negligible
    tau = complex(0.1, 40.0)
    got = NB.niebur_value(1, 1, tau, EvalParams(truncation=2, s=s)).value
    with mpmath.workdps(30):
        u, v = mpmath.mpf(tau.real), mpmath.mpf(tau.imag)
        want = complex(2 * mpmath.pi * mpmath.sqrt(v) * mpmath.besseli(s - 0.5, 2 * mpmath.pi * v)
                       * mpmath.expjpi(-2 * u))
    assert abs(want) > 1e30
    assert abs(got - want) <= 1e-12 * abs(want)
