import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heckediv import forms as F, niebur as NB, operators as O
from heckediv.curve import HeegnerPoint as H, OMEGA, POINT_I
from heckediv.errors import ConvergenceBudgetExceeded, NonGenusZeroLevel, \
    UnsupportedParameter
from heckediv.niebur import EvalParams


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
        totals = [NB._niebur_sum_fast(N, m, tau.real, tau.imag, 1.5, C)[0] for C in range(6)]
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


def test_j1_at_2i():
    # classical j(2i) = 287496 = 66^3, so j_1(2i) = 287496 - 720
    assert abs(NB.jn_value(1, H(1, 0, 4), 40) - 286776) < mpmath.mpf(10) ** -25
    assert abs(NB.j_value(H(1, 0, 4), 40) - 287496) < mpmath.mpf(10) ** -25


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


@settings(max_examples=20, deadline=None)
@given(st.sampled_from((1, 2, 3)), st.floats(-0.5, 0.5), st.floats(0.9, 1.6), sl2z())
def test_jn_value_is_sl2z_invariant_on_complex_points(n, x, y, gamma):
    # gamma z lies anywhere in the upper half-plane, down to Im ~ 1e-6
    a, b, c, d = gamma
    with mpmath.workdps(90):
        z = mpmath.mpc(x, y)
        w = (a * z + b) / (c * z + d)
    want = NB.jn_value(n, z)
    got = NB.jn_value(n, w)
    with mpmath.workdps(60):
        assert abs(got - want) <= mpmath.mpf(10) ** -40 * abs(want), (gamma, z)


def test_jn_value_reduces_a_complex_point():
    with mpmath.workdps(60):
        z = mpmath.mpc(0.1, 0.3)
        want = NB.jn_value(1, -1 / z, 40)
        assert abs(NB.jn_value(1, 0.1 + 0.3j, 40) - want) < mpmath.mpf(10) ** -30 * abs(want)
        # i/2 maps to 2i, where j_1 = 287496 - 720
        assert abs(NB.jn_value(1, 0.5j, 40) - 286776) < mpmath.mpf(10) ** -30
    # near the real axis the reduction keeps the digits asked for: at
    # 65 working digits it would keep about 34 of them here
    z = 0.1 + 1e-25j
    with mpmath.workdps(400):
        w = NB._sl2z_reduced(mpmath.mpc(z))
    want = NB.jn_value(2, w, 50)
    with mpmath.workdps(80):
        assert abs(NB.jn_value(2, z, 50) - want) < mpmath.mpf(10) ** -50 * abs(want)
    for z in (0.3 - 0.1j, 2 + 0j, complex("nan"), mpmath.mpc("inf", 1)):
        with pytest.raises(UnsupportedParameter):
            NB.jn_value(1, z)


def test_evaluate_series_refuses_a_fractional_grid():
    with pytest.raises(UnsupportedParameter):
        NB.evaluate_series(F.eta_quotient_qexp(F.EtaQuotientSpec.make(1, {1: 1}), 5), 1j)


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
    s = NB.harmonic_slice(1, 2, 12)
    assert s.theta().agrees_with(F.jn(2, 14).theta(), through=10)


def test_slice_level2_m2_structure():
    s = NB.harmonic_slice(2, 2, 12)
    assert s.leading_exponent() == -2
    assert s.coefficient(-1) == 0 and s.coefficient(0) == 0
    # equals t^2 + 48 t + const with t the level-2 Hauptmodul
    t = F.hauptmodul_qexp(2, 16)
    assert s.theta().agrees_with((t * t + 48 * t).theta(), through=10)


def test_slice_rejects_other_levels():
    with pytest.raises(NonGenusZeroLevel):
        NB.harmonic_slice(6, 1, 8)


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
    term = np.full_like(v, 1.0 / math.gamma(nu + 1.0))
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
    return 2.0 * math.pi * np.sqrt(m * v) * half ** nu * acc


def _oracle_inverse_table(c):
    import numpy as np
    inv = np.zeros(c, dtype=np.int64)
    for r in range(c):
        if math.gcd(r, c) == 1:
            inv[r] = pow(r, -1, c)
    return inv


def _oracle_sum_fast(N, m, u, v, s, C):
    import numpy as np
    total = complex(_oracle_phi_np(m, np.array([v]), s)[0]) * \
        complex(math.cos(2 * math.pi * m * u), -math.sin(2 * math.pi * m * u)) \
        if m else complex(v ** s)
    marks = NB._checkpoints(C)
    partials = []
    next_mark = 0
    for c in range(N, C * N + 1, N):
        X = NB._row_halfwidth(c, v)
        center = -c * u
        d = np.arange(math.ceil(center - X), math.floor(center + X) + 1, dtype=np.int64)
        mask = np.gcd(d, c) == 1
        if mask.any():
            d = d[mask]
            t = c * u + d.astype(np.float64)
            denom = t * t + (c * v) ** 2
            vg = v / denom
            amp = _oracle_phi_np(m, vg, s)
            if m:
                a = _oracle_inverse_table(c)[d % c]
                phase = -2.0 * math.pi * m * (a / float(c)) + 2.0 * math.pi * m * t / (c * denom)
                row = complex(np.sum(amp * np.cos(phase)), np.sum(amp * np.sin(phase)))
            else:
                row = complex(np.sum(amp))
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
            got = NB._niebur_sum_fast(N, m, tau.real, tau.imag, s, C)
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
    P = EvalParams(truncation=30, digits=14, s=1.5)
    # at m = 0 the d-window rows run only where the kappa table of the
    # closed form would cost more, so that case takes a point of small Im tau
    tau = -0.21 + (1e-4j if m == 0 else 0.77j)
    if m == 0:
        closed, rows = NB._eisenstein_rows_cost(2, tau.imag, 1.5, 30)
        assert closed > rows
    got = NB.niebur_value(2, m, tau, P)
    monkeypatch.setattr(NB, "_niebur_sum_fast", _oracle_sum_fast)
    want = NB.niebur_value(2, m, tau, P)
    assert got.value == want.value
    assert got.error_estimate == want.error_estimate


def test_inverse_table_against_pow():
    for c in list(range(1, 301)) + [997, 1800]:
        table = NB._inverse_table(c)
        assert table.shape == (c,)
        for r in range(c):
            want = pow(r, -1, c) if math.gcd(r, c) == 1 else 0
            assert table[r] == want, (c, r)


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
    # the check reads the window size from _row_halfwidth alone; the sum
    # that would allocate the row is never reached
    monkeypatch.setattr(NB, "_niebur_sum_fast", _no_row)
    assert 2 * NB._row_halfwidth(N, tau.imag) + 1 > NB.MAX_ROW_WINDOW
    with pytest.raises(UnsupportedParameter, match="d-window"):
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
# _niebur_sum_fast, and mpmath.besselk.

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
        got, got_partials, rounding = NB._eisenstein_sum(N, u, v, s, C)
        want, want_partials = NB._niebur_sum_fast(N, 0, u, v, s, C)
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
    want = NB._eisenstein_sum(N, tau.real, tau.imag, 1.5, 30)[0]
    monkeypatch.setattr(NB, "_niebur_sum_fast", _no_rows)
    assert NB.niebur_value(N, 0, tau, EvalParams(truncation=30, s=1.5)).value == want


def test_m0_below_the_cost_rule_runs_the_window_rows(monkeypatch):
    # the kappa table grows like 1/Im tau, the windows do not: at Im tau =
    # 1e-4 and C = 30 the rows cost less
    tau, P = -0.21 + 1e-4j, EvalParams(truncation=30, s=1.5)
    closed, rows = NB._eisenstein_rows_cost(2, tau.imag, 1.5, 30)
    assert closed > rows
    assert rows == sum(2 * NB._row_halfwidth(c, tau.imag) + 1 for c in range(2, 61, 2))
    want = NB._niebur_sum_fast(2, 0, tau.real, tau.imag, 1.5, 30)[0]
    monkeypatch.setattr(NB, "_eisenstein_sum", _no_closed_form)
    assert NB.niebur_value(2, 0, tau, P).value == want


def test_m0_falls_back_to_the_rows_when_cancellation_outgrows_the_tail():
    # at s = 10 the c-tail is below 1e-25 while the closed form's terms
    # cancel by a factor 1e9 (Im tau = 0.1): its rounding bound exceeds the
    # tail, so the rows give the value
    tau, s, C = 0.3 + 0.1j, 10.0, 60
    closed, rows = NB._eisenstein_rows_cost(1, tau.imag, s, C)
    assert closed <= rows
    value, partials, rounding = NB._eisenstein_sum(1, tau.real, tau.imag, s, C)
    assert rounding > NB._tail_estimate(partials, s, C)
    want = NB._niebur_sum_fast(1, 0, tau.real, tau.imag, s, C)[0]
    assert NB.niebur_value(1, 0, tau, EvalParams(truncation=C, s=s)).value == want


def test_mu_phi_sieve_against_trial_division():
    mu, phi = NB._mu_phi(400)
    assert mu[0] == 0
    for k in range(1, 401):
        ps = F.prime_factors(k)
        want_mu = 0 if len(set(ps)) < len(ps) else (-1) ** len(ps)
        assert mu[k] == want_mu, k
        assert phi[k] == sum(1 for r in range(k) if math.gcd(r, k) == 1), k
