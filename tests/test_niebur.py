import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from heckediv import forms as F, niebur as NB, operators as O
from heckediv.curve import HeegnerPoint as H, OMEGA, POINT_I
from heckediv.errors import ConvergenceBudgetExceeded, NonGenusZeroLevel
from heckediv.niebur import EvalParams


# -- I-Bessel -------------------------------------------------------------------

def test_i_bessel_half_integer_closed_form():
    with mpmath.workdps(40):
        for x in (0.5, 1, 2, 5):
            got = NB.i_bessel(0.5, x, 35)
            want = mpmath.sqrt(2 / (mpmath.pi * x)) * mpmath.sinh(x)
            assert abs(got - want) < mpmath.mpf(10) ** -30


def test_i_bessel_at_zero():
    assert NB.i_bessel(1.5, 0) == 0
    assert NB.i_bessel(0.7, 0) == 0


def test_i_bessel_recurrence():
    # I_{nu-1}(x) - I_{nu+1}(x) = (2 nu / x) I_nu(x)
    with mpmath.workdps(40):
        for nu, x in ((1.5, 2), (2.5, 3), (1.0, 1.7)):
            lhs = NB.i_bessel(nu - 1, x, 35) - NB.i_bessel(nu + 1, x, 35)
            rhs = 2 * nu / mpmath.mpf(x) * NB.i_bessel(nu, x, 35)
            assert abs(lhs - rhs) < mpmath.mpf(10) ** -28


def test_i_bessel_against_mpmath():
    with mpmath.workdps(35):
        for nu, x in ((0.9, 4.0), (2.0, 7.5), (1.3, 0.01)):
            assert abs(NB.i_bessel(nu, x, 30) - mpmath.besseli(nu, x)) < mpmath.mpf(10) ** -25


# -- phi ---------------------------------------------------------------------------

def test_phi_m0_branch():
    with mpmath.workdps(30):
        # 1.75 is exactly representable, so the comparison is clean
        assert abs(NB.phi(0, 1.75, 2) - mpmath.mpf("1.75") ** 2) < mpmath.mpf(10) ** -25


def test_phi_half_integer_value():
    with mpmath.workdps(40):
        want = 2 * mpmath.sinh(2 * mpmath.pi)
        assert abs(NB.phi(1, 1, 1, 35) - want) < mpmath.mpf(10) ** -28


def test_phi_scaling_identity():
    # phi_m(x v, s) = phi_{mx}(v, s): phi depends on the product m v only
    with mpmath.workdps(35):
        for (m, v, s) in ((2, 0.77, 1.8), (3, 0.375, 1.5), (4, 1.1, 2.2)):
            prod = mpmath.mpf(v) * m  # full-precision product, not a double
            assert abs(NB.phi(m, v, s, 30) - NB.phi(1, prod, s, 30)) < mpmath.mpf(10) ** -24


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


def test_mp_backend_agrees_with_fast():
    P_fast = EvalParams(truncation=12, digits=14, s=1.5)
    P_mp = EvalParams(truncation=12, digits=22, s=1.5)
    a = NB.niebur_value(1, 1, 1j, P_fast).value
    b = NB.niebur_value(1, 1, 1j, P_mp).value
    assert abs(a - b) < 1e-6


def test_eval_params_validation():
    with pytest.raises(ValueError):
        EvalParams(truncation=0)
    with pytest.raises(ValueError):
        EvalParams(s=1.0)


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


def _oracle_sum_fast(N, m, u, v, s, C, digits):
    import numpy as np
    total = complex(_oracle_phi_np(m, np.array([v]), s)[0]) * \
        complex(math.cos(2 * math.pi * m * u), -math.sin(2 * math.pi * m * u)) \
        if m else complex(v ** s)
    marks = NB._checkpoints(C)
    partials = []
    next_mark = 0
    for c in range(N, C * N + 1, N):
        X = NB._row_halfwidth(c, v, digits)
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
            got = NB._niebur_sum_fast(N, m, tau.real, tau.imag, s, C, 14)
            want = _oracle_sum_fast(N, m, tau.real, tau.imag, s, C, 14)
            assert got[0] == want[0], (tau, C)
            assert got[1] == want[1], (tau, C)


def test_window_parities_covered():
    # the oracle grid sees both window parities
    lengths = set()
    for tau in ORACLE_TAUS:
        for c in (1, 2, 3, 7):
            X = NB._row_halfwidth(c, tau.imag, 14)
            center = -c * tau.real
            lengths.add((math.floor(center + X) - math.ceil(center - X) + 1) - 2 * X)
    assert lengths == {0, 1}


@pytest.mark.parametrize("m", (0, 2))
def test_niebur_value_matches_elementwise_oracle(m, monkeypatch):
    P = EvalParams(truncation=30, digits=14, s=1.5)
    tau = -0.21 + 0.77j
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
