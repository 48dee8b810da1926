r"""Numerical evaluation of the weight-0 Niebur-Poincare series
F_{N,-m}(tau, s) (Eisenstein series for m = 0) in the absolute-convergence
region s > 1, high-precision CM values of j_n, and the weakly holomorphic
weight-0 slices built from Hauptmoduln.

The Poincare sum runs over the cosets Gamma_0(N)_inf \ Gamma_0(N), indexed
by bottom rows (c, d): c a positive multiple of N up to C*N, d coprime to
c (plus the identity term).  For each c, d runs over a symmetric window
rounded to whole residue blocks, so the discarded class tails share a
common size and their phase sum cancels like a Ramanujan sum; the c-tail
dominates and is reported as K * C^(2-2s) with K measured empirically from
the partial sums at power-of-two truncations (not certified).

Two backends share the window logic: a vectorized double-precision path
(the default, digits <= 15; plenty for the 1e-3 scale identities) and an
mpmath path for higher working precision at small truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import mpmath

from . import forms
from .curve import HeegnerPoint, reduce_point
from .errors import ConvergenceBudgetExceeded, NonGenusZeroLevel
from .series import PuiseuxSeries


@dataclass(frozen=True)
class EvalParams:
    """Truncation and precision knobs for the Poincare-series evaluators."""
    truncation: int = 300      # include cosets with c <= truncation * N
    digits: int = 14           # working precision (<= 15 uses the fast path)
    s: float = 1.5

    def __post_init__(self):
        if self.truncation < 1:
            raise ValueError("truncation must be >= 1")
        if not self.s > 1:
            raise ValueError("s must lie in the absolute-convergence region s > 1")


@dataclass(frozen=True)
class PointValue:
    value: complex
    error_estimate: float


# ---------------------------------------------------------------------------
# I-Bessel and the phi kernel
# ---------------------------------------------------------------------------

def i_bessel(nu, x, digits: int = 30):
    """I_nu(x) for real nu and x >= 0 by the ascending power series,
    truncated when the tail provably drops below the target precision."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    with mpmath.workdps(digits + 10):
        nu = mpmath.mpf(nu)
        x = mpmath.mpf(x)
        if x == 0:
            return mpmath.mpf(0) if nu > 0 else (mpmath.mpf(1) if nu == 0 else mpmath.inf)
        y = (x / 2) ** 2
        term = (x / 2) ** nu / mpmath.gamma(nu + 1)
        acc = term
        tol = mpmath.mpf(10) ** (-(digits + 5))
        for k in range(1, 100000):
            term = term * y / (k * (k + nu))
            acc += term
            # once the ratio is below 1/2 the tail is under 2*term
            if y / ((k + 1) * (k + 1 + nu)) < 0.5 and 2 * abs(term) < tol * abs(acc):
                return +acc
        raise ConvergenceBudgetExceeded(
            f"I_{nu}({x}) did not converge within the iteration budget")


def phi(m: int, v, s, digits: int = 30):
    """phi_m(v, s) = 2 pi sqrt(m v) I_{s-1/2}(2 pi m v) for m > 0, v^s for m = 0."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    with mpmath.workdps(digits + 10):
        v = mpmath.mpf(v)
        s = mpmath.mpf(s)
        if m == 0:
            return v ** s
        return 2 * mpmath.pi * mpmath.sqrt(m * v) * i_bessel(s - mpmath.mpf(1) / 2,
                                                             2 * mpmath.pi * m * v,
                                                             digits)


def _phi_np(m: int, v: np.ndarray, s: float) -> np.ndarray:
    """Vectorized phi_m(v, s) in doubles (power series, adaptive length)."""
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
        if ymax / ((k + 1) * (k + 1 + nu)) < 0.5 and float(np.abs(term).max()) < 1e-18 * float(np.abs(acc).max() + 1e-300):
            break
        k += 1
        if k > 400:
            raise ConvergenceBudgetExceeded("vectorized Bessel series stalled")
    return 2.0 * math.pi * np.sqrt(m * v) * half ** nu * acc


# ---------------------------------------------------------------------------
# the Poincare sum
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _inverse_table(c: int) -> np.ndarray:
    import numpy as np
    inv = np.zeros(c, dtype=np.int64)
    for r in range(c):
        if gcd(r, c) == 1:
            inv[r] = pow(r, -1, c)
    return inv


def _row_halfwidth(c: int, v: float, digits: int) -> int:
    """Half-width of the symmetric d-window for one value of c, rounded to
    a whole number of residue blocks.

    Equal term counts per residue class make the discarded class tails
    nearly equal, so their phase sum cancels like a Ramanujan sum; the
    leftover sits well below the c-truncation tail that dominates the
    reported error estimate, so the width needs no precision scaling."""
    base = 4000.0 * max(1.0, v) ** 0.75
    return c * max(int(math.ceil(base / c)), 4)


def _checkpoints(C: int) -> list[int]:
    # power-of-two truncations used to fit the empirical tail constant
    pts = []
    c = 2
    while c < C:
        pts.append(c)
        c *= 2
    pts.append(C)
    return pts


def _niebur_sum_fast(N: int, m: int, u: float, v: float, s: float, C: int,
                     digits: int) -> tuple[complex, list[tuple[int, complex]]]:
    """Truncated Poincare sum in doubles; also returns the partial sums at
    power-of-two truncations for the empirical tail estimate."""
    import numpy as np
    total = complex(_phi_np(m, np.array([v]), s)[0]) * \
        complex(math.cos(2 * math.pi * m * u), -math.sin(2 * math.pi * m * u)) \
        if m else complex(v ** s)
    marks = _checkpoints(C)
    partials = []
    next_mark = 0
    for c in range(N, C * N + 1, N):
        X = _row_halfwidth(c, v, digits)
        center = -c * u
        d = np.arange(math.ceil(center - X), math.floor(center + X) + 1, dtype=np.int64)
        mask = np.gcd(d, c) == 1
        if mask.any():
            d = d[mask]
            t = c * u + d.astype(np.float64)
            denom = t * t + (c * v) ** 2
            vg = v / denom
            amp = _phi_np(m, vg, s)
            if m:
                a = _inverse_table(c)[d % c]
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


def _niebur_sum_mp(N: int, m: int, tau, s, C: int, digits: int):
    """mpmath backend; same windows, scalar loop."""
    with mpmath.workdps(digits + 10):
        tau = mpmath.mpc(tau)
        u, v = mpmath.re(tau), mpmath.im(tau)
        s_mp = mpmath.mpf(s)
        if m:
            total = phi(m, v, s_mp, digits) * mpmath.expjpi(-2 * m * u)
        else:
            total = v ** s_mp + mpmath.mpf(0)
        marks = _checkpoints(C)
        partials = []
        next_mark = 0
        for c in range(N, C * N + 1, N):
            X = _row_halfwidth(c, float(v), digits)
            d_lo = int(mpmath.ceil(-c * u - X))
            d_hi = int(mpmath.floor(-c * u + X))
            row = mpmath.mpc(0)
            for d in range(d_lo, d_hi + 1):
                if gcd(d, c) != 1:
                    continue
                a = pow(d % c, -1, c) if c > 1 else 0
                b = (a * d - 1) // c
                w = (a * tau + b) / (c * tau + d)
                vg = mpmath.im(w)
                if m:
                    row += phi(m, vg, s_mp, digits) * mpmath.expjpi(-2 * m * mpmath.re(w))
                else:
                    row += vg ** s_mp
            total += row
            while next_mark < len(marks) and c == marks[next_mark] * N:
                partials.append((marks[next_mark], complex(total)))
                next_mark += 1
        while next_mark < len(marks):
            partials.append((marks[next_mark], complex(total)))
            next_mark += 1
        return total, partials


def niebur_value(N: int, m: int, tau, params: EvalParams = EvalParams()) -> PointValue:
    """F_{N,-m}(tau, s) truncated at c <= C*N, with an empirical c-tail
    estimate K * C^(2-2s) from the doubling check."""
    if isinstance(tau, HeegnerPoint):
        tau = tau.approx()
    C, s = params.truncation, params.s
    if params.digits <= 15:
        u, v = float(tau.real), float(tau.imag)
        total, partials = _niebur_sum_fast(N, m, u, v, float(s), C, params.digits)
        value = complex(total)
    else:
        # keep the arbitrary-precision value; only the estimate is a float
        value, partials = _niebur_sum_mp(N, m, tau, s, C, params.digits)
    # empirical tail constant: the largest K with |S(2c) - S(c)| =
    # K (c^(2-2s) - (2c)^(2-2s)) over the power-of-two checkpoints
    k_emp = 0.0
    for (c1, s1), (c2, s2) in zip(partials, partials[1:]):
        denom = c1 ** (2 - 2 * s) - c2 ** (2 - 2 * s)
        if denom > 0:
            k_emp = max(k_emp, abs(complex(s2) - complex(s1)) / denom)
    est = k_emp * C ** (2 - 2 * s) + 1e-15 * abs(complex(value))
    return PointValue(value=value, error_estimate=float(est))


def eisenstein_value(N: int, tau, params: EvalParams) -> PointValue:
    """E_N(tau, s) = F_{N,0}(tau, s)."""
    return niebur_value(N, 0, tau, params)


def weight0_hecke_value(evaluator, n: int, N: int, tau) -> complex:
    """(F|_0 T(n))(tau) = sum of F at the coset-representative images."""
    from .algebra import left_coset_reps
    total = 0j
    for a, b, c, d in left_coset_reps(N, n):
        w = (a * complex(tau) + b) / (c * complex(tau) + d)
        total += evaluator(w)
    return total


# ---------------------------------------------------------------------------
# CM values of j_n
# ---------------------------------------------------------------------------

def evaluate_series(f: PuiseuxSeries, z, digits: int = 50):
    """Evaluate an integral q-expansion at tau = z by Horner in
    q = e^(2 pi i z); the caller chooses a truncation that already bounds
    the tail."""
    if f.D != 1:
        raise ValueError("evaluation needs an integral exponent grid")
    with mpmath.workdps(digits + 15):
        zc = mpmath.mpc(z)
        q = mpmath.expjpi(2 * zc)
        acc = mpmath.mpc(0)
        for coeff in reversed(f.coeffs):
            c = coeff
            if isinstance(c, Fraction):
                c = mpmath.mpf(c.numerator) / c.denominator
            acc = acc * q + c
        return acc * q ** f.order


def _series_length_for(n: int, v: float, digits: int) -> int:
    target = digits * math.log(10) + 12
    L = 16
    while 4 * math.pi * math.sqrt(n * L) - 2 * math.pi * v * L > -target:
        L *= 2
        if L > 1 << 22:
            raise ConvergenceBudgetExceeded("q-expansion cannot reach the target")
    return L


def jn_value(n: int, z, digits: int = 50):
    """High-precision value of j_n (the weight-0 Hecke image of j - 720)
    at a CM point or a complex point of the standard fundamental domain."""
    if isinstance(z, HeegnerPoint):
        key, _ = reduce_point(z, 1)
        rep = key.representative()
        A, B, C = rep.A, rep.B, rep.C
        with mpmath.workdps(digits + 15):
            disc = B * B - 4 * A * C
            zc = mpmath.mpc(mpmath.mpf(-B) / (2 * A),
                            mpmath.sqrt(-disc) / (2 * A))
    else:
        with mpmath.workdps(digits + 15):
            zc = mpmath.mpc(z)
    v = float(mpmath.im(zc))
    if v < 0.5:
        raise ValueError("reduce the point into the fundamental domain first")
    L = _series_length_for(n, v, digits)
    series = forms.jn(n, L + n)
    return evaluate_series(series, zc, digits)


def j_value(z, digits: int = 50):
    """Classical j at a CM or fundamental-domain point (= j_1 + 720)."""
    return jn_value(1, z, digits) + 720


# ---------------------------------------------------------------------------
# harmonic slices: the r = 0, m > 0 Laurent slice as Hauptmodul polynomials
# ---------------------------------------------------------------------------

GENUS_ZERO_LEVELS = (1, 2, 3, 4, 5)


@lru_cache(maxsize=128)
def harmonic_slice(N: int, m: int, prec: int = 40) -> PuiseuxSeries:
    """The weakly holomorphic weight-0 form q^-m + O(q) on X_0(N) (genus
    zero), normalized with constant term 0: the s -> 1 slice of the
    Niebur-Poincare series up to its additive constant.  Cross-level
    identities must be compared after applying Theta."""
    if N not in GENUS_ZERO_LEVELS:
        raise NonGenusZeroLevel(f"level {N} has no Hauptmodul slice here")
    if m < 1:
        raise ValueError("m must be positive")
    t = forms.hauptmodul_qexp(N, prec + m + 2)
    f = t ** m
    for e in range(m - 1, 0, -1):
        a = f.coefficient(-e)
        if a:
            f = f - a * t ** e
    f = f - f.coefficient(0)
    return f
