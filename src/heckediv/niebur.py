r"""Numerical evaluation of the weight-0 Niebur-Poincare series
F_{N,-m}(tau, s) (Eisenstein series for m = 0) in the absolute-convergence
region s > 1, high-precision CM values of j_n, and the weakly holomorphic
weight-0 slices built from Hauptmoduln.

The Poincare sum runs over the cosets Gamma_0(N)_inf \ Gamma_0(N), indexed
by bottom rows (c, d): c a positive multiple of N up to C*N, d coprime to
c (plus the identity term).  At m >= 1, for each c, d runs over a
symmetric window rounded to whole residue blocks, so the discarded class
tails share a common size and their phase sum cancels like a Ramanujan
sum.  At m = 0 each row is exact in d: Moebius inversion and Poisson
summation turn it into a Ramanujan-sum convolution of a table of K-Bessel
values with about 7/Im tau entries.  That table runs wherever it costs
fewer array elements than the d-windows; the windows still serve m = 0
below about Im tau = 2e-4 (at C = 100), and where the cancellation of
the closed form at large s would round by more than the c-tail.  The
c-tail dominates and is reported as K * C^(2-2s) with K measured
empirically from the partial sums at power-of-two truncations (not
certified).

The sum runs in doubles, vectorized over each row: extra working
precision cannot help while the c-truncation error (at m = 0 and C = 300,
about 4e-3 at s = 1.5 and 5e-6 at s = 2) exceeds the rounding error by ten
orders of magnitude.  In the d-window rows, the per-residue work of a row
(the test gcd(d, c) = 1, the inverse a = d^-1 mod c and the phase
-2 pi m a/c) runs once per block of c residues and is repeated along the
window; only the terms that depend on d itself are computed per element.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import forms
from .curve import HeegnerPoint, reduce_point
from .errors import ConvergenceBudgetExceeded, NonGenusZeroLevel, \
    UnsupportedParameter
from .series import PuiseuxSeries


@dataclass(frozen=True)
class EvalParams:
    """Truncation and spectral parameter of the Poincare-series evaluators.

    The sum runs in doubles, so `digits` (the decimal digits the caller
    relies on) must be at most 15; it selects no code path."""
    truncation: int = 300      # include cosets with c <= truncation * N
    digits: int = 14
    s: float = 1.5

    def __post_init__(self):
        if self.truncation < 1:
            raise UnsupportedParameter(f"truncation={self.truncation}: must be >= 1")
        if self.digits > 15:
            raise UnsupportedParameter(
                f"digits={self.digits}: the Poincare sum runs in doubles (at most 15 digits)")
        if not self.s > 1:
            raise UnsupportedParameter(
                f"s={self.s}: must lie in the absolute-convergence region s > 1")


@dataclass(frozen=True)
class PointValue:
    """A truncated series value and its estimated c-truncation error.

    `error_estimate` is empirical, not a bound: K * C^(2-2s) with K fitted
    to the partial sums at power-of-two truncations.  At m = 0 it matches
    the true error against the Fourier expansion of E(tau, s) to within
    1.1% (C = 150 and 300, s = 1.5 and 2).  At m >= 1 the tail decays like
    C^(1-2s), so it over-reports (by 1.6e3-3.9e3 at m = 1, C = 300,
    tau = 0.25 + i).  The d-window truncation applies only at m >= 1 (and
    to m = 0 points where the window rows run, Im tau below about 2e-4);
    the closed-form m = 0 rows are exact in d."""
    value: complex
    error_estimate: float


# ---------------------------------------------------------------------------
# the phi kernel
# ---------------------------------------------------------------------------

def _phi_np(m: int, v: np.ndarray, s: float) -> np.ndarray:
    """Vectorized phi_m(v, s) in doubles (power series, adaptive length).

    Every series term is positive and, under monotone IEEE rounding, no
    smaller at a larger y, so the largest entries of the terms and of the
    partial sums sit at y_max: the stopping test runs as a scalar
    recurrence at y_max, and the vector steps need no reductions."""
    import numpy as np
    if m == 0:
        return v ** s
    nu = s - 0.5
    x = 2.0 * math.pi * m * v
    half = x / 2.0
    y = half * half
    ymax = float(y.max()) if y.size else 0.0
    term_max = acc_max = 1.0 / math.gamma(nu + 1.0)
    k = 1
    while True:
        term_max = term_max * (ymax / (k * (k + nu)))
        acc_max += term_max
        if ymax / ((k + 1) * (k + 1 + nu)) < 0.5 and term_max < 1e-18 * (acc_max + 1e-300):
            break
        k += 1
        if k > 400:
            raise ConvergenceBudgetExceeded("vectorized Bessel series stalled")
    term = np.full_like(v, 1.0 / math.gamma(nu + 1.0))
    acc = term.copy()
    ratio = np.empty_like(y)
    for j in range(1, k + 1):
        np.divide(y, j * (j + nu), out=ratio)
        term *= ratio
        acc += term
    return 2.0 * math.pi * np.sqrt(m * v) * half ** nu * acc


# ---------------------------------------------------------------------------
# the Poincare sum
# ---------------------------------------------------------------------------

def _inverse_table(c: int) -> np.ndarray:
    """inv[r] = r^-1 mod c on the units r, 0 elsewhere: r^(phi(c)-1) mod c
    by square-and-multiply on the vector of units (the products stay below
    c^2, so c < 3 * 10^9 keeps them inside int64)."""
    import numpy as np
    units = np.flatnonzero(np.gcd(np.arange(c, dtype=np.int64), c) == 1)
    base = units.copy()
    inv = np.ones_like(units)
    e = units.size - 1
    while e:
        if e & 1:
            inv *= base
            inv %= c
        base *= base
        base %= c
        e >>= 1
    table = np.zeros(c, dtype=np.int64)
    table[units] = inv % c
    return table


# the most d-window elements one row may hold: the c = N window grows as
# 8000 v^0.75 and passes this bound near Im tau = 670, and a point that
# far up is refused before any array is allocated
MAX_ROW_WINDOW = 1 << 20


def _row_halfwidth(c: int, v: float) -> int:
    """Half-width of the symmetric d-window for one value of c, rounded to
    a whole number of residue blocks.

    Equal term counts per residue class make the discarded class tails
    nearly equal, so their phase sum cancels like a Ramanujan sum; the
    leftover sits well below the c-truncation tail that dominates the
    reported error estimate."""
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


def _niebur_sum_fast(N: int, m: int, u: float, v: float, s: float,
                     C: int) -> tuple[complex, list[tuple[int, complex]]]:
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
        X = _row_halfwidth(c, v)
        center = -c * u
        lo, hi = math.ceil(center - X), math.floor(center + X)
        # d mod c has period c along the window, so the coprimality test
        # and the phase -2 pi m a/c run once on the residues of lo..lo+c-1
        # and are repeated; the coprime d stay in increasing order, so the
        # row sums add the same doubles in the same order as an
        # element-by-element pass
        block = (lo + np.arange(c, dtype=np.int64)) % c
        coprime = np.flatnonzero(np.gcd(block, c) == 1)
        reps = (hi - lo) // c + 1
        d = (lo + (c * np.arange(reps, dtype=np.int64))[:, None] + coprime).ravel()
        count = int(np.searchsorted(d, hi, side="right"))
        d = d[:count]
        t = c * u + d.astype(np.float64)
        denom = t * t + (c * v) ** 2
        vg = v / denom
        amp = _phi_np(m, vg, s)
        if m:
            a = _inverse_table(c)[block[coprime]]
            turn = np.tile(-2.0 * math.pi * m * (a / float(c)), reps)[:count]
            phase = turn + 2.0 * math.pi * m * t / (c * denom)
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


# ---------------------------------------------------------------------------
# m = 0: the rows in closed form
# ---------------------------------------------------------------------------
#
# Moebius inversion of (d, c) = 1 and Poisson summation of each full line
# sum_d ((x + d)^2 + y^2)^-s give every Eisenstein row exactly in d:
#
#     R_c = A v^(1-s) c^(-2s) [phi(c) + 2 sum_{f | c} mu(c/f) f Q(f)],
#     Q(f) = sum_{f | n <= K} kappa(2 pi n v) cos(2 pi n u),
#
# with A = sqrt(pi) Gamma(s-1/2)/Gamma(s) and kappa(z) = z^nu K_nu(z) /
# (2^(nu-1) Gamma(nu)), nu = s - 1/2, which falls from 1 at z = 0 like
# e^-z.  The table of kappa costs K ~ 7/v values; the rows cost their
# d-windows, so the cheaper of the two runs.

def _mu_phi(n: int) -> tuple[np.ndarray, np.ndarray]:
    """mu(k) and phi(k) for 0 <= k <= n (both 0 at k = 0): the primes up to
    sqrt(n) are sieved out, and what is left of k is 1 or one prime."""
    import numpy as np
    mu = np.ones(n + 1, dtype=np.int64)
    phi = np.arange(n + 1, dtype=np.int64)
    rest = np.arange(n + 1, dtype=np.int64)
    r = math.isqrt(n)
    composite = np.zeros(r + 1, dtype=bool)
    for p in range(2, r + 1):
        if composite[p]:
            continue
        composite[p * p::p] = True
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
        phi[p::p] -= phi[p::p] // p
        q = p
        while q <= n:
            rest[q::q] //= p
            q *= p
    big = rest > 1
    mu[big] *= -1
    phi[big] -= phi[big] // rest[big]
    mu[0] = 0
    return mu, phi


# kappa is summed with absolute error below e^-39 (~1e-17): the quadrature
# error of the trapezoidal rule and the tail past n = K both stay below it
_LOG_KAPPA_TOL = 39.0


def _kappa_step(nu: float) -> float:
    """Trapezoidal step for kappa at small z.  There the integrand of
    integral_0^oo e^(-z cosh t) cosh(nu t) dt rises like e^(nu t) and falls
    double-exponentially, and its Fourier transform at the first alias
    2 pi / h is about |Gamma(nu + 2 pi i/h)| / Gamma(nu) of the integral
    (Stirling's formula)."""
    h = 0.25
    while True:
        w = complex(nu, 2 * math.pi / h)
        log_alias = ((w - 0.5) * cmath.log(w) - w).real + 0.5 * math.log(2 * math.pi) \
            - math.lgamma(nu)
        if log_alias < -_LOG_KAPPA_TOL:
            return h
        h *= 0.9


def _kappa_terms(nu: float, v: float) -> float:
    """K past which 2 sum_{n > K} kappa(2 pi n v) < e^-39 (math.inf when
    K would not fit in an int64).  The sum is about kappa(2 pi K v) /
    (2 pi v), and kappa(z) < sqrt(pi/2) z^(nu-1/2) e^(-z + (nu^2-1/4)/(2z))
    / (2^(nu-1) Gamma(nu)); the iteration falls from above to the larger
    root z of the bound."""
    const = _LOG_KAPPA_TOL + 0.5 * math.log(math.pi / 2) - (nu - 1) * math.log(2) \
        - math.lgamma(nu) - math.log(math.pi * v)
    z = max(const, 0.0) + 2 * nu + 40
    for _ in range(60):
        z = const + (nu - 0.5) * math.log(z) + (nu * nu - 0.25) / (2 * z)
    return math.ceil(z / (2 * math.pi * v)) if z / (2 * math.pi * v) < 2.0 ** 62 \
        else math.inf


def _kappa_plan(nu: float, v: float, K: int):
    """The quadrature grid of kappa(2 pi n v), 1 <= n <= K: for each dyadic
    block lo <= n < hi a step h and a node count, so that one grid serves
    the whole block.  The step also resolves the peak of the integrand,
    whose curvature is sqrt(z^2 + nu^2), at the top of the block; the
    nodes run until the integrand is e^-42 below its peak at the bottom."""
    small_z_step = _kappa_step(nu)
    lo = 1
    while lo <= K:
        hi = min(2 * lo, K + 1)
        z_lo, z_hi = 2 * math.pi * v * lo, 2 * math.pi * v * (hi - 1)
        h = min(small_z_step, 0.71 * (z_hi * z_hi + nu * nu) ** -0.25)
        top = math.asinh(nu / z_lo)
        peak = nu * top - z_lo * math.cosh(top)
        end = top + 1.0
        while nu * end - z_lo * math.cosh(end) > peak - _LOG_KAPPA_TOL - 3:
            end += 1.0
        yield lo, hi, h, int(end / h) + 1
        lo = hi


def _kappa_table(nu: float, v: float, K: int) -> np.ndarray:
    """kappa(2 pi n v) for 1 <= n <= K (index 0 holds 0) by the trapezoidal
    rule on its integral, evaluated in logarithms, so no factor overflows
    whatever nu and z are; at most 1024 values of z share a node array."""
    import numpy as np
    out = np.zeros(K + 1)
    shift = -math.lgamma(nu) - nu * math.log(2)
    for lo, hi, h, nodes in _kappa_plan(nu, v, K):
        t = h * np.arange(nodes)
        # z^nu cosh(nu t) = (z/2)^nu e^(nu t) (1 + e^(-2 nu t)) 2^(nu-1);
        # the end node of the trapezoidal rule has weight 1/2
        weight = nu * t + np.log1p(np.exp(-2 * nu * t))
        weight[0] -= math.log(2.0)
        cosh_t = np.cosh(t)
        for a in range(lo, hi, 1024):
            b = min(a + 1024, hi)
            z = (2 * math.pi * v) * np.arange(a, b, dtype=np.float64)[:, None]
            expo = (nu * np.log(z) + shift) + weight - z * cosh_t
            out[a:b] = h * np.exp(expo).sum(axis=1)
    return out


def _log_lead(v: float, s: float) -> float:
    # log of A v^(1-s), A = sqrt(pi) Gamma(s-1/2)/Gamma(s)
    return 0.5 * math.log(math.pi) + math.lgamma(s - 0.5) - math.lgamma(s) \
        + (1 - s) * math.log(v)


def _eisenstein_rows_cost(N: int, v: float, s: float, C: int) -> tuple[float, float]:
    """(closed form, d-window rows) costs in array elements: the nodes of
    the kappa quadrature against the window elements of every row.  The
    closed form scales row c by A v^(1-s) c^(-2s); where that passes 2^900
    at c = N (huge s at small Im tau), it cannot run and costs math.inf."""
    import numpy as np
    K = _kappa_terms(s - 0.5, v)
    if K == math.inf or _log_lead(v, s) - 2 * s * math.log(N) > 900 * math.log(2):
        closed = math.inf
    else:
        closed = float(sum((hi - lo) * nodes for lo, hi, _, nodes in _kappa_plan(s - 0.5, v, K)))
    # the windows of _row_halfwidth, vectorised over c
    c = N * np.arange(1, C + 1, dtype=np.float64)
    base = 4000.0 * max(1.0, v) ** 0.75
    rows = float(np.sum(2 * c * np.maximum(np.ceil(base / c), 4) + 1))
    return closed, rows


def _eisenstein_rows(N: int, u: float, v: float, s: float, C: int) \
        -> tuple[np.ndarray, np.ndarray]:
    """The rows c = N, 2N, .., CN of the m = 0 sum, each exact in d, and a
    bound on the rounding of each: the terms of the bracket cancel to the
    row, so the bound scales with the sum of their absolute values."""
    import numpy as np
    nu = s - 0.5
    K = _kappa_terms(nu, v)
    L = C * N
    F = min(K, L)
    # cos(2 pi n u) depends on u mod 1 only, and the reduced u keeps the
    # rounding of the phase small
    q = _kappa_table(nu, v, K) * np.cos(2 * math.pi * (u - round(u)) * np.arange(K + 1))
    Q = np.zeros(F + 1)
    for f in range(1, F + 1):
        Q[f] = q[f::f].sum()
    mu, phi = _mu_phi(L)
    # every pair f | c with f <= F and N | c, i.e. c a multiple of lcm(f, N)
    f = np.arange(1, F + 1, dtype=np.int64)
    step = f * (N // np.gcd(f, N))
    count = L // step
    fs = np.repeat(f, count)
    js = np.arange(int(count.sum()), dtype=np.int64) - np.repeat(np.cumsum(count) - count, count) + 1
    cs = np.repeat(step, count) * js
    terms = (2 * mu[cs // fs] * fs) * Q[fs]
    c = N * np.arange(1, C + 1, dtype=np.int64)
    bracket = phi[c] + np.bincount(cs // N, weights=terms, minlength=C + 1)[1:]
    size = phi[c] + np.bincount(cs // N, weights=np.abs(terms), minlength=C + 1)[1:]
    weight = np.exp(_log_lead(v, s) - 2 * s * np.log(c.astype(np.float64)))
    # in ulps of the sum of the absolute terms: kappa carries up to about
    # 64 from its exponent and the phase 2 pi n u about n <= K; the factor
    # 64 over that covers the worst ratio measured against the d-window
    # rows (3.3e3 ulps, s <= 20, Im tau >= 1e-3)
    return weight * bracket, 2.0 ** -46 * (64 + K) * weight * size


def _eisenstein_sum(N: int, u: float, v: float, s: float, C: int) \
        -> tuple[complex, list[tuple[int, complex]], float]:
    """The m = 0 sum over c <= C*N from the closed-form rows, its partial
    sums at the checkpoints, and the bound on its rounding."""
    import numpy as np
    rows, rounding = _eisenstein_rows(N, u, v, s, C)
    totals = v ** s + np.cumsum(rows)
    partials = [(mark, complex(totals[mark - 1])) for mark in _checkpoints(C)]
    return complex(totals[-1]), partials, float(np.sum(rounding))


def _tail_estimate(partials: list[tuple[int, complex]], s: float, C: int) -> float:
    # empirical tail constant: the largest K with |S(2c) - S(c)| =
    # K (c^(2-2s) - (2c)^(2-2s)) over the power-of-two checkpoints
    k_emp = 0.0
    for (c1, s1), (c2, s2) in zip(partials, partials[1:]):
        denom = c1 ** (2 - 2 * s) - c2 ** (2 - 2 * s)
        if denom > 0:
            k_emp = max(k_emp, abs(s2 - s1) / denom)
    return k_emp * C ** (2 - 2 * s)


def niebur_value(N: int, m: int, tau, params: EvalParams = EvalParams()) -> PointValue:
    """F_{N,-m}(tau, s) truncated at c <= C*N, with an empirical c-tail
    estimate K * C^(2-2s) from the doubling check.  Needs m >= 0, N >= 1
    and a finite tau in the upper half-plane whose c = N row fits in
    MAX_ROW_WINDOW (UnsupportedParameter otherwise).

    At m = 0 the rows are exact in d (`_eisenstein_sum`) where the kappa
    table costs less than the d-windows, unless its rounding bound exceeds
    the c-tail estimate (large s, small Im tau); elsewhere the d-window
    rows of `_niebur_sum_fast` run."""
    if m < 0:
        raise UnsupportedParameter(f"m={m}: F_(N,-m) needs m >= 0")
    if N < 1:
        raise UnsupportedParameter(f"N={N}: the level must be >= 1")
    if isinstance(tau, HeegnerPoint):
        tau = tau.approx()
    u, v = float(tau.real), float(tau.imag)
    if not (math.isfinite(u) and math.isfinite(v) and v > 0):
        raise UnsupportedParameter(f"tau={tau}: needs a finite point with Im tau > 0")
    C, s = params.truncation, params.s
    window = 2 * _row_halfwidth(N, v) + 1
    if window > MAX_ROW_WINDOW:
        raise UnsupportedParameter(
            f"tau={tau}: Im tau = {v:g} needs a d-window of {window} elements at c = {N}, "
            f"more than the {MAX_ROW_WINDOW} a row may hold")
    s = float(s)
    if m == 0:
        closed, rows = _eisenstein_rows_cost(N, v, s, C)
        if closed <= rows:
            value, partials, rounding = _eisenstein_sum(N, u, v, s, C)
            tail = _tail_estimate(partials, s, C)
            if rounding <= tail:
                return PointValue(value=value, error_estimate=float(tail + 1e-15 * abs(value)))
    value, partials = _niebur_sum_fast(N, m, u, v, s, C)
    est = _tail_estimate(partials, s, C) + 1e-15 * abs(value)
    return PointValue(value=value, error_estimate=float(est))


# ---------------------------------------------------------------------------
# CM values of j_n
# ---------------------------------------------------------------------------

def evaluate_series(f: PuiseuxSeries, z, digits: int = 50):
    """Evaluate an integral q-expansion at tau = z by Horner in
    q = e^(2 pi i z); the caller chooses a truncation that already bounds
    the tail."""
    import mpmath
    if f.D != 1:
        raise UnsupportedParameter("evaluation needs an integral exponent grid")
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


def _sl2z_reduced(z):
    """The SL_2(Z)-image of z (an mpc with Im z > 0) in the standard
    fundamental domain |Re z| <= 1/2, |z| >= 1: translate, then invert
    while |z| < 1.  Each inversion raises Im z, so the loop ends."""
    import mpmath
    while True:
        z -= mpmath.nint(z.real)
        if abs(z) >= 1:
            return z
        z = -1 / z


def jn_value(n: int, z, digits: int = 50):
    """High-precision value of j_n (the weight-0 Hecke image of j - 720)
    at a CM point or a finite complex point of the upper half-plane.  j_n
    is SL_2(Z)-invariant, so either is first reduced into the standard
    fundamental domain: a CM point exactly, a complex point at digits + 15
    working digits."""
    import mpmath
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
            if not (mpmath.isfinite(zc) and zc.imag > 0):
                raise UnsupportedParameter(
                    f"z={z}: needs a finite point with Im z > 0")
            # the reduction magnifies rounding by up to 1/Im z
            extra = max(0, -int(mpmath.log10(zc.imag)))
        with mpmath.workdps(digits + 15 + extra):
            zc = _sl2z_reduced(mpmath.mpc(z))
    v = float(mpmath.im(zc))
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
        raise UnsupportedParameter(f"a harmonic slice needs m >= 1, got {m}")
    t = forms.hauptmodul_qexp(N, prec + m + 2)
    f = t ** m
    for e in range(m - 1, 0, -1):
        a = f.coefficient(-e)
        if a:
            f = f - a * t ** e
    f = f - f.coefficient(0)
    return f
