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

The sum runs in doubles, vectorized over each row: extra working
precision cannot help while the c-truncation error (at m = 0 and C = 300,
about 4e-3 at s = 1.5 and 5e-6 at s = 2) exceeds the rounding error by ten
orders of magnitude.  The per-residue work of a row (the test
gcd(d, c) = 1, the inverse a = d^-1 mod c and the phase -2 pi m a/c) runs
once per block of c residues and is repeated along the window; only the
terms that depend on d itself are computed per element.
"""

from __future__ import annotations

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
    tau = 0.25 + i)."""
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


def niebur_value(N: int, m: int, tau, params: EvalParams = EvalParams()) -> PointValue:
    """F_{N,-m}(tau, s) truncated at c <= C*N, with an empirical c-tail
    estimate K * C^(2-2s) from the doubling check.  Needs m >= 0, N >= 1
    and a finite tau in the upper half-plane whose c = N row fits in
    MAX_ROW_WINDOW (UnsupportedParameter otherwise)."""
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
    value, partials = _niebur_sum_fast(N, m, u, v, float(s), C)
    # empirical tail constant: the largest K with |S(2c) - S(c)| =
    # K (c^(2-2s) - (2c)^(2-2s)) over the power-of-two checkpoints
    k_emp = 0.0
    for (c1, s1), (c2, s2) in zip(partials, partials[1:]):
        denom = c1 ** (2 - 2 * s) - c2 ** (2 - 2 * s)
        if denom > 0:
            k_emp = max(k_emp, abs(s2 - s1) / denom)
    est = k_emp * C ** (2 - 2 * s) + 1e-15 * abs(value)
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
