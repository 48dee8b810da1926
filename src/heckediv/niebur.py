r"""Numerical evaluation of the weight-0 Niebur-Poincare series
F_{N,-m}(tau, s) (Eisenstein series for m = 0) in the absolute-convergence
region s > 1, high-precision values of j_n at CM points, and the weakly
holomorphic weight-0 slices, Faber polynomials F_m(t_N) built by
``forms._faber_windows``.

The Poincare sum runs over the cosets Gamma_0(N)_inf \ Gamma_0(N), indexed
by bottom rows (c, d): c a positive multiple of N up to C*N, d coprime to
c (plus the identity term).  Each row is summed exactly in d by Poisson
summation over the residue classes of d mod c.  At m = 0, Moebius
inversion turns the rows into a Ramanujan-sum convolution of a table of
K-Bessel values with about 7/Im tau entries.  At m >= 1, row c is its
Fourier expansion: Kloosterman sums S(+-n, -m; c), the same K-Bessel
table, and power series of I and J Bessel functions, about 7/Im tau terms
a row near the real axis and fewer far up.  Where a series of the
I-Bessel factor of a term would pass its budget (the identity term from
about Im tau = 90/m on, a d-window term near the real axis), that factor
takes the expansion of I at infinity instead, up to the double overflow.
The Kloosterman sums are built a chunk of moduli at a time (rows of 2^16
values in all, a few chunks a call), a chunk ahead of the blocks of
Fourier terms that read them: one vectorised pass gives the inverses
r^-1 mod c of the units r <= c/2 of every modulus of the chunk, one exp
the phases e(-m r^-1/c), and one real inverse DFT of length c each row.  A row S(., -m; c) does
not depend on tau or s, so each is built once per (c, m) and kept in one
process-wide store of Kloosterman rows only, at most STORE_BYTES:
evaluations at many points, such as a point and its Gamma_0(N) images,
share their Kloosterman sums.  The inverses are not kept: the row of a
modulus at another m runs their pass again.

A row runs on a d-window instead (d in a symmetric window rounded to
whole residue blocks, so the discarded class tails share a common size
and their phase sum cancels like a Ramanujan sum) where that costs fewer
array elements (every m = 0 row below about Im tau = 2e-4 at C = 100), or
where the Fourier terms, which peak near e^(2 pi m/(c^2 Im tau)), cancel
so far that the rounding bound of the closed-form rows would pass the
error estimate: at m >= 1 the rows of small c at small Im tau (none near
Im tau = 1, up to 9 rows at Im tau = 0.013, m = 3), at m = 0 the rows of
small c at large s.  The c-tail dominates and is reported as
K * C^(2-2s), K measured from the partial sums at power-of-two
truncations (not certified).

The sum runs in doubles, vectorized over each row (over blocks of rows at
m >= 1): extra working precision cannot help while the c-truncation error
(at m = 0 and C = 300, about 4e-3 at s = 1.5 and 5e-6 at s = 2) exceeds the
rounding error by ten orders of magnitude.
"""

from __future__ import annotations

import cmath
import math
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import forms
from .curve import HeegnerPoint, reduce_point
from .errors import (ConvergenceBudgetExceeded, InvalidInput, NonGenusZeroLevel,
                     PrecisionExhausted, UnsupportedParameter)
from .series import PuiseuxSeries


@dataclass(frozen=True)
class EvalParams:
    """Truncation and spectral parameter of the Poincare-series evaluators.

    `truncation` is C: the sum keeps the rows c = N, .., CN, each exact in
    d except the rows that run on a d-window (see `niebur_value`).  The
    sum runs in doubles, so `digits` (the decimal digits the caller relies
    on) must be at most 15; it selects no code path."""
    truncation: int = 300      # include cosets with c <= truncation * N
    digits: int = 14
    s: float = 1.5

    def __post_init__(self):
        if self.truncation < 1:
            raise UnsupportedParameter(f"truncation={self.truncation}: must be >= 1")
        if self.digits > 15:
            raise UnsupportedParameter(
                f"digits={self.digits}: the Poincare sum runs in doubles (at most 15 digits)")
        if not (self.s > 1 and math.isfinite(self.s)):
            raise UnsupportedParameter(
                f"s={self.s}: must be finite and lie in the absolute-convergence region s > 1")


@dataclass(frozen=True)
class PointValue:
    """A truncated series value and its estimated c-truncation error.

    `error_estimate` is empirical, not a bound: K * C^(2-2s) with K fitted
    to the partial sums at power-of-two truncations, plus 1e-15 of the
    value, or the rounding spread of the terms of large exponent where that
    is larger (`_rounding_spread`).  At m = 0 it matches the true error
    against the Fourier expansion of E(tau, s) to within 1.1% (C = 150 and
    300, s = 1.5 and 2).
    At m >= 1 the tail decays like C^(1-2s), so it over-reports, by
    8.0e2-3.9e3 at m = 1 (C = 150 and 300, s = 1.5 and 2, tau = 0.25 + i
    and -0.4 + 0.9i, against the sum at C = 4800 extrapolated in C).  The
    closed-form rows are exact in d; a d-window truncation applies only to
    the rows that run on one (small Im tau, see the module docstring), and
    the rounding bound of the closed-form rows stays within the estimate."""
    value: complex
    error_estimate: float


# ---------------------------------------------------------------------------
# Bessel power series
# ---------------------------------------------------------------------------

# the most terms a Bessel power series may take; a series of largest
# argument x needs at most x + 20 of them
_SERIES_BUDGET = 400


def _series_length(ymax: float, order: float) -> int:
    """The number of terms after which sum_k y^k / (k! (order+1)_k) has
    converged (to 1e-18 of the sum) for every y <= ymax.

    Every term is positive and, under monotone IEEE rounding, no smaller at
    a larger y, so the largest entries of the terms and of the partial sums
    sit at ymax: the stopping test runs as a scalar recurrence there, and
    the vector steps of the callers need no reductions."""
    term = acc = 1.0
    k = 1
    while True:
        term *= ymax / (k * (k + order))
        acc += term
        if ymax / ((k + 1) * (k + 1 + order)) < 0.5 and term < 1e-18 * (acc + 1e-300):
            return k
        k += 1
        if k > _SERIES_BUDGET:
            raise ConvergenceBudgetExceeded("vectorized Bessel series stalled")


def _phi_np(m: int, v: np.ndarray, s: float) -> np.ndarray:
    """Vectorized phi_m(v, s) = 2 pi sqrt(m v) I_(s-1/2)(2 pi m v) in
    doubles: I^ of `_bessel_ij` at x = 2 pi m v.  The lead
    (x/2)^nu/Gamma(nu+1) of the series is carried in logarithms, so that
    neither factor overflows at large s; an entry below the double range
    comes out 0.  Where the series of the largest entry would pass the
    series budget, the entries from x = _EXPANSION_FROM on take the
    expansion of I_nu at infinity (`_phi_expansion`) and the rest the
    series."""
    import numpy as np
    if m == 0:
        return v ** s
    nu = s - 0.5
    x = 2.0 * math.pi * m * v
    half = x / 2.0
    try:
        acc = _bessel_ij(half * half, nu)[0]
    except ConvergenceBudgetExceeded:
        far = x >= _EXPANSION_FROM
        out = np.empty_like(x)
        out[~far] = _phi_np(m, v[~far], s)
        out[far] = _phi_expansion(x[far], nu)
        return out
    with np.errstate(divide="ignore"):  # log 0 = -inf gives the lead 0 at v = 0
        lead = np.exp(nu * np.log(half) - math.lgamma(nu + 1.0))
    return 2.0 * math.pi * np.sqrt(m * v) * lead * acc


# the least argument at which `_phi_np` takes the expansion at infinity: a
# series of argument below it fits the series budget at every order
_EXPANSION_FROM = 300.0


def _phi_expansion(x: np.ndarray, nu: float) -> np.ndarray:
    """sqrt(2 pi x) I_nu(x) = e^x sum_k (-1)^k a_k(nu) x^-k for x >=
    _EXPANSION_FROM, a_k(nu) = prod_{j<=k} (4 nu^2 - (2j-1)^2) / (k! 8^k)
    (Abramowitz and Stegun 9.7.1; the e^-x part is below e^-600 relative).
    The lead is e^x itself: x is its logarithm, and no factor of it
    overflows before the value does.

    |a_k x^-k| falls as x grows, so the terms at the least x bound those of
    every entry: the sum stops where they fall below 1e-18 there, and is
    refused unless the terms past the first sum to at most 1/2, which
    keeps the rounding within a few ulps.  An entry past the double range
    is refused: it is a term of the Poincare sum, whose value overflows
    with it."""
    import numpy as np
    xmin = float(x.min())
    four_nu2 = 4.0 * nu * nu
    term, spread, k = 1.0, 0.0, 0
    while abs(term) >= 1e-18:
        k += 1
        term *= ((2 * k - 1) ** 2 - four_nu2) / (8.0 * k * xmin)
        spread += abs(term)
        if k > _SERIES_BUDGET or spread > 0.5:
            raise ConvergenceBudgetExceeded(
                f"neither the Bessel series nor its expansion at infinity converges "
                f"at x = {xmin:g}, order {nu:g}")
    acc = np.ones_like(x)
    term = np.ones_like(x)
    for j in range(1, k + 1):
        term *= ((2 * j - 1) ** 2 - four_nu2) / (8.0 * j) / x
        acc += term
    with np.errstate(over="ignore"):
        out = np.exp(x) * acc
    if not np.isfinite(out).all():
        raise UnsupportedParameter(
            f"a term e^{float(x.max()):g} of the Poincare sum overflows a double")
    return out


def _bessel_ij(y: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """I^ = sum_k y^k / (k! (mu+1)_k) and J^ = sum_k (-y)^k / (k! (mu+1)_k)
    at y = x^2/4: I_mu(x) and J_mu(x) divided by (x/2)^mu / Gamma(mu+1),
    both 1 at x = 0: the one Bessel power series of the module.  J^ is the
    alternating sum of the terms of I^, so its rounding is that of I^, not
    of J^."""
    import numpy as np
    k = _series_length(float(y.max()) if y.size else 0.0, mu)
    term = np.ones_like(y)
    i_hat = term.copy()
    j_hat = term.copy()
    ratio = np.empty_like(y)
    for j in range(1, k + 1):
        np.divide(y, j * (j + mu), out=ratio)
        term *= ratio
        i_hat += term
        if j & 1:
            j_hat -= term
        else:
            j_hat += term
    return i_hat, j_hat


# ---------------------------------------------------------------------------
# modular inverses and Kloosterman sums
# ---------------------------------------------------------------------------

# the most bytes the store of Kloosterman rows may keep, oldest first out;
# a call that needs more still gets every row it builds
STORE_BYTES = 1 << 23


class _Store:
    """Kloosterman rows only: the read-only row S(., -m; c) under the key
    (c, m), in the order they were kept, and their total size.  The rows of
    one chunk are views of one array, which leaves the store with the last
    of them."""

    def __init__(self):
        self.arrays: dict = {}
        self.nbytes = 0
        self._lock = threading.Lock()

    def keep(self, items) -> None:
        """Store each (key, read-only array) not stored yet (two threads may
        build one twice, as equal copies), then drop the oldest arrays, each
        with the views of the same array kept after it, while the total
        passes STORE_BYTES."""
        with self._lock:
            for key, array in items:
                if key not in self.arrays:
                    self.arrays[key] = array
                    self.nbytes += array.nbytes
            while self.nbytes > STORE_BYTES:
                base = self._drop_oldest().base
                while base is not None and self.arrays \
                        and next(iter(self.arrays.values())).base is base:
                    self._drop_oldest()

    def _drop_oldest(self):
        array = self.arrays.pop(next(iter(self.arrays)))
        self.nbytes -= array.nbytes
        return array


@lru_cache(maxsize=None)
def _store() -> _Store:
    """The process-wide store of Kloosterman rows; it sits behind
    lru_cache so that its cache_clear empties it with the others."""
    return _Store()


def _chunks(cs):
    """The moduli cs, in order, in chunks of consecutive ones whose sum
    stays within STORE_BYTES / 128 (2^16 at the default bound), each chunk
    holding at least one: the rows of a chunk take at most a sixteenth of
    the store, so the chunks a call builds last stay stored."""
    budget = STORE_BYTES >> 7
    chunk, total = [], 0
    for c in cs:
        if chunk and total + c > budget:
            yield chunk
            chunk, total = [], 0
        chunk.append(c)
        total += c
    if chunk:
        yield chunk


def _prime_divisors(mod: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, p), p a prime dividing mod[i], as two arrays, each
    pair once: a sieve of smallest prime factors up to max(mod), then each
    cofactor divided by its smallest prime factor a step."""
    import numpy as np
    n = int(mod.max())
    spf = np.arange(n + 1)
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            multiples = spf[p * p::p]
            np.minimum(multiples, p, out=multiples)
    i, rest, last = np.arange(mod.size), mod, np.zeros_like(mod)
    index, primes = [i[:0]], [mod[:0]]
    while True:
        left = rest > 1
        i, rest, last = i[left], rest[left], last[left]
        if not i.size:
            return np.concatenate(index), np.concatenate(primes)
        p = spf[rest]
        fresh = p != last
        index.append(i[fresh])
        primes.append(p[fresh])
        rest, last = rest // p, p


def _inverse_pass(new: list[int]) -> np.ndarray:
    """The inverse half-tables of the sorted moduli new, concatenated in one
    int64 array: for each c its c // 2 + 1 entries r^-1 mod c at the units
    r <= c/2 and 0 at the other r <= c/2 (a unit above c/2 reads
    (c - r)^-1 = c - inv[c - r]).  One pass: the multiples of each prime
    divisor of c are struck from the r <= c/2, and r^(phi(c)-1) mod c runs
    by square-and-multiply on the units left, in uint32 while every
    c < 2^16 (products below 2^32), in int64 above (products below 2^63
    while c < 3.03e9)."""
    import numpy as np
    mod = np.array(new, dtype=np.int64)
    size = mod // 2 + 1
    starts = np.cumsum(size) - size
    unit = np.ones(int(size.sum()), dtype=bool)
    i, p = _prime_divisors(mod)
    strikes = (size[i] - 1) // p + 1
    k = np.arange(int(strikes.sum())) - np.repeat(np.cumsum(strikes) - strikes, strikes)
    unit[np.repeat(starts[i], strikes) + np.repeat(p, strikes) * k] = False
    units = np.flatnonzero(unit)
    count = np.add.reduceat(unit, starts, dtype=np.int64)
    work = np.uint32 if new[-1] < 1 << 16 else np.int64
    c = np.repeat(mod, count).astype(work)
    base = (units - np.repeat(starts, count)).astype(work)
    # phi(c) is twice the units r <= c/2 for c > 2; any exponent serves c <= 2
    e = 2 * count - 1
    inv = np.ones_like(base)
    for bit in range(int(e.max()).bit_length()):
        if bit:
            base = base * base % c
        np.copyto(inv, inv * base % c, where=np.repeat((e >> bit & 1).astype(bool), count))
    flat = np.zeros(unit.size, dtype=np.int64)
    flat[units] = inv
    return flat


def _kloosterman_pass(new: list[int], m: int) -> dict:
    """The rows S(., -m; c) of the sorted moduli new, as read-only views of
    one array: the inverses of their units in one `_inverse_pass`, all their
    phases e(-m r^-1/c) in one exp, then one real inverse DFT of length c a
    row."""
    import numpy as np
    mod = np.array(new, dtype=np.int64)
    half = mod // 2 + 1
    inv = _inverse_pass(new)
    modulus = np.repeat(mod, half)
    unit = np.flatnonzero(inv | (modulus == 1))
    cr = modulus[unit]
    g = np.zeros(inv.size, dtype=complex)
    g[unit] = np.exp(1j * ((-2 * math.pi / cr) * (m * inv[unit] % cr)))
    fresh = np.empty(int(mod.sum()))
    ends = np.cumsum(mod).tolist()
    for ci, end, e, h in zip(new, ends, np.cumsum(half).tolist(), half.tolist()):
        np.fft.irfft(g[e - h:e], n=ci, norm="forward", out=fresh[end - ci:end])
    fresh.flags.writeable = False
    return {ci: fresh[end - ci:end] for ci, end in zip(new, ends)}


def _kloosterman_rows(c: np.ndarray, m: int) -> np.ndarray:
    """S(k, -m; c) for k = 0 .. c-1, the rows of the moduli c concatenated:
    c times the inverse DFT of g_r = e(-m r^-1/c) on the units r.  As
    g_(c-r) = conj(g_r), the sums are real and the units r <= c/2 give
    them.  The rows missing from the store are built a chunk of moduli at
    a time (`_chunks`), one exp and one array a chunk, and kept.
    S(0, -m; c) is the Ramanujan sum c_c(m), an integer."""
    import numpy as np
    store = _store()
    cs = c.tolist()
    rows = {ci: store.arrays.get((ci, m)) for ci in cs}
    for chunk in _chunks(sorted(ci for ci, row in rows.items() if row is None)):
        built = _kloosterman_pass(chunk, m)
        rows.update(built)
        store.keep(((ci, m), row) for ci, row in built.items())
    return np.concatenate([rows[ci] for ci in cs])


# ---------------------------------------------------------------------------
# the d-window rows
# ---------------------------------------------------------------------------

# the most d-window elements one row may hold: the c = N window grows as
# 8000 v^0.75 and passes this bound near Im tau = 670; a point whose
# window rows would pass it is refused before any row is allocated
MAX_ROW_WINDOW = 1 << 20


def _row_halfwidth(c, v: float):
    """Half-width X of the symmetric d-window of row c (a number or an
    array of them), rounded to a whole number of residue blocks; the
    window holds 2X + 1 values of d.  A whole-valued double, exact while
    it stays below 2^53."""
    import numpy as np
    base = 4000.0 * max(1.0, v) ** 0.75
    return c * np.maximum(np.ceil(base / c), 4)


def _window_rows(m: int, u: float, v: float, s: float, cs) -> np.ndarray:
    """The rows c in cs of the Poincare sum, each summed over its d-window.

    d mod c has period c along the window, so the coprimality test and the
    phase -2 pi m a/c (a = d^-1 mod c) run once on the residues of
    lo..lo+c-1 and are repeated; the coprime d stay in increasing order, so
    a row adds the same doubles in the same order as an element-by-element
    pass."""
    import numpy as np
    rows = np.empty(len(cs), dtype=complex)
    for i, c in enumerate(cs):
        c = int(c)
        X = _row_halfwidth(c, v)
        center = -c * u
        lo, hi = math.ceil(center - X), math.floor(center + X)
        block = (lo + np.arange(c, dtype=np.int64)) % c
        coprime = np.flatnonzero(np.gcd(block, c) == 1)
        reps = (hi - lo) // c + 1
        d = (lo + (c * np.arange(reps, dtype=np.int64))[:, None] + coprime).ravel()
        count = int(np.searchsorted(d, hi, side="right"))
        d = d[:count]
        t = c * u + d.astype(np.float64)
        denom = t * t + (c * v) ** 2
        amp = _phi_np(m, v / denom, s)
        if m:
            r = block[coprime]
            a = _inverse_pass([c])[np.minimum(r, c - r)]
            a = np.where(2 * r <= c, a, c - a)
            turn = np.tile(-2.0 * math.pi * m * (a / float(c)), reps)[:count]
            phase = turn + 2.0 * math.pi * m * t / (c * denom)
            rows[i] = complex(np.sum(amp * np.cos(phase)), np.sum(amp * np.sin(phase)))
        else:
            rows[i] = complex(np.sum(amp))
    return rows


def _rounding_spread(m: int, u: float, v: float, s: float, first: complex, cs) -> float:
    """The rounding of the terms of large exponent: the sum of |term| times
    2^-52 (x + |phase|) + |dt| |d(x + phase)/dt| over the identity term
    `first` and the terms of the d-window rows cs with x = 2 pi m
    Im(gamma tau) >= 1, dt the exact rounding of t = cu + d.

    A term is about e^x times a phase, x and the phase come out of doubles
    each within a few ulps, and t carries the rounding of cu, which the
    slope of a near term multiplies by hundreds: a term moves by its size
    times that many ulps, past 1e-15 of the value where one term of x near
    50 dominates (1.6e7 off a value of 4e21 at N = 3, m = 2, s = 2, tau =
    0.34375 + 0.0234375i; 5.5e5 off 5.5e18 at u = 0.6725, v = 1/32, where
    t = 0.0175 is rounded at 2.0175).  The terms of x < 1 are below 2 pi m
    times their size in phase and stay within 1e-15 of their sum.  x >= 1
    needs t^2 + (cv)^2 <= 2 pi m v: a few d about -cu of the rows c <=
    sqrt(2 pi m/v).  The phase is bounded by 2 pi m + |2 pi m t/(c (t^2 +
    (cv)^2))|, with no inverse mod c.  0 at m = 0."""
    import numpy as np
    if not m:
        return 0.0
    ulp = 2.0 ** -52  # scaled first: a term near the overflow times x stays finite
    total = ulp * abs(first) * (2.0 * math.pi * m * v + math.pi * m)
    reach = math.sqrt(2.0 * math.pi * m * v)
    c = np.asarray(cs, dtype=np.int64)
    c = c[c * c * v <= 2.0 * math.pi * m]
    if not c.size:
        return total
    cu = c * u
    # the exact rounding of each cu, then of each cu + d by two-sum
    cu_off = np.array([float(Fraction(p) - int(ci) * Fraction(u)) for p, ci in zip(cu, c)])
    lo = np.ceil(-cu - reach).astype(np.int64)
    d = lo[:, None] + np.arange(int(2 * reach) + 2)
    c, cu, cu_off = (np.broadcast_to(a[:, None], d.shape) for a in (c, cu, cu_off))
    keep = (d <= -cu + reach) & (np.gcd(d, c) == 1)
    c, cu, cu_off, d = c[keep], cu[keep], cu_off[keep], d[keep].astype(np.float64)
    t = cu + d
    back = t - cu
    dt = cu_off - ((cu - (t - back)) + (d - back))
    cv = c * v
    den = t * t + cv * cv
    x = 2.0 * math.pi * m * v / den
    near = x >= 1.0
    t, cv, den, x, dt = t[near], cv[near], den[near], x[near], dt[near]
    # d x/dt = -2 t x/den, d phase/dt = x ((cv)^2 - t^2)/(cv den)
    slope = (2.0 * np.abs(t) * x + x * np.abs(cv * cv - t * t) / cv) / den
    size = _phi_np(m, v / den, s)
    return total + float(np.sum(ulp * size * (x + 2.0 * math.pi * m + np.abs(x * t / cv))
                                + size * np.abs(dt) * slope))


def _checkpoints(C: int) -> list[int]:
    # power-of-two truncations used to fit the empirical tail constant
    return [2 ** k for k in range(1, (C - 1).bit_length())] + [C]


def _identity_term(m: int, u: float, v: float, s: float) -> complex:
    import numpy as np
    if not m:
        return complex(v ** s)
    # e(-m u) depends on u mod 1 only, and the reduced u keeps the rounding
    # of the phase small
    phase = 2 * math.pi * m * (u - round(u))
    return complex(_phi_np(m, np.array([v]), s)[0]) * complex(math.cos(phase), -math.sin(phase))


def _partial_sums(first: complex, rows: np.ndarray, C: int) \
        -> tuple[complex, list[tuple[int, complex]]]:
    """first plus the rows c = N, .., CN, added in order, and the partial
    sums at power-of-two truncations for the empirical tail estimate."""
    import numpy as np
    totals = np.cumsum(np.concatenate(([first], rows)))
    return complex(totals[-1]), [(mark, complex(totals[mark])) for mark in _checkpoints(C)]


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
    """mu(k) and phi(k) for 0 <= k <= n (both 0 at k = 0) from the primes
    p | k of `_prime_divisors`: k is squarefree where their product is k,
    and phi(k) = k / prod p * prod (p - 1)."""
    import numpy as np
    k = np.arange(n + 1, dtype=np.int64)
    i, p = _prime_divisors(k[1:])
    i += 1
    radical = np.ones(n + 1, dtype=np.int64)
    np.multiply.at(radical, i, p)
    phi = np.ones(n + 1, dtype=np.int64)
    np.multiply.at(phi, i, p - 1)
    phi *= k // radical
    mu = np.where(radical == k, 1 - 2 * (np.bincount(i, minlength=n + 1) & 1), 0)
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


def _kappa_terms(nu: float, v: float, a=0.0, weight=1.0) -> np.ndarray:
    """K past which 2 weight sum_{n > K} kappa(z_n) e^(2 sqrt(a z_n)) <
    e^-39, z_n = 2 pi n v (inf where K would not fit in an int64),
    vectorised over a and weight.

    The m = 0 rows have a = 0; a row c at m >= 1 multiplies kappa(z_n) by
    I^(x_n) <= cosh(x_n) <= e^(x_n), x_n = 2 sqrt(a z_n) with
    a = 2 pi m/(c^2 v), and by Kloosterman sums of size at most c.  The sum
    is about the term at n = K over 2 pi v, and kappa(z) < sqrt(pi/2)
    z^(nu-1/2) e^(-z + (nu^2-1/4)/(2z)) / (2^(nu-1) Gamma(nu)); the
    iteration converges to the larger root z of the bound (no lower than
    one term); it stops at its fixed point, or after 60 steps."""
    import numpy as np
    a = np.asarray(a, dtype=np.float64)
    const = _LOG_KAPPA_TOL + 0.5 * math.log(math.pi / 2) - (nu - 1) * math.log(2) \
        - math.lgamma(nu) - math.log(math.pi * v) + np.log(weight)
    z = np.maximum(const, 0.0) + 2 * nu + 40 + 4 * a
    for _ in range(60):
        step = np.maximum(const + (nu - 0.5) * np.log(z) + (nu * nu - 0.25) / (2 * z)
                          + 2 * np.sqrt(a) * np.sqrt(z), 2 * math.pi * v)
        # a step that returns its own z returns it ever after (NaN never does)
        if np.array_equal(step, z):
            break
        z = step
    with np.errstate(over="ignore"):
        K = np.ceil(z / (2 * math.pi * v))
    return np.where(K < 2.0 ** 62, K, np.inf)


def _kappa_plan(nu: float, v: float, K: int):
    """The quadrature grid of kappa(2 pi n v), 1 <= n <= K: for each dyadic
    block lo <= n < hi a step h and a node count, so that one grid serves
    the whole block.  The step also resolves the peak of the integrand,
    whose curvature is sqrt(z^2 + nu^2), at the top of the block; the
    nodes run until the integrand is e^-42 below its peak at the bottom,
    in strides of the peak's width 8/sqrt(z) where that is below 1 (far up
    the half-plane)."""
    small_z_step = _kappa_step(nu)
    lo = 1
    while lo <= K:
        hi = min(2 * lo, K + 1)
        z_lo, z_hi = 2 * math.pi * v * lo, 2 * math.pi * v * (hi - 1)
        h = min(small_z_step, 0.71 * math.hypot(z_hi, nu) ** -0.5)
        top = math.asinh(nu / z_lo)
        peak = nu * top - z_lo * math.cosh(top)
        stride = min(1.0, 8 / math.sqrt(z_lo))
        end = top + stride
        while nu * end - z_lo * math.cosh(end) > peak - _LOG_KAPPA_TOL - 3:
            end += stride
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
    K = float(_kappa_terms(s - 0.5, v))
    if K == math.inf or _log_lead(v, s) - 2 * s * math.log(N) > 900 * math.log(2):
        closed = math.inf
    else:
        closed = float(sum((hi - lo) * nodes
                           for lo, hi, _, nodes in _kappa_plan(s - 0.5, v, int(K))))
    c = N * np.arange(1, C + 1, dtype=np.float64)
    return closed, float(np.sum(2 * _row_halfwidth(c, v) + 1))


def _eisenstein_rows(N: int, u: float, v: float, s: float, C: int) \
        -> tuple[np.ndarray, np.ndarray]:
    """The rows c = N, 2N, .., CN of the m = 0 sum, each exact in d, and a
    bound on the rounding of each: the terms of the bracket cancel to the
    row, so the bound scales with the sum of their absolute values."""
    import numpy as np
    nu = s - 0.5
    K = int(_kappa_terms(nu, v))
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


# ---------------------------------------------------------------------------
# m >= 1: the rows in closed form
# ---------------------------------------------------------------------------
#
# Poisson summation over each residue class of d turns row c into its
# Fourier expansion in u, exact in d (Niebur, Nagoya Math. J. 52, 1973;
# Fay, J. reine angew. Math. 293/294, 1977):
#
#     R_c = L_c [S(0, -m; c) + sum_{n >= 1} kappa(2 pi n v)
#                (S(n, -m; c) e(nu) I^(x_n) + S(-n, -m; c) e(-nu) J^(x_n))],
#
# with S the Kloosterman sum, x_n = 4 pi sqrt(mn)/c, I^ and J^ the series
# of _bessel_ij at mu = 2s - 1, and L_c = 2^(2s) pi^(s+1/2) m^s
# Gamma(s-1/2)/Gamma(2s) v^(1-s) c^(-2s) = A v^(1-s) c^(-2s) (4 pi m)^s
# Gamma(s)/Gamma(2s).  kappa falls like e^-z and I^ grows like e^x, so
# the terms peak near e^(2 pi m/(c^2 v)): where they cancel by more than
# the error estimate allows (small c at small Im tau), a row keeps its
# d-window.

# rows run in blocks of about this many Kloosterman values and Fourier terms
_ROW_BLOCK = 1 << 13


def _poincare_plan(N: int, m: int, u: float, v: float, s: float, C: int) \
        -> tuple[np.ndarray, np.ndarray]:
    """The Fourier terms K_c of each row c = N, .., CN at m >= 1, and which
    rows run in closed form: those whose Bessel series fit the series
    budget and cost fewer element steps (terms times series length, plus
    the Kloosterman DFT) than their d-window (elements times the length of
    its series, whose largest argument sits at the d nearest -cu)."""
    import numpy as np
    c = N * np.arange(1, C + 1, dtype=np.float64)
    # near the real axis the costs of both routes may pass the double
    # range; an infinite cost decides as well as a finite one
    with np.errstate(over="ignore", divide="ignore"):
        K = _kappa_terms(s - 0.5, v, 2 * math.pi * m / (c * c * v), 2 * c)
        x = 4 * math.pi * np.sqrt(m * K) / c
        t = np.abs(c * u - np.round(c * u))
        x_window = 2 * math.pi * m * v / (t * t + (c * v) ** 2)
        closed_cost = K * (x + 20) + c * np.log2(2 * c)
        closed = (x + 20 <= _SERIES_BUDGET) & \
            (closed_cost <= (2 * _row_halfwidth(c, v) + 1) * (x_window + 20))
    return K, closed


def _poincare_rows(m: int, u: float, v: float, s: float, c: np.ndarray,
                   K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows c (an int64 vector) of the m >= 1 sum in closed form, with
    K[i] Fourier terms in row c[i], and a bound on the rounding of each:
    the terms cancel to the row, so the bound scales with the sum of their
    absolute values."""
    import numpy as np
    K = K.astype(np.int64)
    kappa = _kappa_table(s - 0.5, v, int(K.max()))
    # e(nu) depends on u mod 1 only, and the reduced u keeps the rounding
    # of the phase small
    turn = np.exp((2j * math.pi * (u - round(u))) * np.arange(K.max() + 1))
    bracket = np.empty(c.size, dtype=complex)
    size = np.empty(c.size)
    # the Kloosterman rows are read a chunk of moduli ahead of the blocks
    # (`_chunks`), so that each is built once a call in a few large passes
    # while at most about two chunks of them are held: sums holds the rows
    # first .. built-1
    chunks = _chunks(c.tolist())
    sums, first, built = np.empty(0), 0, 0
    offset = np.cumsum(c) - c
    ends = np.cumsum(K + c)
    lo = 0
    while lo < c.size:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - K[lo] - c[lo] + _ROW_BLOCK,
                                             side="right")))
        while built < hi:
            more = built + len(next(chunks))
            sums = np.concatenate((sums[offset[lo] - offset[first]:],
                                   _kloosterman_rows(c[built:more], m)))
            first, built = lo, more
        cb, Kb = c[lo:hi], K[lo:hi]
        start = offset[lo:hi] - offset[first]
        row = np.repeat(np.arange(hi - lo), Kb)
        n = np.arange(int(Kb.sum()), dtype=np.int64) - np.repeat(np.cumsum(Kb) - Kb, Kb) + 1
        cn = cb[row]
        plus = sums[start[row] + n % cn]
        minus = sums[start[row] + (-n) % cn]
        i_hat, j_hat = _bessel_ij((4 * math.pi ** 2 * m) * n / (cn * cn).astype(np.float64),
                                  2 * s - 1)
        e = turn[n]
        w = kappa[n]
        terms = w * (plus * e * i_hat + minus * e.conj() * j_hat)
        ramanujan = np.rint(sums[start])
        bracket[lo:hi] = ramanujan + np.bincount(row, terms.real, hi - lo) \
            + 1j * np.bincount(row, terms.imag, hi - lo)
        # each real-DFT value is off by at most 3.4 c 2^-53 (c <= 1200, m <= 4)
        size[lo:hi] = np.abs(ramanujan) + np.bincount(
            row, w * i_hat * (np.abs(plus) + np.abs(minus) + 2.0 ** -45 * cn), hi - lo)
        lo = hi
    scale = np.exp(_log_lead(v, s) + s * math.log(4 * math.pi * m) + math.lgamma(s)
                   - math.lgamma(2 * s) - 2 * s * np.log(c.astype(np.float64)))
    # in ulps of the sum of the absolute terms, as at m = 0: the phase
    # e(nu) carries about n <= K of them, kappa and the series up to 64
    # (against rows summed over 16-fold d-windows the error stays below
    # 0.4% of the bound: N <= 3, m <= 4, s 1.01-3.7, Im tau 0.02-1); the
    # Fourier terms past K add at most e^-39 to the bracket
    return scale * bracket, (2.0 ** -46 * (64 + K) * size + math.exp(-_LOG_KAPPA_TOL)) * scale


# ---------------------------------------------------------------------------
# the Poincare sum
# ---------------------------------------------------------------------------

# ln of the largest double
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)


def _tail_estimate(partials: list[tuple[int, complex]], s: float, C: int) -> float:
    # empirical tail constant: the largest K with |S(2c) - S(c)| =
    # K (c^(2-2s) - (2c)^(2-2s)) over the power-of-two checkpoints
    k_emp = 0.0
    for (c1, s1), (c2, s2) in zip(partials, partials[1:]):
        denom = c1 ** (2 - 2 * s) - c2 ** (2 - 2 * s)
        if denom > 0:
            k_emp = max(k_emp, abs(s2 - s1) / denom)
    return k_emp * C ** (2 - 2 * s)


def _demoted(rounding: np.ndarray, estimate: float) -> np.ndarray:
    """The closed-form rows that move onto their d-windows, largest
    rounding bound first, so that the bound of those left is within the
    error estimate."""
    import numpy as np
    order = np.argsort(-rounding, kind="stable")
    left = np.append(np.cumsum(rounding[order][::-1])[::-1], 0.0)
    out = np.zeros(rounding.size, dtype=bool)
    out[order[:int(np.argmax(left <= estimate))]] = True
    return out


def _refuse_wide_windows(tau, c: np.ndarray, v: float) -> None:
    # every d-window holds at least 2 * 4000 max(1, v)^0.75 + 1 elements,
    # and the window of the smallest c (sorted first) is within 2c of that
    if c.size:
        window = 2 * _row_halfwidth(int(c[0]), v) + 1
        if window > MAX_ROW_WINDOW:
            raise UnsupportedParameter(
                f"tau={tau}: Im tau = {v:g} needs a d-window of {window:.0f} elements at "
                f"c = {int(c[0])}, more than the {MAX_ROW_WINDOW} a row may hold")


def niebur_value(N: int, m: int, tau, params: EvalParams = EvalParams()) -> PointValue:
    """F_{N,-m}(tau, s) truncated at c <= C*N, with an empirical c-tail
    estimate K * C^(2-2s) from the doubling check.  Needs m >= 0, N >= 1
    and a finite tau in the upper half-plane whose value is a normal double
    (UnsupportedParameter otherwise: the value overflows, or its modulus is
    below sys.float_info.min).  F is 1-periodic at every level, as
    (1 1; 0 1) lies in Gamma_0(N), so the sum runs at Re tau mod 1, reduced
    exactly: tau and tau + k give the same bits for every integer k that
    tau + k holds exactly, and a Re tau past 2^52 sums at 0.

    The rows are exact in d where that is cheaper than their d-windows:
    at m = 0 all of them or none (`_eisenstein_rows`, one kappa table), at
    m >= 1 row by row (`_poincare_rows`).  A closed-form row moves onto its
    d-window (`_window_rows`) where the rounding bound of the closed-form
    rows would pass the error estimate, largest bound first; a point whose
    window rows would pass MAX_ROW_WINDOW is refused before any row runs."""
    import numpy as np
    if m < 0:
        raise UnsupportedParameter(f"m={m}: F_(N,-m) needs m >= 0")
    forms.check_level(N)
    if isinstance(tau, HeegnerPoint):
        tau = tau.approx()
    u, v = float(tau.real), float(tau.imag)
    if not (math.isfinite(u) and math.isfinite(v) and v > 0):
        raise UnsupportedParameter(f"tau={tau}: needs a finite point with Im tau > 0")
    # the exact residue of u mod 1 in [-1/2, 1/2], moved into [0, 1) where
    # that stays exact (always for u in [0, 1)): a function of the class of
    # u, so tau + k gives the bits of tau
    u = math.remainder(u, 1.0)
    if u < 0 and (u + 1.0) - 1.0 == u:
        u += 1.0
    C, s = params.truncation, float(params.s)
    c = N * np.arange(1, C + 1, dtype=np.int64)
    if m == 0:
        closed_cost, window_cost = _eisenstein_rows_cost(N, v, s, C)
        closed = np.full(C, closed_cost <= window_cost)
    else:
        K, closed = _poincare_plan(N, m, u, v, s, C)
    _refuse_wide_windows(tau, c[~closed], v)
    # the identity term is v^s at m = 0 and about e^(2 pi m v) above
    if (s * math.log(v) if m == 0 else 2 * math.pi * m * v) > _LOG_DOUBLE_MAX:
        raise UnsupportedParameter(f"tau={tau}: F_(N,-{m}) at Im tau = {v:g} overflows a double")
    first = _identity_term(m, u, v, s)
    rows = np.zeros(C, dtype=complex)
    rounding = np.zeros(C)
    if closed.any():
        rows[closed], rounding[closed] = _eisenstein_rows(N, u, v, s, C) if m == 0 \
            else _poincare_rows(m, u, v, s, c[closed], K[closed])
    pending = ~closed
    windowed = pending.copy()
    while True:
        if pending.any():
            _refuse_wide_windows(tau, c[pending], v)
            rows[pending] = _window_rows(m, u, v, s, c[pending])
        value, partials = _partial_sums(first, rows, C)
        estimate = _tail_estimate(partials, s, C) + 1e-15 * abs(value)
        pending = _demoted(rounding, estimate)
        if not pending.any():
            break
        rounding[pending] = 0.0
        windowed |= pending
    # where a term of large x dominates, its rounding passes the c-tail
    estimate = max(estimate, _rounding_spread(m, u, v, s, first, c[windowed]))
    if not cmath.isfinite(value):
        raise UnsupportedParameter(f"tau={tau}: F_(N,-{m}) overflows a double")
    # at m >= 1 the identity term carries 1/Gamma(s + 1/2) and may underflow
    # alone, while the rows still sum to a normal double
    if abs(value) < sys.float_info.min:
        raise UnsupportedParameter(f"tau={tau}: F_(N,-{m}) at s={s:g} underflows a double")
    return PointValue(value=value, error_estimate=float(estimate))


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


def jn_value(n: int, z: HeegnerPoint, digits: int = 50):
    """High-precision value of j_n (the weight-0 Hecke image of j - 720)
    at the CM point z (InvalidInput for anything else).  j_n is
    SL_2(Z)-invariant, so z is first reduced exactly into the standard
    fundamental domain."""
    import mpmath
    if digits < 1:
        raise UnsupportedParameter(f"digits={digits}: must be >= 1")
    if not isinstance(z, HeegnerPoint):
        raise InvalidInput(f"z={z!r}: jn_value takes a CM point (a HeegnerPoint)")
    rep = reduce_point(z, 1)[0].representative()
    with mpmath.workdps(digits + 15):
        zc = mpmath.mpc(mpmath.mpf(-rep.B) / (2 * rep.A),
                        mpmath.sqrt(-rep.discriminant) / (2 * rep.A))
    v = float(mpmath.im(zc))
    L = _series_length_for(n, v, digits)
    series = forms.jn(n, L + n)
    return evaluate_series(series, zc, digits)


# ---------------------------------------------------------------------------
# harmonic slices: the r = 0, m > 0 Laurent slice as Hauptmodul polynomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def harmonic_slice(N: int, m: int, prec: int = 40) -> PuiseuxSeries:
    """The weakly holomorphic weight-0 form q^-m + O(q) on X_0(N) (genus
    zero), normalized with constant term 0: the s -> 1 slice of the
    Niebur-Poincare series up to its additive constant, F_m(t_N) for the
    level's Hauptmodul t_N by ``forms._faber_windows``, through q^(prec + 1).
    Cross-level identities must be compared after applying Theta."""
    if not (N == 1 or N in forms.GENUS_ZERO_ETA_LEVELS):
        raise NonGenusZeroLevel(f"level {N} has no Hauptmodul slice here")
    if m < 1:
        raise UnsupportedParameter(f"a harmonic slice needs m >= 1, got {m}")
    if prec < -1:
        raise PrecisionExhausted(f"a harmonic slice needs prec >= -1, got {prec}")
    return PuiseuxSeries(1, -m, forms._faber_windows(N, m, prec + m + 2))
