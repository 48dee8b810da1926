"""Constructors for the classical modular forms the library works with.

Everything here produces exact q-expansions (:class:`PuiseuxSeries`) or
symbolic :class:`FormExpression` values: normalized Eisenstein series,
Delta, the j-function in both normalizations (classical constant 744 and
the shifted variant with constant 24 that the divisor-sum identities are
stated for), the weight-0 Hecke images j_n, eta quotients, and the
genus-zero Hauptmoduln eta(tau)^a/eta(N tau)^a.

Eta quotients are built from their log-derivatives: Theta(eta)/eta =
E2/24, so the unit part of prod eta(m tau)^r has Theta(u)/u =
sum (r m/24) E2(m tau), and the exp recurrence of the series kernel
(``series.exp_coeffs``, the inverse of the log recurrence
``series.log_derivative_coeffs``) expands it in integers.  Delta(m tau)
is the eta quotient eta(m tau)^24 (:func:`DeltaShift` builds it), and
j = E4^3/Delta is one triangular solve (``series.solve_coeffs``) of E4^3
against the unit Delta/q: no expansion of Delta or j multiplies or
inverts a series.  One divisor-sum sieve, :func:`sigma_table`, gives
the sigma_1 of E2 and the sigma_{k-1} of E_k.

:func:`expression_by_name` parses the form names of the CLI into
:class:`FormExpression` values; ``expression_by_name(name).qexp(prec)`` is
the expansion with `prec` coefficients from the leading term.

``FormExpression.log_derivative(n)`` is Theta(f)/f read from the atoms,
without the product expansion: it is additive over a product, eta
quotients (Delta(m tau) among them) contribute multiples of E2(m tau),
E_k the log recurrence on its O(n) expansion, and j, j - 1728 combine
the two.  Atoms without such a closed form return None.

Expansion caches are process-wide pure constructors behind lru_cache.
Coefficient prefixes that a longer request only extends live in one
grow-only store of immutable tuples, keyed by what they are the prefix
of: the sigma_k tables, the log-derivatives Theta(E_k)/E_k, the grid-1
units of the eta quotients (Delta/q among them) and q j.  A call reads
its first n entries and resumes the sieve or recurrence only for the
rows that are missing, and a stored prefix is replaced only by a longer
one, so concurrent readers are safe.  ``_prefixes.cache_clear()``
empties the store with the other caches.

j_n = (j - 720)|T(n) reads the stored q j by its length.  The additive
Hecke formula at k = 0 reads n(prec + n) + 1 coefficients of j; where
that many are stored it is the cheaper route (the warm one), and it is
the oracle of the tests.  Otherwise j_n = F_n(j) + 24 sigma_1(n) for the
Faber polynomial F_n of j (Bruinier, Kohnen and Ono, Compositio Math.
140, 2004), which reads only max(prec, n + 1) of them.  Its recursion,
:func:`_faber`, holds for any t = q^-1 + c(0) + sum c(i) q^i (Curtiss,
Amer. Math. Monthly 78, 1971) and runs over a small ring interface, in
two rings.  On q-series windows (:func:`_faber_windows`) it builds j_n
and, at the Hauptmoduln t_N of levels 1-5, the harmonic slices F_m(t_N)
of :mod:`heckediv.niebur`.  On exact scalars (:func:`jn_at`) it gives
j_n(z) = F_n(j(z)) + 24 sigma_1(n) at a rational j(z), the value that the
level-1 BKO pairing sums over the CM points of a divisor.

:func:`euler_product` is no longer on any route; it keeps its cache for
tools that read it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

from .errors import (InvalidInput, NonUnitLeading, PrecisionExhausted, UnsupportedParameter,
                     UnsupportedWeight)
from .series import (PuiseuxSeries, _kronecker_product, exact_div, exp_coeffs,
                     log_derivative_coeffs, solve_coeffs)


# ---------------------------------------------------------------------------
# number-theoretic helpers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """Exact Bernoulli number B_k (B_1 = -1/2 convention).

    B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)) from the tangent numbers
    T_1..T_n, which the recurrence of Brent and Harvey ("Fast computation
    of Bernoulli, tangent and secant numbers", 2013) builds in integers."""
    if k < 0:
        raise UnsupportedParameter(f"B_k needs k >= 0, got {k}")
    if k < 2:
        return Fraction(1) if k == 0 else Fraction(-1, 2)
    if k % 2:
        return Fraction(0)
    n = k // 2
    t = [0, 1] + [0] * (n - 1)
    for j in range(2, n + 1):
        t[j] = (j - 1) * t[j - 1]
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    return Fraction((-1) ** (n - 1) * k * t[n], 4 ** n * (4 ** n - 1))


@lru_cache(maxsize=None)
def _prefixes() -> dict:
    """The process-wide store of coefficient prefixes, key -> tuple.  It
    sits behind lru_cache so that ``_prefixes.cache_clear()`` empties it
    as it empties every other cache of the library."""
    return {}


# guards the compare-and-store of _prefix; the extension runs outside it
_PREFIX_LOCK = threading.Lock()


def _prefix(key, n: int, extend) -> list:
    """The first n entries of the stored prefix `key` as a fresh list.
    When fewer are stored, ``extend(known, n)`` computes the missing rows
    after the stored tuple `known` and returns all n of them.  A stored
    prefix is only ever replaced by a longer one, so a reader never sees
    one shrink; two threads extending at once each compute their rows."""
    store = _prefixes()
    known = store.get(key, ())
    if len(known) < n:
        known = tuple(extend(known, n))
        with _PREFIX_LOCK:
            if len(known) > len(store.get(key, ())):
                store[key] = known
    return list(known[:max(n, 0)])


def _sigma_rows(k: int, lo: int, n: int) -> list:
    """[sigma_k(lo), ..., sigma_k(n - 1)] with sigma_k(0) = 0, by a divisor
    sieve over the window that pairs each divisor d <= sqrt(m) of m with
    its cofactor e = m/d >= d: one slice per d, (n/2) log n additions."""
    out = [0] * (n - lo)
    powers = [e ** k for e in range(n)]
    for d in range(1, isqrt(max(n - 1, 0)) + 1):
        e = max(d, -(-lo // d))  # the first cofactor whose multiple is in the window
        dk = powers[d]
        first = d * e - lo
        out[first::d] = [x + dk + pe for x, pe in zip(out[first::d], powers[e:])]
        if e == d:
            out[first] -= dk  # d^2 counts its divisor d once
    return out


def sigma_table(k: int, n: int) -> list:
    """[sigma_k(0), ..., sigma_k(n - 1)] with sigma_k(0) = 0, the first n
    entries of a stored prefix: a longer table sieves only the rows that
    are missing."""
    return _prefix(("sigma", k), n,
                   lambda known, n: known + tuple(_sigma_rows(k, len(known), n)))


def sigma(k: int, n: int) -> int:
    """Divisor power sum sigma_k(n) for n >= 1."""
    return sigma_table(k, n + 1)[n]


def prime_factors(n: int) -> list[int]:
    """The prime factors of n >= 1 with multiplicity, in increasing order,
    by trial division."""
    out, p = [], 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    return out + [n] if n > 1 else out


def psl2_index(N: int) -> int:
    """Index of the image of Gamma_0(N) in PSL_2(Z): N * prod(1 + 1/p)."""
    idx = N
    for p in set(prime_factors(N)):
        idx += idx // p
    return idx


# ---------------------------------------------------------------------------
# q-expansions of the classical atoms
# ---------------------------------------------------------------------------

def _eisenstein_coeffs(k: int, prec: int) -> list:
    """The first `prec` coefficients of E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n."""
    if k % 2 != 0 or k < 4:
        raise UnsupportedWeight(f"Eisenstein weight must be even and >= 4, got {k}")
    # an int factor (k = 4, 6, 8, 10, 14) keeps every coefficient an int
    c = exact_div(-2 * k, bernoulli(k))
    return [1] + [c * x for x in sigma_table(k - 1, prec)[1:]]


@lru_cache(maxsize=64)
def eisenstein(k: int, prec: int) -> PuiseuxSeries:
    """Normalized Eisenstein series E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n."""
    return PuiseuxSeries(1, 0, _eisenstein_coeffs(k, prec))


@lru_cache(maxsize=64)
def euler_product(prec: int) -> PuiseuxSeries:
    """prod_{n>=1} (1 - q^n) via the pentagonal number expansion."""
    coeffs = [0] * prec
    k = 0
    while True:
        hit = False
        for kk in (k, -k) if k else (0,):
            g = kk * (3 * kk - 1) // 2
            if g < prec:
                coeffs[g] += (-1) ** (kk % 2)
                hit = True
        if not hit:
            break
        k += 1
    return PuiseuxSeries(1, 0, coeffs)


# Delta = eta(tau)^24
_DELTA = ((1, 24),)


@lru_cache(maxsize=64)
def delta(prec: int) -> PuiseuxSeries:
    """The discriminant cusp form Delta = eta^24 = q prod (1-q^n)^24,
    `prec` coefficients from q^1: the eta quotient, whose unit Delta/q is
    a stored prefix of the exp recurrence."""
    return eta_quotient_qexp(EtaQuotientSpec(1, _DELTA), prec)


def _j_unit(n: int) -> list:
    """The first n coefficients of q j = E4^3/(Delta/q), a stored prefix:
    one triangular solve against the stored unit Delta/q, resumed where
    the stored rows end."""
    def extend(known, n):
        e4 = PuiseuxSeries(1, 0, _eisenstein_coeffs(4, n))
        return solve_coeffs(_eta_unit(_DELTA, n), (e4 ** 3).coeffs, n, known)
    return _prefix(("j",), n, extend)


@lru_cache(maxsize=64)
def j_function(prec: int) -> PuiseuxSeries:
    """Classical j = E4^3 / Delta = q^-1 + 744 + 196884 q + ..., `prec`
    coefficients from q^-1."""
    if prec < 1:
        raise PrecisionExhausted("j needs at least one coefficient")
    return PuiseuxSeries(1, -1, _j_unit(prec))


def j_shifted(prec: int) -> PuiseuxSeries:
    """j - 720 = q^-1 + 24 + 196884 q + ...; the normalization whose Hecke
    images have constant term 24 sigma_1(n)."""
    return j_function(prec) - 720


class _Windows:
    """The q-series ring of :func:`_faber`: F_m(t) as its window of `prec`
    coefficients from q^-m, so that F_m(t) = q^-m + O(q) holds q^0 at
    index m, and J F_(m-1) is one Kronecker product of the window qJ with
    that of F_(m-1)."""
    __slots__ = ("J", "prec")

    def __init__(self, qJ: list, prec: int):
        self.J, self.prec = qJ, prec

    def times_J(self, f: list) -> list:
        return _kronecker_product(self.J, f, self.prec)

    def submul(self, w: list, c, f: list, shift: int) -> list:
        # F_(m-1-i) enters the window of F_m at offset shift = i + 1
        w[shift:] = [a - c * b for a, b in zip(w[shift:], f)]
        return w

    def add(self, w: list, k, m: int) -> list:
        if m < self.prec:
            w[m] += k
        return w


class _Values:
    """The exact-scalar ring of :func:`_faber`: F_m(x) at one rational x,
    with J = x - c(0)."""
    __slots__ = ("J",)

    def __init__(self, J):
        self.J = J

    def times_J(self, f):
        return self.J * f

    def submul(self, w, c, f, shift: int):
        return w - c * f

    def add(self, w, k, m: int):
        return w + k


def _faber(u: list, n: int, ring) -> list:
    """[None, F_1, .., F_n] in `ring`, for the Faber polynomials F_m of
    t = q^-1 + c(0) + sum_{i>=1} c(i) q^i, given u = q t = 1 + c(0) q +
    sum c(i) q^(i+1) through q^n.

    J = t - c(0), F_1 = J and F_m = J F_(m-1) - sum_{i=1}^{m-2} c(i)
    F_(m-1-i) - m c(m-1) (Curtiss 1971; for j, Asai, Kaneko and Ninomiya
    1997).  The ring holds J and gives the three steps: J times an element,
    an element minus c times another of degree `shift` lower, and an element
    of degree m plus a constant."""
    F = [None, ring.J]
    for m in range(2, n + 1):
        w = ring.times_J(F[m - 1])
        for i in range(1, m - 1):
            w = ring.submul(w, u[i + 1], F[m - 1 - i], i + 1)
        F.append(ring.add(w, -m * u[m], m))
    return F


def _faber_windows(N: int, n: int, prec: int) -> list:
    """The window of F_n(t), `prec` coefficients from q^-n, for the Faber
    polynomial F_n of the Hauptmodul t of level N (j at N = 1, the eta
    quotient of :func:`hauptmodul_spec` at N = 2-5): F_n(t) = q^-n + O(q).
    It is :func:`_faber` in the ring of windows, where c(0) is never read,
    and reads max(prec, n + 1) coefficients of q t."""
    k = max(prec, n + 1)
    u = _j_unit(k) if N == 1 else _eta_unit(hauptmodul_spec(N).exponents, k)
    qJ = [1, 0][:prec] + u[2:prec]  # the window of J = t - c(0)
    return _faber(u, n, _Windows(qJ, prec))[n]


def jn_at(n: int, x) -> int | Fraction:
    """j_n(z) exactly at a point z with j(z) = x, a rational:
    F_n(x) + 24 sigma_1(n), :func:`_faber` in the ring of exact scalars.
    It reads c(1), .., c(n - 1) of j, and c(0) = 744."""
    if n < 1:
        raise UnsupportedParameter(f"j_n needs n >= 1, got {n}")
    u = _j_unit(n + 1)
    return _faber(u, n, _Values(x - u[1]))[n] + 24 * sigma(1, n)


@lru_cache(maxsize=128)
def jn(n: int, prec: int) -> PuiseuxSeries:
    """j_n = (j - 720)|T(n) at weight 0: q^-n + 24 sigma_1(n) + O(q), `prec`
    coefficients from q^-n.

    j_n = F_n(j) + 24 sigma_1(n) for the Faber polynomial F_n of j
    (Bruinier, Kohnen and Ono, Compositio Math. 140, 2004), and the
    recursion of :func:`_faber_windows` at level 1 reads max(prec, n + 1)
    coefficients of j.  The additive Hecke formula reads n(prec + n) + 1
    of them; it is cheaper once they are stored, so a call takes it (the
    warm route) when the stored prefix of q j is that long, and the
    recursion otherwise.  Both give the same expansion; the formula is the
    oracle of the tests."""
    from .operators import hecke_additive_formula
    if n < 1:
        raise UnsupportedParameter(f"j_n needs n >= 1, got {n}")
    if prec < 1:
        raise PrecisionExhausted(f"j_n needs at least one coefficient, got prec={prec}")
    need = n * (prec + n) + 1
    if len(_prefixes().get(("j",), ())) >= need:
        return hecke_additive_formula(j_shifted(need), 0, n).truncate(prec - n)
    w = _faber_windows(1, n, prec)
    if n < prec:
        w[n] += 24 * sigma(1, n)
    return PuiseuxSeries(1, -n, w)


# ---------------------------------------------------------------------------
# eta quotients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EtaQuotientSpec:
    """prod_{m | N} eta(m tau)^{r_m}; exponents as a sorted tuple of pairs."""
    level: int
    exponents: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.level < 1:
            raise UnsupportedParameter(f"eta quotient level {self.level} is not positive")
        for m, _ in self.exponents:
            if m < 1:
                raise UnsupportedParameter(f"eta argument {m} is not positive")
            if self.level % m:
                raise InvalidInput(f"eta argument {m} does not divide level {self.level}")

    @staticmethod
    def make(level: int, exponents: dict[int, int]) -> "EtaQuotientSpec":
        items = tuple(sorted((m, r) for m, r in exponents.items() if r != 0))
        return EtaQuotientSpec(level, items)

    @property
    def weight(self) -> Fraction:
        return Fraction(sum(r for _, r in self.exponents), 2)


def _eta_log_derivative(exponents, n: int) -> list:
    """Theta(f)/f for f = prod eta(m tau)^r over the pairs (m, r), m >= 1,
    to n coefficients from q^0: sum (r m/24) E2(m tau), with
    E2 = 1 - 24 sum_k sigma_1(k) q^k.  The constant term is the order."""
    out = [exact_div(sum(m * r for m, r in exponents), 24)] + [0] * (n - 1)
    s1 = sigma_table(1, n)
    for m, r in exponents:
        out[m::m] = [x - r * m * s for x, s in zip(out[m::m], s1[1:])]
    return out


def _eta_unit(exponents, n: int) -> list:
    """The first n coefficients of the unit f/q^h of f = prod eta(m tau)^r
    on grid 1, a stored prefix: the exp recurrence on
    :func:`_eta_log_derivative`, resumed where the stored rows end."""
    return _prefix(("eta", exponents), n, lambda known, n: exp_coeffs(
        1, _eta_log_derivative(exponents, n), n, known))


def eta_quotient_qexp(spec: EtaQuotientSpec, prec: int) -> PuiseuxSeries:
    """Exact expansion of prod eta(m tau)^{r_m}, `prec` coefficients from
    the leading term q^h, h = sum m r/24, on the grid (1/D) Z of h.

    Since Theta(eta)/eta = E2/24, the unit f/q^h has log-derivative
    sum (r m/24) E2(m tau); the exp recurrence rebuilds the unit from it
    on grid 1, in integers (:func:`_eta_unit`), and the unit is then
    spread onto grid D."""
    if prec < 1:
        raise PrecisionExhausted("an eta quotient needs at least one coefficient")
    lead = Fraction(sum(m * r for m, r in spec.exponents), 24)
    D = lead.denominator
    n = -(-prec // D)
    coeffs = [0] * prec
    coeffs[::D] = _eta_unit(spec.exponents, n)
    return PuiseuxSeries(D, lead.numerator, coeffs)


def ligozat_order(spec: EtaQuotientSpec, N: int, c: int) -> Fraction:
    """Order of the eta quotient at the cusp a/c of X_0(N), in the local
    variable q_h of that cusp (the standard eta-quotient cusp-order formula).

    The cusp at infinity is c = N; the order there equals the leading
    q-exponent of the expansion.
    """
    if N % spec.level != 0:
        raise UnsupportedParameter(
            f"eta quotient of level {spec.level} does not live on X_0({N})")
    total = Fraction(0)
    for m, r in spec.exponents:
        g = gcd(c, m)
        total += Fraction(g * g * r, gcd(c, N // c) * c * m)
    return Fraction(N, 24) * total


# ---------------------------------------------------------------------------
# symbolic form expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Eisenstein:
    k: int

    @property
    def weight(self) -> int:
        return self.k

    @property
    def level(self) -> int:
        return 1

    @property
    def order(self) -> Fraction:
        return Fraction(0)

    def qexp(self, prec: int) -> PuiseuxSeries:
        return eisenstein(self.k, prec)

    def log_derivative(self, n: int) -> list:
        """Theta(E_k)/E_k to n coefficients from q^0, by the log-derivative
        recurrence on the expansion of E_k.  The first n entries of a
        stored prefix: a longer request resumes the recurrence where the
        stored rows end."""
        return _prefix(self, n, lambda known, n: log_derivative_coeffs(
            _eisenstein_coeffs(self.k, n), 0, n, known))


@dataclass(frozen=True)
class JMinus:
    """j(tau) - c"""
    c: Fraction

    @property
    def weight(self) -> int:
        return 0

    @property
    def level(self) -> int:
        return 1

    @property
    def order(self) -> Fraction:
        return Fraction(-1)

    def qexp(self, prec: int) -> PuiseuxSeries:
        return j_function(prec + 1) - self.c

    def log_derivative(self, n: int) -> list | None:
        """Theta(j - c)/(j - c) to n coefficients from q^0, read from
        j = E4^3/Delta for c = 0 and j - 1728 = E6^2/Delta for c = 1728.
        None for any other c."""
        if self.c == 0:
            quotient = FormExpression.of((Eisenstein(4), 3), (DeltaShift(1), -1))
        elif self.c == 1728:
            quotient = FormExpression.of((Eisenstein(6), 2), (DeltaShift(1), -1))
        else:
            return None
        return quotient.log_derivative(n)


@dataclass(frozen=True)
class EtaQuotient:
    spec: EtaQuotientSpec

    @property
    def weight(self):
        w = self.spec.weight
        return int(w) if w.denominator == 1 else w

    @property
    def level(self) -> int:
        return self.spec.level

    @property
    def order(self) -> Fraction:
        return Fraction(sum(m * r for m, r in self.spec.exponents), 24)

    def qexp(self, prec: int) -> PuiseuxSeries:
        return eta_quotient_qexp(self.spec, prec)

    def log_derivative(self, n: int) -> list | None:
        """sum (r m/24) E2(m tau) over the factors eta(m tau)^r, to n
        coefficients from q^0.  None when the order is not an integer (the
        expansion lives on a finer grid)."""
        if self.order.denominator != 1:
            return None
        return _eta_log_derivative(self.spec.exponents, n)


def DeltaShift(m: int = 1) -> EtaQuotient:
    """Delta(m tau) = eta(m tau)^24, the eta quotient of level m
    (UnsupportedParameter for m < 1)."""
    return EtaQuotient(EtaQuotientSpec(m, ((m, 24),)))


@dataclass(frozen=True)
class OpaqueSeries:
    """A bare q-expansion carrying its weight and level; no divisor data."""
    series: PuiseuxSeries
    weight: int
    level: int

    @property
    def order(self) -> Fraction:
        return self.series.leading_exponent()

    def qexp(self, prec: int) -> PuiseuxSeries:
        return self.series

    def log_derivative(self, n: int) -> None:
        """None: a bare expansion has no closed form to read it from."""
        return None


Atom = Eisenstein | JMinus | EtaQuotient | OpaqueSeries


@dataclass(frozen=True)
class FormExpression:
    """A product of classical atoms with integer exponents, optionally plus
    a rational constant (the constant is only meaningful at weight 0, where
    it lets Hauptmodul shifts like j_{2,1} - 512 stay symbolic)."""
    atoms: tuple[tuple[Atom, int], ...]
    shift: Fraction = Fraction(0)

    @staticmethod
    def of(*atoms, shift=0) -> "FormExpression":
        """Build from atoms or (atom, exponent) pairs."""
        pairs = []
        for a in atoms:
            if isinstance(a, tuple):
                pairs.append((a[0], int(a[1])))
            else:
                pairs.append((a, 1))
        expr = FormExpression(tuple(pairs), Fraction(shift))
        if expr.shift != 0 and expr.weight != 0:
            raise InvalidInput("additive constant only makes sense at weight 0")
        return expr

    @property
    def weight(self) -> int:
        w = sum(a.weight * e for a, e in self.atoms)
        if isinstance(w, Fraction):
            if w.denominator != 1:
                raise UnsupportedWeight(f"non-integral total weight {w}")
            w = int(w)
        return w

    @property
    def level(self) -> int:
        return lcm(1, *[a.level for a, _ in self.atoms])

    @property
    def _product_order(self) -> Fraction:
        return sum((e * a.order for a, e in self.atoms), Fraction(0))

    @property
    def order(self) -> Fraction:
        """Leading q-exponent of the expression, computed symbolically,
        except where the shift meets the constant term of the product:
        then it is read from the expansion.  A nonzero f - c vanishes at
        infinity to an order at most its number of poles on X_0(N), which
        :meth:`_pole_bound` bounds; an expansion that vanishes beyond it is
        identically 0 and has no order (NonUnitLeading).  An opaque atom
        gives no bound: the expansion is read as far as its window reaches,
        and a shift that cancels all of it is PrecisionExhausted."""
        order = self._product_order
        if not self.shift or order < 0:
            return order
        if order > 0:
            return Fraction(0)
        bound = self._pole_bound()
        reach = bound if bound is not None else max(
            -(-a.series.precision // a.series.D)
            for a, _ in self.atoms if isinstance(a, OpaqueSeries))
        series = self.qexp(reach + 1)
        if not series.is_zero():
            return series.leading_exponent()
        if bound is None:
            raise PrecisionExhausted(
                "the shift cancels every known coefficient of the expansion")
        raise NonUnitLeading("the expression is identically 0 and has no order")

    def _pole_bound(self) -> int | None:
        """An upper bound on the number of poles of the product on X_0(N),
        N the level.  A holomorphic form of weight k has k psi(N)/12 zeros
        (the valence formula), so F^e has at most |e| w psi(N)/12 poles
        with w = k for E_k, 12 for j - c = (E4^3 - c Delta)/Delta, and
        sum |r|/2 for an eta quotient, a quotient of the holomorphic
        eta(m tau)^|r| (12 for Delta(m tau) = eta(m tau)^24).  None with
        an opaque atom."""
        count = 0
        for atom, e in self.atoms:
            if isinstance(atom, Eisenstein):
                count += abs(e) * atom.k
            elif isinstance(atom, JMinus):
                count += abs(e) * 12
            elif isinstance(atom, EtaQuotient):
                count += abs(e) * Fraction(sum(abs(r) for _, r in atom.spec.exponents), 2)
            else:
                return None
        return int(count * psl2_index(self.level) / 12)

    def check_level(self, N: int) -> None:
        """Refuse a level N that the expression does not live at."""
        if N % self.level != 0:
            raise UnsupportedParameter(
                f"expression of level {self.level} does not live on X_0({N})")

    def qexp(self, prec: int) -> PuiseuxSeries:
        """The product with `prec` coefficients from its leading exponent
        on the grid (1/D)Z of that exponent, plus the shift.  Every atom
        but an opaque one expands to its order times a unit on grid 1, so
        an atom whose order lives on (1/d)Z is asked for ceil(prec d/D)
        coefficients, which reach as far."""
        grids = [a.order.denominator for a, _ in self.atoms]
        # integral orders sum to an integral order: skip the Fraction sum
        D = 1 if max(grids, default=1) == 1 else self._product_order.denominator
        factors = [a.qexp(-(-prec * d // D)) ** e for (a, e), d in zip(self.atoms, grids)]
        out = factors[0] if factors else PuiseuxSeries.one(prec)
        for s in factors[1:]:
            out = out * s
        # prec exponents of (1/D)Z past the order, in units of the grid of out
        keep = -(-max(prec, 1) * out.D // D)
        out = out.truncate(Fraction(out.order + keep, out.D))
        if self.shift:
            out = out + self.shift
        return out

    def log_derivative(self, n: int) -> list | None:
        """Theta(f)/f to n coefficients from q^0 as sum e l(atom) over the
        atoms, read from their closed forms without the product expansion.
        None for a shifted expression or when an atom has no closed form;
        the log-derivative recurrence on ``qexp`` covers those."""
        if self.shift:
            return None
        total = [0] * n
        for atom, e in self.atoms:
            l = atom.log_derivative(n)
            if l is None:
                return None
            total = [t + e * x for t, x in zip(total, l)]
        return total

    def __mul__(self, other: "FormExpression") -> "FormExpression":
        if self.shift or other.shift:
            raise InvalidInput("cannot multiply shifted expressions symbolically")
        return FormExpression(self.atoms + other.atoms)


# ---------------------------------------------------------------------------
# Hauptmoduln of the genus-zero levels used by the harmonic slices
# ---------------------------------------------------------------------------

GENUS_ZERO_ETA_LEVELS = (2, 3, 4, 5)


def hauptmodul_spec(N: int) -> EtaQuotientSpec:
    """(eta(tau)/eta(N tau))^(24/(N-1)) = q^-1 + O(1) for N in {2,3,4,5}."""
    if N not in GENUS_ZERO_ETA_LEVELS:
        raise InvalidInput(f"no eta Hauptmodul registered for level {N}")
    a = 24 // (N - 1)
    return EtaQuotientSpec.make(N, {1: a, N: -a})


def expression_by_name(name: str) -> FormExpression:
    """The one parser of form names, shared by every CLI verb: E4..E16,
    Delta, j, j_shifted, jminus:<c> (j - c) and eta:<level>:<m>=<r>,...
    (prod eta(m tau)^r)."""
    key = name.strip()
    if key in ("E4", "E6", "E8", "E10", "E12", "E14", "E16"):
        return FormExpression.of(Eisenstein(int(key[1:])))
    if key == "Delta":
        return FormExpression.of(DeltaShift(1))
    if key == "j_shifted":
        return FormExpression.of(JMinus(Fraction(720)))
    if key == "j":
        return FormExpression.of(JMinus(Fraction(0)))
    if key.startswith("jminus:"):
        try:
            c = Fraction(key.split(":", 1)[1])
        except ZeroDivisionError:
            raise InvalidInput("the constant c of jminus:c has a zero denominator") from None
        except ValueError:
            raise InvalidInput(f"jminus:c needs a rational c: {name!r}") from None
        return FormExpression.of(JMinus(c))
    if key.startswith("eta:"):
        try:
            _, level, body = key.split(":", 2)
            pairs = [tuple(map(int, part.split("="))) for part in body.split(",")]
            level, exps = int(level), dict(pairs)  # dict refuses a part that is no m=r
        except ValueError:
            raise InvalidInput(f"eta:<level>:<m>=<r>,... needs integers: {name!r}") from None
        if len(exps) < len(pairs):
            raise InvalidInput(f"an eta argument of {name!r} is repeated")
        return FormExpression.of(EtaQuotient(EtaQuotientSpec.make(level, exps)))
    raise InvalidInput(f"unknown form name {name!r}")
