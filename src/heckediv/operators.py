"""Hecke operators on q-expansions: the additive weight-k representation
and the multiplicative representation on the group of meromorphic forms.

Two independent routes compute the additive operator:

* ``hecke_additive_formula`` applies the coefficient formula
  c(m) -> n^(1-k/2) sum_{0<d|(m,n)} d^(k-1) c(mn/d^2) directly
  (d runs over all divisors of n when m = 0);
* ``hecke_additive_cosets`` slashes f over the upper-triangular coset
  representatives and projects the result back to an integral series;
  the additive mode of ``apply_element`` takes the same slash sum over
  the double cosets of an algebra element.

They agree on their common domain, which the tests exercise.

The multiplicative operator multiplies the translates f((a tau + b)/d)
over the same representatives *without* the det^(k/2)/d^k factors.  Those
factors are constant for upper-triangular matrices, so the two possible
normalizations differ by a fixed rational scalar; the bare product is the
one for which E4 maps to E12 - (36882000/691) Delta with constant term 1,
and it makes every scalar coset T(q,q) act as the exact identity.  Two
routes compute it as well:

* ``hecke_multiplicative`` and ``apply_element`` stay in Q.  Summed over
  b, the log-derivatives of the translates form a character sum: with
  l = Theta(f)/f, the image g = f|*T(n) has
  Theta(g)/g = sum_{ad=n, (a,N)=1} a sum_k l_{dk} q^(ak),
  and g is rebuilt from its leading term by the exp recurrence
  m u_m = sum_{i>=1} H_i u_{m-i} on that series H (``series.exp_coeffs``).
  l is read from the atoms of f (``FormExpression.log_derivative``:
  multiples of E2(m tau) for Delta(m tau) and eta quotients, the log
  recurrence on the expansion of E_k, and the two combined for j and
  j - 1728), so no product expansion is built.  Shifted expressions,
  opaque series, other j - c and atoms of non-integral order fall back to
  the log recurrence on the expansion of f;
* ``hecke_multiplicative_cosets`` multiplies the twisted translates over
  Q(zeta_d), with windows trimmed to the requested output precision, and
  certifies the product integral and rational.  It is the verification
  oracle of the rational route, which computes the very identity that a
  log-derivative check would test, and it takes the expansions the
  rational route cannot: those on a fractional grid or with non-rational
  coefficients.

Both routes give the same coefficients, types and precision.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .algebra import AlgebraElement, _is_prime, double_coset_reps, left_coset_reps
from .cyclotomic import Cyclo, _as_rational
from .errors import (NonUnitLeading, PrecisionExhausted, UnsupportedParameter,
                     UnsupportedWeightParity)
from .forms import FormExpression, OpaqueSeries
from .series import PuiseuxSeries, exp_coeffs, log_derivative_coeffs


# ---------------------------------------------------------------------------
# additive operator
# ---------------------------------------------------------------------------

def hecke_additive_formula(f: PuiseuxSeries, k: int, n: int,
                           normalization: str = "normalized") -> PuiseuxSeries:
    """The coefficient formula for f|_k T(n) on integral expansions.

    `normalization`: "normalized" keeps the n^(1-k/2) prefactor (the
    convention matching the slash-sum route and the weight-0 divisor-sum
    identities); "classical" drops it, giving the plain sum of
    d^(k-1) c(mn/d^2) that most coefficient tables use.
    """
    if k % 2 != 0:
        raise UnsupportedWeightParity(f"odd weight {k}")
    if f.D != 1:
        raise UnsupportedParameter("coefficient formula needs an integral expansion")
    if f.cutoff <= 0:
        raise PrecisionExhausted("input knows no coefficients at q^0 or beyond")
    if normalization not in ("normalized", "classical"):
        raise ValueError(f"unknown normalization {normalization!r}")
    factor = Fraction(n) ** (1 - k // 2) if normalization == "normalized" else Fraction(1)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    lo = n * f.order if f.order < 0 else -(-f.order // n)
    hi = -(-f.cutoff // n)  # first m with c(mn) unknown
    out = []
    for m in range(lo, hi):
        g = gcd(abs(m), n)  # gcd(0, n) = n handles the m = 0 convention
        s = Fraction(0)
        for d in divisors:
            if g % d == 0:
                s += Fraction(d) ** (k - 1) * f.coefficient(m * n // (d * d))
        out.append(factor * s)
    return PuiseuxSeries(1, lo, out)


def _slash_upper(f: PuiseuxSeries, rep, k: int, bare: bool) -> PuiseuxSeries:
    """f|_k (a b; 0 d), i.e. a twist, an exponent rescale, and (unless bare)
    the constant automorphy factor det^(k/2) d^(-k)."""
    a, b, c, d = rep
    if not (c == 0 and a > 0 and d > 0):
        raise UnsupportedParameter(f"slash by {rep} needs (a b; 0 d) with a, d > 0")
    g = f.twist(b, d * f.D).rescale_exponents(Fraction(a, d))
    if not bare:
        g = g * Fraction((a * d) ** (k // 2), d ** k)
    return g


def _slash_sum(f: PuiseuxSeries, k: int, groups) -> PuiseuxSeries:
    """sum over (reps, mult) in `groups` of mult * sum_rep f|_k rep,
    certified to be an integral rational expansion."""
    if k % 2 != 0:
        raise UnsupportedWeightParity(f"odd weight {k}")
    total = None
    for reps, mult in groups:
        for rep in reps:
            term = _slash_upper(f, rep, k, bare=False)
            term = term if mult == 1 else term * mult
            total = term if total is None else total + term
    return total.integral_projection()


def hecke_additive_cosets(f: PuiseuxSeries, k: int, n: int, N: int) -> PuiseuxSeries:
    """f|_k T(n) as a sum of slashes over coset representatives of level N.

    Restricted to parameter sets where all representatives are upper
    triangular: gcd(n, N) = 1, or n = p | N prime.  The summed series is
    certified to be an integral rational expansion.
    """
    return _slash_sum(f, k, [(left_coset_reps(N, n), 1)])


# ---------------------------------------------------------------------------
# multiplicative operator
# ---------------------------------------------------------------------------

def expression_order(expr: FormExpression) -> Fraction:
    """Leading q-exponent of the expression, computed symbolically."""
    order = Fraction(0)
    for atom, e in expr.atoms:
        order += e * _atom_order(atom)
    if expr.shift and order > 0:
        order = Fraction(0)
    return order


def _atom_order(atom) -> Fraction:
    from . import forms
    if isinstance(atom, forms.Eisenstein):
        return Fraction(0)
    if isinstance(atom, forms.DeltaShift):
        return Fraction(atom.m)
    if isinstance(atom, forms.JMinus):
        return Fraction(-1)
    if isinstance(atom, forms.EtaQuotient):
        return sum(Fraction(m * r, 24) for m, r in atom.spec.exponents)
    if isinstance(atom, forms.OpaqueSeries):
        return atom.series.leading_exponent()
    raise TypeError(f"unknown atom {atom!r}")


def _check_multiplicative(n: int, N: int) -> None:
    if n < 1:
        raise UnsupportedParameter("Hecke parameter must be positive")
    if not (gcd(n, N) == 1 or (N % n == 0 and _is_prime(n))):
        raise UnsupportedParameter(
            f"multiplicative T({n}) at level {N} needs gcd(n, N) = 1 or n = p | N")


def _slash_product(f: PuiseuxSeries, reps, prec: int) -> PuiseuxSeries:
    """Product of bare slash translates, trimmed so the result keeps `prec`
    coefficients past its leading exponent."""
    factors = [_slash_upper(f, rep, 0, bare=True) for rep in reps]
    orders = [g.leading_exponent() for g in factors]
    final_cut = sum(orders) + prec
    out = None
    tail = sum(orders)
    for g, o in zip(factors, orders):
        tail -= o
        out = g if out is None else out * g
        out = out.truncate(final_cut - tail)
    return out


def hecke_multiplicative_cosets(f: FormExpression, n: int, N: int,
                                prec: int = 30) -> FormExpression:
    """f|_* T(n) as the product of twisted slash translates over Q(zeta_d).

    This is the verification oracle for :func:`hecke_multiplicative`: it
    never forms a log-derivative, so it checks the character-sum identity
    the rational route is built on rather than restating it.  It is also
    the route for expansions on a fractional grid or with non-rational
    coefficients.  The image is an opaque expansion of certified weight
    k * |I| at level N with `prec` known coefficients."""
    _check_multiplicative(n, N)
    reps = left_coset_reps(N, n)
    k = f.weight
    order = expression_order(f)
    guard = 8
    budget = len(reps) * prec + int(abs(order) * n) + guard
    series = f.qexp(budget)
    if series.is_zero():
        raise NonUnitLeading("multiplicative Hecke image of the zero series")
    image = _slash_product(series, reps, prec).integral_projection()
    return FormExpression.of(OpaqueSeries(image, k * len(reps), N))


def _rational_image(c0, h: int, l: list, prec: int, pairs) -> PuiseuxSeries:
    """The product of bare translates named by `pairs`, computed in Q.

    `pairs` is a signed list of ((a, d), e): the pair stands for the d
    translates f((a tau + b)/d), 0 <= b < d, taken to the power e.  With
    f = c_0 q^h (1 + O(q)) on grid D = 1 and l = Theta(f)/f, summing over
    b turns the log-derivative of the product into the character sum
    H = sum e a sum_k l_{dk} q^(ak).  The product is C q^(h sum e a) times
    a unit u with u_0 = 1, where C = prod (c_0^d (-1)^(h(d-1)))^e and
    m u_m = sum_{i>=1} H_i u_{m-i}.  l must reach every d/a * (prec - 1).
    """
    H = [0] * prec
    lead = Fraction(1)
    for (a, d), e in pairs:
        for M in range(a, prec, a):
            H[M] += e * a * l[d * (M // a)]
        lead *= (Fraction(c0) ** d * (-1 if h * (d - 1) % 2 else 1)) ** e
    u = exp_coeffs(_as_rational(lead), H, prec)
    return PuiseuxSeries(1, h * sum(e * a for (a, _), e in pairs), u)


def _rational_log_derivative(f: FormExpression, prec: int, span: int, slack: int,
                             coset_jobs) -> tuple | None:
    """(c0, h, l, prec) for the rational route: f = c0 q^h (1 + O(q)),
    l = Theta(f)/f to span * (prec - 1) + 1 coefficients, and the precision
    of the image; or None when f is not on grid D = 1 over Q.

    l comes from the atoms of f when they all have closed forms, with
    c0 = 1 and h = l_0, the order.  Otherwise the log-derivative
    recurrence runs on the expansion, and a shorter expansion (an opaque
    series, say) limits the image the way the coset route is limited:
    `coset_jobs` lists the (budget, d/a) of each coset product that route
    forms, and a product over a window of w coefficients keeps
    ceil(w a/d) of them.
    """
    if prec < 1:
        raise PrecisionExhausted("the image must keep at least one coefficient")
    l = f.log_derivative(span * (prec - 1) + 1)
    if l is not None:
        return 1, l[0], l, prec
    series = f.qexp(span * prec + slack)
    if series.precision <= span * (prec - 1):
        expansions = [(f.qexp(budget), s) for budget, s in coset_jobs]
        prec = min([prec] + [-(-g.precision // s) for g, s in expansions])
        series = max((g for g, _ in expansions), key=lambda g: g.precision,
                     default=series)
    if series.is_zero():
        raise NonUnitLeading("multiplicative Hecke image of the zero series")
    if series.D != 1 or any(isinstance(c, Cyclo) for c in series.coeffs):
        return None
    l = log_derivative_coeffs(series.coeffs, series.order, span * (prec - 1) + 1)
    return series.coeffs[0], series.order, l, prec


def _tn_pairs(n: int, N: int) -> list:
    """The pairs ((a, n/a), 1), (a, N) = 1, of the translates in f|*T(n)."""
    return [((a, n // a), 1) for a in range(1, n + 1) if n % a == 0 and gcd(a, N) == 1]


def hecke_multiplicative(f: FormExpression, n: int, N: int,
                         prec: int = 30) -> FormExpression:
    """f|_* T(n): the product of slash translates over the determinant-n
    coset representatives, returned as an opaque expansion of certified
    weight k * |I| at level N with `prec` known coefficients.

    Expansions on grid D = 1 over Q take the rational route; the rest go
    to :func:`hecke_multiplicative_cosets`, whose output this matches
    exactly, coefficient types and precision included."""
    _check_multiplicative(n, N)
    pairs = _tn_pairs(n, N)
    ncosets = sum(d for (_, d), _ in pairs)
    k = f.weight
    slack = int(abs(expression_order(f)) * n) + 8
    found = _rational_log_derivative(f, prec, n, slack, [(ncosets * prec + slack, n)])
    if found is None:
        return hecke_multiplicative_cosets(f, n, N, prec)
    image = _rational_image(*found, pairs)
    return FormExpression.of(OpaqueSeries(image, k * ncosets, N))


def _mobius(e: int) -> int:
    mu, p = 1, 2
    while p * p <= e:
        if e % p == 0:
            e //= p
            if e % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if e > 1 else mu


def _element_pairs(u: AlgebraElement) -> list:
    """One signed pair list for a whole algebra element.  T(a, d) acts as
    T(1, d/a), since the scalar coset is the identity, and by Moebius
    inversion f|*T(1, m) = prod_{e^2 | m, (e, N) = 1} (f|*T(m/e^2))^mu(e)."""
    acc = {}
    for (a, d), mult in u.terms:
        m = d // a
        for e in range(1, isqrt(m) + 1):
            mu = _mobius(e)
            if mu and m % (e * e) == 0 and gcd(e, u.N) == 1:
                for pair, _ in _tn_pairs(m // (e * e), u.N):
                    acc[pair] = acc.get(pair, 0) + mu * mult
    return [(pair, e) for pair, e in acc.items() if e]


# ---------------------------------------------------------------------------
# action of general algebra elements
# ---------------------------------------------------------------------------

def apply_element(f: FormExpression, u: AlgebraElement, mode: str,
                  prec: int = 30) -> FormExpression:
    """Apply a formal sum of double cosets: additively (sum of slash-sums)
    or multiplicatively (product over terms with multiplicity exponents,
    keeping prec + 4 coefficients)."""
    if mode not in ("additive", "multiplicative"):
        raise ValueError(f"unknown mode {mode!r}")
    k = f.weight
    N = u.N
    if mode == "additive":
        if not u.terms:
            raise UnsupportedParameter(
                "the empty element sums no slashes, so its additive image has no precision")
        budget = max(a * d for (a, d), _ in u.terms) * prec + 8
        groups = [(double_coset_reps(a, d, N), mult) for (a, d), mult in u.terms]
        return FormExpression.of(OpaqueSeries(_slash_sum(f.qexp(budget), k, groups), k, N))

    jobs = _coset_jobs(f, u, prec)
    weight = sum(k * len(reps) * mult for reps, mult, _, _ in jobs)
    span = max((s for *_, s in jobs), default=1)
    slack = int(abs(expression_order(f)) * span) + 8
    found = _rational_log_derivative(f, prec + 4, span, slack,
                                     [(budget, s) for _, _, budget, s in jobs])
    if found is None:
        out = _element_cosets(f, u, prec)
    else:
        out = _rational_image(*found, _element_pairs(u))
    return FormExpression.of(OpaqueSeries(out, weight, N))


def _coset_jobs(f: FormExpression, u: AlgebraElement, prec: int) -> list:
    """(representatives, multiplicity, expansion budget, d/a) of each term
    of u."""
    order = expression_order(f)
    jobs = []
    for (a, d), mult in u.terms:
        reps = double_coset_reps(a, d, u.N)
        budget = len(reps) * (prec + 4) + int(abs(order) * a * d) + 8
        jobs.append((reps, mult, budget, d // a))
    return jobs


def _element_cosets(f: FormExpression, u: AlgebraElement, prec: int) -> PuiseuxSeries:
    """f|*u as the product of each term's coset product to the power of its
    multiplicity, with prec + 4 coefficients.  It is the oracle for the
    rational route of apply_element, and the route for expansions on a
    fractional grid or with non-rational coefficients."""
    out = None
    for reps, mult, budget, _ in _coset_jobs(f, u, prec):
        piece = _slash_product(f.qexp(budget), reps, prec + 4).integral_projection()
        piece = piece ** mult
        out = piece if out is None else out * piece
    return out
