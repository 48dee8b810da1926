"""Hecke operators on q-expansions: the additive weight-k representation
and the multiplicative representation on the group of meromorphic forms.

Both are computed in Q from one signed list of pairs ((a, d), e), each
standing for the d translates f((a tau + b)/d), 0 <= b < d, with weight
(or exponent) e: ``_tn_pairs`` for T(n) at level N, ``_element_pairs``
for an algebra element, by T(a, d) -> T(1, d/a) (a scalar coset acts as
the identity) and T(1, m) = sum_{e^2 | m, (e, N) = 1} mu(e) T(m/e^2).
Summed over b, the translates form a character sum,
sum_b e(bM/d) = d [d | M]:

* additively, a pair contributes e (ad)^(k/2) d^(1-k) sum_{d|M} c_M q^(aM/d);
  for T(n) this is c(m) -> n^(1-k/2) sum a^(k-1) c(mn/a^2) over
  a | (m, n), (a, N) = 1, which is U_p at p | N (``hecke_additive_formula``
  and the additive ``apply_element``);
* multiplicatively the bare translates are multiplied, without the
  det^(k/2)/d^k factors (constant for upper-triangular matrices; the bare
  product maps E4 to E12 - (36882000/691) Delta and makes every scalar
  coset the exact identity).  With l = Theta(f)/f, the image g has
  Theta(g)/g = sum e a sum_k l_{dk} q^(ak), and the exp recurrence
  ``series.exp_coeffs`` rebuilds g from its leading term: one function,
  ``_multiplicative_image``, for ``hecke_multiplicative`` and the
  multiplicative ``apply_element`` alike.  l is read from the atoms of f
  (``FormExpression.log_derivative``), or by the log recurrence from the
  expansion of f = c_0 q^h g with g on grid 1, where h may be fractional:
  the pair (a, d) then adds q^(a h) and the phase e(h (d-1)/2).

The coset products and sums remain as verification oracles, with no
log-derivative and no character sum; both routes give the same
coefficients, types, precision and refusals.  ``hecke_multiplicative_cosets``
multiplies the translates in Q, as norms of the d-dissection
(``_coset_product``).  ``hecke_additive_cosets`` sums the
twisted translates of ``_slash_upper``, the only place where Q(zeta_d)
enters a series, and certifies the sum rational (``_certified``).

Expansion budgets count exponents past the leading one, so an expansion on
the grid (1/D)Z is asked for D times as many coefficients (``_expansion``),
in both routes alike.  One window rule bounds every image: with span the
largest d/a over its translates, an expansion known through w exponents
keeps ceil(w/span) image coefficients, the least ceil(w a/d) over the
translates.  Translates that cancel between the terms of an element still
bound it, as in the sum over the double cosets.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod

from .algebra import AlgebraElement, check_hecke_parameter, left_coset_reps
from .cyclotomic import Cyclo, coeff_rational
from .errors import (InvalidInput, NonUnitLeading, NotIntegralSeries, PrecisionExhausted,
                     UnsupportedParameter, UnsupportedWeightParity)
from .forms import FormExpression, OpaqueSeries, prime_factors
from .series import PuiseuxSeries, _is_rational, exact_div, exp_coeffs, log_derivative_coeffs


# ---------------------------------------------------------------------------
# additive operator
# ---------------------------------------------------------------------------

def _tn_pairs(n: int, N: int) -> list:
    """The pairs ((a, n/a), 1), (a, N) = 1, of the translates in T(n)."""
    return [((a, n // a), 1) for a in range(1, n + 1) if n % a == 0 and gcd(a, N) == 1]


def _mobius(e: int) -> int:
    """mu(e), read off the prime factors of e."""
    primes = prime_factors(e)
    return (-1) ** len(primes) if len(set(primes)) == len(primes) else 0


def _term_pairs(m: int, N: int) -> list:
    """The pairs of T(1, m) = sum_{e^2 | m, (e, N) = 1} mu(e) T(m/e^2)."""
    return [(pair, _mobius(e)) for e in range(1, isqrt(m) + 1)
            if m % (e * e) == 0 and gcd(e, N) == 1 and _mobius(e)
            for pair, _ in _tn_pairs(m // (e * e), N)]


def _element_pairs(u: AlgebraElement) -> list:
    """The merged pairs of an algebra element, each T(a, d) as T(1, d/a).
    A pair whose translates cancel between terms stays, with e = 0: it
    still bounds the window, as in the sum over the double cosets."""
    acc = {}
    for (a, d), mult in u.terms:
        for pair, mu in _term_pairs(d // a, u.N):
            acc[pair] = acc.get(pair, 0) + mu * mult
    return list(acc.items())


def _slash_sums(f: PuiseuxSeries, k: int, pairs, scale=1) -> PuiseuxSeries:
    """scale * sum over `pairs` of e (ad)^(k/2) d^(1-k) sum_{d|M} c_M q^(aM/d),
    known below the least ceil(c a/d) over the pairs, c the cutoff of f:
    where the coset sum's window ends.  For c >= 0 that is ceil(c/span),
    span the largest d/a."""
    if k % 2 != 0:
        raise UnsupportedWeightParity(f"odd weight {k}")
    if f.D != 1:
        raise UnsupportedParameter("coefficient formula needs an integral expansion")
    if not _is_rational(f.coeffs):
        raise UnsupportedParameter("coefficient formula needs rational coefficients")
    o, c = f.order, f.cutoff
    hi = min(-(-c * a // d) for (a, d), _ in pairs)
    lo = min([hi] + [a * -(-o // d) for (a, d), _ in pairs])
    weights = [((a, d), e * scale * Fraction(a * d) ** (k // 2) * Fraction(d) ** (1 - k))
               for (a, d), e in pairs]
    L = lcm(*[w.denominator for _, w in weights])
    out = [0] * (hi - lo)
    for (a, d), w in weights:
        w = int(w * L)
        for j in range(-(-o // d), -(-hi // a)):
            out[a * j - lo] += w * f.coeffs[d * j - o]
    return PuiseuxSeries(1, lo, [exact_div(x, L) for x in out])


def hecke_additive_formula(f: PuiseuxSeries, k: int, n: int,
                           normalization: str = "normalized", N: int = 1) -> PuiseuxSeries:
    """f|_k T(n) at level N on an integral rational expansion:
    c(m) -> n^(1-k/2) sum a^(k-1) c(mn/a^2) over a | (m, n), (a, N) = 1
    (with (0, n) = n), which is U_p at n = p | N.

    `normalization`: "normalized" keeps the n^(1-k/2) prefactor (the
    convention matching the slash-sum route and the weight-0 divisor-sum
    identities); "classical" drops it, giving the plain sum of
    a^(k-1) c(mn/a^2) that most coefficient tables use.
    """
    if normalization not in ("normalized", "classical"):
        raise InvalidInput(f"unknown normalization {normalization!r}")
    check_hecke_parameter(n, N, "additive T")
    pairs = _tn_pairs(n, N)
    scale = 1 if normalization == "normalized" else Fraction(n) ** (k // 2 - 1)
    return _slash_sums(f, k, pairs, scale)


def _slash_upper(f: PuiseuxSeries, rep, k: int) -> PuiseuxSeries:
    """f|_k (a b; 0 d) for rational f: the twist that multiplies the
    coefficient of q^(m/D) by zeta_(dD)^(bm), an exponent rescale by a/d,
    and the constant automorphy factor det^(k/2) d^(-k).  Oracle only."""
    a, b, c, d = rep
    if not (c == 0 and a > 0 and d > 0):
        raise UnsupportedParameter(f"slash by {rep} needs (a b; 0 d) with a, d > 0")
    if not _is_rational(f.coeffs):
        raise UnsupportedParameter("the twist needs rational coefficients")
    n = d * f.D
    if b % n:
        roots = [Cyclo.zeta(n, r) for r in range(n)]
        twisted = []
        for i, x in enumerate(f.coeffs):
            z = roots[b * (f.order + i) % n]
            twisted.append(x if not x or z == 1 else z * x)
        f = PuiseuxSeries(f.D, f.order, twisted)
    return f.rescale_exponents(Fraction(a, d)) * (Fraction(a * d) ** (k // 2) / Fraction(d) ** k)


def _certified(s: PuiseuxSeries) -> PuiseuxSeries:
    """An oracle's sum or product s on grid 1, certified to lie in
    Q((q)): NotIntegralSeries if a non-integral exponent carries a nonzero
    coefficient or a coefficient is irrational.  Oracle only."""
    lo = -(-s.order // s.D)
    out = [0] * (-(-s.cutoff // s.D) - lo)
    for i, c in enumerate(s.coeffs):
        if not c:
            continue
        m = s.order + i
        if m % s.D:
            raise NotIntegralSeries(f"nonzero coefficient at exponent {m}/{s.D}")
        r = coeff_rational(c)
        if r is None:
            raise NotIntegralSeries(f"irrational coefficient {c!r} at exponent {m // s.D}")
        out[m // s.D - lo] = r
    return PuiseuxSeries(1, lo, out)


def hecke_additive_cosets(f: PuiseuxSeries, k: int, n: int, N: int) -> PuiseuxSeries:
    """f|_k T(n) as the sum of slashes over the coset representatives of
    level N over Q(zeta_d), certified integral and rational: the
    verification oracle of :func:`hecke_additive_formula`."""
    reps = left_coset_reps(N, n)
    if k % 2 != 0:
        raise UnsupportedWeightParity(f"odd weight {k}")
    total = None
    for rep in reps:
        term = _slash_upper(f, rep, k)
        total = term if total is None else total + term
    return _certified(total)


# ---------------------------------------------------------------------------
# multiplicative operator
# ---------------------------------------------------------------------------

def _expansion(f: FormExpression, budget: int) -> PuiseuxSeries:
    """f.qexp known `budget` exponents past its order where the atoms allow:
    an expansion on the grid (1/D)Z is asked for D * budget coefficients."""
    series = f.qexp(budget)
    return series if series.D == 1 else f.qexp(series.D * budget)


def _dissection_norm(g, d: int, n: int) -> PuiseuxSeries:
    """The norm N_d(g)(y) = prod_{b<d} g(zeta_d^b x), y = x^d, to n
    coefficients: det M, M_ij = P_(i-j) (i >= j), y P_(i-j+d) (i < j), for
    the d-dissection P_j = sum_k g_(dk+j) y^k (Cohen, GTM 138, 4.3).  Mod y,
    M is lower triangular with diagonal g_0 != 0, so elimination over
    Q[[y]] has unit pivots.  y^m reads only g_0, ..., g_(dm), so zeros pad
    g.  Oracle only."""
    g = list(g[:d * (n - 1) + 1]) + [0] * (d * n)
    M = [[PuiseuxSeries(1, int(i < j), g[(i - j) % d::d][:n]) for j in range(d)]
         for i in range(d)]
    for c in range(d):
        inv = M[c][c].reciprocal()
        for r in range(c + 1, d):
            factor = M[r][c] * inv
            M[r][c + 1:] = [x - factor * y for x, y in zip(M[r][c + 1:], M[c][c + 1:])]
    return prod(M[c][c] for c in range(d)).truncate(n)


def _norm_pairs(reps) -> dict:
    """{(a, d): e}: the translates g((a tau + b)/d) over the Hermite-form
    `reps` of double cosets multiply to prod N_d(g)(q^a)^e.  Without their
    content, the b of (a, d) are all those prime to t = gcd(a, d), and
    those with e | b give N_(d/e)(g)(q^(a/e)): Moebius inversion."""
    pairs = {}
    for a, d in {(a // gcd(a, b, d), d // gcd(a, b, d)) for a, b, _, d in reps}:
        t = gcd(a, d)
        for e in range(1, t + 1):
            if t % e == 0:
                pairs[a // e, d // e] = pairs.get((a // e, d // e), 0) + _mobius(e)
    return {pair: e for pair, e in pairs.items() if e}


def _coset_product(f: PuiseuxSeries, reps, prec: int) -> PuiseuxSeries:
    """The product of the translates f((a tau + b)/d) over `reps` in Q, to
    min(prec, ceil(w min(a/d) / D)) coefficients for f = c_0 q^h g known
    through w units of the grid (1/D)Z.  NotIntegralSeries unless the
    leading terms c_0 e(h b/d) q^(h a/d) multiply to +-c_0^|reps| q^x, x
    integral, and g is on grid 1 where the image shows it.  Oracle only."""
    h, D = f.leading_exponent(), f.D
    if prec < 1:
        raise PrecisionExhausted("the image must keep at least one coefficient")
    if not _is_rational(f.coeffs):
        raise UnsupportedParameter("the multiplicative operator needs rational coefficients")
    x = sum(h * Fraction(a, d) for a, _, _, d in reps)
    t = sum(h * Fraction(b, d) for _, b, _, d in reps)
    if x.denominator != 1 or (2 * t).denominator != 1:
        raise NotIntegralSeries(f"the translates lead with e({t}) q^{x}, not +-q^m")
    ratio = min(Fraction(a, d) for a, _, _, d in reps)
    if any(c for i, c in enumerate(f.coeffs) if i % D and ratio * i < D * prec):
        raise NotIntegralSeries("f/q^h is off the integral grid in the image's window")
    prec = min(prec, -(-ratio * f.precision // D))
    out = PuiseuxSeries.one(prec)
    for (a, d), e in _norm_pairs(reps).items():
        out = out * _dissection_norm(f.coeffs[::D], d, -(-prec // a)).rescale_exponents(a) ** e
    return PuiseuxSeries(1, int(x), [(-1) ** int(2 * t % 2) * c for c in out.coeffs])


def hecke_multiplicative_cosets(f: FormExpression, n: int, N: int,
                                prec: int = 30) -> FormExpression:
    """f|_* T(n) as the product of the translates over the coset
    representatives, multiplied as norms in Q: the verification oracle of
    :func:`hecke_multiplicative`."""
    f.check_level(N)
    check_hecke_parameter(n, N, "multiplicative T")
    reps = left_coset_reps(N, n)
    series = _expansion(f, len(reps) * prec + int(abs(f.order) * n) + 8)
    image = _coset_product(series, reps, prec)
    return FormExpression.of(OpaqueSeries(image, f.weight * len(reps), N))


def _translate_order(h, pairs) -> tuple[int, int]:
    """(x, s) with s q^x the product of the translates of q^h: the d
    translates of a pair multiply to q^(a h) e(h (d-1)/2), so x = h sum e a,
    and the phase e(t/2), t = h sum e (d-1), is s = +-1 when t is integral."""
    x = Fraction(h * sum(e * a for (a, _), e in pairs))
    t = Fraction(h * sum(e * (d - 1) for (_, d), e in pairs))
    if x.denominator != 1:
        raise NotIntegralSeries(f"the image starts at the non-integral exponent {x}")
    if t.denominator != 1:
        raise NotIntegralSeries(f"the image leads with the phase e({t}/2), not +-1")
    return int(x), -1 if t % 2 else 1


def _multiplicative_image(f: FormExpression, pairs, prec: int, N: int,
                          terms=()) -> FormExpression:
    """The product of the bare translates of f = c_0 q^h g (g = 1 + O(q)
    on grid 1, l = Theta(f)/f) named by the signed `pairs`, in Q, as an
    opaque expansion of weight k sum e d at level N: s c_0^(sum e d) q^x
    times the unit u with m u_m = sum_{i>=1} H_i u_{m-i}, where
    H = sum e a sum_k l_{dk} q^(ak) and (x, s) = _translate_order(h, pairs),
    after each pair list of `terms` is certified on its own.

    l (l_0 = h) comes from the atoms of f, or else from the expansion by
    the log recurrence on g.  With span the largest d/a over the pairs, an
    expansion known through w exponents keeps ceil(w/span) of the `prec`
    coefficients, as the coset products do.  Coefficients outside Q, and
    those of g off grid 1 below the exponent span * prec (where the image
    would show them), are refused."""
    k = f.weight
    span = max(d // a for (a, d), _ in pairs)
    # read before prec is checked: a shifted f that cancels is refused first
    slack = int(abs(f.order) * span) + 8
    if prec < 1:
        raise PrecisionExhausted("the image must keep at least one coefficient")
    c0, l = 1, f.log_derivative(span * (prec - 1) + 1)
    if l is None:
        reach = span * prec
        series = _expansion(f, reach + slack)
        D = series.D
        prec = min(prec, -(-series.precision // (D * span)))
        if series.is_zero():
            raise NonUnitLeading("multiplicative Hecke image of the zero series")
        if not _is_rational(series.coeffs):
            raise UnsupportedParameter("the multiplicative operator needs rational coefficients")
        if any(c for i, c in enumerate(series.coeffs[:D * reach]) if i % D):
            raise NotIntegralSeries("f/q^h is off the integral grid in the image's window")
        g = series.coeffs[::D]
        c0, l = g[0], log_derivative_coeffs(g, exact_div(series.order, D), span * (prec - 1) + 1)
    for term in terms:
        _translate_order(l[0], term)
    order, sign = _translate_order(l[0], pairs)
    H = [0] * prec
    for (a, d), e in pairs:
        for M in range(a, prec, a):
            H[M] += e * a * l[d * (M // a)]
    ncosets = sum(e * d for (_, d), e in pairs)
    lead = sign * Fraction(c0) ** ncosets
    u = exp_coeffs(exact_div(lead.numerator, lead.denominator), H, prec)
    return FormExpression.of(OpaqueSeries(PuiseuxSeries(1, order, u), k * ncosets, N))


def hecke_multiplicative(f: FormExpression, n: int, N: int,
                         prec: int = 30) -> FormExpression:
    """f|_* T(n), the product of the translates over the determinant-n
    cosets, as an opaque expansion of weight k * |I| at level N with `prec`
    coefficients, computed in Q."""
    f.check_level(N)
    check_hecke_parameter(n, N, "multiplicative T")
    return _multiplicative_image(f, _tn_pairs(n, N), prec, N)


# ---------------------------------------------------------------------------
# action of general algebra elements
# ---------------------------------------------------------------------------

def apply_element(f: FormExpression, u: AlgebraElement, mode: str,
                  prec: int = 30) -> FormExpression:
    """Apply a formal sum of double cosets in Q, from its pair list:
    additively (the sum of the slash sums) or multiplicatively (the product
    over terms with multiplicity exponents, keeping prec + 4 coefficients)."""
    if mode not in ("additive", "multiplicative"):
        raise InvalidInput(f"unknown mode {mode!r}")
    f.check_level(u.N)
    k = f.weight
    N = u.N
    if not u.terms:
        if mode == "additive":
            raise UnsupportedParameter(
                "the empty element sums no slashes, so its additive image has no precision")
        return FormExpression.of(OpaqueSeries(PuiseuxSeries.one(prec + 4), 0, N))
    if mode == "additive":
        budget = max(a * d for (a, d), _ in u.terms) * prec + 8
        image = _slash_sums(f.qexp(budget), k, _element_pairs(u))
        return FormExpression.of(OpaqueSeries(image, k, N))
    # each double coset's product is certified on its own, as by the oracle
    return _multiplicative_image(f, _element_pairs(u), prec + 4, N,
                                 [_term_pairs(d // a, N) for (a, d), _ in u.terms])
