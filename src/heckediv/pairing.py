"""Divisor sums: the pairing D_F(D) = sum n_z F(z), the 24 sigma_1(n)-
normalized j_n pairing of Bruinier, Kohnen and Ono, Rohrlich sums
R_{N,m}(s; f), and the exact s = 1 equivariance checks.

:func:`pair` is the one divisor sum, in the arithmetic of F's own values.
The BKO pairing is `pair` over an exact j_n evaluator: a level-1 divisor
has its points' j in `curve.CM_J`, and j_n = F_n(j) + 24 sigma_1(n) for the
Faber polynomial F_n of j, so the sum is a rational.  Summing the q-series
of j_n at the points (``niebur.jn_value``) is the oracle of the tests.

Policy on cusp values: every point evaluator carries its own (j_n has
24 sigma_1(n) at infinity), and pairings refuse divisors that touch a cusp
without one.  Identities with a rational route (the s = 1 slice, which reads
Theta(f)/f by ``operators._log_derivative`` as the multiplicative Hecke
image does) are checked in exact arithmetic; numerics are for CM values and
real s > 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

from . import curve, forms, niebur, operators
from .curve import CuspClass, Divisor
from .errors import MissingCuspValue, PrecisionExhausted, UnsupportedParameter
from .niebur import EvalParams


@dataclass(frozen=True)
class PointEvaluator:
    """A map X_0(N) -> C: a callable that receives the HeegnerPoint
    representatives of a divisor's keys, plus explicit values at whichever
    cusps it supports."""
    interior: object
    cusp_values: dict
    name: str = "F"

    def at_cusp(self, cusp: CuspClass):
        if cusp not in self.cusp_values:
            raise MissingCuspValue(f"{self.name} has no value at the cusp {cusp!r}")
        return self.cusp_values[cusp]


@dataclass(frozen=True)
class PairingResult:
    """A divisor sum, `exact` when its value is a Fraction; `error_estimate`
    is sum |n_z| times the estimated error of F(z) where F reports one."""
    value: object
    exact: bool
    breakdown: tuple = ()
    error_estimate: float | None = None

    def __repr__(self):
        return f"PairingResult({self.value}, exact={self.exact})"


@dataclass(frozen=True)
class EvalReport:
    """One verified identity: both sides verbatim, status, tolerance."""
    name: str
    lhs: str
    rhs: str
    exact: bool
    tolerance: str | None
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        out = {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
               "exact": self.exact, "tolerance": self.tolerance,
               "passed": self.passed}
        if self.detail:
            out["detail"] = self.detail
        return out


def pair(F: PointEvaluator, D: Divisor) -> PairingResult:
    """sum n_z F(z) over the divisor from Fraction(0), in the arithmetic of
    F's values: a Fraction (then `exact`) for int or Fraction values, a double
    for doubles, mpmath at its ambient precision for mpmath values.  The
    breakdown (key, n_z, F(z)) keeps each value as F returned it."""
    terms = [(key, coeff, F.interior(key.representative())) for key, coeff in D.interior]
    terms += [(cusp, coeff, F.at_cusp(cusp)) for cusp, coeff in D.cusp_part]
    total = sum((coeff * val for _, coeff, val in terms), Fraction(0))
    return PairingResult(value=total, exact=isinstance(total, Fraction),
                         breakdown=tuple((repr(key), coeff, val) for key, coeff, val in terms))


# ---------------------------------------------------------------------------
# the BKO pairing against j_n
# ---------------------------------------------------------------------------

def _bko_sum(n: int, f: forms.FormExpression) -> tuple[Fraction, tuple]:
    """(j_n, f)_BKO over the level-1 divisor of f, exactly, with its breakdown
    (key, n_z, j_n(z)): :func:`pair` over j_n = F_n(j) + 24 sigma_1(n) from
    the Faber recursion on exact scalars (`forms.jn_at`) at j(z) in
    `curve.CM_J`, and over 24 sigma_1(n) at the cusp."""
    if n < 1:
        raise UnsupportedParameter(f"n={n}: the BKO pairing needs n >= 1")
    if f.level != 1:
        raise UnsupportedParameter("the BKO pairing is a level-1 statement")
    # a level-1 divisor_of_form names table points only
    jn = PointEvaluator(lambda z: forms.jn_at(n, curve.CM_J[z.discriminant]),
                        {curve.canonical_cusp(1, 0, 1): 24 * forms.sigma(1, n)}, f"j_{n}")
    res = pair(jn, curve.divisor_of_form(f, 1))
    return res.value, res.breakdown


def bko_pairing(n: int, f: forms.FormExpression, digits: int = 50) -> PairingResult:
    """(j_n, f)_BKO: the divisor of f paired against j_n with the
    24 sigma_1(n) cusp normalization (level 1).  The sum is exact on the
    j-line (:func:`_bko_sum`); the value is that rational rounded to
    `digits` as an mpmath number, and the breakdown holds the exact j_n(z)."""
    import mpmath
    if digits < 1:
        raise UnsupportedParameter(f"digits={digits}: must be >= 1")
    total, breakdown = _bko_sum(n, f)
    with mpmath.workdps(digits):
        value = mpmath.mpc(mpmath.mpf(total.numerator) / total.denominator)
    return PairingResult(value=value, exact=False, breakdown=breakdown)


def r_at_s1(N: int, m: int, f: forms.FormExpression) -> Fraction:
    """The exact s = 1 Rohrlich sum: -Coeff_{q^m}(Theta f / f), read by
    ``operators._log_derivative`` from the atoms of f where they have a closed
    form (no expansion of f is built), else from m + 1 exponents of f."""
    if m < 1:
        raise UnsupportedParameter(f"m={m}: the s = 1 Rohrlich sum needs m >= 1")
    f.check_level(N)
    l = operators._log_derivative(f, m + 1)[1]
    if len(l) <= m:
        raise PrecisionExhausted(f"Theta f / f is known below q^{len(l)} only")
    return -Fraction(l[m])


def r_numeric(N: int, m: int, s, f: forms.FormExpression,
              params: EvalParams | None = None) -> PairingResult:
    """R_{N,m}(s; f) by numeric Niebur evaluation over div(f), with
    sum |n_z| times each point's `PointValue.error_estimate` as the
    result's error estimate.

    Refuses divisors that touch cusps: the cusp value of F_{N,-m}(., s)
    at general s is context-dependent, so none is invented here."""
    params = replace(params or EvalParams(), s=float(s))
    D = curve.divisor_of_form(f, N)
    if D.cusp_part:
        raise MissingCuspValue(
            "div(f) meets a cusp; R_{N,m}(s, .) has no cusp convention here")
    errors = []

    def interior(z):
        pv = niebur.niebur_value(N, m, z, params)
        errors.append(pv.error_estimate)
        return pv.value

    res = pair(PointEvaluator(interior, {}, f"F_{N},-{m}(s={s})"), D)
    # pair evaluates the points in the order of its breakdown
    error = sum(abs(c) * e for (_, c, _), e in zip(res.breakdown, errors))
    return replace(res, error_estimate=float(error))


# ---------------------------------------------------------------------------
# equivariance checks
# ---------------------------------------------------------------------------

def verify_equivariance(n: int, m: int, f: forms.FormExpression, N: int = 1,
                        label: str | None = None) -> EvalReport:
    """Exact check of the s = 1 equivariance l'_m = sum a l_(dm/a) over
    ad = n, (a, N) = 1, a | m, with l = Theta(f)/f and l' that of f|*T(n):
    l_(pm) + p l_(m/p) at a prime p not dividing N, l_(pm) at p | N (U_p).

    The image comes from the coset product, asked for the m + 1
    coefficients that l'_m reads: the rational route of
    hecke_multiplicative computes it from this very identity."""
    if m < 0:
        raise UnsupportedParameter(f"m={m}: the equivariance check needs m >= 0")
    img = operators.hecke_multiplicative_cosets(f, n, N, prec=m + 1)
    g = img.atoms[0][0].series
    lhs = Fraction(g.log_derivative().coefficient(m))
    # an image known through q^m comes from f known through q^(h + nm)
    base = operators._log_derivative(f, n * m + 1)[1]
    rhs = sum(a * Fraction(base[n // a * (m // a)])
              for a in range(1, n + 1) if n % a == 0 and m % a == 0 and gcd(a, N) == 1)
    name = label or f"equivariance n={n} m={m} N={N}"
    return EvalReport(name=name, lhs=str(lhs), rhs=str(rhs), exact=True,
                      tolerance=None, passed=(lhs == rhs))


def hecke_image_evaluator(F: PointEvaluator, n: int, N: int) -> PointEvaluator:
    """F|_0 T(n) as a point evaluator: the sum of F over the exact coset
    images of a Heegner point (or of a cusp where F has a value at every
    image), in the arithmetic of F's values as :func:`pair` sums."""
    from .algebra import left_coset_reps
    reps = left_coset_reps(N, n)

    def interior(z):
        return sum(F.interior(curve.act_matrix(mat, z)) for mat in reps)

    cusp_values = {}
    for cusp in F.cusp_values:
        images = [curve.act_cusp(mat, cusp, N) for mat in reps]
        if all(c in F.cusp_values for c in images):
            cusp_values[cusp] = sum(F.cusp_values[c] for c in images)
    return PointEvaluator(interior=interior, cusp_values=cusp_values,
                          name=f"{F.name}|T({n})")


def verify_prop_divisor_sums(n: int, F: PointEvaluator, D: Divisor, N: int,
                             tolerance: float = 1e-20,
                             label: str | None = None,
                             digits: int = 60) -> EvalReport:
    """Numeric check of D_F(T(n) D) = D_{F|T(n)}(D) on X_0(N), the curve D
    lives on: both sides by :func:`pair` at `digits`, compared in mpmath."""
    import mpmath
    if N != D.N:
        raise UnsupportedParameter(f"divisor lives on X_0({D.N}), not X_0({N})")
    with mpmath.workdps(digits):
        lhs = mpmath.mpc(mpmath.mpmathify(pair(F, curve.hecke_divisor(n, D)).value))
        rhs = mpmath.mpc(mpmath.mpmathify(pair(hecke_image_evaluator(F, n, N), D).value))
        diff = abs(lhs - rhs)
    name = label or f"divisor-sum identity T({n}) on X_0({N})"
    return EvalReport(name=name, lhs=mpmath.nstr(lhs, 30), rhs=mpmath.nstr(rhs, 30),
                      exact=False, tolerance=f"{tolerance:g}",
                      passed=bool(diff < tolerance),
                      detail=f"|lhs-rhs| = {mpmath.nstr(diff, 8)}")
