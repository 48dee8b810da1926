"""Divisor sums: the pairing D_F(D) = sum n_z F(z), the 24 sigma_1(n)-
normalized j_n pairing of Bruinier, Kohnen and Ono, Rohrlich sums
R_{N,m}(s; f), and the exact s = 1 equivariance checks.

The BKO pairing is exact on the j-line: every point of a level-1 divisor
has its j in `curve.CM_J`, and j_n = F_n(j) + 24 sigma_1(n) for the Faber
polynomial F_n of j, so the sum is a rational (rounded to `digits` by
:func:`bko_pairing`).  Summing the q-series of j_n at the points
(``niebur.jn_value``) is the numeric oracle of the tests.

Policy on cusp values: only the BKO pairing hard-codes its cusp value
(24 sigma_1(n) at infinity); every point evaluator must be given explicit
cusp values, and pairings refuse divisors that touch a cusp without one.
Identities with a rational route (the s = 1 slice) are checked in exact
arithmetic; numerics are reserved for CM values and real s > 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil, gcd

from . import curve, forms, niebur, operators
from .curve import CuspClass, Divisor
from .errors import MissingCuspValue, UnsupportedParameter
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
    """A divisor sum; `error_estimate` is sum |n_z| times the estimated
    error of F(z) when the evaluator reports one (None otherwise)."""
    value: complex
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
    """sum of n_z F(z) over the divisor, with a per-point breakdown.

    Summation happens at the ambient mpmath precision; wrap the call in
    mpmath.workdps when the evaluator returns high-precision values."""
    import mpmath
    breakdown = []
    total = mpmath.mpc(0)
    for key, coeff in D.interior:
        val = F.interior(key.representative())
        total += mpmath.mpc(val) * mpmath.mpf(coeff.numerator) / coeff.denominator
        breakdown.append((repr(key), coeff, complex(val)))
    for cusp, coeff in D.cusp_part:
        val = F.at_cusp(cusp)
        total += mpmath.mpc(val) * mpmath.mpf(coeff.numerator) / coeff.denominator
        breakdown.append((repr(cusp), coeff, complex(val)))
    return PairingResult(value=total, exact=False, breakdown=tuple(breakdown))


# ---------------------------------------------------------------------------
# the BKO pairing against j_n
# ---------------------------------------------------------------------------

def _bko_sum(n: int, f: forms.FormExpression) -> tuple[Fraction, tuple]:
    """(j_n, f)_BKO = sum n_z j_n(z) + 24 sigma_1(n) n_inf over the level-1
    divisor of f, exactly, with its per-point breakdown (key, n_z, j_n(z)).
    Each j(z) comes from `curve.CM_J` and j_n(z) = F_n(j(z)) + 24 sigma_1(n)
    from the Faber recursion on exact scalars (`forms.jn_at`)."""
    if n < 1:
        raise UnsupportedParameter(f"n={n}: the BKO pairing needs n >= 1")
    if f.level != 1:
        raise UnsupportedParameter("the BKO pairing is a level-1 statement")
    D = curve.divisor_of_form(f, 1)
    total = Fraction(0)
    breakdown = []
    for key, coeff in D.interior:
        A, B, C = key.form  # a level-1 divisor_of_form names table points only
        val = forms.jn_at(n, curve.CM_J[B * B - 4 * A * C])
        total += coeff * val
        breakdown.append((repr(key), coeff, val))
    for cusp, coeff in D.cusp_part:
        val = 24 * forms.sigma(1, n)
        total += coeff * val
        breakdown.append((repr(cusp), coeff, val))
    return total, tuple(breakdown)


def bko_pairing(n: int, f: forms.FormExpression, digits: int = 50) -> PairingResult:
    """(j_n, f)_BKO: the divisor of f paired against j_n with the
    24 sigma_1(n) cusp normalization (level 1).  The sum is exact on the
    j-line (:func:`_bko_sum`); the value is that rational rounded to
    `digits` as an mpmath number, and the breakdown holds the exact j_n(z)."""
    import mpmath
    total, breakdown = _bko_sum(n, f)
    with mpmath.workdps(digits):
        value = mpmath.mpc(mpmath.mpf(total.numerator) / total.denominator)
    return PairingResult(value=value, exact=False, breakdown=breakdown)


def _log_derivative(f: forms.FormExpression, n: int) -> list:
    """The coefficients of Theta(f)/f at q^0, ..., q^(n-1): read from the
    atoms of f (``FormExpression.log_derivative``), or, for a shifted or
    opaque expression, by the log recurrence on an expansion known n
    exponents past its order."""
    l = f.log_derivative(n)
    if l is None:
        series = operators._expansion(f, n)
        # a shift that cancels leading terms shortens the window from q^0
        short = n - Fraction(series.precision, series.D)
        if short > 0:
            series = operators._expansion(f, n + ceil(short))
        ld = series.log_derivative()
        l = [ld.coefficient(i) for i in range(n)]
    return l


def r_at_s1(N: int, m: int, f: forms.FormExpression) -> Fraction:
    """The exact s = 1 Rohrlich sum: -Coeff_{q^m}(Theta f / f), with
    Theta f / f read from the atoms of f where they have a closed form
    (no expansion of f is built), else from its expansion."""
    if m < 1:
        raise UnsupportedParameter(f"m={m}: the s = 1 Rohrlich sum needs m >= 1")
    f.check_level(N)
    return -Fraction(_log_derivative(f, m + 1)[m])


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

    evaluator = PointEvaluator(interior=interior, cusp_values={},
                               name=f"F_{N},-{m}(s={s})")
    res = pair(evaluator, D)
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

    The image comes from the coset product: the rational route of
    hecke_multiplicative computes it from this very identity."""
    order = f.order
    sig = forms.sigma(1, n)
    img = operators.hecke_multiplicative_cosets(
        f, n, N, prec=m + int(abs(order)) * sig + 8)
    g = img.atoms[0][0].series
    lhs = Fraction(g.log_derivative().coefficient(m))
    base = _log_derivative(f, n * m + 1)
    rhs = sum(a * Fraction(base[n // a * (m // a)])
              for a in range(1, n + 1) if n % a == 0 and m % a == 0 and gcd(a, N) == 1)
    name = label or f"equivariance n={n} m={m} N={N}"
    return EvalReport(name=name, lhs=str(lhs), rhs=str(rhs), exact=True,
                      tolerance=None, passed=(lhs == rhs))


def hecke_image_evaluator(F: PointEvaluator, n: int, N: int) -> PointEvaluator:
    """F|_0 T(n) as a point evaluator: the sum of F over the exact coset
    images of a Heegner point."""
    import mpmath
    from .algebra import left_coset_reps
    reps = left_coset_reps(N, n)

    def interior(z):
        total = mpmath.mpc(0)
        for mat in reps:
            total += mpmath.mpc(F.interior(curve.act_matrix(mat, z)))
        return total

    cusp_values = {}
    for cusp in F.cusp_values:
        try:
            val = mpmath.mpc(0)
            for mat in reps:
                val += mpmath.mpc(F.at_cusp(curve.act_cusp(mat, cusp, N)))
            cusp_values[cusp] = val
        except MissingCuspValue:
            continue
    return PointEvaluator(interior=interior, cusp_values=cusp_values,
                          name=f"{F.name}|T({n})")


def verify_prop_divisor_sums(n: int, F: PointEvaluator, D: Divisor, N: int,
                             tolerance: float = 1e-20,
                             label: str | None = None,
                             digits: int = 60) -> EvalReport:
    """Numeric check of D_F(T(n) D) = D_{F|T(n)}(D) on X_0(N), the curve
    D lives on."""
    import mpmath
    if N != D.N:
        raise UnsupportedParameter(f"divisor lives on X_0({D.N}), not X_0({N})")
    with mpmath.workdps(digits):
        lhs = pair(F, curve.hecke_divisor(n, D)).value
        rhs = pair(hecke_image_evaluator(F, n, N), D).value
        diff = abs(mpmath.mpc(lhs) - mpmath.mpc(rhs))
    name = label or f"divisor-sum identity T({n}) on X_0({N})"
    return EvalReport(name=name, lhs=mpmath.nstr(mpmath.mpc(lhs), 30),
                      rhs=mpmath.nstr(mpmath.mpc(rhs), 30), exact=False,
                      tolerance=f"{tolerance:g}",
                      passed=bool(diff < tolerance),
                      detail=f"|lhs-rhs| = {mpmath.nstr(diff, 8)}")
