"""Named verification suites behind the `verify` CLI verb.

Each suite returns a list of EvalReports; a suite passes when every report
does.  The suites are a superset of the library's acceptance criteria:
exact identities are compared in rational arithmetic, with j at CM points
from `curve.CM_J`; only the niebur suite (real s > 1) carries tolerances.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import algebra, curve, forms, niebur, operators, pairing
from .curve import HeegnerPoint, POINT_I
from .errors import InvalidInput, UnknownDivisor
from .niebur import EvalParams
from .pairing import EvalReport

SUITES = ("bko", "equivariance", "divisor-hecke", "p-plication", "algebra", "niebur")


def _series_report(name, lhs, rhs, through) -> EvalReport:
    ok = lhs.equal_through(rhs, through)
    show = lambda s: repr(s.truncate(min(through, 4)))
    return EvalReport(name=name, lhs=show(lhs), rhs=show(rhs), exact=True,
                      tolerance=None, passed=ok,
                      detail=f"compared coefficientwise through q^{through}")


# ---------------------------------------------------------------------------

def suite_bko() -> list[EvalReport]:
    out = []
    e4 = forms.FormExpression.of(forms.Eisenstein(4))

    img2 = operators.hecke_multiplicative(e4, 2, 1, prec=33).atoms[0][0].series
    rhs2 = forms.eisenstein(12, 34) - Fraction(36882000, 691) * forms.delta(34)
    out.append(_series_report("E4|*T(2) = E12 - (36882000/691) Delta", img2, rhs2, 30))

    img3 = operators.hecke_multiplicative(e4, 3, 1, prec=33).atoms[0][0].series
    rhs3 = forms.eisenstein(16, 34) + Fraction(44449152000, 3617) * (
        forms.eisenstein(4, 34) * forms.delta(34))
    out.append(_series_report("E4|*T(3) = E16 + (44449152000/3617) E4 Delta", img3, rhs3, 30))

    ld = forms.eisenstein(4, 12).log_derivative()
    got = [ld.coefficient(i) for i in (1, 2, 3)]
    out.append(EvalReport(
        name="Theta(E4)/E4 = 240q - 53280q^2 + 12288960q^3 + ...",
        lhs=str(got), rhs="[240, -53280, 12288960]", exact=True, tolerance=None,
        passed=(got == [240, -53280, 12288960])))

    l2 = img2.log_derivative()
    l3 = img3.log_derivative()
    out.append(EvalReport(
        name="Theta(E4|*T(2))/(E4|*T(2)) begins -53280q; T(3) image begins 12288960q",
        lhs=str([l2.coefficient(1), l3.coefficient(1)]),
        rhs="[-53280, 12288960]", exact=True, tolerance=None,
        passed=(l2.order >= 1 and l3.order >= 1
                and l2.coefficient(1) == -53280 and l3.coefficient(1) == 12288960)))

    j8000 = forms.FormExpression.of(forms.JMinus(Fraction(8000)))
    for f, tag in ((e4, "E4"), (j8000, "j - 8000")):
        for n in (1, 2, 3):
            got, want = pairing._bko_sum(n, f)[0], pairing.r_at_s1(1, n, f)
            out.append(EvalReport(
                name=f"(j_{n}, {tag})_BKO = -Coeff_q^{n}(Theta f/f)",
                lhs=str(got), rhs=str(want), exact=True, tolerance=None,
                passed=(got == want),
                detail="sum n_z P_n(j(z)) + 24 sigma_1(n) n_inf, P_n(j) = j_n"))
    return out


# ---------------------------------------------------------------------------

def suite_algebra() -> list[EvalReport]:
    out = []
    t2 = algebra.t_n(2, 1)
    prod = algebra.algebra_multiply(t2, t2)
    want = algebra.AlgebraElement.make(1, {(1, 4): 1, (2, 2): 3})
    out.append(EvalReport(
        name="T(2)^2 = T(1,4) + 3 T(2,2) at N=1",
        lhs=str(prod.terms), rhs=str(want.terms), exact=True, tolerance=None,
        passed=(prod == want)))

    t4 = algebra.t_n(4, 1)
    want4 = algebra.AlgebraElement.make(1, {(1, 4): 1, (2, 2): 1})
    out.append(EvalReport(
        name="T(4) = T(1,4) + T(2,2) at N=1",
        lhs=str(t4.terms), rhs=str(want4.terms), exact=True, tolerance=None,
        passed=(t4 == want4)))

    failures = []
    for N in (1, 2, 3):
        for m in range(1, 7):
            for n in range(1, 7):
                lhs = algebra.algebra_multiply(algebra.t_n(m, N), algebra.t_n(n, N))
                rhs = None
                for d in range(1, min(m, n) + 1):
                    if m % d or n % d or gcd(d, N) != 1:
                        continue
                    term = algebra.algebra_multiply(
                        algebra.t_ad(d, d, N), algebra.t_n(m * n // (d * d), N))
                    term = d * term
                    rhs = term if rhs is None else rhs + term
                if lhs != rhs:
                    failures.append((m, n, N))
    out.append(EvalReport(
        name="T(m)T(n) = sum_{d | (m,n), (d,N)=1} d T(d,d) T(mn/d^2) for m,n <= 6, N in {1,2,3}",
        lhs=f"{108 - len(failures)}/108 cases hold", rhs="108/108",
        exact=True, tolerance=None, passed=(not failures),
        detail=f"failures: {failures}" if failures else "enumerated all 108 cases"))
    return out


# ---------------------------------------------------------------------------

def _equivariance_cases():
    e4 = forms.FormExpression.of(forms.Eisenstein(4))
    e6 = forms.FormExpression.of(forms.Eisenstein(6))
    dlt = forms.FormExpression.of(forms.DeltaShift(1))
    jm = forms.FormExpression.of(forms.JMinus(Fraction(1728)))
    for f, tag in ((e4, "E4"), (e6, "E6"), (dlt, "Delta"), (jm, "j-1728")):
        for p in (2, 3, 5):
            for m in (1, 2, 3):
                yield f, tag, p, m, 1
    # level-3 eta-quotient cases, p coprime to the level
    eta3 = forms.FormExpression.of(
        forms.EtaQuotient(forms.EtaQuotientSpec.make(3, {1: 6, 3: 6})))
    haupt3 = forms.FormExpression.of(
        forms.EtaQuotient(forms.hauptmodul_spec(3)))
    for f, tag in ((eta3, "(eta1 eta3)^6"), (haupt3, "t3")):
        for p in (2, 5):
            for m in (1, 2, 3):
                yield f, tag, p, m, 3


def suite_equivariance() -> list[EvalReport]:
    out = []
    for f, tag, p, m, N in _equivariance_cases():
        out.append(pairing.verify_equivariance(
            p, m, f, N, label=f"Rohrlich equivariance f={tag} p={p} m={m} N={N}"))
    return out


# ---------------------------------------------------------------------------

def suite_divisor_hecke() -> list[EvalReport]:
    out = []

    # Example: T(2)([i] - [inf]) at N = 1, exact canonical keys
    D1 = curve.point_divisor(1, POINT_I) + curve.cusp_divisor(1, 1, 0, -1)
    got = curve.hecke_divisor(2, D1)
    want = (2 * curve.point_divisor(1, HeegnerPoint(1, 0, 4))
            + curve.point_divisor(1, POINT_I)
            + curve.cusp_divisor(1, 1, 0, -3))
    out.append(EvalReport(
        name="T(2)([i] - [inf]) = 2[2i] + [i] - 3[inf] on X_0(1)",
        lhs=repr(got), rhs=repr(want), exact=True, tolerance=None,
        passed=(got == want)))

    # level 2: no identification
    D2 = curve.point_divisor(2, POINT_I) + curve.cusp_divisor(2, 1, 0, -1)
    got2 = curve.hecke_divisor(2, D2)
    want2 = (curve.point_divisor(2, HeegnerPoint(4, 0, 1))      # i/2
             + curve.point_divisor(2, HeegnerPoint(2, -2, 1))   # (i+1)/2
             + curve.cusp_divisor(2, 1, 0, -2))
    out.append(EvalReport(
        name="T(2)([i] - [inf]) = [i/2] + [(i+1)/2] - 2[inf] on X_0(2)",
        lhs=repr(got2), rhs=repr(want2), exact=True, tolerance=None,
        passed=(got2 == want2)))

    # the theorem on the j-line, from the divisor side
    for c, n in ((1728, 2), (0, 2), (0, 3)):
        f = forms.FormExpression.of(forms.JMinus(Fraction(c)))
        img = operators.hecke_multiplicative(f, n, 1, prec=26).atoms[0][0].series
        TD = curve.hecke_divisor(n, curve.divisor_of_form(f, 1))
        tag = "j - 1728" if c else "j"
        out.append(_j_line_report(
            f"div(f|*T({n})) = T({n}) div(f) on the j-line, f = {tag}", img, TD))

    # the equivariance failure at p | N (level 2)
    spec = forms.hauptmodul_spec(2)
    f = forms.FormExpression.of((forms.EtaQuotient(spec), 1), shift=-512)
    img2 = operators.hecke_multiplicative(f, 2, 2, prec=34).atoms[0][0].series
    t21 = forms.eta_quotient_qexp(spec, 40)
    rhs = -t21 + 286720 + 2097152 * t21.reciprocal()
    out.append(_series_report(
        "(j_21 - 512)|*T(2) = -j_21 + 286720 + 2097152/j_21", img2, rhs, 30))

    ord_image = img2.leading_exponent()
    td = curve.hecke_divisor(2, curve.divisor_of_form(f, 2))
    out.append(EvalReport(
        name="equivariance fails at p | N: ord_inf of the image is -1, T(2) div gives -2",
        lhs=f"ord_inf(f|*T(2)) = {ord_image}",
        rhs=f"T(2)div(f) coefficient at inf = {td.cusp_coefficient(1, 0)}",
        exact=True, tolerance=None,
        passed=(ord_image == -1 and td.cusp_coefficient(1, 0) == -2
                and ord_image != td.cusp_coefficient(1, 0))))
    return out


def _j_line(D) -> list[int]:
    """prod (x - j(z))^{n_z} over the interior of a level-1 divisor, low
    degree first; every point needs class number one and n_z in Z_{>=0}."""
    poly = [1]
    for key, n in D.interior:
        A, B, C = key.form
        j = curve.CM_J.get(B * B - 4 * A * C)
        if j is None or n < 0 or n.denominator != 1:
            raise UnknownDivisor(f"no exact j-line factor for ({n})[{key!r}]")
        for _ in range(int(n)):
            poly = [a - j * b for a, b in zip([0] + poly, poly + [0])]
    return poly


def _j_line_report(name, img, TD) -> EvalReport:
    """div(img) = TD on X(1): the j-polynomial of the weight-0 image is
    _j_line(TD) up to its leading coefficient, and ord_inf agrees."""
    poly = curve.weight0_to_j_polynomial(img)
    monic = [poly.get(i, 0) / poly[max(poly)] for i in range(max(poly) + 1)]
    want = _j_line(TD)
    ord_inf, cusp = img.leading_exponent(), TD.cusp_coefficient(1, 0)
    show = lambda p: "[" + ", ".join(map(str, p)) + "]"
    return EvalReport(
        name=name, lhs=f"ord_inf {ord_inf}, monic j-polynomial {show(monic)}",
        rhs=f"coefficient at inf {cusp}, prod (x - j(z))^n_z {show(want)}",
        exact=True, tolerance=None, passed=(monic == want and ord_inf == cusp),
        detail="coefficients from degree 0 up; j(z) from the class-number-one table")


# ---------------------------------------------------------------------------

def suite_p_plication() -> list[EvalReport]:
    out = []
    through = 25
    for (N, m, p) in ((1, 1, 2), (1, 2, 2), (1, 1, 3), (3, 1, 2), (2, 1, 2), (2, 2, 2), (4, 1, 2)):
        # Theta(J_{N,m}|T(p)) = Theta(J_{N,pm}) + p Theta(J_{L,m/p}), L = N for
        # p coprime to N; at p | N, L = N/p and the right side also has
        # - Theta(J_{N/p,m}(p tau))
        L = N // p if N % p == 0 else N
        prec = through * p + m * p + 12
        base = niebur.harmonic_slice(N, m, prec)
        lhs = operators.hecke_additive_formula(base, 0, p, N=N).theta()
        rhs = niebur.harmonic_slice(N, p * m, through + p * m + 6).theta()
        if m % p == 0:
            rhs = rhs + p * niebur.harmonic_slice(L, m // p, through + 6).theta()
        if L < N:
            rhs = rhs - niebur.harmonic_slice(L, m, through + 6).rescale_exponents(p).theta()
            name = f"p-plication at p | N (N,m,p)=({N},{m},{p})"
        else:
            name = f"p-plication (N,m,p)=({N},{m},{p}): T(p) slice vs slice at pm"
        out.append(_series_report(name, lhs, rhs, through))
    return out


# ---------------------------------------------------------------------------

def suite_niebur() -> list[EvalReport]:
    out = []
    P = EvalParams(truncation=300, digits=14, s=1.5)

    tau = 0.25 + 1j
    f0 = niebur.niebur_value(1, 1, tau, P).value
    f1 = niebur.niebur_value(1, 1, tau + 1, P).value
    f2 = niebur.niebur_value(1, 1, -1 / tau, P).value
    for other, what in ((f1, "F(tau+1)"), (f2, "F(-1/tau)")):
        diff = abs(f0 - other)
        out.append(EvalReport(
            name=f"modular invariance |F(tau) - {what}| at N=1, m=1, s=1.5, C=300",
            lhs=f"{f0:.8g}", rhs=f"{other:.8g}", exact=False, tolerance="1e-3",
            passed=bool(diff < 1e-3), detail=f"|diff| = {diff:.3g}"))

    lhs = sum(niebur.niebur_value(1, 1, w, P).value
              for w in (2j, 0.5j, 0.5 + 0.5j))
    rhs = niebur.niebur_value(1, 2, 1j, P).value
    diff = abs(lhs - rhs)
    out.append(EvalReport(
        name="F_{1,-1}|T(2) = F_{1,-2} at tau=i, s=1.5, C=300",
        lhs=f"{lhs:.10g}", rhs=f"{rhs:.10g}", exact=False, tolerance="1e-3",
        passed=bool(diff < 1e-3), detail=f"|diff| = {diff:.3g}"))

    P2 = EvalParams(truncation=300, digits=14, s=2.0)
    lhs0 = sum(niebur.niebur_value(1, 0, w, P2).value
               for w in (2j, 0.5j, 0.5 + 0.5j))
    rhs0 = (2 ** 2 + 2 ** -1) * niebur.niebur_value(1, 0, 1j, P2).value
    rel = abs(lhs0 - rhs0) / abs(rhs0)
    out.append(EvalReport(
        name="Eisenstein eigenrelation E|T(2) = (2^2 + 2^-1) E at s=2, C=300",
        lhs=f"{lhs0:.10g}", rhs=f"{rhs0:.10g}", exact=False, tolerance="rel 1e-3",
        passed=bool(rel < 1e-3), detail=f"relative diff = {rel:.3g}"))
    return out


# ---------------------------------------------------------------------------

_SUITE_FN = {
    "bko": suite_bko,
    "equivariance": suite_equivariance,
    "divisor-hecke": suite_divisor_hecke,
    "p-plication": suite_p_plication,
    "algebra": suite_algebra,
    "niebur": suite_niebur,
}


def run_suite(name: str) -> list[EvalReport]:
    if name not in _SUITE_FN:
        raise InvalidInput(f"unknown suite {name!r}; choose from {SUITES}")
    return _SUITE_FN[name]()
