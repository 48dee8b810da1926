"""Points and divisors on X_0(N).

Interior points are quadratic irrationals z = (-B + sqrt(B^2-4AC))/(2A)
stored as integral binary quadratic forms [A, B, C] with A > 0 and
negative discriminant, so every comparison is exact integer arithmetic.
A Gamma_0(N)-class gets the canonical key

    (level-1 reduced primitive form,  min P^1(Z/N) label over the
     stabilizer translates of the reduction witness),

which simultaneously solves level-1 reduction (N = 1: the label is
trivial) and gives an exact equivalence test at higher levels.  The
fundamental-domain convention is -1/2 <= Re z < 1/2, |z| >= 1 with the
|z| = 1 boundary tie broken towards Re z <= 0, i.e. the classical
-A < B <= A <= C (B >= 0 when A = C) reduction.

The key and the period come from one stabilizer orbit: if g in SL_2(Z)
moves the reduced form to z and (c, d) is its bottom row, the label is
the least one over the orbit of the translates (c, d) s, s in the
PSL_2(Z)-stabilizer of the form, and the period of z is
|stabilizer| / |orbit|.

A cusp a/c in lowest terms has the closed-form class invariant
(d, a (c/d) mod gcd(d, N/d)) with d = gcd(c, N) (Cremona, *Algorithms for
Modular Elliptic Curves*, 2nd ed., ch. 2): two cusps are Gamma_0(N)-
equivalent exactly when their invariants agree, and every d | N with every
unit x mod gcd(d, N/d) occurs once.  The class (d, x) is represented by
a/d with the least such a >= 1 (0/1 for d = 1, infinity for d = N), of
width N / gcd(d^2, N).

Level-1 atoms read their zeros from CM_J, the one table of CM j-values.
Divisors hold these exact keys only, so this module needs no numeric backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import forms
from .algebra import Mat, mat_mul, p1_label, left_coset_reps
from .errors import (InvalidInput, NotPolynomialInJ, UnknownDivisor,
                     UnsupportedParameter)
from .series import PuiseuxSeries

S_MAT: Mat = (0, -1, 1, 0)
U_MAT: Mat = (0, -1, 1, 1)  # ST, fixes omega = exp(2 pi i / 3)


# ---------------------------------------------------------------------------
# Heegner points and reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class HeegnerPoint:
    """z = (-B + sqrt(B^2 - 4AC)) / (2A) in the upper half-plane."""
    A: int
    B: int
    C: int

    def __post_init__(self):
        if self.A <= 0 or self.discriminant >= 0:
            raise InvalidInput(f"[{self.A},{self.B},{self.C}] is not a point of H")

    @property
    def discriminant(self) -> int:
        return self.B * self.B - 4 * self.A * self.C

    @property
    def content(self) -> int:
        return gcd(gcd(abs(self.A), abs(self.B)), abs(self.C))

    def primitive(self) -> "HeegnerPoint":
        g = self.content
        return self if g == 1 else HeegnerPoint(self.A // g, self.B // g, self.C // g)

    def approx(self) -> complex:
        d = -self.discriminant
        return complex(-self.B / (2 * self.A), (d ** 0.5) / (2 * self.A))


OMEGA = HeegnerPoint(1, 1, 1)   # e^(2 pi i/3)
POINT_I = HeegnerPoint(1, 0, 1)


def act_matrix(m: Mat, z: HeegnerPoint) -> HeegnerPoint:
    """Image of z under the Moebius action of an integer matrix with
    positive determinant, as an exact quadratic form (content kept)."""
    a, b, c, d = m
    A, B, C = z.A, z.B, z.C
    A2 = A * d * d - B * c * d + C * c * c
    B2 = -2 * A * b * d + B * (a * d + b * c) - 2 * C * a * c
    C2 = A * b * b - B * a * b + C * a * a
    if A2 < 0:
        A2, B2, C2 = -A2, -B2, -C2
    return HeegnerPoint(A2, B2, C2)


def _gauss_reduce(z: HeegnerPoint) -> tuple[HeegnerPoint, Mat]:
    """Reduce a primitive form; returns (reduced, witness) with
    z_reduced = witness . z.  Reduced means -A < B <= A <= C with B >= 0
    when A = C, i.e. -1/2 <= Re z < 1/2, |z| >= 1, ties towards Re z <= 0."""
    A, B, C = z.A, z.B, z.C
    wit: Mat = (1, 0, 0, 1)
    while True:
        j = (B + A - 1) // (2 * A)  # B - 2Aj lands in (-A, A]
        if j:
            C = A * j * j - B * j + C
            B = B - 2 * A * j
            wit = mat_mul((1, j, 0, 1), wit)
        if A > C or (A == C and B < 0):
            A, B, C = C, -B, A
            wit = mat_mul(S_MAT, wit)
        else:
            break
    return HeegnerPoint(A, B, C), wit


def _stabilizer_mod_pm(form: tuple[int, int, int]) -> list[Mat]:
    """Coset representatives of the PSL_2(Z)-stabilizer of a reduced
    primitive form (nontrivial only at i and omega)."""
    if form == (1, 0, 1):
        return [(1, 0, 0, 1), S_MAT]
    if form == (1, 1, 1):
        return [(1, 0, 0, 1), U_MAT, mat_mul(U_MAT, U_MAT)]
    return [(1, 0, 0, 1)]


def _class_label(form: tuple[int, int, int], c: int, d: int,
                 N: int) -> tuple[tuple[int, int], int]:
    """(label, period) of the Gamma_0(N)-class of g . form, for a reduced
    primitive form and the bottom row (c, d) of any g in SL_2(Z).

    The label is the least P^1(Z/N) label over the stabilizer translates
    (c, d) s.  g s g^{-1} lies in Gamma_0(N) exactly when (c, d) s and
    (c, d) name one P^1(Z/N) class, so the period is |stabilizer| / |orbit|."""
    stab = _stabilizer_mod_pm(form)
    orbit = {p1_label(c * s0 + d * s2, c * s1 + d * s3, N) for s0, s1, s2, s3 in stab}
    return min(orbit), len(stab) // len(orbit)


@lru_cache(maxsize=None)
def _p1_points(N: int) -> tuple[tuple[int, int], ...]:
    seen = set()
    for c in range(N):
        for d in range(N):
            if gcd(gcd(c, d), N) == 1:
                seen.add(p1_label(c, d, N))
    return tuple(sorted(seen))


def p1_lift(label: tuple[int, int], N: int) -> Mat:
    """A deterministic SL_2(Z) matrix whose bottom row represents the given
    P^1(Z/N) class."""
    c0, d0 = label
    if N == 1:
        return (1, 0, 0, 1)
    if c0 % N == 0:
        return (1, 0, 0, 1)  # (0 : 1) class
    c = c0
    d = d0
    while gcd(c, d) != 1:
        d += N
    # extend (c, d) to an SL2 matrix: a*d - b*c = 1
    a, b = _bezout(d, c)
    return (a, -b, c, d)


def _bezout(x: int, y: int) -> tuple[int, int]:
    """(u, v) with u*x + v*y = gcd(x, y)."""
    if y == 0:
        return (1 if x >= 0 else -1, 0)
    u0, v0, u1, v1 = 1, 0, 0, 1
    while y:
        q = x // y
        x, y, u0, v0, u1, v1 = y, x - q * y, u1, v1, u0 - q * u1, v0 - q * v1
    return u0, v0


@dataclass(frozen=True, slots=True)
class CanonicalPoint:
    """Exact key of a Gamma_0(N)-class of CM points."""
    N: int
    form: tuple[int, int, int]       # level-1 reduced primitive form
    label: tuple[int, int]           # canonical coset invariant

    def representative(self) -> HeegnerPoint:
        g = p1_lift(self.label, self.N)
        return act_matrix(g, HeegnerPoint(*self.form))

    def period(self) -> int:
        return _class_label(self.form, *self.label, self.N)[1]

    def __repr__(self):
        if self.N == 1 or self.label == (0, 0):
            return f"[{self.form[0]},{self.form[1]},{self.form[2]}]"
        return f"[{self.form[0]},{self.form[1]},{self.form[2]};{self.label[0]}:{self.label[1]}]"


def reduce_point(z: HeegnerPoint, N: int) -> tuple[CanonicalPoint, Mat]:
    """Canonical Gamma_0(N)-class key of z plus an SL_2(Z) witness gamma
    with gamma . z equal to the level-1 reduced point."""
    red, wit = _gauss_reduce(z.primitive())
    form = (red.A, red.B, red.C)
    # (-wit[2], wit[0]) is the bottom row of wit^{-1}, which maps form to z
    return CanonicalPoint(N, form, _class_label(form, -wit[2], wit[0], N)[0]), wit


def period(z: HeegnerPoint, N: int) -> int:
    """Order of the PSL_2-stabilizer of [z] in Gamma_0(N): 2 at points over
    i, 3 at points over omega (when the elliptic element survives), else 1."""
    red, wit = _gauss_reduce(z.primitive())
    return _class_label((red.A, red.B, red.C), -wit[2], wit[0], N)[1]


# ---------------------------------------------------------------------------
# cusps
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CuspClass:
    """Canonical cusp a/c of X_0(N) ((1, 0) is the infinite cusp)."""
    a: int
    c: int
    width: int

    def __repr__(self):
        return "inf" if self.c == 0 else f"{self.a}/{self.c}"

    @property
    def label(self) -> str:
        return repr(self)


def cusp_width(c: int, N: int) -> int:
    """Width of the cusp a/c: least h > 0 with sigma T^h sigma^{-1} in
    Gamma_0(N); the conjugate has lower-left entry -c^2 h."""
    return N // gcd(c * c, N)


def _cusp_class(d: int, x: int, N: int) -> CuspClass:
    """The representative of the cusp class (d, x), d | N and x a unit
    mod gcd(d, N/d): a/d with the least a >= 1 congruent to x and coprime
    to d; 0/1 for d = 1 and infinity for d = N."""
    if d == N:
        return CuspClass(1, 0, 1)
    if d == 1:
        return CuspClass(0, 1, N)
    g = gcd(d, N // d)
    a = x or 1
    while gcd(a, d) != 1:
        a += g
    return CuspClass(a, d, cusp_width(d, N))


@lru_cache(maxsize=None)
def cusps(N: int) -> tuple[CuspClass, ...]:
    """A complete system of inequivalent cusps of X_0(N) with widths: one
    representative per class (d, x), d | N, x in (Z/gcd(d, N/d))^*."""
    out = []
    for d in range(1, N + 1):
        if N % d == 0:
            g = gcd(d, N // d)
            out += [_cusp_class(d, x, N) for x in range(g) if gcd(x, g) == 1]
    return tuple(sorted(out, key=lambda cc: (cc.c, cc.a)))


def canonical_cusp(a: int, c: int, N: int) -> CuspClass:
    """Canonical representative of the cusp a/c (use (1, 0) for infinity)."""
    if c == 0:
        return _cusp_class(N, 0, N)
    g = gcd(a, c)
    a, c = a // g, c // g
    d = gcd(c, N)
    return _cusp_class(d, a * (c // d) % gcd(d, N // d), N)


def act_cusp(m: Mat, cusp: CuspClass, N: int) -> CuspClass:
    """Canonical representative of the image of a cusp under an integer
    matrix of positive determinant."""
    a, b, c, d = m
    return canonical_cusp(a * cusp.a + b * cusp.c, c * cusp.a + d * cusp.c, N)


# ---------------------------------------------------------------------------
# divisors
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Divisor:
    """Finite Q-combination of canonical points of X_0(N)."""
    N: int
    interior: tuple[tuple[CanonicalPoint, Fraction], ...]
    cusp_part: tuple[tuple[CuspClass, Fraction], ...]

    @staticmethod
    def make(N: int, interior=None, cusp_part=None) -> "Divisor":
        def part(coeffs):
            # each key once (a dict), its coefficient a nonzero Fraction
            items = [(k, Fraction(v)) for k, v in (coeffs or {}).items()]
            return tuple(sorted(((k, v) for k, v in items if v), key=lambda kv: repr(kv[0])))

        return Divisor(N, part(interior), part(cusp_part))

    def interior_dict(self) -> dict:
        return dict(self.interior)

    def cusp_dict(self) -> dict:
        return dict(self.cusp_part)

    def coefficient(self, key) -> Fraction:
        if isinstance(key, CuspClass):
            return self.cusp_dict().get(key, Fraction(0))
        return self.interior_dict().get(key, Fraction(0))

    def cusp_coefficient(self, a: int, c: int) -> Fraction:
        return self.coefficient(canonical_cusp(a, c, self.N))

    @property
    def degree(self) -> Fraction:
        return (sum((v for _, v in self.interior), Fraction(0))
                + sum((v for _, v in self.cusp_part), Fraction(0)))

    def __add__(self, other: "Divisor") -> "Divisor":
        if self.N != other.N:
            raise UnsupportedParameter(
                f"cannot add divisors on X_0({self.N}) and X_0({other.N})")
        inter = self.interior_dict()
        for k, v in other.interior:
            inter[k] = inter.get(k, Fraction(0)) + v
        cp = self.cusp_dict()
        for k, v in other.cusp_part:
            cp[k] = cp.get(k, Fraction(0)) + v
        return Divisor.make(self.N, inter, cp)

    def __rmul__(self, s) -> "Divisor":
        s = Fraction(s)
        return Divisor.make(self.N,
                            {k: s * v for k, v in self.interior},
                            {k: s * v for k, v in self.cusp_part})

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-1) * other

    def __repr__(self):
        parts = [f"({v})[{k!r}]" for k, v in self.interior]
        parts += [f"({v})[{k!r}]" for k, v in self.cusp_part]
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        inter = []
        for k, v in self.interior:
            rep = k.representative()
            inter.append({"A": rep.A, "B": rep.B, "C": rep.C, "coeff": str(v)})
        return {
            "N": self.N,
            "interior": inter,
            "cusps": [{"cusp": k.label, "coeff": str(v)}
                      for k, v in self.cusp_part],
        }


def point_divisor(N: int, z: HeegnerPoint, coeff=1) -> Divisor:
    key, _ = reduce_point(z, N)
    return Divisor.make(N, {key: Fraction(coeff)}, {})


def cusp_divisor(N: int, a: int, c: int, coeff=1) -> Divisor:
    return Divisor.make(N, {}, {canonical_cusp(a, c, N): Fraction(coeff)})


# ---------------------------------------------------------------------------
# Hecke action on divisors
# ---------------------------------------------------------------------------

def hecke_divisor(n: int, D: Divisor) -> Divisor:
    """T(n) D = sum_z n_z sum_i [alpha_i z] on X_0(D.N), every image point
    reduced to its canonical class."""
    N = D.N
    reps = left_coset_reps(N, n)
    inter: dict = {}
    cp: dict = {}
    for key, v in D.interior:
        z = key.representative()
        for m in reps:
            img, _ = reduce_point(act_matrix(m, z), N)
            inter[img] = inter.get(img, Fraction(0)) + v
    for cc, v in D.cusp_part:
        for m in reps:
            img = act_cusp(m, cc, N)
            cp[img] = cp.get(img, Fraction(0)) + v
    return Divisor.make(N, inter, cp)


# ---------------------------------------------------------------------------
# divisors of form expressions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _classes_over(form: tuple[int, int, int], N: int) -> tuple[tuple[CanonicalPoint, int], ...]:
    """Gamma_0(N)-classes lying over a reduced primitive level-1 form, with
    their periods: one class label per P^1(Z/N) point (c : d), the bottom
    row of a g that moves the form to a point of the class."""
    out = {}
    for c, d in _p1_points(N):
        label, per = _class_label(form, c, d, N)
        out.setdefault(CanonicalPoint(N, form, label), per)
    return tuple(out.items())


# j at the CM points of class number one, by discriminant: the rational
# j-values of CM points (Heegner, Stark)
CM_J = {-3: 0, -4: 1728, -7: -3375, -8: 8000, -11: -32768, -12: 54000,
        -16: 287496, -19: -884736, -27: -12288000, -28: 16581375,
        -43: -884736000, -67: -147197952000, -163: -262537412640768000}

# (N, t) -> the form of the point where the eta Hauptmodul of level N is t
HAUPTMODUL_CM_VALUES = {(2, 512): (1, 0, 1)}  # j_{2,1}(i) = 512


def _cm_fiber(D: int, ord_z: int, N: int) -> dict:
    """The classes of X_0(N) over the principal form of discriminant D,
    each with coefficient ord_z / period."""
    b = D % 2
    return {key: Fraction(ord_z, per)
            for key, per in _classes_over((1, b, (b - D) // 4), N)}


def _atom_divisor(atom, N: int) -> Divisor:
    if isinstance(atom, forms.Eisenstein):
        # where dim M_k = 1, E_k = E4^a E6^b (4a + 6b = k, a < 3, b < 2):
        # order a over omega, b over i; E12 and E16 have a zero with no key
        if atom.k not in (4, 6, 8, 10, 14):
            raise UnknownDivisor(f"no divisor data for E{atom.k}")
        b = atom.k % 4 // 2
        return Divisor.make(N, {**_cm_fiber(-3, (atom.k - 6 * b) // 4, N),
                                **_cm_fiber(-4, b, N)}, {})
    if isinstance(atom, forms.JMinus):
        D = next((D for D, j in CM_J.items() if j == atom.c), None)
        if D is None:
            raise UnknownDivisor(f"j - {atom.c} has no exact divisor: {atom.c} is "
                                 "not the j-invariant of a class-number-one CM point")
        # order e_z (the stabilizer's) at z on H, and -h at a width-h cusp, as
        # a level-1 form has the same expansion at every cusp
        return Divisor.make(N, _cm_fiber(D, {-3: 3, -4: 2}.get(D, 1), N),
                            {cc: Fraction(-cc.width) for cc in cusps(N)})
    if isinstance(atom, forms.EtaQuotient):
        return _eta_divisor(atom.spec, N)
    raise UnknownDivisor(f"atom {atom!r} has no symbolic divisor")


def _eta_divisor(spec: forms.EtaQuotientSpec, N: int) -> Divisor:
    cp = {}
    for cc in cusps(N):
        c = N if cc.c == 0 else cc.c
        cp[cc] = forms.ligozat_order(spec, N, c)
    return Divisor.make(N, {}, cp)


def divisor_of_form(expr: forms.FormExpression, N: int) -> Divisor:
    """Exact divisor on X_0(N) of an expression with atomwise known data;
    degree k mu(N) / 12."""
    expr.check_level(N)
    if expr.shift:
        return _shifted_divisor(expr, N)
    total = Divisor.make(N, {}, {})
    for atom, e in expr.atoms:
        total = total + e * _atom_divisor(atom, N)
    return total


def _shifted_divisor(expr: forms.FormExpression, N: int) -> Divisor:
    """Divisor of (Hauptmodul + shift): a degree-one function on a
    genus-zero X_0(N), so a simple zero at the fiber of -shift and the
    pole divisor of the Hauptmodul itself.  (j - c) + shift resolves at
    every level."""
    value = -expr.shift
    if len(expr.atoms) == 1 and expr.atoms[0][1] == 1:
        atom = expr.atoms[0][0]
        if (isinstance(atom, forms.EtaQuotient)
                and N in forms.GENUS_ZERO_ETA_LEVELS
                and atom.spec == forms.hauptmodul_spec(N)):
            fiber = HAUPTMODUL_CM_VALUES.get((N, Fraction(value)))
            if fiber is None:
                raise UnknownDivisor(
                    f"no registered fiber for Hauptmodul value {value} at level {N}")
            key, _ = reduce_point(HeegnerPoint(*fiber), N)
            return Divisor.make(N, {key: Fraction(1)},
                                {canonical_cusp(1, 0, N): Fraction(-1)})
        if isinstance(atom, forms.JMinus):
            # (j - c) + shift = j - (c - shift)
            return _atom_divisor(forms.JMinus(atom.c - expr.shift), N)
    raise UnknownDivisor("additive shifts are only resolved for Hauptmoduln and j - c")


# ---------------------------------------------------------------------------
# weight-0 level-1 series as polynomials in j
# ---------------------------------------------------------------------------

def weight0_to_j_polynomial(f: PuiseuxSeries) -> dict[int, Fraction]:
    """The unique P with P(j) = f through the known precision of f.

    Raises NotPolynomialInJ when the remainder fails to vanish (wrong level
    or not enough precision)."""
    if f.D != 1:
        raise NotPolynomialInJ("series has fractional exponents")
    poly: dict[int, Fraction] = {}
    g = f
    while not g.is_zero() and g.order < 0:
        m = -g.order
        a = Fraction(g.leading_coefficient())
        poly[m] = a
        jm = forms.j_function(g.cutoff + m + 2) ** m
        g = g - a * jm
    if g.cutoff <= 0:
        raise NotPolynomialInJ("no constant term within precision")
    c0 = Fraction(g.coefficient(0))
    if c0:
        poly[0] = c0
        g = g - c0
    if not g.is_zero():
        raise NotPolynomialInJ(
            f"remainder {g!r} does not vanish; not a polynomial in j")
    return poly
