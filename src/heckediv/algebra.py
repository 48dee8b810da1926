"""The abstract Hecke algebra R_0(N).

Double cosets Gamma_0(N) alpha Gamma_0(N) for alpha in Delta_N (positive
determinant, upper-left entry coprime to N, lower-left divisible by N) are
labelled by their elementary divisors (a, d) with a | d, ad = det, and
(a, N) = 1; matrices are plain 4-tuples (a, b, c, d).

Multiplication enumerates products of the upper-triangular left-coset
representatives of two double cosets, groups them by left coset, labels
each group by elementary divisors and counts multiplicities.  A product
(a b; 0 d) of two such representatives is again upper triangular, and
(a, b mod d, d) is an exact key of its left coset at every level N: if
x = (a b; 0 d) and y = (a' b'; 0 d') have x y^-1 in SL_2(Z), then
x y^-1 = (a/a', (b a' - a b')/(a' d'); 0, d/d') has integral diagonal
entries of product 1, both positive, so a = a' and d = d', and then
b - b' = d times an integer.  Conversely b = b' mod d makes x y^-1 =
(1 (b-b')/d; 0 1), which lies in Gamma_0(N).  So no P^1(Z/N) class is
read.  The count per left coset inside one double coset is checked
constant, which is exactly the well-definedness of the structure
constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import InvariantViolation, UnsupportedParameter
from .forms import check_level, prime_factors

Mat = tuple[int, int, int, int]


def mat_mul(x: Mat, y: Mat) -> Mat:
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_content(x: Mat) -> int:
    return gcd(gcd(abs(x[0]), abs(x[1])), gcd(abs(x[2]), abs(x[3])))


# ---------------------------------------------------------------------------
# P^1(Z/N) labels
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _units(N: int) -> tuple[int, ...]:
    return tuple(u for u in range(1, N + 1) if gcd(u, N) == 1)


def p1_label(c: int, d: int, N: int) -> tuple[int, int]:
    """Canonical representative of (c : d) in P^1(Z/N)."""
    if N == 1:
        return (0, 0)
    c %= N
    d %= N
    best = None
    for u in _units(N):
        cand = ((u * c) % N, (u * d) % N)
        if best is None or cand < best:
            best = cand
    return best


# ---------------------------------------------------------------------------
# coset representatives
# ---------------------------------------------------------------------------

def _upper_reps(N: int, n: int) -> list[Mat]:
    # complete system for Gamma_0(N) \ {alpha in Delta_N : det alpha = n}
    reps = []
    for d in range(1, n + 1):
        if n % d == 0:
            a = n // d
            if gcd(a, N) == 1:
                reps.extend((a, b, 0, d) for b in range(d))
    return reps


def left_coset_reps(N: int, n: int) -> list[Mat]:
    """Left-coset representatives of the determinant-n layer of Delta_N.

    For gcd(n, N) = 1 these are all (a b; 0 d) with ad = n, 0 <= b < d
    (count sigma_1(n)); for a prime p | N only the p matrices (1 j; 0 p)
    survive the (a, N) = 1 condition.
    """
    check_hecke_parameter(n, N)
    return _upper_reps(N, n)


def check_hecke_parameter(n: int, N: int, name: str = "T") -> None:
    """Refuse N < 1, n < 1, and a composite n sharing a factor with the level."""
    check_level(N)
    if n < 1:
        raise UnsupportedParameter("Hecke parameter must be positive")
    if gcd(n, N) > 1 and prime_factors(n) != [n]:
        raise UnsupportedParameter(f"{name}({n}) at level {N} needs gcd(n, N) = 1 or n = p | N")


def double_coset_reps(a: int, d: int, N: int) -> list[Mat]:
    """Left-coset representatives of the single double coset T(a, d)."""
    if gcd(a, N) != 1 or d % a != 0:
        raise UnsupportedParameter(f"({a},{d}) is not a valid label at level {N}")
    n = a * d
    return [m for m in _upper_reps(N, n) if mat_content(m) == a]


# ---------------------------------------------------------------------------
# the algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraElement:
    """Formal integer combination of double cosets T(a, d) at level N."""
    N: int
    terms: tuple[tuple[tuple[int, int], int], ...]  # ((a, d), multiplicity)

    def __post_init__(self):
        """Refuse a label that names no double coset at level N, however
        the element is built, and a level N < 1."""
        check_level(self.N)
        for (a, d), _ in self.terms:
            if a <= 0 or d <= 0 or d % a != 0 or gcd(a, self.N) != 1:
                raise UnsupportedParameter(
                    f"label ({a},{d}) violates a | d, (a,N)=1 at level {self.N}")

    @staticmethod
    def make(N: int, terms: dict[tuple[int, int], int]) -> "AlgebraElement":
        clean = {lab: m for lab, m in terms.items() if m != 0}
        return AlgebraElement(N, tuple(sorted(clean.items())))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.N != other.N:
            raise UnsupportedParameter(
                f"cannot add elements of R_0({self.N}) and R_0({other.N})")
        acc = dict(self.terms)
        for k, m in other.terms:
            acc[k] = acc.get(k, 0) + m
        return AlgebraElement.make(self.N, acc)

    def __rmul__(self, k: int) -> "AlgebraElement":
        if isinstance(k, int):
            return AlgebraElement.make(self.N, {lab: k * m for lab, m in self.terms})
        return NotImplemented

    def to_json(self) -> dict:
        return {"N": self.N,
                "terms": [{"a": a, "d": d, "mult": m} for (a, d), m in self.terms]}


def t_ad(a: int, d: int, N: int) -> AlgebraElement:
    return AlgebraElement.make(N, {(a, d): 1})


def t_n(n: int, N: int) -> AlgebraElement:
    """T(n) = sum of T(a, d) over ad = n, a | d, (a, N) = 1."""
    if n < 1:
        raise UnsupportedParameter("Hecke parameter must be positive")
    terms = {}
    for a in range(1, n + 1):
        if n % a == 0:
            d = n // a
            if a <= d and d % a == 0 and gcd(a, N) == 1:
                terms[(a, d)] = 1
    return AlgebraElement.make(N, terms)


def _multiply_cosets(lab1, lab2, N) -> dict[tuple[int, int], int]:
    """Structure constants of T(lab1) * T(lab2) by coset enumeration."""
    reps2 = double_coset_reps(*lab2, N)
    groups: dict[tuple[int, int, int], int] = {}
    for a1, b1, _, d1 in double_coset_reps(*lab1, N):
        for a2, b2, _, d2 in reps2:
            d = d1 * d2
            key = (a1 * a2, (a1 * b2 + b1 * d2) % d, d)
            groups[key] = groups.get(key, 0) + 1
    counts: dict[tuple[int, int], list[int]] = {}
    for (a, b, d), cnt in groups.items():
        g = gcd(a, b, d)
        counts.setdefault((g, a * d // g), []).append(cnt)
    out = {}
    for label, cnts in counts.items():
        if any(c != cnts[0] for c in cnts):
            raise InvariantViolation(f"inconsistent multiplicities for {label}: {cnts}")
        out[label] = cnts[0]
    return out


def algebra_multiply(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    """Product in R_0(N) with multiplicities m(u v; w)."""
    if u.N != v.N:
        raise UnsupportedParameter("elements live at different levels")
    N = u.N
    acc: dict[tuple[int, int], int] = {}
    for lab1, m1 in u.terms:
        for lab2, m2 in v.terms:
            for lab, mult in _multiply_cosets(lab1, lab2, N).items():
                acc[lab] = acc.get(lab, 0) + m1 * m2 * mult
    return AlgebraElement.make(N, acc)
