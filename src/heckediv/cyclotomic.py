"""Exact sums in cyclotomic fields Q(zeta_n): roots of unity, sums and
rational scalar multiples, with no product of two elements.

Elements are stored as dense coordinate vectors of length phi(n) in the
power basis 1, zeta, ..., zeta^(phi(n)-1), reduced modulo the n-th
cyclotomic polynomial; the powers zeta_n**k, k < n, come reduced from one
table.  Reduction keeps the representation canonical, so rationality
tests are exact: an element is rational iff every coordinate past the
constant one vanishes.

Plain rationals stay `int` (preferred, fast) or `fractions.Fraction`; a
`Cyclo` value appears only when a genuine root of unity is present.
Arithmetic demotes every rational result back to `int`/`Fraction`, so a
`Cyclo` it returns is never zero, and a `Cyclo` is always truthy: series
code tests coefficients for zero by truthiness.  Sums of mixed orders
lift both operands to the lcm order via zeta_d = zeta_n**(n/d).

Only :func:`heckediv.operators.hecke_additive_cosets` uses this field: it
sums twisted translates and certifies the sum rational.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import InvalidInput, InvariantViolation, UnsupportedParameter
from .series import _as_rational


def euler_phi(n: int) -> int:
    result = n
    p, m = 2, n
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    # exact division of integer polynomials, coefficients low-to-high
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % den[-1]:
            raise InvariantViolation(f"division by {den} is not exact over Z")
        q = c // den[-1]
        out[k] = q
        if q:
            for i, d in enumerate(den):
                num[k + i] -= q * d
    if any(num):
        raise InvariantViolation(f"division by {den} leaves the remainder {num}")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divexact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _zeta_power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """zeta_n**k reduced mod Phi_n, for k = 0 .. n-1."""
    phi = euler_phi(n)
    minpoly = cyclotomic_polynomial(n)
    top = [-c for c in minpoly[:-1]]  # x^phi = top(x)
    table = []
    cur = [1] + [0] * (phi - 1)
    for _ in range(n):
        table.append(tuple(cur))
        nxt = [0] + cur[:-1]
        lead = cur[-1]
        if lead:
            nxt = [a + lead * t for a, t in zip(nxt, top)]
        cur = nxt[:phi]
    return tuple(table)


class Cyclo:
    """An element of Q(zeta_n) in reduced power-basis coordinates."""

    __slots__ = ("order", "coords")

    def __init__(self, order: int, coords):
        coords = tuple(_as_rational(c) for c in coords)
        if len(coords) != euler_phi(order):
            raise InvalidInput(f"Q(zeta_{order}) needs {euler_phi(order)} coordinates, "
                             f"got {len(coords)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *a):
        raise AttributeError("Cyclo is immutable")

    # -- construction ------------------------------------------------

    @staticmethod
    def zeta(n: int, k: int = 1):
        """zeta_n**k, demoted to an int when it is rational."""
        k %= n
        g = gcd(k, n) if k else n
        n, k = n // g, k // g
        if n == 1:
            return 1
        if n == 2:
            return -1
        return Cyclo(n, _zeta_power_table(n)[k])._demote()

    def _demote(self):
        if all(c == 0 for c in self.coords[1:]):
            return _as_rational(self.coords[0])
        return self

    def lift(self, order: int) -> "Cyclo":
        """Re-express self in Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order:
            raise UnsupportedParameter(f"Q(zeta_{self.order}) is not in Q(zeta_{order})")
        step = order // self.order
        table = _zeta_power_table(order)
        phi = euler_phi(order)
        acc = [0] * phi
        for k, c in enumerate(self.coords):
            if c == 0:
                continue
            for i, t in enumerate(table[(k * step) % order]):
                if t:
                    acc[i] += c * t
        return Cyclo(order, acc)

    # -- arithmetic ---------------------------------------------------

    def _pair(self, other: "Cyclo"):
        """Lift self and other to their lcm order."""
        n = lcm(self.order, other.order)
        return self.lift(n), other.lift(n)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            coords = (self.coords[0] + other,) + self.coords[1:]
            return Cyclo(self.order, coords)._demote()
        if not isinstance(other, Cyclo):
            return NotImplemented
        a, b = self._pair(other)
        return Cyclo(a.order, tuple(x + y for x, y in zip(a.coords, b.coords)))._demote()

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            return 0
        return Cyclo(self.order, tuple(c * other for c in self.coords))._demote()

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coords[0] == other
        if not isinstance(other, Cyclo):
            return NotImplemented
        a, b = self._pair(other)
        return a.coords == b.coords

    def __hash__(self):
        return hash((self.order, self.coords))

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coords):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                zk = f"z{self.order}" + (f"^{k}" if k > 1 else "")
                terms.append(zk if c == 1 else f"{c}*{zk}")
        return " + ".join(terms) if terms else "0"

    # -- predicates ---------------------------------------------------

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def rational_part(self):
        return _as_rational(self.coords[0])


def coeff_rational(x):
    """Return x as int/Fraction if it is rational, else None."""
    if isinstance(x, Cyclo):
        return x.rational_part() if x.is_rational() else None
    return _as_rational(x)
