"""Truncated Laurent/Puiseux series with exact coefficients.

A series lives on the exponent grid (1/D)*Z.  It stores the numerators of
its known window: ``coeffs[i]`` is the coefficient of ``q**((order+i)/D)``,
and everything at exponents ``>= cutoff/D`` (``cutoff = order + len(coeffs)``)
is unknown.  Two facts are part of the representation contract:

* exponents below ``order/D`` and exponents off the grid carry coefficient
  exactly zero (a series *lives* on its grid; lifting to a finer grid adds
  known zeros, it does not lose information);
* a nonzero series has a nonzero leading coefficient.  The zero-to-precision
  series is stored with an empty coefficient tuple and ``order == cutoff``
  marking where knowledge ends;
* a series is stored on the coarsest grid that holds its nonzero
  exponents and its cutoff, so normalising never claims an exponent
  beyond the known window.

Coefficients are ``int`` (preferred) or ``fractions.Fraction``, and so
are scalar operands; a coefficient is zero exactly when it is falsy.  The
kernel multiplies no other field.  The additive coset oracle of
:mod:`heckediv.operators`, the only code that puts elements of Q(zeta_d)
into a series, twists its translates and certifies their sum itself;
such coefficients pass through the constructor, sums and scalar
multiples unchanged.  Arithmetic never extends a knowledge window, only
shrinks it, following the conservative propagation rules: products know
``min(cutoff_a + order_b, cutoff_b + order_a)`` grid units.

Two windows multiply by Kronecker substitution, whatever their width:
one bigint product of the two windows, each cleared to one denominator
and packed into one ``int``.

One O(n^2) triangular solve, :func:`solve_coeffs`, divides power
series: x = b/a from sum_{i<=m} a_i x_{m-i} = b_m.  The reciprocal is
b = 1, and the log recurrence :func:`log_derivative_coeffs` (f to
Theta(f)/f, no series division) is b_m = (h + m) c_m.  Its inverse, the
exp recurrence :func:`exp_coeffs` (Theta(f)/f back to f), builds the eta
quotients of :mod:`heckediv.forms`, Delta among them, and the rational
multiplicative Hecke route runs both.  Each divides its row once, by
:func:`exact_div`: an int where the row is integral, else a reduced
Fraction, so integral data stay in Z.  The log recurrence is the one
route to Theta(f)/f: :meth:`PuiseuxSeries.log_derivative` is one pass of
it over the series' window, and the atoms of :mod:`heckediv.forms` run
it on the expansions of E_k.  Row m of each reads only the inputs up to
m and the rows before it, so a known prefix resumes it: the store of
:mod:`heckediv.forms` keeps Theta(E_k)/E_k, the eta units and j that way
and computes only the rows a longer request adds.

All values are immutable; operations are pure functions, so series may be
shared freely between threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd
from operator import mul

from .errors import InvalidInput, NonUnitLeading, PrecisionExhausted, UnsupportedParameter


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _as_rational(x):
    """Normalize a rational coefficient: Fraction with denominator 1 -> int."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def exact_div(x, y):
    """x / y for rational x and y, kept an int when it is one: two ints take
    one divmod, a Fraction operand the Fraction division (divmod is slower)."""
    if type(x) is int and type(y) is int:
        q, r = divmod(x, y)
        return Fraction(x, y) if r else q
    return _as_rational(Fraction(x) / y)


def solve_coeffs(a, b, n: int, prefix=()) -> list:
    """The first n terms x_0, ..., x_{n-1} of the solution of the
    lower-triangular Toeplitz system sum_{i=0}^{m} a_i x_{m-i} = b_m, for
    rational a_i and b_m with a_0 != 0 and a_0, ..., a_{n-1},
    b_0, ..., b_{n-1} known: x = b/a as power series, one O(n^2) pass,
    each row divided by a_0 with :func:`exact_div`.

    Row m reads only a_0, ..., a_m, b_m and the rows before it, so a
    known `prefix` x_0, ..., x_{p-1} (p <= n, as an earlier call returned
    it) resumes the pass at m = p: only the missing rows are computed,
    and the result equals the one-pass result."""
    a0 = a[0]
    x = list(prefix)
    for m in range(len(x), n):
        x.append(exact_div(b[m] - sum(map(mul, a[1:m + 1], reversed(x))), a0))
    return x


def log_derivative_coeffs(c, h, n: int, prefix=()) -> list:
    """The coefficients l_0, ..., l_{n-1} of Theta(f)/f for
    f = q^h (c_0 + c_1 q + ...) with rational c_i, c_0 != 0 and c_0, ...,
    c_{n-1} known: l_0 = h, and l_m solves the recurrence
    sum_{i=0}^{m} c_i l_{m-i} = (h + m) c_m, one :func:`solve_coeffs`
    pass that a known `prefix` resumes."""
    return solve_coeffs(c, [(h + m) * c[m] for m in range(n)], n, prefix)


def exp_coeffs(c0, l, n: int, prefix=()) -> list:
    """The inverse of :func:`log_derivative_coeffs`: the coefficients
    c_0, ..., c_{n-1} of the unit u = c_0 + c_1 q + ... with
    Theta(q^h u)/(q^h u) = l, for rational c_0 != 0 and l_1, ..., l_{n-1}
    known.  l_0 (the order h) is not read: c_m solves the exp recurrence
    m c_m = sum_{i=1}^{m} l_i c_{m-i}, one O(n^2) pass (Knuth, TAOCP
    vol. 2, 4.7), each row divided by m with :func:`exact_div`.  A known
    `prefix` c_0, ..., c_{p-1} resumes the pass at m = p, as for
    :func:`solve_coeffs`."""
    c = list(prefix) or [c0]
    for m in range(len(c), n):
        c.append(exact_div(sum(map(mul, l[1:m + 1], reversed(c))), m))
    return c


def _is_rational(coeffs) -> bool:
    return set(map(type, coeffs)) <= {int, Fraction}


def _cleared(coeffs):
    """(integers, L) with coeffs[i] == integers[i] / L for rational coeffs."""
    L = math.lcm(*[c.denominator for c in coeffs])
    if L == 1:
        return coeffs, 1
    return [c.numerator * (L // c.denominator) for c in coeffs], L


def _pack(xs, w: int) -> int:
    """sum_i xs[i] * 2^(8 w i), each |xs[i]| < 2^(8 w): the positive
    entries minus the negated negative ones, each as w little-endian bytes."""
    zero = bytes(w)
    packed = int.from_bytes(
        b"".join(x.to_bytes(w, "little") if x > 0 else zero for x in xs), "little")
    if min(xs) < 0:
        packed -= int.from_bytes(
            b"".join((-x).to_bytes(w, "little") if x < 0 else zero for x in xs), "little")
    return packed


def _kronecker_product(x, y, n: int) -> list:
    """The first n coefficients of the product of two rational windows by
    Kronecker substitution (Harvey, J. Symbolic Comput. 44, 2009).

    Each window is cleared to one denominator and packed into one int at
    a slot width of w bytes, wide enough that no product coefficient
    (|c_k| < n * 2^(bits A + bits B)) reaches the 2^(8w - 1) bias of its
    slot; one bigint product then holds every c_k, and adding the bias
    to the first n slots makes each slot's bytes read as c_k + 2^(8w - 1).
    A square packs once and squares the int."""
    xs, lx = _cleared(x[:n])
    ys, ly = (xs, lx) if y is x else _cleared(y[:n])
    bits = max(map(int.bit_length, xs)) + max(map(int.bit_length, ys)) + n.bit_length() + 2
    w = (bits + 7) // 8
    size = w * n
    px = _pack(xs, w)
    prod = px * px if ys is xs else px * _pack(ys, w)
    bias = int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")
    low = (prod + bias) & ((1 << 8 * size) - 1)
    raw = memoryview(low.to_bytes(size, "little"))
    half = 1 << (8 * w - 1)
    out = [int.from_bytes(raw[i:i + w], "little") - half for i in range(0, size, w)]
    den = lx * ly
    if den != 1:
        out = [Fraction(c, den) for c in out]
    return out


class PuiseuxSeries:
    __slots__ = ("D", "order", "coeffs")

    def __init__(self, D: int, order: int, coeffs):
        coeffs = list(coeffs)
        # strip leading known zeros so the leading coefficient is nonzero
        i = 0
        while i < len(coeffs) and not coeffs[i]:
            i += 1
        order += i
        coeffs = [c if type(c) is int else _as_rational(c) for c in coeffs[i:]]
        D, order, coeffs = self._reduced_grid(D, order, coeffs)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *a):
        raise AttributeError("PuiseuxSeries is immutable")

    @staticmethod
    def _reduced_grid(D, order, coeffs):
        # the coarsest grid that holds every nonzero exponent and the
        # cutoff: a coarser grid would claim exponents beyond the window
        g = gcd(D, order + len(coeffs))
        for i, c in enumerate(coeffs):
            if c:
                g = gcd(g, order + i)
                if g == 1:
                    return D, order, coeffs
        return D // g, order // g, coeffs[::g]

    # -- basic protocol ------------------------------------------------

    @property
    def precision(self) -> int:
        """Number of known coefficients at and above `order`."""
        return len(self.coeffs)

    @property
    def cutoff(self) -> int:
        """First unknown exponent numerator (grid units)."""
        return self.order + len(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading_coefficient(self):
        if not self.coeffs:
            raise NonUnitLeading("zero series has no leading coefficient")
        return self.coeffs[0]

    def leading_exponent(self) -> Fraction:
        if not self.coeffs:
            raise NonUnitLeading("zero series has no leading exponent")
        return Fraction(self.order, self.D)

    def coefficient(self, e):
        """Exact coefficient of q**e, or raise PrecisionExhausted if e is
        beyond the known window."""
        e = Fraction(e)
        if e >= Fraction(self.cutoff, self.D):
            raise PrecisionExhausted(f"coefficient of q^{e} is beyond precision")
        num = e * self.D
        if num.denominator != 1:
            return 0
        i = int(num) - self.order
        return self.coeffs[i] if i >= 0 else 0

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return (self.D, self.order, self.coeffs) == (other.D, other.order, other.coeffs)

    def __hash__(self):
        return hash((self.D, self.order, self.coeffs))

    def __repr__(self):
        def expo(n):
            if n % self.D == 0:
                return str(n // self.D)
            return f"{n}/{self.D}"

        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            n = self.order + i
            if n == 0:
                parts.append(f"{c}")
            else:
                parts.append(f"({c})*q^{expo(n)}" if not isinstance(c, int) or c != 1
                             else f"q^{expo(n)}")
            if len(parts) > 8:
                parts.append("...")
                break
        body = " + ".join(parts) if parts else "0"
        return f"<{body} + O(q^{expo(self.cutoff)})>"

    # -- constructors ----------------------------------------------------

    @classmethod
    def one(cls, prec: int) -> "PuiseuxSeries":
        return cls(1, 0, [1] + [0] * (prec - 1))

    @classmethod
    def constant(cls, c, prec: int) -> "PuiseuxSeries":
        return cls(1, 0, [c] + [0] * (prec - 1))

    @classmethod
    def q_power(cls, e, prec: int) -> "PuiseuxSeries":
        """q**e known for `prec` grid coefficients starting at e."""
        e = Fraction(e)
        return cls(e.denominator, e.numerator, [1] + [0] * (prec - 1))

    # -- grid handling -----------------------------------------------------

    @classmethod
    def _raw(cls, D: int, order: int, coeffs: tuple) -> "PuiseuxSeries":
        # bypass normalization; caller guarantees the invariants
        obj = object.__new__(cls)
        object.__setattr__(obj, "D", D)
        object.__setattr__(obj, "order", order)
        object.__setattr__(obj, "coeffs", coeffs)
        return obj

    def lift_grid(self, newD: int) -> "PuiseuxSeries":
        """Same series on a finer grid (newD a multiple of D); the in-between
        coefficients are known zeros.  Representation-level: the result is
        deliberately not re-reduced to the minimal grid."""
        if newD == self.D:
            return self
        if newD % self.D != 0:
            raise UnsupportedParameter(
                f"grid 1/{newD} does not refine the series grid 1/{self.D}")
        s = newD // self.D
        if not self.coeffs:
            return PuiseuxSeries._raw(newD, self.order * s, ())
        coeffs = [0] * (len(self.coeffs) * s)
        for i, c in enumerate(self.coeffs):
            coeffs[i * s] = c
        return PuiseuxSeries._raw(newD, self.order * s, tuple(coeffs))

    def _unify(self, other):
        D = self.D * other.D // gcd(self.D, other.D)
        return self.lift_grid(D), other.lift_grid(D)

    def truncate(self, cutoff_exponent) -> "PuiseuxSeries":
        """Forget coefficients at exponents >= cutoff_exponent."""
        num = Fraction(cutoff_exponent) * self.D
        new_cut = _ceil_div(num.numerator, num.denominator)
        if new_cut >= self.cutoff:
            return self
        if new_cut <= self.order:
            if self.coeffs:
                raise PrecisionExhausted("truncation leaves no known coefficient")
            return PuiseuxSeries(self.D, min(new_cut, self.order), [])
        return PuiseuxSeries(self.D, self.order, self.coeffs[: new_cut - self.order])

    # -- ring operations ---------------------------------------------------

    def __neg__(self):
        return PuiseuxSeries(self.D, self.order, [-c for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            # exact scalars know every coefficient; cover our window
            if not other:
                return self
            cut = _ceil_div(self.cutoff, self.D)
            if cut <= 0:
                return self  # the constant term lies beyond our knowledge
            return self + PuiseuxSeries(1, 0, [other] + [0] * (cut - 1))
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        a, b = self._unify(other)
        lo = min(a.order, b.order)
        hi = min(a.cutoff, b.cutoff)
        out = [0] * (hi - lo)
        for i, c in enumerate(a.coeffs):
            n = a.order + i
            if lo <= n < hi:
                out[n - lo] = c
        for i, c in enumerate(b.coeffs):
            n = b.order + i
            if lo <= n < hi:
                out[n - lo] = out[n - lo] + c
        return PuiseuxSeries(a.D, lo, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return PuiseuxSeries(self.D, self.cutoff, [])
            return PuiseuxSeries(self.D, self.order, [c * other for c in self.coeffs])
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        a, b = self._unify(other)
        lo = a.order + b.order
        hi = min(a.cutoff + b.order, b.cutoff + a.order)
        if a.is_zero() or b.is_zero():
            return PuiseuxSeries(a.D, hi, [])
        return PuiseuxSeries(a.D, lo, _kronecker_product(a.coeffs, b.coeffs, hi - lo))

    __rmul__ = __mul__

    def reciprocal(self) -> "PuiseuxSeries":
        if not self.coeffs:
            raise NonUnitLeading("cannot invert a series with no nonzero known term")
        n = len(self.coeffs)
        out = solve_coeffs(self.coeffs, [1] + [0] * (n - 1), n)
        return PuiseuxSeries(self.D, -self.order, out)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * exact_div(1, other)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.reciprocal() ** (-k)
        if k == 0:
            return PuiseuxSeries.one(max(self.precision, 1))
        base, out = self, None
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # -- the operators the Hecke machinery needs ---------------------------

    def theta(self) -> "PuiseuxSeries":
        """Apply (1/2 pi i) d/dtau: the q^(m/D) coefficient is scaled by m/D."""
        out = []
        for i, c in enumerate(self.coeffs):
            n = self.order + i
            if not c or n == 0:
                out.append(0)
            elif n % self.D == 0:
                out.append(c * (n // self.D))
            else:
                out.append(c * Fraction(n, self.D))
        return PuiseuxSeries(self.D, self.order, out)

    def log_derivative(self) -> "PuiseuxSeries":
        """Theta(f)/f, known on as many grid exponents from q^0 as f is
        known from its order.  For f = c q^h (1 + O(q)) this starts at the
        constant h.  One pass of :func:`log_derivative_coeffs` over the
        window, in grid units, each value then divided by D."""
        if not self.coeffs:
            raise NonUnitLeading("log-derivative of the zero series")
        l = log_derivative_coeffs(self.coeffs, self.order, len(self.coeffs))
        if self.D != 1:
            l = [exact_div(x, self.D) for x in l]
        return PuiseuxSeries(self.D, 0, l)

    def rescale_exponents(self, a) -> "PuiseuxSeries":
        """Substitute q -> q**a for a positive rational a (exponent map e -> a*e)."""
        a = Fraction(a)
        if a <= 0:
            raise InvalidInput("exponent rescale factor must be positive")
        P, Q = a.numerator, a.denominator
        newD = self.D * Q
        if not self.coeffs:
            return PuiseuxSeries(newD, self.order * P, [])
        out = [0] * ((len(self.coeffs) - 1) * P + 1 + (P - 1))
        for i, c in enumerate(self.coeffs):
            out[i * P] = c
        return PuiseuxSeries(newD, self.order * P, out)

    # -- comparisons for tests ----------------------------------------------

    def agrees_with(self, other: "PuiseuxSeries", through=None) -> bool:
        """True when both series have the same coefficients on the overlap of
        their knowledge windows (optionally only up to exponent `through`,
        inclusive)."""
        a, b = self._unify(other)
        hi = min(a.cutoff, b.cutoff)
        if through is not None:
            t = Fraction(through) * a.D
            hi = min(hi, math.floor(t) + 1)
        lo = min(a.order, b.order)
        for n in range(lo, hi):
            ca = a.coeffs[n - a.order] if 0 <= n - a.order < len(a.coeffs) else 0
            cb = b.coeffs[n - b.order] if 0 <= n - b.order < len(b.coeffs) else 0
            if not (ca == cb):
                return False
        return True

    def equal_through(self, other: "PuiseuxSeries", through) -> bool:
        """Exact coefficient equality for every exponent <= `through`.

        Unlike :meth:`agrees_with`, this demands that both windows actually
        cover the range, raising PrecisionExhausted otherwise."""
        a, b = self._unify(other)
        hi = math.floor(Fraction(through) * a.D) + 1
        if a.cutoff < hi or b.cutoff < hi:
            raise PrecisionExhausted(
                f"comparison through q^{through} needs more precision "
                f"(cutoffs {Fraction(a.cutoff, a.D)}, {Fraction(b.cutoff, b.D)})")
        return a.agrees_with(b, through)

    # -- JSON wire format -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "D": self.D,
            "order": self.order,
            "precision": self.precision,
            "coeffs": [str(c) for c in self.coeffs],
        }
