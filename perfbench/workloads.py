"""The four benchmark workloads: seeded input generators, the calls that
execute one op, and the output checks.

A workload is an endless sequence of *rounds*.  A round models one cold
CLI session: the runner clears every library cache before it starts, so
levels and expansions may recur across rounds without ever being served
warm from an earlier one.  Each round follows a fixed template of slots;
the seed picks each slot's parameters from a range of similar cost and
shuffles the slot order.  Whole rounds therefore cost about the same on
every seed, which keeps the per-run figures comparable across seeds.

Generating inputs makes no library call: an op is plain data
``Op(kind, args, expect)``, where ``expect`` names the typed
``HeckeDivError`` subclass the op must raise, or is ``None``.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

import heckediv
from heckediv import algebra, curve, forms, niebur, operators, pairing
from heckediv.errors import HeckeDivError

Op = namedtuple("Op", "kind args expect")

WORKLOADS = ("hecke-mult", "exact-series", "divisor-levels", "numeric-eval")

# ---------------------------------------------------------------------------
# forms by name: (constructor, weight, level, order at infinity); all have
# leading coefficient 1
# ---------------------------------------------------------------------------

FormExpression = forms.FormExpression


def _eta(level, exps):
    return forms.EtaQuotient(forms.EtaQuotientSpec.make(level, exps))


FORMS = {
    "E4": (lambda: FormExpression.of(forms.Eisenstein(4)), 4, 1, 0),
    "E6": (lambda: FormExpression.of(forms.Eisenstein(6)), 6, 1, 0),
    "E8": (lambda: FormExpression.of(forms.Eisenstein(8)), 8, 1, 0),
    "E12": (lambda: FormExpression.of(forms.Eisenstein(12)), 12, 1, 0),
    "E16": (lambda: FormExpression.of(forms.Eisenstein(16)), 16, 1, 0),
    "Delta": (lambda: FormExpression.of(forms.DeltaShift(1)), 12, 1, 1),
    "Delta2": (lambda: FormExpression.of(forms.DeltaShift(2)), 12, 2, 2),
    "Delta3": (lambda: FormExpression.of(forms.DeltaShift(3)), 12, 3, 3),
    "Delta5": (lambda: FormExpression.of(forms.DeltaShift(5)), 12, 5, 5),
    "j-1728": (lambda: FormExpression.of(forms.JMinus(Fraction(1728))), 0, 1, -1),
    "E4^2E6": (lambda: FormExpression.of((forms.Eisenstein(4), 2),
                                         forms.Eisenstein(6)), 14, 1, 0),
    # (eta(tau) eta(3 tau))^6, weight 6 on Gamma_0(3)
    "eta3": (lambda: FormExpression.of(_eta(3, {1: 6, 3: 6})), 6, 3, 1),
    # the level-2 Hauptmodul shift j_21 - 512, whose T(2) image has p | N
    "t2-512": (lambda: FormExpression.of((_eta(2, {1: 24, 2: -24}), 1), shift=-512),
               0, 2, -1),
}


def form(name):
    return FORMS[name][0]()


# eta quotients for the exact-series expansion slot: (level, exponents)
ETA_SPECS = (
    (2, ((1, 8), (2, 8))), (3, ((1, 6), (3, 6))), (4, ((2, 12),)),
    (6, ((1, 2), (2, 2), (3, 2), (6, 2))), (5, ((1, 4), (5, 4))),
    (2, ((1, 24), (2, -24))), (3, ((1, 12), (3, -12))), (4, ((1, 8), (4, -8))),
)

# class-number-one discriminants: reduced form and the rational j value
CM_POINTS = {
    -3: ((1, 1, 1), 0), -4: ((1, 0, 1), 1728), -7: ((1, 1, 2), -3375),
    -8: ((1, 0, 2), 8000), -11: ((1, 1, 3), -32768), -12: ((1, 0, 3), 54000),
    -16: ((1, 0, 4), 287496), -19: ((1, 1, 5), -884736),
    -27: ((1, 1, 7), -12288000), -28: ((1, 0, 7), 16581375),
    -43: ((1, 1, 11), -884736000), -67: ((1, 1, 17), -147197952000),
    -163: ((1, 1, 41), -262537412640768000),
}

# levels grouped by the seed-commit cost of a cold divisor_of_form(E4, N)
# (HEAVY 0.78-0.83 s, MEDIUM 0.20-0.24 s), all with at most four cusps so
# that T(p) on a divisor with a cusp part stays cheap.  Level 2 is kept for
# the Hauptmodul slot.
HEAVY_LEVELS = (163, 173, 185, 213)
MEDIUM_LEVELS = (97, 101, 103, 107, 109, 115, 123, 134)
# light levels whose cold cusps(N) costs 2.0-2.6 ms: the median of the
# workload's latencies falls among these ops
CUSP_LEVELS = (45, 54, 55, 57, 59, 61, 62, 65, 69, 70, 74, 82)


# ---------------------------------------------------------------------------
# small exact helpers, independent of the library
# ---------------------------------------------------------------------------

def sigma(k, n):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def psi(N):
    """Index of Gamma_0(N) in SL_2(Z): N prod_{p | N} (1 + 1/p)."""
    out, m, p = N, N, 2
    while p * p <= m:
        if m % p == 0:
            out += out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out += out // m
    return out


def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


# -2k / B_k for the normalized Eisenstein series E_k = 1 + c sum sigma_{k-1}(n) q^n
EISENSTEIN_C = {4: Fraction(240), 6: Fraction(-504), 8: Fraction(480),
                10: Fraction(-264), 12: Fraction(65520, 691), 14: Fraction(-24),
                16: Fraction(16320, 3617)}
RAMANUJAN_TAU = {1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048, 7: -16744}


# reference tables are computed once per process up to REF_PREC terms,
# enough for every generated op
REF_PREC = 402


@lru_cache(maxsize=None)
def _eisenstein_table(k):
    c = EISENSTEIN_C[k]
    c = int(c) if c.denominator == 1 else c
    return [1] + [c * sigma(k - 1, n) for n in range(1, REF_PREC)]


def own_eisenstein(k, prec):
    if prec > REF_PREC:
        raise ValueError(f"reference tables stop at {REF_PREC} terms")
    return _eisenstein_table(k)[:prec]


def conv(a, b, n):
    """First n coefficients of the product of two power series in q."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i]):
                out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def _delta_table():
    e4, e6 = own_eisenstein(4, REF_PREC), own_eisenstein(6, REF_PREC)
    e4c = conv(conv(e4, e4, REF_PREC), e4, REF_PREC)
    e6s = conv(e6, e6, REF_PREC)
    return [(x - y) // 1728 for x, y in zip(e4c, e6s)]


def own_delta(prec):
    """Coefficients of Delta = (E4^3 - E6^2)/1728 from q^0 (= 0)."""
    if prec > REF_PREC:
        raise ValueError(f"reference tables stop at {REF_PREC} terms")
    return _delta_table()[:prec]


def own_inverse(a, n):
    """First n coefficients of 1/a for a power series with a[0] != 0."""
    inv0 = Fraction(1) / a[0]
    out = [inv0]
    for k in range(1, n):
        s = sum(a[i] * out[k - i] for i in range(1, min(k, len(a) - 1) + 1))
        out.append(-inv0 * s)
    return out


def own_log_derivative(c, n):
    """First n coefficients of Theta(f)/f for f = sum c_i q^i, c_0 != 0,
    from n c_n = sum_{i <= n} L_i c_{n-i}."""
    L = [Fraction(0)]
    for k in range(1, n):
        s = k * c[k] - sum(L[i] * c[k - i] for i in range(1, k))
        L.append(Fraction(s) / c[0])
    return L


LOGDER_PREC = 161  # r_at_s1 ops use m <= 160


@lru_cache(maxsize=None)
def _eisenstein_log_derivative(k):
    return own_log_derivative(own_eisenstein(k, LOGDER_PREC), LOGDER_PREC)


@lru_cache(maxsize=None)
def _j1728_log_derivative():
    """-Theta(j - 1728)/(j - 1728) = E4^2/E6."""
    e4 = own_eisenstein(4, LOGDER_PREC)
    return conv(conv(e4, e4, LOGDER_PREC),
                own_inverse(own_eisenstein(6, LOGDER_PREC), LOGDER_PREC), LOGDER_PREC)


def rohrlich_s1(name, m):
    """-Coeff_{q^m}(Theta f / f) for a level-1 form of the catalogue."""
    if name == "Delta":
        return Fraction(24 * sigma(1, m))   # Theta Delta / Delta = E2
    if name == "j-1728":
        return Fraction(_j1728_log_derivative()[m])
    if name == "E4^2E6":
        return -(2 * _eisenstein_log_derivative(4)[m] + _eisenstein_log_derivative(6)[m])
    return -_eisenstein_log_derivative(FORMS[name][1])[m]


def coeff_at(s, e):
    i = e - s.order
    return s.coeffs[i] if 0 <= i < len(s.coeffs) else 0


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

LEVEL1 = ("E4", "E6", "Delta", "j-1728")


def _mult_op(rng, n, lo, hi, forms_=LEVEL1 + ("eta3",)):
    name = rng.choice([f for f in forms_ if FORMS[f][2] == 1 or n % 3])
    N = FORMS[name][2]
    return Op("mult", (name, n, N, rng.randint(lo, hi)), None)


# forms whose T(5), T(6), T(7) images at prec 16 cost within ~10% of each
# other; j - 1728 costs up to 1.5x more there and stays in the cheaper slots
HEAVY_FORMS = ("E4", "E6", "Delta", "eta3")


def _round_hecke_mult(rng):
    ops = [_mult_op(rng, 2, 16, 40) for _ in range(3)]
    ops.append(Op("mult", ("t2-512", 2, 2, rng.randint(16, 40)), None))
    ops += [_mult_op(rng, 3, 18, 22) for _ in range(3)]
    ops += [_mult_op(rng, 4, 16, 20) for _ in range(2)]
    ops.append(Op("apply", (rng.choice(LEVEL1), 4, 1, rng.randint(16, 20)), None))
    for n in (5, 6, 7):
        ops.append(_mult_op(rng, n, 16, 16, HEAVY_FORMS))
    # composite n sharing a factor with the level: a typed refusal
    bad = rng.choice((("E4", 4, 2, 20), ("eta3", 6, 3, 20), ("Delta", 6, 2, 20)))
    ops.append(Op("mult", bad, "UnsupportedParameter"))
    rng.shuffle(ops)
    return ops


def _round_exact_series(rng):
    """Cheap ops (< 10 ms), a block of Delta expansions at nearby
    precisions (11-18 ms) that holds the median, and dearer ops above it;
    the two Fraction-heavy r_at_s1 ops hold the tail."""
    cheap = [
        Op("eisenstein", (rng.choice((6, 8, 10, 14)), rng.randint(100, 400)), None),
        Op("eisenstein", (rng.choice((12, 16)), rng.randint(100, 400)), None),
        Op("eisenstein", (4, rng.randint(100, 400)), None),
        Op("slice", (rng.randint(1, 5), rng.randint(1, 4), rng.randint(40, 50)), None),
    ]
    cheap += [Op("algebra", (rng.randint(2, 12), rng.randint(2, 12), rng.choice((1, 2, 3))),
                 None) for _ in range(2)]
    # Delta recurs at several precisions: each is computed afresh
    block = [Op("delta", (P,), None) for P in rng.sample(range(190, 241), 4)]
    block.append(Op("add-formula", ("Delta", rng.randint(2, 7), rng.randint(190, 240),
                                    rng.choice(("normalized", "classical"))), None))
    dear = [
        Op("j", (rng.randint(280, 340),), None),
        Op("jn", (rng.randint(4, 5), rng.randint(40, 50)), None),
        Op("eta", (rng.randrange(len(ETA_SPECS)), rng.randint(380, 400)), None),
        Op("add-cosets", (rng.choice(("E4", "E6", "Delta")), rng.choice((5, 7)),
                          rng.randint(100, 120)), None),
        Op("r_at_s1", (rng.choice(("Delta", "j-1728")), rng.randint(150, 160)), None),
        Op("r_at_s1", ("E12", rng.randint(95, 105)), None),
        Op("r_at_s1", ("E16", rng.randint(95, 105)), None),
    ]
    ops = cheap + block + dear
    rng.shuffle(ops)
    return ops


def _interleave(rng, queues):
    """Merge op lists in a random order that keeps each list's own order."""
    ops = []
    while queues:
        q = rng.choice(queues)
        ops.append(q.pop(0))
        if not q:
            queues.remove(q)
    return ops


def _random_point(rng):
    A = rng.randint(1, 6)
    B = rng.randint(-A, A)
    C = (B * B) // (4 * A) + rng.randint(1, 8)
    return (A, B, C)


def _round_divisor_levels(rng):
    """About half the ops revisit a level touched earlier in the round;
    the cold ones pay the per-level P^1(Z/N) tables."""
    groups = []
    for N, primes in ((rng.choice(HEAVY_LEVELS), (2, 3)),
                      *((N, (5, 7)) for N in rng.sample(MEDIUM_LEVELS, 2))):
        f = rng.choice(("E4", "E6", "j-1728"))
        p = rng.choice([q for q in primes if N % q])
        groups.append([Op("div", (f, N), None), Op("hecke-div", (p, f, N), None),
                       Op("cusps", (N,), None),
                       Op("point", (N, _random_point(rng)), None),
                       Op("point", (N, _random_point(rng)), None)])
    groups.append([Op("div", ("t2-512", 2), None),
                   Op("hecke-div", (2, "t2-512", 2), None)])
    singles = [Op("cusps", (N,), None) for N in rng.sample(CUSP_LEVELS, 8)]
    singles += [Op("div", ("Delta2", 2 * rng.randint(15, 30)), None),
                Op("div", ("Delta3", 3 * rng.randint(10, 20)), None),
                Op("point", (rng.randint(30, 44), _random_point(rng)), None),
                Op("div", ("Delta5", 5 * rng.randint(6, 12) + 1), "UnsupportedParameter")]
    # each group keeps its order, so its first op is the cold touch of its level
    return _interleave(rng, groups + [[s] for s in singles])


def _sl2_word(rng):
    m = (1, 0, 0, 1)
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(-3, 3)
        m = _mat_mul(m, (1, k, 0, 1))
        m = _mat_mul(m, (0, -1, 1, 0))
    return m


def _mat_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def act_form(m, q):
    """Quadratic form of the Moebius image of the point of form q."""
    a, b, c, d = m
    A, B, C = q
    A2 = A * d * d - B * c * d + C * c * c
    B2 = -2 * A * b * d + B * (a * d + b * c) - 2 * C * a * c
    C2 = A * b * b - B * a * b + C * a * a
    return (A2, B2, C2) if A2 > 0 else (-A2, -B2, -C2)


def _gamma0_word(rng, N):
    k1, k2 = rng.randint(-2, 2), rng.randint(-2, 2)
    j = rng.choice((1, -1))
    # T^k1 (1 0; jN 1) T^k2
    return _mat_mul(_mat_mul((1, k1, 0, 1), (1, 0, j * N, 1)), (1, k2, 0, 1))


def _moebius(m, z):
    a, b, c, d = m
    return (a * z + b) / (c * z + d)


# seed-commit cost of niebur_value in ms per unit of truncation C, by
# (N, m); the generator sizes C from it so each slot costs about the same
NIEBUR_MS_PER_C = {(1, 0): 0.33, (2, 0): 0.33, (3, 0): 0.35,
                   (1, 1): 0.72, (1, 2): 0.80, (1, 3): 0.88,
                   (2, 1): 0.62, (2, 2): 0.62, (2, 3): 0.62,
                   (3, 1): 0.66, (3, 2): 0.75, (3, 3): 0.75}


def _niebur_pair(rng, target_ms, ms, pair_id):
    N = rng.choice((1, 2, 3))
    m = rng.choice(ms)
    s = rng.choice((1.5, 2.0))
    C = round(target_ms / NIEBUR_MS_PER_C[N, m] * rng.uniform(0.95, 1.05))
    tau = complex(round(rng.uniform(-0.5, 0.5), 6), round(rng.uniform(0.8, 1.2), 6))
    g_tau = _moebius(_gamma0_word(rng, N), tau)
    return [Op("niebur", (N, m, s, C, tau.real, tau.imag, pair_id), None),
            Op("niebur", (N, m, s, C, g_tau.real, g_tau.imag, pair_id), None)]


def _cm_point(rng, discs):
    D = rng.choice(discs)
    return D, act_form(_sl2_word(rng), CM_POINTS[D][0])


def _round_numeric_eval(rng, round_no):
    """Three Niebur pairs of ~100 ms per call hold the median, two of
    ~200 ms (one of them an Eisenstein pair at C 550-600) the tail; j_n and
    BKO ops are cheaper."""
    pairs = [_niebur_pair(rng, 100, (0, 1, 2, 3), 5 * round_no + i) for i in range(3)]
    pairs.append(_niebur_pair(rng, 200, (1, 2, 3), 5 * round_no + 3))
    pairs.append(_niebur_pair(rng, 190, (0,), 5 * round_no + 4))
    ops = [
        Op("jn_value", (rng.randint(1, 3), *_cm_point(rng, tuple(CM_POINTS))), None),
        Op("jn_value", (rng.randint(1, 3), *_cm_point(rng, tuple(CM_POINTS))), None),
        Op("jn_value", (rng.randint(4, 5), *_cm_point(rng, (-7, -8, -11, -12, -16, -19, -27,
                                                             -28, -43, -67, -163))), None),
        Op("jn_value", (rng.randint(6, 8), *_cm_point(rng, (-19, -27, -28, -43, -67, -163))),
           None),
        Op("bko", (rng.randint(1, 4), rng.choice(("E4", "E6", "j-1728", "E4^2E6", "Delta"))),
           None),
        Op("bko", (rng.randint(1, 4), rng.choice(("E4", "E6", "j-1728", "E4^2E6", "Delta"))),
           None),
    ]
    return _interleave(rng, pairs + [[o] for o in ops])


def rounds(workload, seed):
    """Endless iterator over the rounds of a workload; the same seed gives
    the same rounds."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    i = 0
    while True:
        if workload == "hecke-mult":
            yield _round_hecke_mult(rng)
        elif workload == "exact-series":
            yield _round_exact_series(rng)
        elif workload == "divisor-levels":
            yield _round_divisor_levels(rng)
        else:
            yield _round_numeric_eval(rng, i)
        i += 1


def take_rounds(workload, seed, count):
    it = rounds(workload, seed)
    return [next(it) for _ in range(count)]


# ---------------------------------------------------------------------------
# executing one op
# ---------------------------------------------------------------------------

def _exec(op):
    k, a = op.kind, op.args
    if k == "mult":
        name, n, N, prec = a
        return operators.hecke_multiplicative(form(name), n, N, prec)
    if k == "apply":
        name, n, N, prec = a
        return operators.apply_element(form(name), algebra.t_n(n, N),
                                       "multiplicative", prec)
    if k == "eisenstein":
        return forms.eisenstein(*a)
    if k == "delta":
        return forms.delta(*a)
    if k == "j":
        return forms.j_function(*a)
    if k == "jn":
        return forms.jn(*a)
    if k == "jn_value":
        n, _D, q = a
        return niebur.jn_value(n, curve.HeegnerPoint(*q), 50)
    if k == "eta":
        level, exps = ETA_SPECS[a[0]]
        return forms.eta_quotient_qexp(forms.EtaQuotientSpec.make(level, dict(exps)), a[1])
    if k == "slice":
        return niebur.harmonic_slice(*a)
    if k == "add-formula":
        name, n, prec, norm = a
        return operators.hecke_additive_formula(form(name).qexp(prec), FORMS[name][1],
                                                n, norm)
    if k == "add-cosets":
        name, n, prec = a
        return operators.hecke_additive_cosets(form(name).qexp(prec), FORMS[name][1], n, 1)
    if k == "r_at_s1":
        name, m = a
        return pairing.r_at_s1(1, m, form(name))
    if k == "algebra":
        m, n, N = a
        return algebra.algebra_multiply(algebra.t_n(m, N), algebra.t_n(n, N))
    if k == "div":
        name, N = a
        return curve.divisor_of_form(form(name), N)
    if k == "hecke-div":
        p, name, N = a
        return curve.hecke_divisor(p, curve.divisor_of_form(form(name), N))
    if k == "cusps":
        return curve.cusps(a[0])
    if k == "point":
        N, q = a
        return curve.point_divisor(N, curve.HeegnerPoint(*q))
    if k == "niebur":
        N, m, s, C, re, im, _pair = a
        params = niebur.EvalParams(truncation=C, digits=14, s=s)
        return niebur.niebur_value(N, m, complex(re, im), params).value
    if k == "bko":
        n, name = a
        return pairing.bko_pairing(n, form(name), 50).value
    raise ValueError(f"unknown op kind {k!r}")


class UnexpectedSuccess(Exception):
    """An op that should have raised a typed error returned a value."""


def execute(op):
    """Run one op.  Returns its output, or the expected error instance;
    raises on an unexpected exception or a missing expected error."""
    if op.expect is None:
        return _exec(op)
    try:
        out = _exec(op)
    except HeckeDivError as exc:
        if type(exc).__name__ == op.expect:
            return exc
        raise
    raise UnexpectedSuccess(f"{op} returned {out!r} instead of raising {op.expect}")


# ---------------------------------------------------------------------------
# canonical text of exact outputs, for the recorded digests
# ---------------------------------------------------------------------------

def _series_text(s):
    return f"S{s.D}|{s.order}|" + ",".join(str(c) for c in s.coeffs)


def _divisor_text(d):
    inter = sorted((k.form, k.label, str(v)) for k, v in d.interior)
    cusp = sorted((k.c, k.a, k.width, str(v)) for k, v in d.cusp_part)
    return f"D{d.N}|{inter}|{cusp}"


def canonical_text(out):
    """A stable text for an exact output, or None for numeric outputs."""
    if isinstance(out, HeckeDivError):
        return f"E{type(out).__name__}"
    if isinstance(out, heckediv.PuiseuxSeries):
        return _series_text(out)
    if isinstance(out, FormExpression):
        atom = out.atoms[0][0]
        return f"F{atom.weight}|{atom.level}|" + _series_text(atom.series)
    if isinstance(out, heckediv.Divisor):
        return _divisor_text(out)
    if isinstance(out, heckediv.AlgebraElement):
        return f"A{out.N}|{out.terms}"
    if isinstance(out, Fraction):
        return f"Q{out}"
    if isinstance(out, tuple) and all(isinstance(c, heckediv.CuspClass) for c in out):
        return "C" + ";".join(f"{c.a}/{c.c}w{c.width}" for c in out)
    return None


def digest(out):
    text = canonical_text(out)
    if text is None:
        return None
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# output checks: closed-form invariants that hold for any seed
# ---------------------------------------------------------------------------

class CheckFailed(Exception):
    pass


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


def _reps_count(n, N):
    return sum(d for d in range(1, n + 1)
               if n % d == 0 and math.gcd(n // d, N) == 1)


def _sum_a(n, N):
    return sum(n // d for d in range(1, n + 1) if n % d == 0 and math.gcd(n // d, N) == 1)


def _sign(n, N, order):
    # prod over reps (a b; 0 d) of zeta_d^(order * b): (-1)^(order (d-1)) per a
    s = 1
    for d in range(1, n + 1):
        if n % d == 0 and math.gcd(n // d, N) == 1 and (order * (d - 1)) % 2:
            s = -s
    return s


def _equivariance(out_series, name, n, N, top):
    """Coeff_{q^M} Theta(g)/g = sum_{ad = n, (a, N) = 1, a | M} a l_{d M / a}
    for g = f|*T(n), l = Theta(f)/f, M = 1..top.

    A consistency identity, not an oracle: it is exactly the formula a
    rational (log-derivative) route for the multiplicative operator would
    compute, so it cannot certify such a route; the bit-exact digests and
    the leading-term checks can."""
    order = FORMS[name][3]
    f = form(name).qexp(n * top + abs(order) * n + 4)
    # the log-derivative of q^h u is h + Theta(u)/u: the window suffices
    l = own_log_derivative(f.coeffs, n * top + 1)
    lg = own_log_derivative(out_series.coeffs, top + 1)
    for M in range(1, top + 1):
        rhs = Fraction(0)
        for a in range(1, n + 1):
            if n % a == 0 and math.gcd(a, N) == 1 and M % a == 0:
                rhs += a * l[(n // a) * M // a]
        _require(lg[M] == rhs, f"equivariance at q^{M}")


def check_hecke_mult(op, out):
    name, n, N, prec = op.args
    k, _level, order = FORMS[name][1:]
    reps = _reps_count(n, N)
    atom = out.atoms[0][0]
    s = atom.series
    _require(atom.weight == k * reps, "weight = k * #reps")
    _require(atom.level == N, "level")
    want_prec = prec if op.kind == "mult" else prec + 4
    _require(s.D == 1 and s.precision == want_prec, f"precision {s.precision} != {want_prec}")
    _require(s.order == order * _sum_a(n, N), "leading exponent = ord * sum a")
    _require(s.coeffs[0] == _sign(n, N, order), "leading coefficient")
    if op.kind == "mult":
        _equivariance(s, name, n, N, 2)


def check_exact_series(op, out):
    k, a = op.kind, op.args
    if k == "eisenstein":
        kk, prec = a
        _require(list(out.coeffs) == own_eisenstein(kk, prec) and out.order == 0,
                 "E_k coefficients")
        if kk == 4:
            e8 = own_eisenstein(8, prec)
            _require(conv(list(out.coeffs), list(out.coeffs), prec) == e8, "E4^2 = E8")
    elif k == "delta":
        prec = a[0]
        ref = own_delta(prec + 1)[1:]
        _require(out.order == 1 and out.precision == prec, "Delta window")
        _require(list(out.coeffs) == ref, "E4^3 - E6^2 = 1728 Delta")
    elif k == "j":
        prec = a[0]
        _require(out.order == -1 and out.cutoff == prec - 1, "j window")
        n = out.precision
        dl = own_delta(n + 1)[1:]
        e4 = own_eisenstein(4, n)
        _require(conv(list(out.coeffs), dl, n) == conv(conv(e4, e4, n), e4, n),
                 "j Delta = E4^3")
    elif k == "jn":
        n, prec = a
        _require(out.order == -n and out.coeffs[0] == 1, "j_n leading term")
        _require(out.precision == prec, "j_n precision")
        _require(all(coeff_at(out, e) == 0 for e in range(-n + 1, 0)), "j_n polar part")
        _require(coeff_at(out, 0) == 24 * sigma(1, n), "j_n constant 24 sigma_1(n)")
    elif k == "eta":
        level, exps = ETA_SPECS[a[0]]
        lead = sum(Fraction(m * r, 24) for m, r in exps)
        _require(out.leading_exponent() == lead and out.coeffs[0] == 1, "eta leading term")
        _require(out.precision == a[1], "eta precision")
    elif k == "slice":
        N, m, prec = a
        _require(out.order == -m and out.coeffs[0] == 1, "slice leading term")
        _require(all(coeff_at(out, e) == 0 for e in range(-m + 1, 1)), "slice polar part")
    elif k in ("add-formula", "add-cosets"):
        name, n = a[0], a[1]
        norm = a[3] if k == "add-formula" else "normalized"
        kk = FORMS[name][1]
        lam = Fraction(RAMANUJAN_TAU[n]) if name == "Delta" else Fraction(sigma(kk - 1, n))
        if norm == "normalized":
            lam *= Fraction(n) ** (1 - kk // 2)
        ref = own_delta(out.cutoff + 1) if name == "Delta" else own_eisenstein(kk, out.cutoff)
        _require(out.cutoff > 0, "additive image knows coefficients")
        _require(all(coeff_at(out, e) == lam * ref[e] for e in range(0, out.cutoff)),
                 f"eigenform: f|T({n}) = lambda f")
        base = form(name).qexp(a[2])
        other = (operators.hecke_additive_cosets(base, kk, n, 1) if k == "add-formula"
                 else operators.hecke_additive_formula(base, kk, n))
        if norm == "normalized":
            _require(out.agrees_with(other), "additive formula route = coset route")
    elif k == "r_at_s1":
        _require(out == rohrlich_s1(*a), "r_at_s1 against its closed form")
    elif k == "algebra":
        m, n, N = a
        _require(dict(out.terms) == hecke_product(m, n, N), "T(m)T(n) closed form")
    else:
        raise ValueError(k)


def hecke_product(m, n, N):
    """T(m) T(n) = sum_{e | (m, n), (e, N) = 1} e T(e, e) T(mn/e^2), with
    T(e, e) T(a, d) = T(ea, ed)."""
    out = {}
    for e in range(1, min(m, n) + 1):
        if m % e or n % e or math.gcd(e, N) != 1:
            continue
        k = m * n // (e * e)
        for a in range(1, k + 1):
            d = k // a
            if k % a == 0 and a <= d and d % a == 0 and math.gcd(a, N) == 1:
                key = (e * a, e * d)
                out[key] = out.get(key, 0) + e
    return out


def _cusp_count(N):
    return sum(euler_phi(math.gcd(c, N // c)) for c in range(1, N + 1) if N % c == 0)


def check_divisor_levels(op, out):
    k, a = op.kind, op.args
    if k == "div":
        name, N = a
        _require(out.N == N, "divisor level")
        _require(out.degree == Fraction(FORMS[name][1] * psi(N), 12), "degree = k psi(N)/12")
    elif k == "hecke-div":
        p, name, N = a
        reps = p + 1 if N % p else p
        _require(out.N == N, "divisor level")
        _require(out.degree == reps * Fraction(FORMS[name][1] * psi(N), 12),
                 "deg T(p) D = #reps deg D")
    elif k == "cusps":
        N = a[0]
        _require(len(out) == _cusp_count(N), "number of cusps")
        _require(sum(c.width for c in out) == psi(N), "cusp widths sum to psi(N)")
        _require(all(c.width == N // math.gcd((c.c if c.c else N) ** 2, N) for c in out),
                 "cusp widths")
    elif k == "point":
        N, q = a
        g = math.gcd(math.gcd(q[0], q[1]), q[2])
        disc = (q[1] * q[1] - 4 * q[0] * q[2]) // (g * g)
        (key, coeff), = out.interior
        A, B, C = key.form
        _require(out.degree == 1 and coeff == 1 and not out.cusp_part, "point divisor")
        _require(B * B - 4 * A * C == disc, "discriminant kept")
        _require(-A < B <= A <= C and (B >= 0 or A != C), "key form is reduced")
    else:
        raise ValueError(k)


def _digits(err, ref):
    rel = float(abs(err) / max(1, abs(ref)))
    return 90.0 if rel == 0 else min(90.0, -math.log10(rel))


def check_numeric(ops, outs):
    """Check the numeric ops; returns (indices that failed,
    (niebur_min_digits, cm_min_digits))."""
    import mpmath
    bad, niebur_digits, cm_digits = [], [], []
    by_pair = {}
    for i, (op, out) in enumerate(zip(ops, outs)):
        if op.kind == "niebur":
            by_pair.setdefault(op.args[-1], []).append((i, complex(out)))
            continue
        if op.kind == "jn_value":
            n, D, _q = op.args
            ref = jn_poly_value(n, CM_POINTS[D][1])
        elif op.kind == "bko":
            ref = rohrlich_s1(op.args[1], op.args[0])
        else:
            continue
        with mpmath.workdps(90):
            dg = _digits(mpmath.mpc(out) - mpmath.mpf(ref.numerator) / ref.denominator,
                         abs(ref))
        cm_digits.append(dg)
        if dg < CM_MIN_DIGITS:
            bad.append(i)
    for pair in by_pair.values():
        if len(pair) == 2:
            (i, v1), (j, v2) = pair
            dg = _digits(v1 - v2, abs(v1))
            niebur_digits.append(dg)
            if dg < NIEBUR_MIN_DIGITS:
                bad += [i, j]
    return bad, (min(niebur_digits, default=float("nan")),
                 min(cm_digits, default=float("nan")))


# tolerances: jn_value and the BKO pairing run at 50 digits; the Niebur
# fast path truncates at C, and the residual of an invariance pair is of
# the size of its truncation error (about 1e-3 relative at C = 100)
CM_MIN_DIGITS = 40.0
NIEBUR_MIN_DIGITS = 2.0


@lru_cache(maxsize=None)
def _jn_poly(n):
    """P_n with j_n = P_n(j), from the exact q-expansion of j_n."""
    return curve.weight0_to_j_polynomial(forms.jn(n, n + 30))


def jn_poly_value(n, jval):
    return sum(c * Fraction(jval) ** e for e, c in _jn_poly(n).items())


def check_exact(workload, op, out):
    """Raise CheckFailed unless an exact op's output satisfies its
    invariants (expected refusals carry no output to check)."""
    if op.expect is not None:
        return
    if workload == "hecke-mult":
        check_hecke_mult(op, out)
    elif workload == "exact-series":
        check_exact_series(op, out)
    elif workload == "divisor-levels":
        check_divisor_levels(op, out)


def clear_library_caches():
    """Empty every lru_cache of the library: the next op starts cold, as a
    fresh CLI process would."""
    for mod in (heckediv.cyclotomic, heckediv.series, forms, operators, algebra,
                curve, niebur, pairing):
        for obj in vars(mod).values():
            clear = getattr(obj, "cache_clear", None)
            if clear is not None:
                clear()
