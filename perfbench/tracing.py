"""Per-module tracing for the benchmark's traced run.

The library is not modified: ``Tracer.install`` replaces, from outside,
the public functions and methods of each layer module with wrappers, in
every namespace that holds them (``curve.p1_label`` is the same function
as ``algebra.p1_label``).  Each wrapper keeps a stack of open calls, so a
call's self time is its duration minus the time of the wrapped calls it
made.  The code is single-threaded: no layer ever waits on another, so no
wait time is recorded.

Cyclotomic arithmetic and per-point curve helpers run hundreds of
thousands of times per op; they are counted and timed but not stored as
spans.  Every other call is stored as a span ``(op, span, parent, name,
start, end)`` and written out when the run ends.
"""

from __future__ import annotations

import inspect
import math
import time
from fractions import Fraction

import heckediv
from heckediv import algebra, curve, cyclotomic, forms, niebur, operators, pairing, series

LAYERS = {
    "cyclotomic": cyclotomic, "series": series, "forms": forms,
    "operators": operators, "algebra": algebra, "curve": curve,
    "niebur": niebur, "pairing": pairing,
}

ARITH_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__neg__", "__truediv__", "__rtruediv__", "__pow__")

# per-coefficient predicates and 2x2 matrix helpers: a wrapper would cost
# more than the call and blur every self time around them
NOT_WRAPPED = {
    "cyclotomic.coeff_is_zero", "cyclotomic.coeff_rational", "cyclotomic.euler_phi",
    "cyclotomic.Cyclo.is_rational", "cyclotomic.Cyclo.rational_part",
    "algebra.mat_mul", "algebra.mat_det", "algebra.mat_content", "algebra.in_delta_n",
}

# counted and timed, never stored as spans
NO_SPAN_MODULES = {"cyclotomic"}
NO_SPAN = {"algebra.p1_label", "algebra.hnf2", "algebra.left_coset_key",
           "curve.reduce_point", "curve.act_matrix", "curve.period", "curve.p1_lift",
           "curve.canonical_cusp", "curve.cusp_width", "curve.HeegnerPoint.primitive",
           "curve.HeegnerPoint.approx", "curve.CanonicalPoint.representative",
           "curve.CanonicalPoint.period", "curve.CanonicalPoint.approx",
           "series.PuiseuxSeries.lift_grid", "series.PuiseuxSeries.coefficient",
           "series.PuiseuxSeries.leading_coefficient",
           "series.PuiseuxSeries.leading_exponent", "series.PuiseuxSeries.is_zero"}

# lru caches of q-expansions whose hit ratio is reported as forms.cache_hit_ratio
EXPANSION_CACHES = ("forms.eisenstein", "forms.euler_product", "forms.delta",
                    "forms.j_function", "forms.jn", "niebur.harmonic_slice")


def _coeff_bits(c):
    if isinstance(c, int):
        return c.bit_length()
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return max(_coeff_bits(x) for x in c.coords)


def _has_cyclo(s):
    return any(type(c) is cyclotomic.Cyclo for c in s.coeffs)


def _precision(out):
    if isinstance(out, forms.FormExpression):
        return out.atoms[0][0].series.precision
    return out.precision


class Tracer:
    """Counts, self times and spans of the wrapped calls of one process."""

    def __init__(self):
        # open calls: [child time, module, span id, qexp coefficients requested]
        self.stack = [[0.0, None, 0, 0]]
        self.stats = {}          # qualified name -> [calls, total s, self s, errors]
        self.spans = []
        self.op_id = 0
        self._next_span = 1
        self.coeff_mults = 0
        self.cyclo_series_mults = 0
        self.series_mults = 0
        self.max_coeff_bits = 0
        self.coset_reps = 0
        self.budget_requested = 0
        self.budget_returned = 0
        self._caches = {}
        self._installed = []
        self.cache_hits = 0
        self.cache_misses = 0
        self.cold_levels = 0

    # -- installing ------------------------------------------------------

    def install(self):
        """Wrap every public function and method of the layer modules."""
        wrappers = {}
        for mod_name, mod in LAYERS.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(mod_name, obj)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    name = f"{mod_name}.{attr}"
                    if name in NOT_WRAPPED:
                        continue
                    if hasattr(obj, "cache_info"):
                        self._caches[name] = obj
                    wrappers[id(obj)] = (obj, self._wrap(name, mod_name, obj))
        # rebind each function wherever it was imported, the package included
        for mod in list(LAYERS.values()) + [heckediv]:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._installed.append((mod, attr, obj))

    def uninstall(self):
        for target, attr, obj in reversed(self._installed):
            setattr(target, attr, obj)
        self._installed.clear()

    def _wrap_class(self, mod_name, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITH_DUNDERS:
                continue
            name = f"{mod_name}.{cls.__name__}.{attr}"
            if name in NOT_WRAPPED:
                continue
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(name, mod_name, raw.__func__))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, mod_name, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(name, mod_name, raw)
            else:
                continue
            setattr(cls, attr, new)
            self._installed.append((cls, attr, raw))

    def _wrap(self, name, module, fn):
        stack = self.stack
        clock = time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        record = module not in NO_SPAN_MODULES and name not in NO_SPAN
        spans = self.spans
        hook = self._hook_for(name, module)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0, module, 0, 0]
            if record:
                frame[2] = tracer._next_span
                tracer._next_span += 1
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                dur = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[0] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if parent[1] != module:
                    stat[3] += 1
                if record:
                    spans.append((tracer.op_id, frame[2], parent[2], name, t0, t0 + dur))
                raise
            dur = clock() - t0
            stack.pop()
            parent = stack[-1]
            stat[0] += 1
            stat[1] += dur
            stat[2] += dur - frame[0]
            if record:
                spans.append((tracer.op_id, frame[2], parent[2], name, t0, t0 + dur))
            if hook is not None:
                h0 = clock()
                hook(args, out, frame, parent)
                # hook time is tracer overhead: keep it out of the parent's self time
                dur += clock() - h0
            parent[0] += dur
            return out

        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks that derive counts from arguments and results ---------------

    def _hook_for(self, name, module):
        if name in ("series.PuiseuxSeries.__mul__", "series.PuiseuxSeries.__rmul__"):
            return self._series_mul
        if name in ("series.PuiseuxSeries.reciprocal",):
            return self._series_result
        if name in ("algebra.left_coset_reps", "algebra.double_coset_reps"):
            return self._coset_reps
        if name == "forms.FormExpression.qexp":
            return self._qexp_request
        if module == "operators":
            return self._operator_result
        return None

    def _series_mul(self, args, out, frame, parent):
        a, b = args
        if out is NotImplemented:
            return
        if isinstance(b, series.PuiseuxSeries):
            if a.coeffs and b.coeffs:
                # _unify lifts both operands to the finer grid; the product
                # window is the shorter lifted operand, w (w + 1)/2 products
                D = a.D * b.D // math.gcd(a.D, b.D)
                w = min(len(a.coeffs) * (D // a.D), len(b.coeffs) * (D // b.D))
                self.coeff_mults += w * (w + 1) // 2
            self.series_mults += 1
            if _has_cyclo(a) or _has_cyclo(b):
                self.cyclo_series_mults += 1
        else:
            self.coeff_mults += len(a.coeffs)
        self._series_result(args, out, frame, parent)

    def _series_result(self, args, out, frame, parent):
        if out.coeffs:
            bits = max(_coeff_bits(c) for c in out.coeffs)
            if bits > self.max_coeff_bits:
                self.max_coeff_bits = bits

    def _coset_reps(self, args, out, frame, parent):
        self.coset_reps += len(out)

    def _qexp_request(self, args, out, frame, parent):
        if parent[1] == "operators":
            parent[3] += args[1]

    def _operator_result(self, args, out, frame, parent):
        if frame[3]:
            self.budget_requested += frame[3]
            self.budget_returned += _precision(out)

    # -- reading out -------------------------------------------------------

    def bank_caches(self):
        """Add the cache statistics gathered since the last clear; call it
        before the caches are cleared, which resets them."""
        for name in EXPANSION_CACHES:
            info = self._caches[name].cache_info()
            self.cache_hits += info.hits
            self.cache_misses += info.misses
        # each miss of the P^1(Z/N) table is the first touch of a level
        self.cold_levels += curve._p1_points.cache_info().misses

    def module_totals(self):
        out = {m: {"calls": 0, "self_s": 0.0, "errors": 0} for m in LAYERS}
        for name, (calls, _total, self_s, errors) in self.stats.items():
            m = out[name.split(".", 1)[0]]
            m["calls"] += calls
            m["self_s"] += self_s
            m["errors"] += errors
        return out

    def stat(self, *names):
        """Summed [calls, total s, self s, errors] over the named wrappers."""
        acc = [0, 0.0, 0.0, 0]
        for n in names:
            for i, v in enumerate(self.stats.get(n, (0, 0.0, 0.0, 0))):
                acc[i] += v
        return acc

