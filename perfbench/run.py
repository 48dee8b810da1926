"""heckediv benchmark: one closed-loop client calling the library in-process.

    python3 perfbench/run.py --workload hecke-mult --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The workloads are described in ``workloads.py`` and
``perfbench/README.md``.  With ``--trace 0`` the run executes whole rounds
until ``--seconds`` have passed and reports the end-to-end metrics.  With
``--trace 1`` it executes a fixed number of rounds twice, first plain and
then with every layer wrapped (``tracing.py``), and reports the
per-module metrics; fixed rounds make its counts repeat exactly for a
seed.  Every output is checked after the timed phase.  The last line of
standard output is one JSON object; the exit code is 0 only when every
op succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# rounds generated by the set-up probe; more than a run of the seed commit
# executes on any workload
SETUP_ROUNDS = 50
SETUP_REPEATS = 7
# rounds of the traced run (a few seconds of plain work), run twice
TRACE_ROUNDS = {"hecke-mult": 3, "exact-series": 12, "divisor-levels": 3,
                "numeric-eval": 3}
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# the tail percentile of each workload: the highest ladder step with ten
# samples beyond it in a run of the seed commit.  It is fixed so that a
# faster program, which completes more ops, is still compared at the same
# percentile; a run with too few ops falls back down the ladder.
TAIL_PERCENTILE = {"hecke-mult": 90.0, "exact-series": 95.0, "divisor-levels": 95.0,
                   "numeric-eval": 90.0}
OUT_DIR = ".perfbench_out"

# On a machine shared with other tenants the speed moves in phases of tens
# of seconds, and CPU time moves with wall time.  Every timing is therefore
# taken at a reference speed: it is divided by the current speed factor,
# the time of a fixed calibration loop measured next to it over
# PROBE_REF_S, the loop's time at the reference speed.
PROBE_REF_S = 0.012

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("peak_rss_mb", "MB"))


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    if not (SRC / "heckediv" / "__init__.py").is_file():
        _fail(f"no library source at {SRC}; run from the root of a heckediv checkout")
    sys.path.insert(0, str(SRC))
    import workloads  # imports heckediv from SRC
    return workloads


def _calibration_loop():
    s = Fraction(0)
    for i in range(1, 3000):
        s += Fraction(1, i)
    return s


def speed_factor():
    """Current machine speed relative to the reference: the best of two
    timings of the calibration loop over PROBE_REF_S (above 1 = slower)."""
    best = None
    for _ in range(2):
        t0 = time.perf_counter()
        _calibration_loop()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best / PROBE_REF_S


def measure_setup(workload, seed):
    """Median wall time, at reference speed and as read, from starting a
    fresh interpreter to heckediv imported and the workload's inputs
    generated.  The child reports the clock when it is done, so the
    parent's polling of its exit (50 ms steps under a timeout) does not
    enter the figure."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]\n"
            "import heckediv, workloads\n"
            f"workloads.take_rounds({workload!r}, {seed}, {SETUP_ROUNDS})\n"
            "import time; print(time.time())\n")
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        factor = speed_factor()
        t0 = time.time()
        done = subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        raw.append(float(done.stdout) - t0)
        times.append(raw[-1] / factor)
    return statistics.median(times), statistics.median(raw)


class Record:
    __slots__ = ("round", "op", "out", "error", "latency")

    def __init__(self, rnd, op, out, error, latency):
        self.round, self.op, self.out, self.error, self.latency = rnd, op, out, error, latency


def run_rounds(wl, round_iter, stop, tracer=None):
    """Execute rounds, each on cleared caches, until `stop(rounds done,
    elapsed)` is true.  Returns the records, the wall time of each round's
    ops and the machine's speed factor around each round."""
    clock = time.perf_counter
    records, walls, factors = [], [], []
    start = clock()
    done = 0
    for ops in round_iter:
        if tracer is not None:
            tracer.bank_caches()
        wl.clear_library_caches()
        before = speed_factor()
        r0 = clock()
        for op in ops:
            if tracer is not None:
                tracer.op_id = len(records)
            t0 = clock()
            try:
                out, err = wl.execute(op), None
            except Exception as exc:  # an op failure is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            records.append(Record(done, op, out, err, clock() - t0))
        walls.append(clock() - r0)
        factors.append((before + speed_factor()) / 2)
        done += 1
        if stop(done, clock() - start):
            break
    if tracer is not None:
        tracer.bank_caches()
    return records, walls, factors


def tail_latency(latencies, highest=TAIL_LADDER[0]):
    """(percentile, value, samples beyond): the highest ladder percentile
    up to `highest` with at least ten samples beyond it, nearest rank."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = max(1, -(-int(p * n) // 100))   # ceil(p n / 100)
        if p <= highest and n - rank >= 10:
            return p, xs[rank - 1], n - rank
    return 0.0, xs[-1], 0


def load_digests():
    path = BENCH / "digests.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def check_records(wl, workload, seed, records, digests):
    """Check every output; returns (failed flags, notes, numeric digits)."""
    failed = [r.error is not None for r in records]
    notes = [r.error for r in records if r.error]
    recorded = digests.get(workload, {}).get(str(seed))
    for i, r in enumerate(records):
        if failed[i]:
            continue
        try:
            wl.check_exact(workload, r.op, r.out)
            if recorded is not None and i < len(recorded) and recorded[i] is not None:
                if wl.digest(r.out) != recorded[i]:
                    raise wl.CheckFailed("output differs from the recorded digest")
        except Exception as exc:  # a failed or crashing check fails the op
            failed[i] = True
            notes.append(f"op {i} {r.op.kind}{r.op.args}: {type(exc).__name__}: {exc}")
    digits = (None, None)
    if workload == "numeric-eval":
        ok = [i for i, r in enumerate(records) if not failed[i]]
        bad, digits = wl.check_numeric([records[i].op for i in ok],
                                       [records[i].out for i in ok])
        for j in bad:
            failed[ok[j]] = True
            notes.append(f"op {ok[j]} {records[ok[j]].op.kind}: numeric check failed")
    return failed, notes, digits


def workload_shares(workload, records):
    """Measured input properties: the share of hecke-mult ops whose cosets
    have a denominator d >= 3, and the share of divisor-levels ops that
    revisit a level touched earlier in their round."""
    if workload == "hecke-mult":
        return {"coset_d_ge_3_share": sum(r.op.args[1] >= 3 for r in records) / len(records)}
    if workload == "divisor-levels":
        seen, revisits = set(), 0
        for r in records:
            N = r.op.args[-1] if r.op.kind in ("div", "hecke-div") else r.op.args[0]
            key = (r.round, N)
            revisits += key in seen
            seen.add(key)
        return {"revisit_share": revisits / len(records)}
    return {}


def end_to_end(workload, seed, seconds, setup_s, wl):
    records, walls, factors = run_rounds(wl, wl.rounds(workload, seed),
                                         lambda done, elapsed: elapsed >= seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, notes, digits = check_records(wl, workload, seed, records, load_digests())
    per_round = len(records) / len(walls)
    highest = TAIL_PERCENTILE[workload]

    def timings(lat_ms, rates):
        pct, tail, beyond = tail_latency(lat_ms, highest)
        # every round has the same ops: the median round rate keeps a burst
        # of load from moving the figure
        return (statistics.median(rates), statistics.median(lat_ms), tail), (pct, beyond)

    (rate, p50, tail), (pct, beyond) = timings(
        [r.latency * 1000 / factors[r.round] for r in records],
        [per_round / w * f for w, f in zip(walls, factors)])
    (raw_rate, raw_p50, raw_tail), _ = timings(
        [r.latency * 1000 for r in records], [per_round / w for w in walls])
    metrics = {"setup_s": setup_s[0], "ops_per_s": rate, "latency_p50_ms": p50,
               "latency_tail_ms": tail, "peak_rss_mb": peak_rss_mb}
    raw = {"setup_s": setup_s[1], "ops_per_s": raw_rate, "latency_p50_ms": raw_p50,
           "latency_tail_ms": raw_tail}
    units = dict(END_TO_END)
    n_failed = sum(failed)
    print(f"workload {workload}  seed {seed}  rounds {len(walls)}  ops {len(records)}  "
          f"timed wall {sum(walls):.3f} s  (closed loop, one client)")
    print(f"  machine speed factor {statistics.median(factors):.3f} (median over rounds); "
          "timings below are at reference speed, raw readings in brackets")
    for name, value in metrics.items():
        note = f"  (raw {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:<18} {value:.6g} {units[name]}{note}")
    print(f"  {'latency_tail_ms':<18} is p{pct:g}: {beyond} of {len(records)} samples beyond it")
    print(f"  {'error_rate':<18} {n_failed / len(records):.6g} ({n_failed} of {len(records)})")
    if workload == "numeric-eval":
        print(f"  {'niebur_min_digits':<18} {digits[0]:.6g} digits")
        print(f"  {'cm_min_digits':<18} {digits[1]:.6g} digits")
    for name, value in workload_shares(workload, records).items():
        print(f"  {name:<18} {value:.4f}")
    for note in notes[:20]:
        print(f"  FAILED {note}")
    return records, n_failed, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def traced(workload, seed, wl):
    """Fixed rounds, plain then traced; per-module metrics and overhead."""
    import tracing
    n = TRACE_ROUNDS[workload]

    def stop(done, _elapsed):
        return done >= n
    plain, plain_walls, _ = run_rounds(wl, iter(wl.take_rounds(workload, seed, n)), stop)
    wl.clear_library_caches()   # so the first banking sees only traced calls
    tracer = tracing.Tracer()
    tracer.install()
    try:
        records, walls, _ = run_rounds(wl, iter(wl.take_rounds(workload, seed, n)), stop,
                                       tracer)
    finally:
        tracer.uninstall()
    failed, notes, _digits = check_records(wl, workload, seed, records, load_digests())
    for i, (a, b) in enumerate(zip(plain, records)):
        if (a.error is None) != (b.error is None) or wl.digest(a.out) != wl.digest(b.out):
            failed[i] = True
            notes.append(f"op {i}: traced output differs from the plain run")
    metrics = layer_metrics(tracer)
    wall, plain_wall = sum(walls), sum(plain_walls)
    metrics["trace.overhead_s"] = (wall - plain_wall, "s")
    metrics["trace.overhead_ratio"] = (wall / plain_wall - 1, "ratio")
    write_spans(workload, seed, tracer)
    n_failed = sum(failed)
    print(f"workload {workload}  seed {seed}  traced rounds {n}  ops {len(records)}  "
          f"plain wall {plain_wall:.3f} s  traced wall {wall:.3f} s")
    print("  single-threaded: no layer waits on another, so no wait times are reported")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:.6g} {unit}")
    print(f"  {'error_rate':<28} {n_failed / len(records):.6g} ({n_failed} of {len(records)})")
    for note in notes[:20]:
        print(f"  FAILED {note}")
    return records, n_failed, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def layer_metrics(t):
    mods = t.module_totals()
    mul = t.stat("series.PuiseuxSeries.__mul__", "series.PuiseuxSeries.__rmul__")
    rec = t.stat("series.PuiseuxSeries.reciprocal")
    lookups = t.cache_hits + t.cache_misses
    m = {
        "cyclotomic.mul_calls": (t.stat("cyclotomic.Cyclo.__mul__",
                                        "cyclotomic.Cyclo.__rmul__")[0], "count"),
        "cyclotomic.add_calls": (t.stat("cyclotomic.Cyclo.__add__",
                                        "cyclotomic.Cyclo.__radd__")[0], "count"),
        "cyclotomic.self_s": (mods["cyclotomic"]["self_s"], "s"),
        "series.mul_calls": (mul[0], "count"),
        "series.coeff_mults": (t.coeff_mults, "count"),
        "series.mul_self_s": (mul[2], "s"),
        "series.cyclo_mul_share": (t.cyclo_series_mults / t.series_mults
                                   if t.series_mults else 0.0, "ratio"),
        "series.reciprocal_calls": (rec[0], "count"),
        "series.reciprocal_self_s": (rec[2], "s"),
        "series.max_coeff_bits": (t.max_coeff_bits, "bits"),
        "forms.calls": (mods["forms"]["calls"], "count"),
        "forms.self_s": (mods["forms"]["self_s"], "s"),
        "forms.cache_hit_ratio": (t.cache_hits / lookups if lookups else 0.0, "ratio"),
        "operators.calls": (mods["operators"]["calls"], "count"),
        "operators.self_s": (mods["operators"]["self_s"], "s"),
        "operators.budget_ratio": (t.budget_requested / t.budget_returned
                                   if t.budget_returned else 0.0, "ratio"),
        "algebra.p1_label_calls": (t.stat("algebra.p1_label")[0], "count"),
        "algebra.coset_reps": (t.coset_reps, "count"),
        "algebra.self_s": (mods["algebra"]["self_s"], "s"),
        "curve.calls": (mods["curve"]["calls"], "count"),
        "curve.self_s": (mods["curve"]["self_s"], "s"),
        "curve.reduce_point_calls": (t.stat("curve.reduce_point")[0], "count"),
        "curve.cold_levels": (t.cold_levels, "count"),
        "niebur.calls": (mods["niebur"]["calls"], "count"),
        "niebur.niebur_value_s": (t.stat("niebur.niebur_value")[1], "s"),
        "niebur.jn_value_s": (t.stat("niebur.jn_value")[1], "s"),
        "pairing.self_s": (mods["pairing"]["self_s"], "s"),
    }
    for mod, tot in mods.items():
        m[f"{mod}.errors"] = (tot["errors"], "count")
    return m


def write_spans(workload, seed, tracer):
    out = ROOT / OUT_DIR
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as fh:
        for op, span, parent, name, t0, t1 in tracer.spans:
            fh.write(json.dumps({"op": op, "span": span, "parent": parent, "name": name,
                                 "start": t0, "end": t1}) + "\n")
    print(f"  spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = _import_library()
    if args.workload not in wl.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {wl.WORKLOADS}")
    if args.trace:
        records, n_failed, metrics = traced(args.workload, args.seed, wl)
    else:
        setup_s = measure_setup(args.workload, args.seed)
        records, n_failed, metrics = end_to_end(args.workload, args.seed, args.seconds,
                                                setup_s, wl)
    print(json.dumps({"correct": n_failed == 0, "attempted": len(records),
                      "failed": n_failed, "metrics": metrics}))
    return 0 if n_failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
