"""Self-tests of the benchmark itself (not of the library).

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py

They check that inputs depend only on the seed, that corrupted outputs
are caught and counted as failures, that the printed metric names match
BENCHMARK.json, that the tail percentile has ten samples beyond it, and
that the benchmark refuses to run without the library source.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from heckediv import curve, forms, series  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_same_seed_same_inputs():
    for w in wl.WORKLOADS:
        assert wl.take_rounds(w, 7, 4) == wl.take_rounds(w, 7, 4)
        assert wl.take_rounds(w, 7, 4) != wl.take_rounds(w, 8, 4)


def _round_records(workload, seed):
    """Records of the first round of a default seed, executed cold."""
    wl.clear_library_caches()
    return [run.Record(0, op, wl.execute(op), None, 0.0)
            for op in wl.take_rounds(workload, seed, 1)[0]]


def _failed_count(workload, seed, records):
    failed, _notes, _digits = run.check_records(wl, workload, seed, records, run.load_digests())
    return sum(failed)


def _with_coeff(s, i, delta):
    coeffs = list(s.coeffs)
    coeffs[i] += delta
    return series.PuiseuxSeries(s.D, s.order, coeffs)


def _corrupted(records, i, out):
    bad = list(records)
    bad[i] = run.Record(0, records[i].op, out, None, 0.0)
    return bad


def test_flipped_coefficient_fails():
    records = _round_records("hecke-mult", 1)
    assert _failed_count("hecke-mult", 1, records) == 0
    i = next(i for i, r in enumerate(records) if r.op.kind == "mult" and r.op.expect is None)
    atom = records[i].out.atoms[0][0]

    def image(s):
        return forms.FormExpression.of(forms.OpaqueSeries(s, atom.weight, atom.level))
    # coefficient 1 is caught by the equivariance identity on any seed
    bad = _corrupted(records, i, image(_with_coeff(atom.series, 1, 1)))
    assert _failed_count("hecke-mult", 12345, bad) == 1
    # the last coefficient only by the digest recorded for a default seed
    bad = _corrupted(records, i, image(_with_coeff(atom.series, -1, 1)))
    assert _failed_count("hecke-mult", 12345, bad) == 0
    assert _failed_count("hecke-mult", 1, bad) == 1


def test_wrong_divisor_key_fails():
    records = _round_records("divisor-levels", 1)
    assert _failed_count("divisor-levels", 1, records) == 0
    i = next(i for i, r in enumerate(records)
             if r.op.kind == "div" and r.op.expect is None and r.out.interior)
    out = records[i].out
    (key, coeff), *rest = out.interior
    wrong = curve.CanonicalPoint(key.N, key.form, (key.label[0], key.label[1] + 1))
    bad_div = curve.Divisor(out.N, ((wrong, coeff), *rest), out.cusp_part)
    assert bad_div.degree == out.degree  # invisible to the degree check
    assert _failed_count("divisor-levels", 1, _corrupted(records, i, bad_div)) == 1


def test_unexpected_error_and_missing_refusal_fail():
    op = wl.Op("eisenstein", (4, 20), None)
    records = [run.Record(0, op, None, "ValueError: boom", 0.0)]
    assert _failed_count("exact-series", 12345, records) == 1
    assert isinstance(wl.execute(wl.Op("div", ("Delta5", 7), "UnsupportedParameter")),
                      wl.HeckeDivError)
    try:
        wl.execute(wl.Op("div", ("Delta5", 10), "UnsupportedParameter"))
    except wl.UnexpectedSuccess:
        pass
    else:
        raise AssertionError("a refusal that does not happen must fail")


def test_wrong_numeric_value_fails():
    ops = [op for ops in wl.take_rounds("numeric-eval", 1, 1) for op in ops
           if op.kind in ("jn_value", "bko")]
    outs = [wl.execute(op) for op in ops]
    bad, digits = wl.check_numeric(ops, outs)
    assert bad == [] and digits[1] >= wl.CM_MIN_DIGITS
    outs[0] = outs[0] * (1 + 1e-12)
    bad, _digits = wl.check_numeric(ops, outs)
    assert bad == [0]


def test_tail_has_ten_samples_beyond():
    # below 20 samples even the median has fewer than ten beyond it; every
    # run has more ops than that
    assert run.tail_latency([float(i) for i in range(19)])[2] < 10
    for n in (20, 21, 39, 40, 41, 100, 101, 199, 200, 1000, 20000):
        xs = [float(i) for i in range(n)]
        p, value, beyond = run.tail_latency(xs)
        assert beyond >= 10 and sum(x > value for x in xs) == beyond
        higher = [q for q in run.TAIL_LADDER if q > p]
        for q in higher:
            rank = -(-int(q * n) // 100)
            assert n - rank < 10
        # a workload's fixed percentile is kept however many ops a run has
        p, value, beyond = run.tail_latency(xs, 90.0)
        assert (p == 90.0) == (n >= 100) and beyond >= 10


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def test_printed_names_match_benchmark_json():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "exact-series",
                           "--seed", "1", "--seconds", "0.1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name in ("error_rate", "latency_tail_ms", "setup_s"):
        assert name in proc.stdout
    assert {w["name"] for w in SPEC["workloads"]} == set(wl.WORKLOADS)

    saved = dict(run.TRACE_ROUNDS)
    run.TRACE_ROUNDS["exact-series"] = 1
    try:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            _records, n_failed, metrics = run.traced("exact-series", 1, wl)
    finally:
        run.TRACE_ROUNDS.update(saved)
    assert n_failed == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want


def test_refuses_without_library_source():
    copy = ROOT / run.OUT_DIR / "selftest-copy"
    shutil.rmtree(copy, ignore_errors=True)
    copy.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", copy)
        shutil.copytree(BENCH, copy / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        cmd = SPEC["command"] + ["--workload", "hecke-mult", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True, timeout=170)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(copy, ignore_errors=True)


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} self-tests passed")
