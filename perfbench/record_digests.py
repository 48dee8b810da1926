"""Record the digests of every exact output for the default seeds.

    python3 perfbench/record_digests.py

Writes ``perfbench/digests.json``: for each exact workload and each seed
in ``DEFAULT_SEEDS``, the 16-hex-digit SHA-256 prefix of the canonical
text of each op's output (``workloads.canonical_text``), in op order,
over the first ``ROUNDS[workload]`` rounds.  Runs of those seeds then
compare their outputs bit for bit against the library version that wrote
the file.  Re-record only when the workload generators change, never to
accept a changed output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402

DEFAULT_SEEDS = range(0, 11)
# more rounds than a 20-second run of the recording commit executes
ROUNDS = {"hecke-mult": 14, "exact-series": 36, "divisor-levels": 20}


def record(workload, seed):
    out = []
    for ops in workloads.take_rounds(workload, seed, ROUNDS[workload]):
        workloads.clear_library_caches()
        for op in ops:
            result = workloads.execute(op)
            workloads.check_exact(workload, op, result)
            out.append(workloads.digest(result))
    return out


def main():
    data = {}
    for workload in ROUNDS:
        data[workload] = {str(s): record(workload, s) for s in DEFAULT_SEEDS}
        print(f"{workload}: {sum(map(len, data[workload].values()))} digests", flush=True)
    path = BENCH / "digests.json"
    path.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
