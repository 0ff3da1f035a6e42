"""Record the per-op reference outcomes that runs with ``--seed 0`` must match.

    python3 bench/record_reference.py

Writes ``bench/reference.json``: for each workload, the ``ref`` record of ops
0, 1, ... with seed 0. Record more ops than a run of ``--seconds`` completes;
ops beyond the recorded ones are gated but not compared.
"""

import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402

OPS = {"forward-h121": 24, "random-cognition": 240, "online-staged": 100}


def main():
    reference = {}
    for name, count in OPS.items():
        wl = workloads.WORKLOADS[name](0)
        wl.setup()
        records = []
        for i in range(count):
            out = wl.outcome(wl.op(i))
            if out["problems"]:
                sys.exit(f"{name} op {i} fails its gate: {out['problems']}")
            records.append(out["ref"])
        reference[name] = records
        print(f"{name}: {count} ops recorded", flush=True)
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
