"""hypertraffic benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload forward-h121 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 0

One process, one thread: BLAS is pinned to one thread before numpy loads. A
run sets the workload up several times (reporting the median), then sends one
op at a time for ``--seconds`` seconds and checks every op's result. It prints
each metric with its unit and sample count, and as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run is split: it
times ops with the tracer installed for half the time, then replays the same
ops untraced, reports the per-layer metrics, the tracing overhead, and fails
any op whose traced and untraced results differ bitwise. Spans are written to
``.bench_out/``. The exit status is non-zero if any op fails.

The tests of the benchmark itself run with ``PYTHONPATH=src python -m pytest bench``.
"""

import os
import sys
import time

START = time.perf_counter()

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
REFERENCE_SEED = 0
REFERENCE_PATH = BENCH_DIR / "reference.json"
OUT_DIR = ROOT / ".bench_out"
# Probe time on the reference host (a 2-core Intel Xeon VM in a quiet phase).
# Normalised times are wall times scaled by (PROBE_REF_S / probe) ** slope,
# the probe bracketing the measured interval and the slope the workload's, so
# a slow phase of the host cancels out.
PROBE_REF_S = 0.0026
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# The end-to-end metrics in the result line; BENCHMARK.json lists the same.
GATED = ("setup_s", "ops_per_s.norm", "op_s.p50.norm", "peak_rss_mb")


if not (SRC / "hypertraffic" / "__init__.py").is_file():
    sys.exit(f"bench: no hypertraffic sources under {SRC}; run from a full checkout")
sys.path[:0] = [str(SRC), str(BENCH_DIR)]

import numpy as np  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

IMPORTED = time.perf_counter()


_PROBE_MAT = np.random.default_rng(12345).standard_normal((48, 48))


def _probe_unit():
    t0 = time.perf_counter()
    acc = 0
    for k in range(20_000):
        acc += k * k
    np.linalg.svd(_PROBE_MAT)
    np.linalg.lstsq(_PROBE_MAT, _PROBE_MAT[0], rcond=None)
    return time.perf_counter() - t0


def probe(units):
    """Host speed now: median seconds of a fixed mix of interpreter and LAPACK
    work, repeated `units` times."""
    return statistics.median(_probe_unit() for _ in range(units))


def environment():
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "git_sha": sha,
    }


def tail(latencies):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(latencies)
    ordered = sorted(latencies)
    for pct in TAIL_PERCENTILES:
        rank = max(0, math.ceil(round(pct * n / 100.0, 9)) - 1)  # nearest rank
        if n - 1 - rank >= 10:
            return pct, ordered[rank], n - 1 - rank
    return None


def normalise(seconds, probe_s, slope):
    """`seconds` as measured on the reference host."""
    return seconds * (PROBE_REF_S / probe_s) ** slope


def set_up(workload_cls, seed):
    """Fresh workload set up and warmed by one op; returns it with its time."""
    t0 = time.perf_counter()
    wl = workload_cls(seed)
    wl.setup()
    wl.op(workloads.WARMUP_OP)
    return wl, time.perf_counter() - t0


def timed_loop(wl, seconds, max_ops=0, run_op=None):
    """Closed loop: one op at a time until the time or the op budget is spent.

    A probe runs between ops; each op's record carries the mean of the probes
    before and after it. Returns the records and the summed op time."""
    records = []
    begin = time.perf_counter()
    before = probe(wl.probe_units)
    i = 0
    while True:
        t0 = time.perf_counter()
        try:
            value = run_op(i, wl.op, i) if run_op else wl.op(i)
            error = None
        except Exception as exc:  # an op that raises counts as failed
            value, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        after = probe(wl.probe_units)
        records.append({"op": i, "latency": t1 - t0, "probe": 0.5 * (before + after),
                        "value": value, "error": error})
        before = after
        i += 1
        if time.perf_counter() - begin >= seconds or (max_ops and i >= max_ops):
            return records, sum(r["latency"] for r in records)


def check(wl, records, seed):
    """Outcome and correctness gate of every op; reference match on the
    reference seed. Returns the outcomes and (op, message) failures."""
    reference = None
    if seed == REFERENCE_SEED and REFERENCE_PATH.is_file():
        reference = json.loads(REFERENCE_PATH.read_text())[wl.name]
    outcomes, failures = [], []
    for rec in records:
        if rec["error"]:
            outcomes.append(None)
            failures.append((rec["op"], f"raised {rec['error']}"))
            continue
        out = wl.outcome(rec["value"])
        problems = list(out["problems"])
        if reference is not None and rec["op"] < len(reference):
            problems += workloads.compare_ref(out["ref"], reference[rec["op"]])
        failures += [(rec["op"], p) for p in problems]
        outcomes.append(out)
    return outcomes, failures


def end_to_end(records, setup, outcomes, slope):
    """Every end-to-end metric as name -> (value, unit, sample note)."""
    ok = [r for r in records if not r["error"]]
    n = len(ok)
    latencies = [r["latency"] for r in ok]
    normalised = [normalise(r["latency"], r["probe"], slope) for r in ok]
    spent = sum(r["latency"] for r in records)
    spent_norm = sum(normalise(r["latency"], r["probe"], slope) for r in records)
    setup_s, setup_wall = setup
    metrics = {
        "setup_s": (setup_s, "s", f"median of {SETUP_REPEATS}, normalised"),
        "setup_s.wall": (setup_wall, "s", f"median of {SETUP_REPEATS}"),
        "ops_per_s.norm": (n / spent_norm, "1/s", f"n={n}, normalised"),
        "ops_per_s": (n / spent, "1/s", f"n={n}"),
        "op_s.p50.norm": (statistics.median(normalised or [math.nan]), "s",
                          f"n={n}, normalised"),
        "op_s.p50": (statistics.median(latencies or [math.nan]), "s", f"n={n}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "n=1"),
    }
    t = tail(latencies)
    if t:
        pct, value, beyond = t
        metrics["op_s.tail"] = (value, "s", f"p{pct:g}, n={n}, {beyond} beyond")
    decisions = [d for out in outcomes if out and "decision_s" in out for d in out["decision_s"]]
    if decisions:
        metrics["decision_s.p50"] = (statistics.median(decisions), "s",
                                     f"n={len(decisions)} stages >= 2")
    probes = [r["probe"] for r in records]
    metrics["probe_s"] = (statistics.median(probes), "s",
                          f"n={n}, first {probes[0]:.4g}, last {probes[-1]:.4g}")
    return metrics


def run_workload(args):
    cls = workloads.WORKLOADS[args.workload]
    # Every set-up is bracketed by probes, the imports by the first one.
    first = before = probe(cls.probe_units)
    setups, setups_norm = [], []
    for _ in range(SETUP_REPEATS):
        wl, seconds = set_up(cls, args.seed)
        after = probe(cls.probe_units)
        setups.append(seconds)
        setups_norm.append(normalise(seconds, 0.5 * (before + after), cls.probe_slope))
        before = after
    import_s = IMPORTED - START
    setup = (normalise(import_s, first, cls.probe_slope) + statistics.median(setups_norm),
             import_s + statistics.median(setups))

    layer = None
    if args.trace:
        tr = tracer.Tracer()
        with tr:
            records, wall = timed_loop(wl, args.seconds / 2.0, run_op=tr.run_op)
        # The same ops again, untraced: the overhead's base and the bitwise check.
        plain, plain_wall = timed_loop(wl, float("inf"), len(records))
        tr.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        records, wall = timed_loop(wl, args.seconds)

    outcomes, failures = check(wl, records, args.seed)
    metrics = end_to_end(records, setup, outcomes, cls.probe_slope)
    if args.trace:
        plain_outcomes, plain_failures = check(wl, plain, args.seed)
        failures += [(op, f"untraced: {msg}") for op, msg in plain_failures]
        for rec, a, b in zip(records, outcomes, plain_outcomes):
            if a and b and a["digest"] != b["digest"]:
                failures.append((rec["op"], "traced and untraced results differ"))
        n = len(records)
        layer = tr.layer_metrics(n)
        layer["trace.overhead"] = (plain_wall / wall, "ratio")
        layer["trace.spans"] = (len(tr.spans) / n, "count/op")

    failed_ops = {op for op, _ in failures}
    attempted = len(records)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops in {wall:.3f} s, {len(failed_ops)} failed")
    print("env " + json.dumps({**environment(), "import_s": import_s, "setup_runs_s": setups}))
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<15} {value:.6g} {unit}  ({note})")
    print(f"  {'failed_ratio':<15} {len(failed_ops) / attempted:.6g} fraction  "
          f"(n={attempted})")
    for op, msg in failures[:20]:
        print(f"  FAIL op {op}: {msg}")
    if layer:
        for name, (value, unit) in layer.items():
            print(f"  {name:<36} {value:.6g} {unit}")
        chosen = layer
    else:
        chosen = {k: metrics[k][:2] for k in GATED}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(args):
    """Every workload in its own process, one after the other."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            child = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            status = status or 1
            continue
        combined["correct"] &= child["correct"]
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        for key, value in child["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
