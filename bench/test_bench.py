"""Fast checks of the benchmark itself, on a tiny op count per workload.

    PYTHONPATH=src python -m pytest bench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from hypertraffic import game, harness, scenario  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OPS = 2


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_printed_with_unit(trace):
    proc = _run("--workload", "all", "--seed", "0", "--seconds", "0.01", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    listed = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    for name in workloads.WORKLOADS:
        for metric in listed:
            printed = result["metrics"][f"{name}/{metric['name']}"]
            assert printed["unit"] == metric["unit"]
            assert np.isfinite(printed["value"])
    if trace == "0":
        for name in ("setup_s", "setup_s.wall", "ops_per_s", "ops_per_s.norm", "op_s.p50",
                     "op_s.p50.norm", "peak_rss_mb", "probe_s", "failed_ratio"):
            hits = [ln.split() for ln in lines if ln.strip().startswith(name + " ")]
            assert len(hits) == 3, name
            assert all(h[2] in ("s", "1/s", "MB", "fraction") for h in hits), name
            assert all("n=" in " ".join(h) or "median of" in " ".join(h) for h in hits), name
        decision = [ln for ln in lines if ln.strip().startswith("decision_s.p50 ")]
        assert len(decision) == 1 and " s " in decision[0] and "n=" in decision[0]


def test_result_line_lists_the_gated_metrics():
    assert run.GATED == tuple(m["name"] for m in SPEC["end_to_end"])


def test_normalisation_scales_by_the_probe():
    slow = {"op": 0, "latency": 2.0, "probe": 4 * run.PROBE_REF_S, "error": None}
    for slope, scaled in ((1.0, 0.5), (0.5, 1.0)):
        metrics = run.end_to_end([slow, dict(slow, op=1)], (1.0, 1.0), [None, None], slope)
        assert metrics["op_s.p50"][0] == 2.0
        assert metrics["op_s.p50.norm"][0] == pytest.approx(scaled)
        assert metrics["ops_per_s.norm"][0] == pytest.approx(1.0 / scaled)
        assert metrics["ops_per_s"][0] == pytest.approx(0.5)


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(19))) is None
    assert run.tail([float(x) for x in range(20)])[:2] == (50.0, 9.0)
    pct, value, beyond = run.tail([float(x) for x in range(100)])
    assert (pct, value, beyond) == (90.0, 89.0, 10)


@pytest.fixture(scope="module")
def traced_runs():
    """Each workload's first ops untraced, then twice traced."""
    runs = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(3)
        wl.setup()
        plain = [wl.outcome(wl.op(i)) for i in range(OPS)]
        passes = []
        for _ in range(2):
            tr = tracer.Tracer()
            walls = []
            with tr:
                outs = []
                for i in range(OPS):
                    t0 = time.perf_counter()
                    value = tr.run_op(i, wl.op, i)
                    walls.append(time.perf_counter() - t0)
                    outs.append(wl.outcome(value))
            passes.append((tr, outs, walls))
        runs[name] = (plain, passes)
    return runs


def test_traced_and_untraced_results_bitwise_equal(traced_runs):
    for name, (plain, passes) in traced_runs.items():
        for _, outs, _ in passes:
            assert [o["digest"] for o in outs] == [o["digest"] for o in plain], name
            assert all(not o["problems"] for o in outs), name


def test_tracer_restores_originals():
    before = (game.solve_games, harness.solve_games, harness.predict_hv,
              game.collision_rows, scenario.ScenarioConfig.references)
    with tracer.Tracer() as tr:
        assert harness.solve_games is not before[1]
        assert not tr.missing
    after = (game.solve_games, harness.solve_games, harness.predict_hv,
             game.collision_rows, scenario.ScenarioConfig.references)
    assert all(a is b for a, b in zip(before, after))


def test_every_boundary_recorded_and_self_times_add_up(traced_runs):
    seen = set()
    for name, (_, passes) in traced_runs.items():
        tr, _, walls = passes[0]
        assert not tr.missing
        seen |= {span[1] for span in tr.spans}
        for op, wall in enumerate(walls):
            self_sum = 0.0
            by_id = {s[0]: s for s in tr.spans if s[5] == op}
            for span_id, _, start, end, _, _ in by_id.values():
                children = sum(c[3] - c[2] for c in by_id.values() if c[4] == span_id)
                self_sum += (end - start) - children
            assert abs(self_sum - wall) <= 0.03 * wall, (name, op, self_sum, wall)
    expected = {entry[0] for entry in tracer.FUNCTIONS} - tracer.UNREACHED
    assert expected | {tracer.ROOT} <= seen


def test_netsim_counts_repeat_between_runs(traced_runs):
    _, passes = traced_runs["online-staged"]
    first, second = (
        {k: v for k, v in tr.counts.items() if k.startswith("netsim.")} for tr, _, _ in passes
    )
    assert first == second and first["netsim.sessions"] > 0


def test_random_cognition_reproduces_harness_rows():
    seed, reps = 3, 6
    wl = workloads.RandomCognition(seed)
    wl.setup()
    outcomes = []
    for i in range(reps):
        error, success, _ = wl.op(i)
        outcomes.append((error, success))
    expected = harness.run_success_rate(wl.scenario, "random_cognition", reps, seed)
    width = harness.SUCCESS_BIN_WIDTH
    rows = []
    for low in np.arange(0.0, max(o[0] for o in outcomes) + width, width):
        hits = [ok for err, ok in outcomes if low <= err < low + width]
        if hits:
            rows.append({"mode": "random_cognition", "bin_low": float(low),
                         "bin_high": float(low + width), "count": len(hits),
                         "successes": sum(hits), "success_rate": sum(hits) / len(hits)})
    rows.append({"mode": "random_cognition", "bin_low": None, "bin_high": None,
                 "count": reps, "successes": sum(ok for _, ok in outcomes),
                 "success_rate": sum(ok for _, ok in outcomes) / reps})
    assert rows == expected


def test_reference_comparison_tolerates_round_off_only():
    ref = {"rounds": 3, "degraded": True, "error": 0.25, "s5.parameter_error_updated": None}
    assert workloads.compare_ref(dict(ref, error=0.25 * (1 + 1e-9)), ref) == []
    assert workloads.compare_ref(dict(ref, error=0.2501), ref)
    assert workloads.compare_ref(dict(ref, rounds=4), ref)
    assert workloads.compare_ref(dict(ref, degraded=False), ref)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "random-cognition", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
