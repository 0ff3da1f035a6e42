"""Acceptance suite: one test per release criterion, each printing a single
PASS line with its measured numbers (run with -s or -rA to see them; the
pytest -v PASSED/FAILED column is the per-criterion verdict)."""

import time

import numpy as np

from hypertraffic.cognition import hne_gap_sweep
from hypertraffic.constraints import Segment, Strategy
from hypertraffic.dynamics import VehicleGeometry, linearize_discrete
from hypertraffic.game import make_game, solve_games
from hypertraffic.harness import (
    run_offline_experiment,
    run_online_experiment,
    run_success_rate,
    run_timing,
    stage_segments,
)
from hypertraffic.netsim import run_distributed
from hypertraffic.qp import INFEASIBLE, OPTIMAL
from hypertraffic.scenario import (
    StyleWeights,
    default_offline_scenario,
    default_online_scenario,
    success_study_scenario,
)

from _oracles import (enumerate_qp, fd_step_jacobians, pseudo_gradient, random_nominal,
                      random_qp, solve_dense)


def _report(number, detail):
    print(f"criterion {number:02d}: PASS  {detail}")


def test_criterion_01_qp_solver_matches_enumeration():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    n_infeasible = 0
    worst_s = 0.0
    worst_obj = 0.0
    for _ in range(1000):
        h, f, a_eq, b_eq, a_in, b_in = random_qp(rng)
        expect_s, expect_obj = enumerate_qp(h, f, a_eq, b_eq, a_in, b_in)
        sol = solve_dense(h, f, a_eq, b_eq, a_in, b_in)
        if expect_s is None:
            n_infeasible += 1
            assert sol.status == INFEASIBLE
            continue
        assert sol.status == OPTIMAL
        worst_s = max(worst_s, float(np.max(np.abs(sol.s_star - expect_s))))
        worst_obj = max(worst_obj, abs(sol.objective - expect_obj))
        assert worst_s <= 1e-6
        assert worst_obj <= 1e-6
    elapsed = time.perf_counter() - started
    assert n_infeasible > 0
    assert elapsed < 10.0
    _report(1, f"1000 QPs, worst solution gap {worst_s:.2e}, "
               f"worst objective gap {worst_obj:.2e}, "
               f"{n_infeasible} infeasible, {elapsed:.1f}s")


def test_criterion_02_linearization_matches_finite_differences():
    geo = VehicleGeometry()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        state, control = random_nominal(rng)
        lin = linearize_discrete(state, control, geo, 0.1)
        fd_a, fd_b = fd_step_jacobians(state, control, geo, 0.1, eps=1e-6)
        worst = max(
            worst,
            float(np.max(np.abs(lin.a_mat - fd_a))),
            float(np.max(np.abs(lin.b_mat - fd_b))),
        )
    assert worst <= 1e-6
    _report(2, f"100 points, worst Jacobian deviation {worst:.2e}")


def test_criterion_03_pseudo_gradient_strongly_monotone():
    scen = default_offline_scenario()
    seg = Segment(1, scen.horizon)
    refs = {vid: scen.references()[vid].window(1, scen.horizon) for vid in (1, 2, 3)}
    rng = np.random.default_rng(99)
    margin = np.inf
    for _ in range(1000):
        weights = {
            vid: StyleWeights(rng.uniform(0.05, 5.0, size=6)) for vid in (1, 2, 3)
        }
        s_a = {vid: Strategy(seg, rng.normal(size=seg.n_vars)) for vid in (1, 2, 3)}
        s_b = {vid: Strategy(seg, rng.normal(size=seg.n_vars)) for vid in (1, 2, 3)}
        diff = pseudo_gradient(s_a, weights, refs) - pseudo_gradient(s_b, weights, refs)
        step = np.concatenate([s_a[vid].data - s_b[vid].data for vid in (1, 2, 3)])
        inner = float(diff @ step)
        sq = float(step @ step)
        lo = min(float(np.min(w.theta)) for w in weights.values())
        hi = max(float(np.max(w.theta)) for w in weights.values())
        scale = 1e-9 * (1.0 + abs(inner))
        assert inner >= lo * sq - scale
        assert inner <= hi * sq + scale
        margin = min(margin, inner - lo * sq, hi * sq - inner)
    _report(3, f"1000 draws, two-sided bound holds, slack {margin:.2e}")


def test_criterion_04_default_game_converges():
    scen = default_offline_scenario()
    weights = {v.vid: v.weights_true for v in scen.vehicles}
    game = make_game(scen, weights)
    started = time.perf_counter()
    result = solve_games(game)
    elapsed = time.perf_counter() - started
    assert result.converged
    assert result.iterations <= 100
    assert result.max_violation <= 1e-3
    for vid, gap in result.gaps.items():
        assert gap <= 1e-4 * (1.0 + abs(result.objectives[vid]))
    assert elapsed <= 60.0
    _report(4, f"converged in {result.iterations} rounds, "
               f"violation {result.max_violation:.2e}, "
               f"worst gap {max(result.gaps.values()):.2e}, {elapsed:.1f}s")


def test_criterion_05_distributed_matches_centralized_bitwise():
    base = default_offline_scenario()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        weights = {}
        for vehicle in base.vehicles:
            factors = rng.uniform(0.85, 1.2, size=6)
            theta = np.clip(
                vehicle.weights_true.theta * factors, base.theta_min, base.theta_max
            )
            weights[vehicle.vid] = StyleWeights(theta, base.theta_min, base.theta_max)
        game = make_game(base, weights)
        res_c = solve_games(game)
        res_d, trace_d = run_distributed(game)
        assert res_c.iterations == res_d.iterations
        assert res_c.converged == res_d.converged
        assert sorted(res_c.strategies) == sorted(res_d.strategies)
        for vid in res_c.strategies:
            assert np.array_equal(
                res_c.strategies[vid].data, res_d.strategies[vid].data
            )
        assert res_c.gaps == res_d.gaps
        assert len(trace_d.messages) > 0
    _report(5, "20 seeded weight draws, strategies and gaps bitwise identical")


def test_criterion_06_offline_round_trip_and_noise_benefit():
    scen = default_offline_scenario()
    clean = run_offline_experiment(scen, [0.0], repetitions=1, seed=0)
    row = clean[0]
    assert row["failure"] is None
    assert row["parameter_estimation_error"] <= 0.05
    assert row["position_prediction_error"] <= 0.02

    noisy = run_offline_experiment(scen, [0.05], repetitions=50, seed=0)
    assert all(r["failure"] is None for r in noisy)
    pred = float(np.median([r["trajectory_prediction_error"] for r in noisy]))
    obs = float(np.median([r["position_observation_error"] for r in noisy]))
    assert pred < obs
    _report(6, f"noise-free parameter error "
               f"{row['parameter_estimation_error']:.2e}, position prediction "
               f"{row['position_prediction_error']:.2e}; at std 0.05 median "
               f"prediction {pred:.4f} < median observation {obs:.4f}")


def test_criterion_07_noise_sweep_medians():
    scen = default_offline_scenario()
    stds = [0.05, 0.10, 0.20, 0.40]
    started = time.perf_counter()
    rows = run_offline_experiment(scen, stds, repetitions=50, seed=0)
    elapsed = time.perf_counter() - started
    assert all(r["failure"] is None for r in rows)
    medians = []
    for std in stds:
        errs = [r["parameter_estimation_error"] for r in rows if r["noise_std"] == std]
        assert len(errs) == 50
        medians.append(float(np.median(errs)))
    for lo, hi in zip(medians, medians[1:]):
        assert hi >= lo
    assert medians[-1] <= 0.25
    assert elapsed <= 1800.0
    _report(7, "median parameter errors "
               + ", ".join(f"{s:.2f}:{m:.4f}" for s, m in zip(stds, medians))
               + f", {elapsed:.0f}s")


def test_criterion_08_online_stages_identify_after_interaction():
    scen = default_online_scenario()
    rows = run_online_experiment(scen, repetitions=50, seed=0)
    assert all(r["failure"] is None for r in rows)

    stage1 = [r for r in rows if r["stage"] == 1]
    assert len(stage1) == 50
    assert all(r["low_identifiability"] is True for r in stage1)

    updated = [
        r["parameter_error_updated"]
        for r in rows
        if r["stage"] >= 2 and r["parameter_error_updated"] is not None
    ]
    assert updated
    median = float(np.median(updated))
    assert median <= 0.04
    _report(8, f"stage 1 flagged unidentifiable in all 50 reps; median updated "
               f"parameter error from stage 2 on {median:.4f}")


def test_criterion_09_interpretation_beats_random_cognition():
    scen = success_study_scenario()
    with_rows = run_success_rate(scen, "with_interpretation", repetitions=100, seed=0)
    random_rows = run_success_rate(scen, "random_cognition", repetitions=1000, seed=0)
    overall_with = with_rows[-1]
    overall_random = random_rows[-1]
    assert overall_with["bin_low"] is None
    assert overall_random["bin_low"] is None
    assert overall_with["count"] == 100
    assert overall_random["count"] == 1000
    assert overall_with["success_rate"] == 1.0
    assert overall_random["success_rate"] < overall_with["success_rate"]
    for row in with_rows + random_rows:
        label = ("overall" if row["bin_low"] is None
                 else f"[{row['bin_low']:.1f},{row['bin_high']:.1f})")
        print(f"  {row['mode']} {label}: {row['successes']}/{row['count']} "
              f"rate {row['success_rate']:.3f}")
    _report(9, f"with_interpretation {overall_with['success_rate']:.3f} over 100 "
               f"reps vs random_cognition {overall_random['success_rate']:.3f} "
               f"over 1000 reps")


def test_criterion_10_cognitive_threshold_and_distributed_timing():
    sweep = hne_gap_sweep(default_offline_scenario())
    gaps = [gap for _, gap in sweep.rows]
    assert gaps[0] <= 1e-4
    assert gaps[-1] > gaps[0]
    for lo, hi in zip(gaps, gaps[1:]):
        assert hi >= lo - 1e-9
    assert np.isfinite(sweep.slope)
    assert sweep.slope > 0.0

    scen = default_online_scenario()
    rows = run_timing(scen, repetitions=10, seed=0)
    ratios = []
    for stage in range(1, len(stage_segments(scen)) + 1):
        per_mode = {}
        for mode in ("centralized", "distributed"):
            values = [
                r["total_seconds"]
                for r in rows
                if r["stage"] == stage and r["mode"] == mode
            ]
            assert len(values) == 10
            per_mode[mode] = float(np.median(values))
        assert per_mode["distributed"] <= per_mode["centralized"]
        ratios.append(per_mode["distributed"] / per_mode["centralized"])
    _report(10, f"zero mismatch gap {gaps[0]:.2e}, slope {sweep.slope:.4f}; "
                f"distributed/centralized per-stage time ratios "
                + ", ".join(f"{r:.2f}" for r in ratios))
