"""Tests for the experiment harness: noise model, metrics, CSV output,
stage plans, and the experiment runners' bookkeeping."""

import numpy as np
import pytest

from hypertraffic.constraints import STEP_VARS, X_PX, Segment, Strategy
from hypertraffic.harness import (
    NoiseSpec,
    OFFLINE_FIELDS,
    StagePlan,
    TIMING_FIELDS,
    _random_hv_guess,
    apply_noise,
    format_cell,
    position_observation_error,
    position_prediction_error,
    px_state_indices,
    run_offline_experiment,
    run_success_rate,
    run_timing,
    trajectory_prediction_error,
    write_csv,
)
from hypertraffic.scenario import default_offline_scenario, default_online_scenario


def _strategy(segment, seed):
    rng = np.random.default_rng(seed)
    return Strategy(segment, rng.normal(0.0, 1.0, segment.n_vars))


def test_noise_spec_validation():
    assert NoiseSpec(std=0.0).std == 0.0
    with pytest.raises(ValueError):
        NoiseSpec(std=-0.1)


def test_px_state_indices_layout():
    segment = Segment(1, 6)
    idx = px_state_indices(segment)
    assert idx.tolist() == [X_PX + STEP_VARS * j for j in range(5)]


def test_apply_noise_zero_std_is_identity():
    strategy = _strategy(Segment(1, 6), seed=0)
    obs = apply_noise(strategy, NoiseSpec(std=0.0), np.random.default_rng(1))
    assert obs.perturbed == ()
    assert obs.noise_std == 0.0
    np.testing.assert_array_equal(obs.strategy.data, strategy.data)


def test_apply_noise_touches_only_longitudinal_positions():
    segment = Segment(1, 11)
    strategy = _strategy(segment, seed=2)
    obs = apply_noise(strategy, NoiseSpec(std=0.3), np.random.default_rng(7))
    idx = px_state_indices(segment)
    assert obs.perturbed == tuple(idx.tolist())
    assert obs.noise_std == 0.3
    delta = obs.strategy.data - strategy.data
    mask = np.zeros(segment.n_vars, dtype=bool)
    mask[idx] = True
    assert np.all(delta[~mask] == 0.0)
    assert np.all(delta[mask] != 0.0)


def test_apply_noise_deterministic_under_seeded_rng():
    strategy = _strategy(Segment(1, 11), seed=3)
    spec = NoiseSpec(std=0.2)
    a = apply_noise(strategy, spec, np.random.default_rng(5))
    b = apply_noise(strategy, spec, np.random.default_rng(5))
    np.testing.assert_array_equal(a.strategy.data, b.strategy.data)


def test_metric_formulas_match_direct_computation():
    segment = Segment(1, 5)
    a = _strategy(segment, seed=10)
    b = _strategy(segment, seed=11)
    n = segment.n_steps

    pos_a = a.data.reshape(n, STEP_VARS)[:, 2:4]
    pos_b = b.data.reshape(n, STEP_VARS)[:, 2:4]
    expected_obs = np.linalg.norm((pos_a - pos_b).ravel()) / n
    assert position_observation_error(a, b) == pytest.approx(expected_obs, abs=1e-15)

    expected_traj = np.linalg.norm(a.data - b.data) / n
    assert trajectory_prediction_error(a, b) == pytest.approx(expected_traj, abs=1e-15)

    expected_pos = np.mean(np.linalg.norm(pos_a - pos_b, axis=1))
    assert position_prediction_error(a, b) == pytest.approx(expected_pos, abs=1e-15)

    assert position_observation_error(a, a) == 0.0
    assert trajectory_prediction_error(a, a) == 0.0
    assert position_prediction_error(a, a) == 0.0


def test_format_cell_rules():
    assert format_cell(None) == ""
    assert format_cell(True) == "1"
    assert format_cell(False) == "0"
    assert format_cell(np.bool_(True)) == "1"
    assert format_cell(0.1) == "%.17g" % 0.1
    assert format_cell(np.float64(2.5)) == "2.5"
    assert format_cell(7) == "7"
    assert format_cell("abc") == "abc"


def test_write_csv_golden_output(tmp_path):
    path = tmp_path / "out.csv"
    fields = ("name", "value", "flag", "note")
    rows = [
        {"name": "a", "value": 0.5, "flag": True, "note": None},
        {"name": "b", "value": 2, "flag": False},
    ]
    write_csv(path, fields, rows)
    text = path.read_text(encoding="utf-8")
    assert text == "name,value,flag,note\na,0.5,1,\nb,2,0,\n"


def test_stage_plan_segments_and_validation():
    plan = StagePlan((1, 13, 25, 36))
    assert plan.count == 3
    assert plan.segment(1) == Segment(1, 13)
    assert plan.segment(2) == Segment(13, 25)
    assert plan.segment(3) == Segment(25, 36)
    with pytest.raises(ValueError):
        plan.segment(0)
    with pytest.raises(ValueError):
        plan.segment(4)
    with pytest.raises(ValueError):
        StagePlan((1,))
    with pytest.raises(ValueError):
        StagePlan((2, 10))
    with pytest.raises(ValueError):
        StagePlan((1, 10, 10))


def test_stage_plan_from_scenario():
    online = default_online_scenario()
    plan = StagePlan.from_scenario(online)
    assert plan.boundaries == tuple(online.stages)
    assert plan.boundaries[0] == 1
    assert plan.boundaries[-1] == online.horizon

    offline = default_offline_scenario()
    fallback = StagePlan.from_scenario(offline)
    assert fallback.boundaries == (1, offline.horizon)
    assert fallback.count == 1


def test_random_hv_guess_stays_inside_cone_and_box():
    scenario = default_offline_scenario()
    kind = scenario.hv.behavior.kind
    axis = scenario.hv.weights_true.normalized(kind).effective(kind)
    axis = axis / np.linalg.norm(axis)
    rng = np.random.default_rng(0)
    unclipped = 0
    for _ in range(200):
        guess = _random_hv_guess(scenario, rng)
        theta = guess.theta
        assert np.all(theta >= scenario.theta_min - 1e-12)
        assert np.all(theta <= scenario.theta_max + 1e-12)
        eff = guess.effective(kind)
        if abs(np.linalg.norm(eff) - 1.0) < 1e-9:
            unclipped += 1
            cos_angle = float(eff @ axis)
            assert cos_angle >= np.cos(np.pi / 4) - 1e-9
    # The draw clips to the weight box only when the tilt pushes a component
    # below its floor, which should be the minority of samples.
    assert unclipped > 100


def test_run_offline_rows_and_determinism():
    scenario = default_offline_scenario()
    rows_a = run_offline_experiment(scenario, [0.05], repetitions=2, seed=3)
    rows_b = run_offline_experiment(scenario, [0.05], repetitions=2, seed=3)

    def strip_timing(rows):
        return [
            {k: v for k, v in row.items() if not k.endswith("_seconds")}
            for row in rows
        ]

    # Wall-clock columns vary between runs; everything else must not.
    assert strip_timing(rows_a) == strip_timing(rows_b)
    assert len(rows_a) == 2
    for rep, row in enumerate(rows_a):
        assert set(row) == set(OFFLINE_FIELDS)
        assert row["noise_std"] == 0.05
        assert row["rep"] == rep
        assert row["position_observation_error"] > 0.0
        assert row["parameter_estimation_error"] >= 0.0
        assert row["trajectory_prediction_error"] >= 0.0

    different = run_offline_experiment(scenario, [0.05], repetitions=2, seed=4)
    assert strip_timing(different) != strip_timing(rows_a)


def test_run_success_rate_rejects_unknown_mode():
    with pytest.raises(ValueError):
        run_success_rate(default_offline_scenario(), "oracle", repetitions=1, seed=0)


def test_run_timing_row_structure():
    scenario = default_offline_scenario()
    rows = run_timing(scenario, repetitions=1, seed=0)
    assert len(rows) == 2
    assert [row["mode"] for row in rows] == ["centralized", "distributed"]
    for row in rows:
        assert tuple(row) == TIMING_FIELDS
        assert row["rep"] == 0
        assert row["stage"] == 1
        assert row["total_seconds"] > 0.0
        assert row["predict_seconds"] >= 0.0
        assert row["plan_seconds"] >= 0.0
        assert row["predict_iterations"] >= 1
        assert row["plan_iterations"] >= 1
