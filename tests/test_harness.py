"""Tests for the experiment harness: noise model, metrics, CSV output,
stage segments, and the experiment runners' bookkeeping."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from hypertraffic import game, harness, netsim
from hypertraffic.cognition import plan_cavs, predict_hv
from hypertraffic.constraints import STEP_VARS, X_PX, Segment, Strategy
from hypertraffic.harness import (
    OFFLINE_FIELDS,
    TIMING_FIELDS,
    _random_hv_guess,
    apply_noise,
    format_cell,
    position_observation_error,
    position_prediction_error,
    px_state_indices,
    run_offline_experiment,
    run_online_experiment,
    run_success_rate,
    run_timing,
    stage_segments,
    trajectory_prediction_error,
    write_csv,
)
from hypertraffic.inverse import Observation, interpret_offline
from hypertraffic.scenario import default_offline_scenario, default_online_scenario


def _strategy(segment, seed):
    rng = np.random.default_rng(seed)
    return Strategy(segment, rng.normal(0.0, 1.0, segment.n_vars))


@pytest.mark.parametrize("std", [float("nan"), float("inf"), -0.1])
def test_offline_experiment_refuses_a_non_finite_or_negative_std(std, monkeypatch):
    # Refused before the ground truth is solved, so no game runs at all.
    monkeypatch.setattr(harness, "solve_games", None)
    with pytest.raises(ValueError, match=f"^std must be a finite non-negative number, got {std}$"):
        run_offline_experiment(default_offline_scenario(), [0.05, std], repetitions=1, seed=0)


def test_px_state_indices_layout():
    segment = Segment(1, 6)
    idx = px_state_indices(segment)
    assert idx.tolist() == [X_PX + STEP_VARS * j for j in range(5)]


def test_apply_noise_zero_std_is_identity():
    strategy = _strategy(Segment(1, 6), seed=0)
    rng = np.random.default_rng(1)
    obs = apply_noise(strategy, 0.0, rng)
    np.testing.assert_array_equal(obs.strategy.data, strategy.data)
    # Nothing is drawn, so the stream the later draws read is left as it was.
    assert rng.random() == np.random.default_rng(1).random()


def test_apply_noise_touches_only_longitudinal_positions():
    segment = Segment(1, 11)
    strategy = _strategy(segment, seed=2)
    obs = apply_noise(strategy, 0.3, np.random.default_rng(7))
    idx = px_state_indices(segment)
    delta = obs.strategy.data - strategy.data
    assert np.flatnonzero(delta).tolist() == idx.tolist()
    mask = np.zeros(segment.n_vars, dtype=bool)
    mask[idx] = True
    assert np.all(delta[~mask] == 0.0)
    assert np.all(delta[mask] != 0.0)


def test_apply_noise_deterministic_under_seeded_rng():
    strategy = _strategy(Segment(1, 11), seed=3)
    a = apply_noise(strategy, 0.2, np.random.default_rng(5))
    b = apply_noise(strategy, 0.2, np.random.default_rng(5))
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
    # A failure message may hold a comma, as an anchored stage reference's
    # does, or a quote; only such a cell is quoted.
    failure = "ValueError: reference extension too short: need step 130, have 101"
    rows = [
        {"name": "a", "value": 0.5, "flag": True, "note": None},
        {"name": "b", "value": 2, "flag": False},
        {"name": "c", "note": failure},
        {"name": 'say "x"'},
    ]
    write_csv(path, fields, rows)
    text = path.read_text(encoding="utf-8")
    assert text == ('name,value,flag,note\na,0.5,1,\nb,2,0,\nc,,,"' + failure + '"\n'
                    '"say ""x""",,,\n')
    with open(path, newline="", encoding="utf-8") as fh:
        header, *cells = csv.reader(fh)
    assert [len(row) for row in cells] == [len(header)] * 4
    assert cells[2][3] == failure and cells[3][0] == 'say "x"'


def test_stage_segments_split_the_horizon_at_the_scenario_stages():
    scen = replace(default_offline_scenario(), horizon=36, stages=(1, 13, 25, 36))
    assert stage_segments(scen) == [Segment(1, 13), Segment(13, 25), Segment(25, 36)]
    # Boundaries that split nothing never reach it: the scenario refuses them.
    for bad in ((1,), (2, 36), (1, 10, 10, 36)):
        with pytest.raises(ValueError, match="^stage boundaries"):
            replace(scen, stages=bad)
    online = default_online_scenario()
    segments = stage_segments(online)
    assert [s.start for s in segments] + [segments[-1].stop] == list(online.stages)


def test_stage_segments_fall_back_to_one_stage():
    offline = default_offline_scenario()
    assert offline.stages == ()
    assert stage_segments(offline) == [Segment(1, offline.horizon)]


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


def test_online_rows_carry_each_stage_update_into_the_next_stage():
    # Stage t's observation is interpreted for stage t + 1: the update's
    # estimate is the one the next row reports as in use, and its duration is
    # billed to the next row and the next stage's timing.
    scen = default_online_scenario()
    count = len(stage_segments(scen))
    rows = run_online_experiment(scen, repetitions=2, seed=0)
    assert [(r["rep"], r["stage"]) for r in rows] == [
        (rep, t) for rep in range(2) for t in range(1, count + 1)]
    for rep in range(2):
        stages = rows[rep * count:(rep + 1) * count]
        assert not any(r["failure"] for r in stages)
        for row, following in zip(stages, stages[1:]):
            assert row["parameter_error_updated"] == following["parameter_error"]
            assert row["low_identifiability"] in (True, False)
        # An identifiable update moves the estimate; a flagged one is dropped.
        assert any(r["parameter_error_updated"] != r["parameter_error"]
                   for r in stages[:-1] if not r["low_identifiability"])
        assert stages[-1]["parameter_error_updated"] is None
        assert stages[-1]["low_identifiability"] is None
        assert stages[0]["interpret_seconds"] == 0.0
        assert all(r["interpret_seconds"] > 0.0 for r in stages[1:])

    rep_rows, timing = harness._online_rep(scen, 0, 1)

    def untimed(rows):
        return [{k: v for k, v in r.items() if not k.endswith("_seconds")} for r in rows]

    assert untimed(rep_rows) == untimed(rows[count:])
    assert [t for kind, t, _, _ in timing if kind == "interpret"] == list(range(2, count + 1))


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


def test_run_timing_reads_both_models_from_one_run(monkeypatch):
    runs = []
    original = harness._online_rep

    def counting(*args):
        runs.append(args)
        return original(*args)

    monkeypatch.setattr(harness, "_online_rep", counting)
    rows = run_timing(default_online_scenario(), repetitions=2, seed=0)
    assert len(runs) == 2
    pairs = {}
    for row in rows:
        pairs.setdefault((row["rep"], row["stage"]), {})[row["mode"]] = row
    assert len(pairs) == 2 * len(stage_segments(default_online_scenario()))
    for pair in pairs.values():
        dist, cent = pair["distributed"], pair["centralized"]
        for field in ("predict_iterations", "plan_iterations"):
            assert dist[field] == cent[field] >= 1
        assert dist["total_seconds"] <= cent["total_seconds"]


def test_every_solve_reads_the_scenario_solver_settings(monkeypatch):
    # Prediction, planning, the embedded CAV solve of the offline fit and the
    # staged online run all take their round budget from `scenario.solver`.
    rounds = {}

    def recording(module):
        def solve(g, observer=None):
            result = game.solve_games(g, observer)
            rounds.setdefault(module.__name__, []).append(result.iterations)
            return result
        return solve

    for module in (netsim, harness):
        monkeypatch.setattr(module, "solve_games", recording(module))

    def one_round(scen):
        return replace(scen, solver=replace(scen.solver, max_iterations=1))

    scen = one_round(default_offline_scenario())
    model = predict_hv(scen, scen.hv.weights_true)
    _, result, _ = plan_cavs(scen, model.s_0c)
    assert model.result.iterations == 1 and result.iterations == 1
    interpret_offline(Observation(model.s_0c), scen)
    # prediction, planning and the fit's embedded CAV solve, all distributed
    assert rounds.pop("hypertraffic.netsim") == [1, 1, 1]
    run_online_experiment(one_round(default_online_scenario()), repetitions=1, seed=0)
    assert rounds.pop("hypertraffic.harness") == [1] * 5
    assert set(rounds.pop("hypertraffic.netsim")) == {1}
    assert not rounds
