"""Experiment drivers: noise models, metrics, runners, CSV emission.

Four studies are covered. The offline sweep perturbs a full-horizon
observation of the human trajectory and measures how well interpretation,
prediction, and planning survive the noise. The online run plays the
scenario's stages in turn: in each the autonomous side predicts the human and
plans, the human drives its own subjective game, and at the stage's end the
autonomous side interprets what it observed for the next stage, while both
sides observe each other's longitudinal position through noise. The
success-rate study contrasts the full interpretation pipeline against
planning from a randomly drawn guess of the human's weights. The timing run
drives the same per-stage pipeline once and records its durations under both
deployment models.

A repetition of any study is a function of the scenario, the ground truth
its study shares, the seed and its index. All four runners map theirs through
`_repeat`, which turns a repetition that raises into rows with its `failure`.

Every runner is deterministic for a given seed: repetition r draws from
numpy's default generator seeded with [seed, r] (with the noise level as a
third entry offline), rows are sorted by their key columns, and CSV floats
are written with 17 significant digits.
"""

from __future__ import annotations

import csv
import math
import time
import numpy as np

from .cognition import hv_subjective_game, plan_cavs, predict_hv
from .constraints import STEP_VARS, X_PX, Segment, Strategy, profile_violation
from .dynamics import VehicleState
from .game import make_game, solve_games
from .inverse import (Observation, _embedded_cav_solve, interpret_offline, interpret_online,
                      parameter_error)
from .scenario import EFFECTIVE_INDICES, StyleWeights, style_weights_for

SUCCESS_VIOLATION = 1e-3


def px_state_indices(segment):
    """Strategy-vector indices of the longitudinal position states."""
    return np.arange(segment.n_steps) * STEP_VARS + X_PX


def apply_noise(strategy, std, rng):
    """Observation of a strategy with Gaussian noise of the given std on the
    human's longitudinal position, the only quantity perturbed in these
    studies."""
    if std == 0.0:
        # No draw at all, so the generator's stream is left as it was.
        return Observation(strategy)
    idx = px_state_indices(strategy.segment)
    data = strategy.data.copy()
    data[idx] = data[idx] + rng.normal(0.0, std, idx.size)
    return Observation(Strategy(strategy.segment, data))


def stage_segments(scenario):
    """The game stages: the segments between the scenario's stage boundaries,
    or the whole horizon as one stage."""
    bounds = scenario.stages or (1, scenario.horizon)
    return [Segment(a, b) for a, b in zip(bounds, bounds[1:])]


def position_observation_error(observed, actual):
    """(1/T) * l2 distance between observed and actual position sequences."""
    diff = observed.positions() - actual.positions()
    return float(np.linalg.norm(diff.ravel())) / observed.segment.n_steps


def trajectory_prediction_error(predicted, actual):
    """(1/T) * l2 distance between full predicted and actual strategies."""
    return float(np.linalg.norm(predicted.data - actual.data)) / predicted.segment.n_steps


def position_prediction_error(predicted, actual):
    """Mean per-step Euclidean gap between predicted and actual positions."""
    diff = predicted.positions() - actual.positions()
    return float(np.mean(np.linalg.norm(diff, axis=1)))


def _profile_success(hv_strategy, plans, scenario, degraded):
    """A run succeeds when planning did not degrade and the executed joint
    profile (the actual human strategy with the CAV plans) stays clean."""
    clean = profile_violation({0: hv_strategy, **plans}, scenario) <= SUCCESS_VIOLATION
    return clean and not degraded


def _interpret_predict_plan(scenario, s_actual, std, rng):
    """The offline pipeline on one noisy observation of the human strategy.

    Returns the observation, the interpretation, the prediction model, the
    plans with their solve result, and the interpret/predict/plan durations.
    """
    t0 = time.perf_counter()
    obs = apply_noise(s_actual, std, rng)
    interp = interpret_offline(obs, scenario)
    t1 = time.perf_counter()
    model = predict_hv(scenario, interp.theta_0c)
    t2 = time.perf_counter()
    plans, plan_result, _ = plan_cavs(scenario, model.s_0c)
    t3 = time.perf_counter()
    return obs, interp, model, plans, plan_result, (t1 - t0, t2 - t1, t3 - t2)


def format_cell(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    return str(value)


def write_csv(path, fieldnames, rows):
    """Deterministic CSV: fixed column order, 17 significant digits, no
    timestamps, and a cell quoted only when it holds a comma, a quote or a
    line break. Values missing from a row are left empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows([format_cell(row.get(name)) for name in fieldnames] for row in rows)


def _repeat(keys, run, key_rows):
    """The rows of `run(key)` for every key, in key order. A key whose run
    raises gives the rows `key_rows(key)` instead, each carrying the error
    as its `failure`, "<Type>: <message>"."""
    rows = []
    for key in keys:
        try:
            rows += run(key)
        except Exception as exc:
            failure = f"{type(exc).__name__}: {exc}"
            rows += [dict(row, failure=failure) for row in key_rows(key)]
    return rows


OFFLINE_FIELDS = (
    "noise_std",
    "rep",
    "position_observation_error",
    "parameter_estimation_error",
    "trajectory_prediction_error",
    "position_prediction_error",
    "success",
    "low_identifiability",
    "interpret_seconds",
    "predict_seconds",
    "plan_seconds",
    "failure",
)


def _offline_rep(scenario, s_actual, std, seed, rep):
    """One repetition of the offline round trip at one noise level: its row."""
    rng = np.random.default_rng([seed, rep, int(round(std * 10000))])
    obs, interp, model, plans, plan_result, seconds = _interpret_predict_plan(
        scenario, s_actual, std, rng)
    return [dict(zip(OFFLINE_FIELDS, (
        std, rep,
        position_observation_error(obs.strategy, s_actual),
        parameter_error(interp.theta_0c, scenario.hv.weights_true, scenario.hv.behavior.kind),
        trajectory_prediction_error(model.s_0c, s_actual),
        position_prediction_error(model.s_0c, s_actual),
        _profile_success(s_actual, plans, scenario, plan_result.degraded),
        interp.low_identifiability, *seconds, None)))]


def run_offline_experiment(scenario, noise_stds, repetitions, seed):
    """Generate, perturb, interpret, re-predict, plan; one row per repetition
    per noise level. Failures become rows, not exceptions."""
    stds = [float(std) for std in noise_stds]
    for std in stds:
        if not (math.isfinite(std) and std >= 0):
            raise ValueError(f"std must be a finite non-negative number, got {std}")
    s_actual = solve_games(hv_subjective_game(scenario)).strategies[0]
    rows = _repeat([(std, rep) for std in stds for rep in range(repetitions)],
                   lambda key: _offline_rep(scenario, s_actual, key[0], seed, key[1]),
                   lambda key: [{"noise_std": key[0], "rep": key[1]}])
    rows.sort(key=lambda r: (r["noise_std"], r["rep"]))
    return rows


ONLINE_FIELDS = (
    "rep",
    "stage",
    "parameter_error",
    "parameter_error_updated",
    "low_identifiability",
    "position_observation_error",
    "trajectory_prediction_error",
    "position_prediction_error",
    "success",
    "interpret_seconds",
    "predict_seconds",
    "plan_seconds",
    "failure",
)


def _anchored_reference(full_ref, segment, p_x):
    """Stage reference obtained by matching a longitudinal position onto the
    complete reference and re-labelling it to the stage's steps."""
    anchor = full_ref.nearest_by_px(p_x)
    span = segment.stop - segment.start
    stop = anchor + span
    if stop > full_ref.stop:
        raise ValueError(
            f"reference extension too short: need step {stop}, have {full_ref.stop}"
        )
    return full_ref.window(anchor, stop).rebased(segment.start)


def _noisy_state(state, std, rng):
    if std == 0.0:
        return state
    arr = state.as_array().copy()
    arr[0] = arr[0] + rng.normal(0.0, std)
    return VehicleState.from_array(arr)


def _online_rep(scenario, seed, rep):
    """One repetition of the staged online interaction.

    Returns the stage rows and, for every game solved over the message
    layer, (kind, stage, session trace, wall seconds). At the end of each
    stage but the last, the autonomous side interprets the human trajectory
    it observed in that stage; the update serves the next stage, which is
    also where its duration is reported.
    """
    rng = np.random.default_rng([seed, rep])
    std = scenario.noise_std
    full_refs = scenario.references()
    cav_ids = [cav.vid for cav in scenario.cavs]
    kind = scenario.hv.behavior.kind
    segments = stage_segments(scenario)

    def anchored(vid, segment, state):
        return _anchored_reference(full_refs[vid], segment, state.p_x)

    actual = {v.vid: v.initial for v in scenario.vehicles}
    # Positions are common knowledge at the start; noisy cross-estimates
    # begin once trajectories are observed.
    hv_seen_by_cavs = scenario.hv.initial
    cavs_seen_by_hv = dict(actual)
    theta = style_weights_for(kind, scenario.hv.style)
    interpret_seconds = 0.0
    rows, timing = [], []
    for t, segment in enumerate(segments, 1):
        # The autonomous side's view of this stage.
        cav_initials = {vid: actual[vid] for vid in cav_ids}
        cav_refs = {vid: anchored(vid, segment, actual[vid]) for vid in cav_ids}
        hv_ref_cav = anchored(0, segment, hv_seen_by_cavs)
        t0 = time.perf_counter()
        model = predict_hv(scenario, theta, segment=segment,
                           references={0: hv_ref_cav, **cav_refs},
                           initial_states={0: hv_seen_by_cavs, **cav_initials})
        t1 = time.perf_counter()
        plans, plan_result, plan_trace = plan_cavs(
            scenario, model.s_0c, segment=segment, references=cav_refs,
            initial_states=cav_initials)
        t2 = time.perf_counter()
        timing += [("predict", t, model.trace, t1 - t0), ("plan", t, plan_trace, t2 - t1)]

        # The human's actual stage: its own subjective game, anchored at its
        # exact state and its noisy view of the autonomous vehicles.
        gt_game = hv_subjective_game(
            scenario,
            segment=segment,
            references={0: anchored(0, segment, actual[0]),
                        **{vid: anchored(vid, segment, cavs_seen_by_hv[vid])
                           for vid in cav_ids}},
            initial_states={0: actual[0], **{vid: cavs_seen_by_hv[vid] for vid in cav_ids}},
        )
        hv_actual = solve_games(gt_game).strategies[0]
        observation = apply_noise(hv_actual, std, rng)
        row = {
            "rep": rep,
            "stage": t,
            "parameter_error": parameter_error(theta, scenario.hv.weights_true, kind),
            "parameter_error_updated": None,
            "low_identifiability": None,
            "position_observation_error": position_observation_error(
                observation.strategy, hv_actual),
            "trajectory_prediction_error": trajectory_prediction_error(model.s_0c, hv_actual),
            "position_prediction_error": position_prediction_error(model.s_0c, hv_actual),
            "success": _profile_success(hv_actual, plans, scenario, plan_result.degraded),
            "interpret_seconds": interpret_seconds,
            "predict_seconds": t1 - t0,
            "plan_seconds": t2 - t1,
            "failure": None,
        }
        rows.append(row)

        if t < len(segments):
            t0 = time.perf_counter()
            cav_strategies, embed_trace = _embedded_cav_solve(
                observation, scenario, references=cav_refs, initial_states=cav_initials)
            # The first update, from stage 1, would only be pulled toward the
            # initial guess, so it runs without the pull.
            update = interpret_online(
                observation,
                theta,
                scenario,
                include_conservativeness=(t >= 2),
                cav_strategies=cav_strategies,
                hv_reference=hv_ref_cav,
                hv_initial=hv_seen_by_cavs,
            )
            interpret_seconds = time.perf_counter() - t0
            if not update.low_identifiability:
                theta = update.theta_0c
            row["parameter_error_updated"] = parameter_error(
                theta, scenario.hv.weights_true, kind)
            row["low_identifiability"] = update.low_identifiability
            timing.append(("interpret", t + 1, embed_trace, interpret_seconds))

        actual = {0: hv_actual.terminal_state(),
                  **{vid: plans[vid].terminal_state() for vid in cav_ids}}
        hv_seen_by_cavs = observation.strategy.terminal_state()
        cavs_seen_by_hv = {vid: _noisy_state(actual[vid], std, rng) for vid in cav_ids}
    return rows, timing


def run_online_experiment(scenario, repetitions=50, seed=0):
    """Staged interpretation and planning; one row per repetition per stage.

    The parameter_error column reports the estimate in use during the stage;
    parameter_error_updated and low_identifiability describe the update
    computed from that stage's observation (empty on the final stage, whose
    trajectory is never interpreted). An update whose stationarity system is
    flagged unidentifiable is discarded and the previous cognition kept, so
    a non-interactive stage never overwrites a usable estimate.
    """
    stages = len(stage_segments(scenario))
    rows = _repeat(range(repetitions), lambda rep: _online_rep(scenario, seed, rep)[0],
                   lambda rep: [{"rep": rep, "stage": t} for t in range(1, stages + 1)])
    rows.sort(key=lambda r: (r["rep"], r["stage"]))
    return rows


SUCCESS_FIELDS = (
    "mode",
    "bin_low",
    "bin_high",
    "count",
    "successes",
    "success_rate",
    "rep",
    "failure",
)

SUCCESS_BIN_WIDTH = 0.1


def _random_hv_guess(scenario, rng):
    """Unit effective vector at a uniform angle within 45 degrees of the true
    one: polar angle from the truth axis, uniform azimuth around it."""
    kind = scenario.hv.behavior.kind
    eff = list(EFFECTIVE_INDICES[kind])
    axis = scenario.hv.weights_true.normalized(kind).effective(kind)
    axis = axis / np.linalg.norm(axis)
    angle = abs(rng.uniform(-np.pi / 4, np.pi / 4))
    ortho = rng.standard_normal(len(axis))
    ortho = ortho - (ortho @ axis) * axis
    direction = np.cos(angle) * axis + np.sin(angle) * (ortho / np.linalg.norm(ortho))
    theta = np.ones(6)
    theta[eff] = direction
    theta = np.clip(theta, scenario.theta_min, scenario.theta_max)
    return StyleWeights(theta, scenario.theta_min, scenario.theta_max)


def _success_rep(scenario, s_actual, mode, seed, rep):
    """One repetition of the success-rate study: the parameter error the
    connected vehicles planned with, and whether the profile they executed
    with the actual human strategy succeeded."""
    rng = np.random.default_rng([seed, rep])
    if mode == "with_interpretation":
        _, interp, _, plans, plan_result, _ = _interpret_predict_plan(
            scenario, s_actual, scenario.noise_std, rng)
        guess, degraded = interp.theta_0c, plan_result.degraded
    else:
        guess = _random_hv_guess(scenario, rng)
        weights = {0: guess, **{cav.vid: cav.weights_true for cav in scenario.cavs}}
        result = solve_games(make_game(scenario, weights))
        plans = {vid: result.strategies[vid] for vid in weights if vid != 0}
        degraded = result.degraded
    return [{"error": parameter_error(guess, scenario.hv.weights_true, scenario.hv.behavior.kind),
             "success": _profile_success(s_actual, plans, scenario, degraded)}]


def run_success_rate(scenario, mode, repetitions, seed):
    """Success fraction binned by parameter error.

    with_interpretation runs the full observe/interpret/predict/plan pipeline
    under the scenario's noise.  random_cognition skips learning entirely: the
    connected vehicles solve one joint game with a randomly drawn guess of the
    human's weights standing in for the real driver and execute their own
    components of that equilibrium, never simulating how the human actually
    reasons about them.

    A failing repetition counts in no bin; it becomes a row with its mode,
    rep and failure before the overall row, which is left out when every one
    failed.
    """
    if mode not in ("with_interpretation", "random_cognition"):
        raise ValueError(f"unknown success-rate mode {mode!r}")
    s_actual = solve_games(hv_subjective_game(scenario)).strategies[0]
    results = _repeat(range(repetitions),
                      lambda rep: _success_rep(scenario, s_actual, mode, seed, rep),
                      lambda rep: [{"mode": mode, "rep": rep}])
    failed = [r for r in results if "failure" in r]
    outcomes = [(r["error"], r["success"]) for r in results if "failure" not in r]
    if not outcomes:
        return failed

    def rate_row(low, high, hits):
        return {"mode": mode, "bin_low": low, "bin_high": high, "count": len(hits),
                "successes": sum(hits), "success_rate": sum(hits) / len(hits)}

    rows = []
    for low in np.arange(0.0, max(o[0] for o in outcomes) + SUCCESS_BIN_WIDTH, SUCCESS_BIN_WIDTH):
        hits = [ok for err, ok in outcomes if low <= err < low + SUCCESS_BIN_WIDTH]
        if hits:
            rows.append(rate_row(float(low), float(low + SUCCESS_BIN_WIDTH), hits))
    return rows + failed + [rate_row(None, None, [ok for _, ok in outcomes])]


TIMING_FIELDS = (
    "rep",
    "stage",
    "mode",
    "interpret_seconds",
    "predict_seconds",
    "plan_seconds",
    "total_seconds",
    "predict_iterations",
    "plan_iterations",
    "failure",
)

_TIMING_MODES = ("distributed", "centralized")


def _timing_rep(scenario, seed, rep):
    """Both deployment models' rows of every stage of one online repetition."""
    count = len(stage_segments(scenario))
    _, timing = _online_rep(scenario, seed, rep)
    # Per stage and kind: (distributed, centralized) seconds and rounds.
    stages = {t: {"interpret": (0.0, 0.0, 0)} for t in range(1, count + 1)}
    for kind, t, trace, wall in timing:
        # The stationarity fit happens once at the roadside unit; its
        # wall time rides on top of the solve.
        fit = wall - trace.total_seconds if kind == "interpret" else 0.0
        stages[t][kind] = (trace.simulated_seconds() + fit, wall, trace.rounds)
    rows = []
    for t, cell in stages.items():
        for i, mode in enumerate(_TIMING_MODES):
            seconds = [cell[kind][i] for kind in ("interpret", "predict", "plan")]
            rows.append(dict(zip(TIMING_FIELDS, (
                rep, t, mode, *seconds, sum(seconds),
                cell["predict"][2], cell["plan"][2], None))))
    return rows


def run_timing(scenario, repetitions=10, seed=0):
    """Per-stage durations of the online pipeline under both deployment
    models, read from one run of each repetition over the message layer.

    Distributed durations follow the slowest-node model from the session
    traces; centralized durations are the stages' wall-clock totals. A
    failing repetition leaves rows with only their keys and its failure.
    """
    count = len(stage_segments(scenario))
    rows = _repeat(range(repetitions), lambda rep: _timing_rep(scenario, seed, rep),
                   lambda rep: [{"rep": rep, "stage": t, "mode": mode}
                                for t in range(1, count + 1) for mode in _TIMING_MODES])
    rows.sort(key=lambda r: (r["rep"], r["stage"], r["mode"]))
    return rows
