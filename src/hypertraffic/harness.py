"""Experiment drivers: noise models, metrics, runners, CSV emission.

Four studies are covered. The offline sweep perturbs a full-horizon
observation of the human trajectory and measures how well interpretation,
prediction, and planning survive the noise. The online run alternates
per-stage interpretation and planning while both sides observe each other's
longitudinal position through noise. The success-rate study contrasts the
full interpretation pipeline against planning from a randomly drawn guess of
the human's weights. The timing run drives the same per-stage pipeline
through both transports and records the deployment-model durations.

Every runner is deterministic for a given seed: repetition r draws from
numpy's default generator seeded with [seed, r], rows are sorted by their key
columns, and CSV floats are written with 17 significant digits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cognition import average_weights, hv_subjective_game, plan_cavs, predict_hv
from .constraints import STEP_VARS, X_PX, Segment, Strategy, profile_violation
from .dynamics import VehicleState
from .game import make_game, solve_games
from .inverse import (
    InverseSettings,
    Observation,
    interpret_offline,
    interpret_online,
    parameter_error,
)
from .netsim import run_centralized, run_distributed
from .scenario import EFFECTIVE_INDICES, StyleWeights, style_weights_for

SUCCESS_VIOLATION = 1e-3


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian observation noise on the human's longitudinal position, the
    only quantity perturbed in these studies."""

    std: float

    def __post_init__(self):
        if self.std < 0:
            raise ValueError("noise std cannot be negative")


def px_state_indices(segment):
    """Strategy-vector indices of the longitudinal position states."""
    return np.arange(segment.n_steps) * STEP_VARS + X_PX


def apply_noise(strategy, spec, rng):
    """Observation of a strategy under the noise model."""
    if spec.std == 0.0:
        return Observation(strategy=strategy, perturbed=(), noise_std=0.0)
    idx = px_state_indices(strategy.segment)
    data = strategy.data.copy()
    data[idx] = data[idx] + rng.normal(0.0, spec.std, idx.size)
    return Observation(
        strategy=Strategy(strategy.segment, data),
        perturbed=tuple(int(i) for i in idx),
        noise_std=spec.std,
    )


@dataclass(frozen=True)
class StagePlan:
    """Partition of the horizon into consecutive game stages."""

    boundaries: tuple

    def __post_init__(self):
        b = tuple(int(x) for x in self.boundaries)
        if len(b) < 2:
            raise ValueError("a stage plan needs at least two boundaries")
        if b[0] != 1:
            raise ValueError("stage plan must start at step 1")
        if any(y <= x for x, y in zip(b, b[1:])):
            raise ValueError("stage boundaries must be strictly increasing")
        object.__setattr__(self, "boundaries", b)

    @property
    def count(self):
        return len(self.boundaries) - 1

    def segment(self, t):
        """Segment of stage t, counted from 1."""
        if not 1 <= t <= self.count:
            raise ValueError(f"stage {t} outside 1..{self.count}")
        return Segment(self.boundaries[t - 1], self.boundaries[t])

    @classmethod
    def from_scenario(cls, scenario):
        if scenario.stages:
            return cls(tuple(scenario.stages))
        return cls((1, scenario.horizon))


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


def _interpret_predict_plan(scenario, s_actual, spec, rng, inverse_settings, solver_settings):
    """The offline pipeline on one noisy observation of the human strategy.

    Returns the observation, the interpretation, the prediction model, the
    plans with their solve result, and the interpret/predict/plan durations.
    """
    t0 = time.perf_counter()
    obs = apply_noise(s_actual, spec, rng)
    interp = interpret_offline(obs, scenario, settings=inverse_settings,
                               solver_settings=solver_settings)
    t1 = time.perf_counter()
    model = predict_hv(scenario, interp.theta_0c, settings=solver_settings)
    t2 = time.perf_counter()
    plans, plan_result, _ = plan_cavs(scenario, model.s_0c, settings=solver_settings)
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
    """Plain deterministic CSV: fixed column order, 17 significant digits,
    no timestamps. Values missing from a row are left empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(fieldnames) + "\n")
        for row in rows:
            fh.write(",".join(format_cell(row.get(name)) for name in fieldnames) + "\n")


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


def run_offline_experiment(scenario, noise_stds, repetitions, seed, solver_settings=None):
    """Generate, perturb, interpret, re-predict, plan; one row per repetition
    per noise level. Failures become rows, not exceptions."""
    truth = solve_games(hv_subjective_game(scenario), settings=solver_settings)
    s_actual = truth.strategies[0]
    inverse_settings = InverseSettings.offline(scenario)
    rows = []
    for std in noise_stds:
        spec = NoiseSpec(std=float(std))
        for rep in range(repetitions):
            rng = np.random.default_rng([seed, rep, int(round(std * 10000))])
            row = {"noise_std": float(std), "rep": rep, "failure": None}
            try:
                obs, interp, model, plans, plan_result, seconds = _interpret_predict_plan(
                    scenario, s_actual, spec, rng, inverse_settings, solver_settings
                )
                row.update(
                    position_observation_error=position_observation_error(
                        obs.strategy, s_actual
                    ),
                    parameter_estimation_error=parameter_error(
                        interp.theta_0c, scenario.hv.weights_true, scenario.hv.behavior.kind
                    ),
                    trajectory_prediction_error=trajectory_prediction_error(
                        model.s_0c, s_actual
                    ),
                    position_prediction_error=position_prediction_error(model.s_0c, s_actual),
                    success=_profile_success(s_actual, plans, scenario, plan_result.degraded),
                    low_identifiability=interp.low_identifiability,
                    interpret_seconds=seconds[0],
                    predict_seconds=seconds[1],
                    plan_seconds=seconds[2],
                )
            except Exception as exc:
                row["failure"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
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


def _anchored_reference(full_ref, segment, p_x, start=None):
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


class _OnlineRep:
    """One repetition of the staged online interaction.

    Keeps the actual vehicle states, each side's noisy estimate of the other,
    and the data needed to interpret the previous stage. The transport is a
    parameter so the timing study can run the same repetition through both
    implementations.
    """

    def __init__(self, scenario, plan, seed, rep, solver_settings=None,
                 transport=run_distributed, collect_timing=False):
        self.scenario = scenario
        self.plan = plan
        self.rng = np.random.default_rng([seed, rep])
        self.solver_settings = solver_settings
        self.transport = transport
        self.collect_timing = collect_timing
        self.std = scenario.noise_std
        self.full_refs = scenario.references()
        self.inverse_settings = InverseSettings.online(scenario)
        self.cav_ids = [cav.vid for cav in scenario.cavs]

        self.actual = {v.vid: v.initial for v in scenario.vehicles}
        # Positions are common knowledge at the start; noisy cross-estimates
        # begin once trajectories are observed.
        self.hv_seen_by_cavs = scenario.hv.initial
        self.cavs_seen_by_hv = dict(self.actual)
        self.theta = style_weights_for(scenario.hv.behavior.kind, scenario.hv.style)
        self.prev = None

    def _cav_refs(self, segment, anchors):
        return {
            vid: _anchored_reference(self.full_refs[vid], segment, anchors[vid].p_x)
            for vid in self.cav_ids
        }

    def run(self):
        rows = []
        timing = []
        for t in range(1, self.plan.count + 1):
            segment = self.plan.segment(t)
            row = {"rep": None, "stage": t, "failure": None}
            interp_seconds = 0.0
            fit_seconds = 0.0
            update = None
            if t > 1:
                t0 = time.perf_counter()
                cav_game = make_game(
                    self.scenario,
                    average_weights(self.scenario),
                    segment=self.prev["segment"],
                    fixed={0: self.prev["observation"].strategy},
                    references=self.prev["cav_refs"],
                    initial_states=self.prev["cav_initials"],
                )
                embed_result, embed_trace = self.transport(cav_game, settings=self.solver_settings)
                interp_seconds = time.perf_counter() - t0
                t0 = time.perf_counter()
                update = interpret_online(
                    self.prev["observation"],
                    self.theta,
                    self.scenario,
                    settings=self.inverse_settings,
                    include_conservativeness=(t >= 3),
                    cav_strategies={vid: embed_result.strategies[vid] for vid in self.cav_ids},
                    hv_reference=self.prev["hv_ref_cav_side"],
                    hv_initial=self.prev["hv_initial_cav_side"],
                )
                fit_seconds = time.perf_counter() - t0
                if not update.low_identifiability:
                    self.theta = update.theta_0c
                if self.collect_timing:
                    timing.append(("interpret", t, embed_trace, interp_seconds + fit_seconds))

            # The autonomous side's view of this stage.
            cav_refs = self._cav_refs(segment, self.actual)
            hv_ref_cav = _anchored_reference(
                self.full_refs[0], segment, self.hv_seen_by_cavs.p_x
            )
            hv_init_cav = self.hv_seen_by_cavs
            t0 = time.perf_counter()
            model = predict_hv(
                self.scenario,
                self.theta,
                settings=self.solver_settings,
                segment=segment,
                references={0: hv_ref_cav, **cav_refs},
                initial_states={0: hv_init_cav, **{v: self.actual[v] for v in self.cav_ids}},
                transport=self.transport,
            )
            predict_seconds = time.perf_counter() - t0
            t0 = time.perf_counter()
            plans, plan_result, plan_trace = plan_cavs(
                self.scenario,
                model.s_0c,
                settings=self.solver_settings,
                segment=segment,
                references=cav_refs,
                initial_states={v: self.actual[v] for v in self.cav_ids},
                transport=self.transport,
            )
            plan_seconds = time.perf_counter() - t0
            if self.collect_timing:
                timing.append(("predict", t, model.trace, predict_seconds))
                timing.append(("plan", t, plan_trace, plan_seconds))

            # The human's actual stage: its own subjective game, anchored at
            # its exact state and its noisy view of the autonomous vehicles.
            hv_ref_own = _anchored_reference(self.full_refs[0], segment, self.actual[0].p_x)
            cav_refs_hv_side = self._cav_refs(segment, self.cavs_seen_by_hv)
            gt_game = hv_subjective_game(
                self.scenario,
                segment=segment,
                references={0: hv_ref_own, **cav_refs_hv_side},
                initial_states={0: self.actual[0],
                                **{v: self.cavs_seen_by_hv[v] for v in self.cav_ids}},
            )
            gt_result = solve_games(gt_game, settings=self.solver_settings)
            hv_actual = gt_result.strategies[0]

            observation = apply_noise(
                hv_actual, NoiseSpec(std=self.std), self.rng
            )

            row.update(
                parameter_error=parameter_error(
                    self.theta, self.scenario.hv.weights_true, self.scenario.hv.behavior.kind
                ),
                position_observation_error=position_observation_error(
                    observation.strategy, hv_actual
                ),
                trajectory_prediction_error=trajectory_prediction_error(model.s_0c, hv_actual),
                position_prediction_error=position_prediction_error(model.s_0c, hv_actual),
                success=_profile_success(hv_actual, plans, self.scenario, plan_result.degraded),
                interpret_seconds=interp_seconds + fit_seconds,
                predict_seconds=predict_seconds,
                plan_seconds=plan_seconds,
                parameter_error_updated=None,
                low_identifiability=None,
            )
            rows.append(row)
            if t > 1 and update is not None:
                rows[-2]["parameter_error_updated"] = row["parameter_error"]
                rows[-2]["low_identifiability"] = update.low_identifiability

            self.prev = {
                "segment": segment,
                "observation": observation,
                "cav_refs": cav_refs,
                "cav_initials": {v: self.actual[v] for v in self.cav_ids},
                "hv_ref_cav_side": hv_ref_cav,
                "hv_initial_cav_side": hv_init_cav,
            }
            self.actual = {0: hv_actual.terminal_state()}
            self.actual.update({vid: plans[vid].terminal_state() for vid in self.cav_ids})
            self.hv_seen_by_cavs = observation.strategy.terminal_state()
            self.cavs_seen_by_hv = {
                vid: _noisy_state(self.actual[vid], self.std, self.rng)
                for vid in self.cav_ids
            }
        return rows, timing


def run_online_experiment(scenario, repetitions=50, seed=0, solver_settings=None):
    """Staged interpretation and planning; one row per repetition per stage.

    The parameter_error column reports the estimate in use during the stage;
    parameter_error_updated and low_identifiability describe the update
    computed from that stage's observation (empty on the final stage, whose
    trajectory is never interpreted). An update whose stationarity system is
    flagged unidentifiable is discarded and the previous cognition kept, so
    a non-interactive stage never overwrites a usable estimate.
    """
    plan = StagePlan.from_scenario(scenario)
    rows = []
    for rep in range(repetitions):
        try:
            runner = _OnlineRep(scenario, plan, seed, rep, solver_settings)
            rep_rows, _ = runner.run()
            for row in rep_rows:
                row["rep"] = rep
        except Exception as exc:
            rep_rows = [
                {"rep": rep, "stage": t, "failure": f"{type(exc).__name__}: {exc}"}
                for t in range(1, plan.count + 1)
            ]
        rows.extend(rep_rows)
    rows.sort(key=lambda r: (r["rep"], r["stage"]))
    return rows


SUCCESS_FIELDS = (
    "mode",
    "bin_low",
    "bin_high",
    "count",
    "successes",
    "success_rate",
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
    norm = np.linalg.norm(ortho)
    if norm < 1e-12:
        ortho = np.zeros(len(axis))
        ortho[int(np.argmin(np.abs(axis)))] = 1.0
        ortho = ortho - (ortho @ axis) * axis
        norm = np.linalg.norm(ortho)
    direction = np.cos(angle) * axis + np.sin(angle) * (ortho / norm)
    theta = np.ones(6)
    theta[eff] = direction
    theta = np.clip(theta, scenario.theta_min, scenario.theta_max)
    return StyleWeights(theta, scenario.theta_min, scenario.theta_max)


def run_success_rate(scenario, mode, repetitions, seed, solver_settings=None):
    """Success fraction binned by parameter error.

    with_interpretation runs the full observe/interpret/predict/plan pipeline
    under the scenario's noise.  random_cognition skips learning entirely: the
    connected vehicles solve one joint game with a randomly drawn guess of the
    human's weights standing in for the real driver and execute their own
    components of that equilibrium, never simulating how the human actually
    reasons about them.
    """
    if mode not in ("with_interpretation", "random_cognition"):
        raise ValueError(f"unknown success-rate mode {mode!r}")
    truth = solve_games(hv_subjective_game(scenario), settings=solver_settings)
    s_actual = truth.strategies[0]
    inverse_settings = InverseSettings.offline(scenario)
    spec = NoiseSpec(std=scenario.noise_std)
    outcomes = []
    for rep in range(repetitions):
        rng = np.random.default_rng([seed, rep])
        if mode == "with_interpretation":
            _, interp, _, plans, plan_result, _ = _interpret_predict_plan(
                scenario, s_actual, spec, rng, inverse_settings, solver_settings
            )
            error = parameter_error(
                interp.theta_0c, scenario.hv.weights_true, scenario.hv.behavior.kind
            )
            degraded = plan_result.degraded
        else:
            guess = _random_hv_guess(scenario, rng)
            weights = {0: guess}
            weights.update({cav.vid: cav.weights_true for cav in scenario.cavs})
            game = make_game(scenario, weights)
            result = solve_games(game, settings=solver_settings)
            plans = {vid: result.strategies[vid] for vid in weights if vid != 0}
            error = parameter_error(
                guess, scenario.hv.weights_true, scenario.hv.behavior.kind
            )
            degraded = result.degraded
        outcomes.append((error, _profile_success(s_actual, plans, scenario, degraded)))

    def rate_row(low, high, hits):
        return {"mode": mode, "bin_low": low, "bin_high": high, "count": len(hits),
                "successes": sum(hits), "success_rate": sum(hits) / len(hits)}

    edges = np.arange(0.0, max(o[0] for o in outcomes) + SUCCESS_BIN_WIDTH, SUCCESS_BIN_WIDTH)
    rows = []
    for low in edges:
        high = low + SUCCESS_BIN_WIDTH
        hits = [ok for err, ok in outcomes if low <= err < high]
        if hits:
            rows.append(rate_row(float(low), float(high), hits))
    rows.append(rate_row(None, None, [ok for _, ok in outcomes]))
    return rows


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
)


def run_timing(scenario, repetitions=10, seed=0, solver_settings=None):
    """Per-stage durations of the online pipeline under both transports.

    Distributed durations follow the slowest-node model from the session
    traces; centralized durations are plain wall-clock totals.
    """
    plan = StagePlan.from_scenario(scenario)
    rows = []
    for rep in range(repetitions):
        for mode, transport in (("distributed", run_distributed),
                                ("centralized", run_centralized)):
            runner = _OnlineRep(
                scenario, plan, seed, rep, solver_settings,
                transport=transport, collect_timing=True,
            )
            rep_rows, timing = runner.run()
            per_stage = {t: {"interpret": 0.0, "predict": 0.0, "plan": 0.0,
                             "predict_iter": 0, "plan_iter": 0}
                         for t in range(1, plan.count + 1)}
            for kind, t, trace, wall in timing:
                if mode == "distributed":
                    seconds = trace.simulated_seconds()
                    if kind == "interpret":
                        # The stationarity fit happens once at the roadside
                        # unit; its wall time rides on top of the solve.
                        seconds = seconds + (wall - trace.total_seconds)
                else:
                    seconds = wall
                per_stage[t][kind] = seconds
                if kind == "predict":
                    per_stage[t]["predict_iter"] = trace.rounds
                elif kind == "plan":
                    per_stage[t]["plan_iter"] = trace.rounds
            for t, cell in per_stage.items():
                rows.append(
                    {
                        "rep": rep,
                        "stage": t,
                        "mode": mode,
                        "interpret_seconds": cell["interpret"],
                        "predict_seconds": cell["predict"],
                        "plan_seconds": cell["plan"],
                        "total_seconds": cell["interpret"] + cell["predict"] + cell["plan"],
                        "predict_iterations": cell["predict_iter"],
                        "plan_iterations": cell["plan_iter"],
                    }
                )
    rows.sort(key=lambda r: (r["rep"], r["stage"], r["mode"]))
    return rows
