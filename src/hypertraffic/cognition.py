"""Cognition hierarchy over the forward games.

Players do not share one objective model. The human driver reads the
autonomous vehicles as typical members of their styles; the autonomous side
carries an estimate of the human's weights and simulates the human's view to
predict the human trajectory, then plans against that prediction. This module
builds those game instances, runs the predict/plan pipeline, and checks the
resulting joint profile against the equilibrium notion that tolerates a
bounded human-side gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import make_game, ve_residual
from .netsim import run_distributed
from .scenario import StyleWeights, style_weights_for


def average_weights(scenario):
    """Per-CAV weights as outside observers assume them: typical for the style."""
    return {
        cav.vid: style_weights_for(cav.behavior.kind, cav.style) for cav in scenario.cavs
    }


def cognitive_threshold(scenario):
    """How far the autonomous fleet's typical weights sit from the truth: the
    largest distance over the CAVs."""
    ave = average_weights(scenario)
    return max((float(np.linalg.norm(cav.weights_true.theta - ave[cav.vid].theta))
                for cav in scenario.cavs), default=0.0)


@dataclass(frozen=True)
class CognitionModel:
    """The autonomous side's working model of the human player."""

    s_0c: object
    cav_views: dict
    result: object = None
    trace: object = None


def hv_subjective_game(scenario, hv_weights=None, segment=None, references=None,
                       initial_states=None):
    """The game the human believes it is playing: own true weights, typical
    weights for every autonomous opponent. With `hv_weights` it is the
    autonomous side's reconstruction of that game, the human weight slot
    filled by the current estimate."""
    weights = {0: hv_weights or scenario.hv.weights_true}
    weights.update(average_weights(scenario))
    return make_game(scenario, weights, segment=segment, references=references,
                     initial_states=initial_states)


def predict_hv(scenario, theta_0c, segment=None, references=None, initial_states=None):
    """Predict the human trajectory by solving the reconstructed game.

    The solve runs over the simulated message layer; the human-side
    subproblem is hosted at the roadside unit.
    """
    game = hv_subjective_game(scenario, hv_weights=theta_0c, segment=segment,
                              references=references, initial_states=initial_states)
    result, trace = run_distributed(game)
    views = {vid: result.strategies[vid] for vid in game.decision_ids if vid != 0}
    return CognitionModel(
        s_0c=result.strategies[0],
        cav_views=views,
        result=result,
        trace=trace,
    )


def plan_cavs(scenario, s_0c, segment=None, references=None, initial_states=None):
    """Plan the autonomous trajectories against the predicted human strategy.

    The human is frozen data here; the planners use their own true weights.
    Returns the per-CAV strategies with the solve result and session trace.
    """
    weights = {cav.vid: cav.weights_true for cav in scenario.cavs}
    if references is not None:
        references = {vid: references[vid] for vid in weights}
    if initial_states is not None:
        initial_states = {vid: initial_states[vid] for vid in weights}
    game = make_game(scenario, weights, segment=segment, fixed={0: s_0c},
                     references=references, initial_states=initial_states)
    result, trace = run_distributed(game)
    plans = {vid: result.strategies[vid] for vid in game.decision_ids}
    return plans, result, trace


@dataclass(frozen=True)
class HneVerdict:
    """Outcome of checking a profile against the tolerant equilibrium notion."""

    ok: bool
    hv_gap: float
    failing: tuple
    max_violation: float


def verify_hne(profile, scenario, eps_p, gap_tol=1e-4):
    """Check a complete full-horizon joint profile against true objectives.

    Autonomous players must be exact best responses up to the solver-quality
    tolerance, relative to their cost scale; the human side passes when its
    gap stays within the perceptual threshold. A NaN threshold would pass
    every gap, so both must be positive (inf included).
    """
    eps_p, gap_tol = float(eps_p), float(gap_tol)
    for name, value in (("eps_p", eps_p), ("gap_tol", gap_tol)):
        if not value > 0:
            raise ValueError(f"{name} must be a positive number or inf, got {value}")
    weights = {0: scenario.hv.weights_true}
    weights.update({cav.vid: cav.weights_true for cav in scenario.cavs})
    report = ve_residual(profile, make_game(scenario, weights))
    failing = []
    for vid in sorted(report.gaps):
        if vid != 0 and report.gaps[vid] > gap_tol * (1.0 + abs(report.objectives[vid])):
            failing.append(vid)
    hv_gap = report.gaps[0]
    if hv_gap > eps_p:
        failing.append(0)
    return HneVerdict(
        ok=not failing,
        hv_gap=hv_gap,
        failing=tuple(sorted(failing)),
        max_violation=report.max_violation,
    )


def interpolated_scenario(scenario, alpha):
    """Scenario whose CAV truths sit a fraction alpha of the way from the
    typical weights to the configured truths. alpha = 0 removes all mismatch."""
    ave = average_weights(scenario)
    overrides = {}
    for cav in scenario.cavs:
        theta = ave[cav.vid].theta + alpha * (cav.weights_true.theta - ave[cav.vid].theta)
        overrides[cav.vid] = StyleWeights(theta, scenario.theta_min, scenario.theta_max)
    return scenario.with_weights(overrides)


@dataclass(frozen=True)
class GapSweep:
    """Measured human-side gap as a function of the cognitive threshold."""

    rows: tuple
    slope: float
    intercept: float


def hne_gap_sweep(scenario, alphas=(0.0, 0.25, 0.5, 0.75, 1.0)):
    """Run the predict/plan pipeline across a family of shrinking-mismatch
    scenarios and regress the human-side gap against the cognitive threshold.

    The human weight estimate is exact throughout, so the measured gap
    isolates the effect of misreading the autonomous drivers' styles.
    """
    rows = []
    for alpha in sorted(alphas):
        scen = interpolated_scenario(scenario, alpha)
        model = predict_hv(scen, scen.hv.weights_true)
        plans, _, _ = plan_cavs(scen, model.s_0c)
        profile = {0: model.s_0c}
        profile.update(plans)
        verdict = verify_hne(profile, scen, eps_p=float("inf"))
        # The human strategy can undercut the best feasible response when the
        # misread plans squeeze its feasible set, which flips the sign of the
        # raw gap.  Distance from equilibrium is the magnitude either way.
        rows.append((cognitive_threshold(scen), abs(verdict.hv_gap)))
    xs = np.array([r[0] for r in rows])
    ys = np.array([r[1] for r in rows])
    slope, intercept = np.polyfit(xs, ys, 1)
    return GapSweep(rows=tuple(rows), slope=float(slope), intercept=float(intercept))
