"""Intention interpretation: recover the human driver's objective weights.

An observed human trajectory that was (approximately) optimal for its game
satisfies stationarity of the Lagrangian in the unknown weights. Since the
objective gradient is linear in the weights and the constraint rows are the
same linear rows the forward solver uses, the weights and multipliers fall
out of one bounded least-squares problem once inactive rows have their
multipliers pinned to zero. Offline interpretation consumes a full-horizon
observation; the online variant works per stage and can pull the estimate
toward its previous value so a short, quiet stage does not erase what earlier
interaction revealed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cognition import average_weights
from .constraints import (Segment, Strategy, assemble, collision_rows, keep_out_axes,
                          start_state)
from .game import WEIGHT_PATTERN, _player_system, check_reference, make_game, reference_vector
from .netsim import run_distributed
from .qp import _reduced_rows
from .scenario import EFFECTIVE_INDICES, StyleWeights

IDENTIFIABILITY_EPS = 1e-8


def lsq_linear(*args, **kwargs):
    """`scipy.optimize.lsq_linear`, imported on the first fit: importing
    scipy.optimize costs about 0.2 s and 20 MB, which a forward game, a
    `solve` or a random-cognition run would otherwise pay for a solver it
    never calls."""
    from scipy.optimize import lsq_linear as solver

    return solver(*args, **kwargs)


@dataclass(frozen=True)
class Observation:
    """An observed human strategy, possibly noise-perturbed."""

    strategy: Strategy

    def __post_init__(self):
        if not np.all(np.isfinite(self.strategy.data)):
            raise ValueError("observation strategy has non-finite entries")

    @property
    def segment(self):
        return self.strategy.segment


@dataclass(frozen=True)
class InverseResult:
    """Recovered weights with the inequality multipliers and diagnostics
    behind them. `residual` is the stationarity residual on the equality null
    space, which equals the full residual at the best equality multipliers."""

    theta_0c: StyleWeights
    theta_raw: np.ndarray
    lam: np.ndarray
    residual: float
    active_rows: tuple
    warnings: tuple
    low_identifiability: bool
    sigma_min: float
    cav_strategies: dict


def _embedded_cav_solve(observation, scenario, references=None, initial_states=None):
    """CAV-only equilibrium with the observed human strategy as data and the
    typical per-style weights, reconstructing what the human reacted to:
    the CAVs' strategies and the session trace of the solve."""
    game = make_game(scenario, average_weights(scenario), segment=observation.segment,
                     fixed={0: observation.strategy}, references=references,
                     initial_states=initial_states)
    result, trace = run_distributed(game)
    return {vid: result.strategies[vid] for vid in game.decision_ids}, trace


def null_space(z_basis):
    """Orthonormal basis of the span of `z_basis`, the null-space basis Z of
    the human's equality rows that its `game._StaticEntry` keeps from
    `qp.factor_equalities`, by one QR. The fit's identifiability test and
    column weighting assume orthonormal columns."""
    return np.linalg.qr(z_basis)[0]


def _interpret(observation, scenario, kappa, omega, prev_theta, cav_strategies,
               hv_reference=None, hv_initial=None):
    """Stationarity fit with rows farther than `kappa` from active pinned to
    zero multipliers and, when `omega` > 0, a pull of weight `omega` toward
    `prev_theta`; the weights stay in the scenario's box. The human's static
    rows and null space are the ones its forward workspace reads, from
    `game._player_system`, so a fit whose coefficients a game just solved
    with builds no static row and factors nothing; it reads no particular
    solution, so it forms none. It reads the stack `constraints.assemble`
    lays out for a workspace, sparse."""
    segment = observation.segment
    vehicle = scenario.hv
    if hv_reference is None:
        hv_reference = scenario.references()[0].window(segment.start, segment.stop)
    check_reference("hv_reference", hv_reference, segment, scenario)
    if hv_initial is None:
        hv_initial = start_state(vehicle, segment, hv_reference)
    if not np.all(np.isfinite(hv_initial.as_array())):
        raise ValueError("hv_initial has non-finite entries")
    if 0 in cav_strategies:
        raise ValueError("player 0 listed among its own opponents")
    for vid, strategy in cav_strategies.items():
        if not np.all(np.isfinite(strategy.data)):
            raise ValueError(f"strategy of CAV {vid} has non-finite entries")
    entry = _player_system(vehicle, scenario, segment, hv_reference)
    stack = assemble(entry.rows, segment.n_steps, cav_strategies)
    axes = (keep_out_axes(vehicle.geometry),)
    for oid in stack.slots:
        (grad,), (b_in,) = collision_rows(hv_reference.states[None, 1:], axes, cav_strategies[oid])
        stack.keep_out(oid, grad, b_in)

    s_hat = observation.strategy.data
    s_ref = reference_vector(hv_reference, segment)
    dev = s_hat - s_ref

    n = segment.n_vars
    c_mat = np.zeros((n, 6))
    c_mat[np.arange(n), np.tile(WEIGHT_PATTERN, segment.n_steps)] = dev

    warnings = []
    g_vals = stack.rows @ s_hat - stack.b
    free_idx = np.flatnonzero(g_vals + kappa >= 0.0)
    violated = np.flatnonzero(g_vals > kappa)
    if violated.size:
        tags = sorted({stack.tags[j] for j in violated})
        warnings.append(
            f"observation violates {violated.size} constraint rows beyond kappa "
            f"({', '.join(tags)}); treating them as active"
        )

    z_basis = null_space(entry.z_basis)
    zc = z_basis.T @ c_mat
    za_t = _reduced_rows(stack.rows, z_basis, free_idx).T  # (A_free Z)'

    # A multiplier whose constraint gradient vanishes on the equality null
    # space cannot influence stationarity; drop it and report it as zero.
    col_norms = np.linalg.norm(za_t, axis=0) if za_t.size else np.zeros(0)
    keep = col_norms > 1e-12 * max(1.0, float(col_norms.max()) if col_norms.size else 1.0)
    kept_idx = free_idx[keep]
    za_kept = za_t[:, keep]

    eff = list(EFFECTIVE_INDICES[vehicle.behavior.kind])
    eff_block = zc[:, eff]
    sigma_min = float(np.linalg.svd(eff_block, compute_uv=False).min()) if eff_block.size else 0.0
    low_ident = sigma_min < IDENTIFIABILITY_EPS
    if low_ident:
        warnings.append(
            "stationarity system is rank-deficient in the weight block; "
            "the observation does not pin the weights down"
        )

    m_mat = np.hstack([zc, za_kept])
    b_vec = np.zeros(m_mat.shape[0])
    if omega > 0.0:
        if prev_theta is None:
            raise ValueError("conservativeness requires a previous weight estimate")
        root = np.sqrt(omega)
        pull = np.zeros((6, m_mat.shape[1]))
        pull[:, :6] = root * np.eye(6)
        m_mat = np.vstack([m_mat, pull])
        b_vec = np.concatenate([b_vec, root * prev_theta.theta])

    k = za_kept.shape[1]
    theta_min, theta_max = scenario.theta_min, scenario.theta_max
    lower = np.concatenate([np.full(6, theta_min), np.zeros(k)])
    upper = np.concatenate([np.full(6, theta_max), np.full(k, np.inf)])
    fit = lsq_linear(m_mat, b_vec, bounds=(lower, upper), method="bvls", tol=1e-14)

    theta_raw = np.clip(fit.x[:6], theta_min, theta_max)
    lam = np.zeros(stack.b.size)
    lam[kept_idx] = np.maximum(fit.x[6:], 0.0)

    residual = float(np.linalg.norm(zc @ theta_raw + za_t @ lam[free_idx]))

    theta_0c = StyleWeights(theta_raw, theta_min, theta_max).normalized(vehicle.behavior.kind)
    return InverseResult(
        theta_0c=theta_0c,
        theta_raw=theta_raw,
        lam=lam,
        residual=residual,
        active_rows=tuple(int(j) for j in free_idx),
        warnings=tuple(warnings),
        low_identifiability=low_ident,
        sigma_min=sigma_min,
        cav_strategies=dict(cav_strategies),
    )


def interpret_offline(observation, scenario, cav_strategies=None):
    """Recover weights from a full-horizon observation.

    Runs the embedded CAV reconstruction first (unless strategies are
    supplied), then solves the stationarity fit with inactive multipliers
    pinned by the scenario's `kappa_offline` rule.
    """
    if observation.segment != Segment(1, scenario.horizon):
        raise ValueError("offline interpretation needs a full-horizon observation")
    if cav_strategies is None:
        cav_strategies, _ = _embedded_cav_solve(observation, scenario)
    return _interpret(observation, scenario, scenario.kappa_offline, 0.0, None,
                      cav_strategies)


def interpret_online(observation, prev_theta, scenario, cav_strategies,
                     include_conservativeness=True, hv_reference=None, hv_initial=None):
    """Per-stage interpretation under the scenario's `kappa_online`, with an
    optional pull of weight `omega_dist` toward the previous estimate, a
    StyleWeights. The caller decides the flag; the first update after the
    initial guess runs without it. The caller also supplies the CAV stage
    strategies the human reacted to, solved on its own anchored stage
    references."""
    omega = scenario.omega_dist if include_conservativeness else 0.0
    return _interpret(observation, scenario, scenario.kappa_online, omega, prev_theta,
                      cav_strategies, hv_reference=hv_reference, hv_initial=hv_initial)


def parameter_error(theta_est, theta_true, behavior_kind):
    """Relative error between the effective components of two StyleWeights,
    each normalized for the behavior first."""
    a, b = (w.normalized(behavior_kind).effective(behavior_kind) for w in (theta_est, theta_true))
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))
