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
from scipy.optimize import lsq_linear

from .cognition import average_weights
from .constraints import Segment, Strategy, assemble
from .game import WEIGHT_PATTERN, make_game, reference_vector, solve_games
from .qp import variable_reduction
from .scenario import (
    EFFECTIVE_INDICES,
    THETA_MAX_DEFAULT,
    THETA_MIN_DEFAULT,
    StyleWeights,
)

IDENTIFIABILITY_EPS = 1e-8


@dataclass(frozen=True)
class Observation:
    """An observed human strategy, possibly noise-perturbed.

    perturbed lists the strategy-vector indices that received noise; an empty
    tuple means the observation is exact.
    """

    strategy: Strategy
    perturbed: tuple = ()
    noise_std: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite(self.strategy.data)):
            raise ValueError("observation strategy has non-finite entries")
        n_vars = self.strategy.segment.n_vars
        for i in self.perturbed:
            if not 0 <= i < n_vars:
                raise ValueError(f"observation perturbed index {i} outside [0, {n_vars})")
        if not (np.isfinite(self.noise_std) and self.noise_std >= 0.0):
            raise ValueError(
                f"observation noise_std must be finite and nonnegative, got {self.noise_std!r}"
            )

    @property
    def segment(self):
        return self.strategy.segment


@dataclass(frozen=True)
class InverseSettings:
    """Knobs of the interpretation problem."""

    kappa: float = 1.5
    omega_dist: float = 1.0
    theta_min: float = THETA_MIN_DEFAULT
    theta_max: float = THETA_MAX_DEFAULT
    identifiability_eps: float = IDENTIFIABILITY_EPS

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.omega_dist < 0:
            raise ValueError("omega_dist cannot be negative")

    @classmethod
    def offline(cls, scenario):
        return cls(kappa=scenario.kappa_offline, omega_dist=0.0,
                   theta_min=scenario.theta_min, theta_max=scenario.theta_max)

    @classmethod
    def online(cls, scenario):
        return cls(kappa=scenario.kappa_online, omega_dist=scenario.omega_dist,
                   theta_min=scenario.theta_min, theta_max=scenario.theta_max)


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


def _embedded_cav_solve(observation, scenario, solver_settings):
    """CAV-only equilibrium with the observed human strategy as data and the
    typical per-style weights, reconstructing what the human reacted to."""
    game = make_game(
        scenario,
        average_weights(scenario),
        segment=observation.segment,
        fixed={0: observation.strategy},
    )
    result = solve_games(game, settings=solver_settings)
    return {vid: result.strategies[vid] for vid in game.decision_ids}


def null_space(a_eq):
    """Orthonormal basis of the null space of A_eq: the forward solver's
    variable-reduction basis, orthonormalized by one QR. The fit's
    identifiability test and column weighting assume orthonormal columns."""
    return np.linalg.qr(variable_reduction(a_eq)[-1])[0]


def _interpret(observation, scenario, settings, prev_theta, use_conservativeness,
               cav_strategies, hv_reference=None, hv_initial=None):
    segment = observation.segment
    if hv_reference is None:
        hv_reference = scenario.references()[0].window(segment.start, segment.stop)
    system = assemble(
        0, cav_strategies, scenario, segment=segment,
        reference=hv_reference, initial_state=hv_initial,
    )
    s_hat = observation.strategy.data
    s_ref = reference_vector(hv_reference, segment)
    dev = s_hat - s_ref

    n = segment.n_vars
    c_mat = np.zeros((n, 6))
    c_mat[np.arange(n), np.tile(WEIGHT_PATTERN, segment.n_steps)] = dev

    warnings = []
    g_vals = system.a_in @ s_hat - system.b_in
    free_idx = np.flatnonzero(g_vals + settings.kappa >= 0.0)
    violated = np.flatnonzero(g_vals > settings.kappa)
    if violated.size:
        tags = sorted({system.in_tags[j] for j in violated})
        warnings.append(
            f"observation violates {violated.size} constraint rows beyond kappa "
            f"({', '.join(tags)}); treating them as active"
        )

    z_basis = null_space(system.a_eq)
    zc = z_basis.T @ c_mat
    a_free = system.a_in[free_idx]
    za_t = z_basis.T @ a_free.T

    # A multiplier whose constraint gradient vanishes on the equality null
    # space cannot influence stationarity; drop it and report it as zero.
    col_norms = np.linalg.norm(za_t, axis=0) if za_t.size else np.zeros(0)
    keep = col_norms > 1e-12 * max(1.0, float(col_norms.max()) if col_norms.size else 1.0)
    kept_idx = free_idx[keep]
    za_kept = za_t[:, keep]

    eff = list(EFFECTIVE_INDICES[scenario.hv.behavior.kind])
    eff_block = zc[:, eff]
    sigma_min = float(np.linalg.svd(eff_block, compute_uv=False).min()) if eff_block.size else 0.0
    low_ident = sigma_min < settings.identifiability_eps
    if low_ident:
        warnings.append(
            "stationarity system is rank-deficient in the weight block; "
            "the observation does not pin the weights down"
        )

    m_mat = np.hstack([zc, za_kept])
    b_vec = np.zeros(m_mat.shape[0])
    if use_conservativeness and settings.omega_dist > 0.0:
        if prev_theta is None:
            raise ValueError("conservativeness requires a previous weight estimate")
        root = np.sqrt(settings.omega_dist)
        pull = np.zeros((6, m_mat.shape[1]))
        pull[:, :6] = root * np.eye(6)
        m_mat = np.vstack([m_mat, pull])
        b_vec = np.concatenate([b_vec, root * np.asarray(prev_theta, dtype=float)])

    k = za_kept.shape[1]
    lower = np.concatenate([np.full(6, settings.theta_min), np.zeros(k)])
    upper = np.concatenate([np.full(6, settings.theta_max), np.full(k, np.inf)])
    fit = lsq_linear(m_mat, b_vec, bounds=(lower, upper), method="bvls", tol=1e-14)

    theta_raw = np.clip(fit.x[:6], settings.theta_min, settings.theta_max)
    lam = np.zeros(system.a_in.shape[0])
    lam[kept_idx] = np.maximum(fit.x[6:], 0.0)

    residual = float(np.linalg.norm(z_basis.T @ (c_mat @ theta_raw + system.a_in.T @ lam)))

    theta_0c = StyleWeights(theta_raw, settings.theta_min, settings.theta_max).normalized(
        scenario.hv.behavior.kind
    )
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


def interpret_offline(observation, scenario, settings=None, solver_settings=None,
                      cav_strategies=None):
    """Recover weights from a full-horizon observation.

    Runs the embedded CAV reconstruction first (unless strategies are
    supplied), then solves the stationarity fit with inactive multipliers
    pinned by the kappa rule.
    """
    settings = settings or InverseSettings.offline(scenario)
    if observation.segment != Segment(1, scenario.horizon):
        raise ValueError("offline interpretation needs a full-horizon observation")
    if cav_strategies is None:
        cav_strategies = _embedded_cav_solve(observation, scenario, solver_settings)
    return _interpret(observation, scenario, settings, prev_theta=None,
                      use_conservativeness=False, cav_strategies=cav_strategies)


def interpret_online(observation, prev_theta, scenario, cav_strategies, settings=None,
                     include_conservativeness=True, hv_reference=None, hv_initial=None):
    """Per-stage interpretation with an optional pull toward the previous
    estimate. The caller decides the flag; the first update after the initial
    guess runs without it. The caller also supplies the CAV stage strategies
    the human reacted to, solved on its own anchored stage references."""
    settings = settings or InverseSettings.online(scenario)
    theta_prev = prev_theta.theta if isinstance(prev_theta, StyleWeights) else prev_theta
    return _interpret(
        observation, scenario, settings, prev_theta=theta_prev,
        use_conservativeness=include_conservativeness, cav_strategies=cav_strategies,
        hv_reference=hv_reference, hv_initial=hv_initial,
    )


def parameter_error(theta_est, theta_true, behavior_kind):
    """Relative error between effective weight vectors.

    Accepts StyleWeights (normalized internally) or plain arrays, which are
    taken as already normalized; 6-vectors are sliced to the behavior's
    effective components."""
    eff = list(EFFECTIVE_INDICES[behavior_kind])

    def effective_of(value):
        if isinstance(value, StyleWeights):
            return value.normalized(behavior_kind).effective(behavior_kind)
        arr = np.asarray(value, dtype=float)
        if arr.shape == (6,):
            return arr[eff]
        if arr.shape == (len(eff),):
            return arr
        raise ValueError(f"weight vector of shape {arr.shape} does not fit the behavior")

    a = effective_of(theta_est)
    b = effective_of(theta_true)
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))
