"""Forward trajectory games among vehicles with quadratic tracking objectives.

Each player minimizes a reference-tracking cost over its own strategy subject
to its constraint system; opponents' strategies enter as data. Equilibria are
computed by sweeping best responses in ascending player id (the human-driven
vehicle, id 0, moves first) until strategies stop moving and the joint profile
is consistent. The sweep reports its progress through an observer so a
message-passing transport can drive the identical computation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .constraints import Segment, Strategy, collision_rows, static_rows
from .dynamics import VehicleState
from .qp import OPTIMAL, ReducedQp, SolverSettings

# Weight components are ordered (p_x, p_y, v, psi, a, delta); a strategy step
# stacks controls before the state, so the per-step weight block is R then Q.
WEIGHT_PATTERN = np.array([4, 5, 0, 1, 2, 3])


@dataclass(frozen=True)
class WeightExpansion:
    """Objective weights repeated along a segment as a diagonal quadratic form."""

    theta: np.ndarray
    n_steps: int
    diagonal: np.ndarray = field(init=False)

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.shape != (6,):
            raise ValueError("weight vector must have 6 components")
        if np.any(theta <= 0):
            raise ValueError("weights must be strictly positive")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "diagonal", np.tile(theta[WEIGHT_PATTERN], self.n_steps))

    @property
    def matrix(self):
        return np.diag(self.diagonal)


def reference_vector(reference, segment):
    """Reference states stacked in strategy layout with zero controls."""
    return Strategy.from_reference(reference, segment).data


def objective_qp_data(weights, reference, segment):
    """Quadratic form (H, f) whose minimizer tracks the reference at zero cost."""
    expansion = WeightExpansion(weights.theta, segment.n_steps)
    s_ref = reference_vector(reference, segment)
    return expansion.matrix, -expansion.diagonal * s_ref


def objective_value(strategy, weights, reference):
    """Tracking cost 0.5 * ||s - s_ref||^2 weighted by the expanded diagonal."""
    seg = strategy.segment
    expansion = WeightExpansion(weights.theta, seg.n_steps)
    dev = strategy.data - reference_vector(reference, seg)
    return float(0.5 * dev @ (expansion.diagonal * dev))


def pseudo_gradient(strategies, weights, references):
    """Stacked per-player objective gradients for the autonomous players.

    The human player is excluded by contract; ids are stacked ascending.
    """
    if 0 in strategies:
        raise ValueError("pseudo-gradient stacks autonomous players only; id 0 given")
    parts = []
    for vid in sorted(strategies):
        strat = strategies[vid]
        expansion = WeightExpansion(weights[vid].theta, strat.segment.n_steps)
        s_ref = reference_vector(references[vid], strat.segment)
        parts.append(expansion.diagonal * (strat.data - s_ref))
    return np.concatenate(parts) if parts else np.zeros(0)


@dataclass(frozen=True)
class GameSpec:
    """One concrete game: who decides with which weights, who is frozen data.

    References and initial states are per decision player and must cover the
    segment exactly; fixed strategies must live on the same segment.
    """

    scenario: object
    weights: dict
    segment: Segment
    fixed: dict
    references: dict
    initial_states: dict

    def __post_init__(self):
        overlap = set(self.weights) & set(self.fixed)
        if overlap:
            raise ValueError(f"players {sorted(overlap)} are both decision and fixed")
        roster = {v.vid for v in self.scenario.vehicles}
        unknown = (set(self.weights) | set(self.fixed)) - roster
        if unknown:
            raise ValueError(f"players {sorted(unknown)} are not in the scenario roster")
        for vid in self.weights:
            ref = self.references.get(vid)
            if ref is None:
                raise ValueError(f"decision player {vid} has no reference")
            if ref.start != self.segment.start or len(ref) != self.segment.n_steps + 1:
                raise ValueError(f"reference for player {vid} does not cover the segment")
            if vid not in self.initial_states:
                raise ValueError(f"decision player {vid} has no initial state")
            if not np.all(np.isfinite(self.initial_states[vid].as_array())):
                raise ValueError(f"initial state of player {vid} has non-finite entries")
        for vid, strat in self.fixed.items():
            if strat.segment != self.segment:
                raise ValueError(f"fixed strategy for player {vid} lives on a different segment")

    @property
    def decision_ids(self):
        return tuple(sorted(self.weights))

    def opponents_of(self, vid, current):
        return {k: v for k, v in current.items() if k != vid}


def make_game(scenario, weights, segment=None, fixed=None, references=None, initial_states=None):
    """Assemble a GameSpec, defaulting references and starts from the scenario."""
    segment = segment or Segment(1, scenario.horizon)
    fixed = dict(fixed or {})
    if references is None:
        full = scenario.references()
        references = {vid: full[vid].window(segment.start, segment.stop) for vid in weights}
    if initial_states is None:
        initial_states = {}
        for vid in weights:
            if segment.start == 1:
                initial_states[vid] = scenario.vehicle(vid).initial
            else:
                initial_states[vid] = VehicleState.from_array(references[vid].states[0])
    return GameSpec(
        scenario=scenario,
        weights=dict(weights),
        segment=segment,
        fixed=fixed,
        references=dict(references),
        initial_states=dict(initial_states),
    )


class _PlayerWorkspace:
    """Per-player QP data that survives the whole game: the equality-reduced
    quadratic block and the inequality rows in solver order, held in buffers
    with their reduced projections. The static head and tail rows are written
    once; only the collision rows between them are rebuilt per best response
    or violation check."""

    def __init__(self, game, vid):
        vehicle = game.scenario.vehicle(vid)
        self.vid = vid
        self.vehicle = vehicle
        self.reference = game.references[vid]
        self.s_ref = reference_vector(self.reference, game.segment)
        self.expansion = WeightExpansion(game.weights[vid].theta, game.segment.n_steps)
        self.f_vec = -self.expansion.diagonal * self.s_ref
        rows = static_rows(vehicle, game.scenario, game.segment, self.reference,
                           game.initial_states[vid])
        self.reduced = ReducedQp(self.expansion.matrix, rows.a_eq, rows.b_eq)
        self.opponent_ids = tuple(sorted((set(game.weights) | set(game.fixed)) - {vid}))
        n_coll = len(self.opponent_ids) * game.segment.n_steps
        n_head = sum(a.shape[0] for a, _, _ in rows.head)
        slots = (np.zeros((n_coll, game.segment.n_vars)), np.zeros(n_coll), ())
        blocks = rows.head + (slots,) + rows.tail
        self._a_in = np.vstack([a for a, _, _ in blocks])
        self._b_in = np.concatenate([b for _, b, _ in blocks])
        self._head = slice(0, n_head)
        self._tail = slice(n_head + n_coll, self._a_in.shape[0])
        self._c_red = np.zeros((self._a_in.shape[0], self.reduced.null_dim))
        for part in (self._head, self._tail):
            self._c_red[part] = self.reduced.reduce_rows(self._a_in[part])

    def _collisions(self, opponents):
        """Collision (rows, rhs) by opponent id, in solver order."""
        if tuple(sorted(opponents)) != self.opponent_ids:
            raise ValueError(f"player {self.vid} plays against {self.opponent_ids}, "
                             f"got {tuple(sorted(opponents))}")
        return [
            collision_rows(self.reference, opponents[oid], self.vehicle.geometry, oid)[:2]
            for oid in self.opponent_ids
        ]

    def best_response(self, opponents, settings):
        start = self._head.stop
        for a, b in self._collisions(opponents):
            rows = slice(start, start + a.shape[0])
            self._a_in[rows] = a
            self._b_in[rows] = b
            self._c_red[rows] = self.reduced.reduce_rows(a)
            start = rows.stop
        return self.reduced.solve(self.f_vec, self._a_in, self._b_in, settings,
                                  c_red=self._c_red)

    def violation_at(self, s_vec, opponents):
        worst = 0.0
        if self.reduced.a_eq.shape[0]:
            worst = float(np.max(np.abs(self.reduced.a_eq @ s_vec - self.reduced.b_eq)))
        static = [(self._a_in[part], self._b_in[part]) for part in (self._head, self._tail)]
        for a, b in static + self._collisions(opponents):
            if a.shape[0]:
                worst = max(worst, float(np.max(a @ s_vec - b)))
        return max(worst, 0.0)

    def objective(self, s_vec):
        dev = s_vec - self.s_ref
        return float(0.5 * dev @ (self.expansion.diagonal * dev))


@dataclass(frozen=True)
class EquilibriumResult:
    """Outcome of a best-response sweep: the profile plus its certificates."""

    strategies: dict
    converged: bool
    degraded: bool
    iterations: int
    rel_step: float
    max_violation: float
    gaps: dict
    objectives: dict


class _NullObserver:
    def session_started(self, game, strategies):
        pass

    def round_started(self, zeta):
        pass

    def opponents_view(self, vid, current):
        return current

    def computed(self, vid, zeta, strategy, seconds, status):
        pass

    def criterion(self, zeta, rel_step, violation, seconds, stop):
        pass

    def session_finished(self, result):
        pass


def _profile_certificates(game, workspaces, current, settings):
    """Exact best-response gaps and worst violation of a joint profile."""
    gaps = {}
    objectives = {}
    violation = 0.0
    for vid in game.decision_ids:
        opponents = game.opponents_of(vid, current)
        ws = workspaces[vid]
        s_vec = current[vid].data
        objectives[vid] = ws.objective(s_vec)
        sol = ws.best_response(opponents, settings)
        gaps[vid] = objectives[vid] - ws.objective(sol.s_star) if sol.ok else float("inf")
        violation = max(violation, ws.violation_at(s_vec, opponents))
    return gaps, objectives, violation


def solve_games(game, settings=None, initial=None, observer=None):
    """Best-response iteration to a generalized equilibrium of one game.

    Players update in ascending id against the latest strategies; iteration
    stops once the largest relative strategy step and the worst constraint
    violation both fall under their thresholds. An infeasible subproblem keeps
    that player's previous iterate and marks the result degraded.
    """
    settings = settings or game.scenario.solver
    observer = observer or _NullObserver()
    workspaces = {vid: _PlayerWorkspace(game, vid) for vid in game.decision_ids}
    strategies = {}
    for vid in game.decision_ids:
        if initial is not None and vid in initial:
            strategies[vid] = initial[vid]
        else:
            strategies[vid] = Strategy.from_reference(game.references[vid], game.segment)
    current = dict(game.fixed)
    current.update(strategies)
    observer.session_started(game, dict(current))

    converged = False
    degraded = False
    rel_step = float("inf")
    violation = float("inf")
    iterations = 0
    for zeta in range(1, settings.max_iterations + 1):
        iterations = zeta
        observer.round_started(zeta)
        previous = {vid: strategies[vid].data for vid in game.decision_ids}
        for vid in game.decision_ids:
            view = observer.opponents_view(vid, current)
            opponents = game.opponents_of(vid, view)
            t0 = time.perf_counter()
            sol = workspaces[vid].best_response(opponents, settings)
            seconds = time.perf_counter() - t0
            if sol.status == OPTIMAL:
                strategies[vid] = Strategy(game.segment, sol.s_star)
                current[vid] = strategies[vid]
            else:
                degraded = True
            observer.computed(vid, zeta, strategies[vid], seconds, sol.status)
        t0 = time.perf_counter()
        rel_step = max(
            float(np.linalg.norm(strategies[vid].data - previous[vid]))
            / max(1.0, float(np.linalg.norm(previous[vid])))
            for vid in game.decision_ids
        )
        violation = max(
            workspaces[vid].violation_at(strategies[vid].data, game.opponents_of(vid, current))
            for vid in game.decision_ids
        )
        seconds = time.perf_counter() - t0
        stop = rel_step <= settings.step_eps and violation <= settings.violation_eps
        observer.criterion(zeta, rel_step, violation, seconds, stop)
        if stop:
            converged = True
            break
        if rel_step == 0.0:
            # Exact fixed point of the sweep: no accepted update moved, and
            # each best response is a deterministic function of the others,
            # so every further round would replay this one.  Stop without
            # claiming convergence; the violation that kept `stop` false is
            # frozen in.
            break

    gaps, objectives, final_violation = _profile_certificates(game, workspaces, current, settings)
    result = EquilibriumResult(
        strategies=dict(strategies),
        converged=converged,
        degraded=degraded,
        iterations=iterations,
        rel_step=rel_step,
        max_violation=final_violation,
        gaps=gaps,
        objectives=objectives,
    )
    observer.session_finished(result)
    return result


def best_response(player, opponents, game, settings=None):
    """Single best-response QP of one player against fixed opponent strategies."""
    settings = settings or game.scenario.solver
    ws = _PlayerWorkspace(game, player)
    return ws.best_response(opponents, settings)


@dataclass(frozen=True)
class VeReport:
    """Equilibrium-quality certificate of a strategy profile."""

    gaps: dict
    objectives: dict
    max_violation: float

    def certified(self, tol):
        """True when every player's gap is within tol * (1 + |J_i|)."""
        return all(
            gap <= tol * (1.0 + abs(self.objectives[vid])) for vid, gap in self.gaps.items()
        )


def ve_residual(strategies, game, settings=None):
    """Best-response gaps and worst violation of a given joint profile."""
    settings = settings or game.scenario.solver
    workspaces = {vid: _PlayerWorkspace(game, vid) for vid in game.decision_ids}
    current = dict(game.fixed)
    current.update({vid: strategies[vid] for vid in game.decision_ids})
    gaps, objectives, violation = _profile_certificates(game, workspaces, current, settings)
    return VeReport(gaps=gaps, objectives=objectives, max_violation=violation)
