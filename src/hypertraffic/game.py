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
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .constraints import (STEP_VARS, Segment, StaticRows, Strategy, assemble, coefficient_key,
                          collision_rows, keep_out_axes, pose_columns, restated_rows, stack_dense,
                          start_state, static_rows)
from .qp import (OPTIMAL, Elimination, GramBlocks, ReducedHessian, ReducedQp, _require_finite,
                 factor_equalities, gram_blocks, particular)

# Weight components are ordered (p_x, p_y, v, psi, a, delta); a strategy step
# stacks controls before the state, so the per-step weight block is R then Q.
WEIGHT_PATTERN = np.array([4, 5, 0, 1, 2, 3])

# Most player systems kept in `_STATIC_PARTS`, each a `_StaticEntry` with
# its memos. At H=121 (120 steps, 720 variables) an entry holds the basis Z,
# its Gram blocks, the static rows in sparse form with their right-hand
# sides, s_key and N (28,800 bytes): 4,309,648 bytes for a lane changer (Z
# 720 x 240, six blocks 2,764,848) and 1,197,304 for a straight driver (Z
# 720 x 120, three blocks 345,624). Its memos add SLOTS_PER_KEY times a
# reduced Hessian (466,560 bytes for a lane changer, its 240 x 240 factor
# and H; 120,960 for a straight driver), a right-hand side (29,760 and
# 28,800) and a layout against three opponents (120,960 and 114,240): at
# most 5.54 MB and 1.73 MB an entry, so a full cache holds at most 44.4 MB.
# Packed triangles would halve the blocks.
STATIC_CACHE_ENTRIES = 8
SLOTS_PER_KEY = 2


def weight_diagonal(theta, n_steps):
    """Objective weights repeated along `n_steps` steps in strategy layout:
    the diagonal of the tracking cost's quadratic form."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (6,):
        raise ValueError("weight vector must have 6 components")
    if np.any(theta <= 0):
        raise ValueError("weights must be strictly positive")
    return np.tile(theta[WEIGHT_PATTERN], n_steps)


def reference_vector(reference, segment):
    """Reference states stacked in strategy layout with zero controls."""
    return Strategy.from_reference(reference, segment).data


def objective_qp_data(weights, s_ref):
    """Objective 0.5 s'diag(h)s + f's whose minimizer tracks the reference
    vector `s_ref` (`reference_vector`) at zero cost, as (h, f): the
    diagonal h of the quadratic form, not a matrix, and the linear term f."""
    h_diag = weight_diagonal(weights.theta, s_ref.size // STEP_VARS)
    return h_diag, -h_diag * s_ref


def check_reference(name, reference, segment, scenario):
    """Refuse a player's reference, called `name` in the message, unless it
    covers `segment` exactly, is stepped with `scenario.ts` and is finite."""
    if reference.start != segment.start or len(reference) != segment.n_steps + 1:
        raise ValueError(f"{name} does not cover the segment")
    if reference.ts != scenario.ts:
        raise ValueError(f"{name} has step {reference.ts}, the scenario {scenario.ts}")
    if not np.all(np.isfinite(reference.states)):
        raise ValueError(f"{name} has non-finite states")


@dataclass(frozen=True)
class GameSpec:
    """One concrete game: who decides with which weights, who is frozen data.

    References and initial states are per decision player and must cover the
    segment exactly; fixed strategies must live on the same segment. All are
    refused here, by player, if not finite.
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
            check_reference(f"reference for player {vid}", ref, self.segment, self.scenario)
            if vid not in self.initial_states:
                raise ValueError(f"decision player {vid} has no initial state")
            if not np.all(np.isfinite(self.initial_states[vid].as_array())):
                raise ValueError(f"initial state of player {vid} has non-finite entries")
        for vid, strat in self.fixed.items():
            if strat.segment != self.segment:
                raise ValueError(f"fixed strategy for player {vid} lives on a different segment")
            if not np.all(np.isfinite(strat.data)):
                raise ValueError(f"fixed strategy for player {vid} has non-finite entries")

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
        initial_states = {vid: start_state(scenario.vehicle(vid), segment, references[vid])
                          for vid in weights}
    return GameSpec(
        scenario=scenario,
        weights=dict(weights),
        segment=segment,
        fixed=fixed,
        references=dict(references),
        initial_states=dict(initial_states),
    )


@dataclass
class _StaticEntry:
    """What players with the same coefficients share: the read-only
    null-space basis Z of their equality rows, its `GramBlocks`, one per
    step position, from which each player's weights form its reduced
    Hessian, the particular solution s_key at start state x(0) = 0, N (n x
    4), its map from x(0), which reaches b_eq only as A_0 x(0)
    (`StaticRows.start_columns`), and the static rows `rows`, built at the
    reference's first point, which `restated_rows` re-states for a start.

    Its memos, least recently used first, SLOTS_PER_KEY each, hold what the
    workspaces on it build: `hessians`, the `ReducedHessian`s by the bytes of
    the weights, `sides`, the `_RightHandSide`s by the bytes of the start
    state, and `layouts`, the `assemble` stacks with empty slots by the
    opponent ids. They leave the cache with the entry."""

    z_basis: np.ndarray
    gram: GramBlocks
    s_key: np.ndarray
    n_map: np.ndarray
    rows: StaticRows
    hessians: OrderedDict = field(default_factory=OrderedDict)
    sides: OrderedDict = field(default_factory=OrderedDict)
    layouts: OrderedDict = field(default_factory=OrderedDict)

    def side(self, start):
        """The `_RightHandSide` of start state `start`: s_part = s_key + N
        x(0), for every start, so a re-stated one is bitwise a fresh build."""
        rows = restated_rows(self.rows, start)
        b_eq = np.concatenate([b for _, b, _ in rows.eq])
        elimination = Elimination.of(self.z_basis, self.s_key + self.n_map @ start.as_array(),
                                     b_eq, rows.eq_miss)
        n_steps = self.z_basis.shape[0] // STEP_VARS
        return _RightHandSide(rows, elimination, elimination.s_part.take(pose_columns(n_steps)))


@dataclass
class _RightHandSide:
    """What a start state fixes on top of a `_StaticEntry`: its static rows
    `rows`, their `Elimination`, s_part at the pose columns (n, 3), which
    the d of every keep-out row reads, and d = b - A s_part of the head and
    of the tail of the inequality stack, which the first workspace on it
    forms by one `ReducedQp.reduce_rows` of its stack."""

    rows: StaticRows
    elimination: Elimination
    pose_part: np.ndarray
    d_head: np.ndarray = None
    d_tail: np.ndarray = None


# The `_StaticEntry`s by coefficient key, least recently used first (see
# STATIC_CACHE_ENTRIES).
_STATIC_PARTS = OrderedDict()


def _memo(cache, key, bound, build):
    """cache[key], from `build()` if it is missing, as the most recently
    used; the least recently used beyond `bound` are dropped."""
    value = cache.pop(key, None)
    if value is None:
        value = build()
    cache[key] = value
    while len(cache) > bound:
        cache.popitem(last=False)
    return value


def _player_system(vehicle, scenario, segment, reference):
    """A player's `_StaticEntry`, in `_STATIC_PARTS` under its
    `constraints.coefficient_key`: what a forward workspace and the inverse
    fit both read.

    A miss builds the static rows, factors their equality rows, forms the
    Gram blocks of the null-space basis, per step position, and solves for
    s_key and N in one `particular` call; of the factors it keeps only Z. A
    hit builds nothing, but runs the x-extent check of the rows' tangent
    queries on the reference's first decision point."""
    key = coefficient_key(vehicle, scenario, segment, reference)

    def build():
        rows = static_rows(vehicle, scenario, segment, reference, None)
        factors = factor_equalities(stack_dense(rows.eq)[0])
        s_cols = particular(factors, rows.start_columns())
        z_basis = factors.z_basis
        return _StaticEntry(z_basis, gram_blocks(z_basis, STEP_VARS), s_cols[:, 0].copy(),
                            s_cols[:, 1:] @ rows.start[1], rows)

    if key in _STATIC_PARTS:
        scenario.road.tangent_at(0.0, reference.states[1])
    return _memo(_STATIC_PARTS, key, STATIC_CACHE_ENTRIES, build)


class _KeepOut:
    """The keep-out rows of a game's decision players against the latest
    strategy of each opponent, with their d = b - grad . s_part at the pose
    columns. The first workspace that needs rows against an opponent's
    `Strategy` object (checked by identity, as the slots check it) builds
    them in one `collision_rows` call for every decision player, and their d
    in one pass; an opponent's row against its own strategy is built too and
    never read. Each workspace attaches its s_part at the pose columns when
    it is built, which drops the rows built before."""

    def __init__(self, game):
        ids = game.decision_ids
        self._index = {vid: k for k, vid in enumerate(ids)}
        self._poses = np.stack([game.references[vid].states[1:] for vid in ids])
        self._axes = np.array([keep_out_axes(game.scenario.vehicle(vid).geometry) for vid in ids])
        self._pose_parts = np.zeros((len(ids), game.segment.n_steps, 3))
        self._latest = {}  # opponent id -> (strategy, gradients, b, d)

    def attach(self, vid, pose_part):
        """Take player `vid`'s s_part at its pose columns, (n, 3)."""
        self._pose_parts[self._index[vid]] = pose_part
        self._latest.clear()

    def rows(self, vid, oid, strategy):
        """Player `vid`'s keep-out gradients (n, 3), b (n,) and d (n,)
        against `strategy`, opponent `oid`'s."""
        held = self._latest.get(oid)
        if held is None or held[0] is not strategy:
            grad, b_in = collision_rows(self._poses, self._axes, strategy)
            _require_finite(b_in=b_in)
            # Bitwise `reduce_rows`'s d (the product `SparseRows @` forms).
            d = b_in - np.einsum("pij,pij->pi", grad, self._pose_parts)
            held = self._latest[oid] = (strategy, grad, b_in, d)
        k = self._index[vid]
        return held[1][k], held[2][k], held[3][k]


class _PlayerWorkspace:
    """Per-player QP data that survives the whole game: the player's static
    rows `rows` for its start state, the reduced quadratic block for its
    weights on their elimination, its inequality rows as
    `constraints.assemble` lays them out (`stack`), and each row's d = b -
    A s_part. All but the keep-out rows come from the memos of the player's
    `_StaticEntry`, keyed by the exact bytes of what each reads: the
    `ReducedHessian` by the weights, the `_RightHandSide`, with the static
    rows' d, by the start state, and the stack's layout, whose coefficients
    and b the workspace copies, by the opponent ids. When the opponent
    `Strategy` object a keep-out slot records changes, the player's
    coefficients, b and d are copied into it from the game's `_KeepOut`
    batch. The check is by identity: an accepted best response that moves
    makes a new strategy object, one that repeats keeps the old one
    (`solve_games`), and a transport passes on the objects it receives. The
    stored solve is an exact memo: a best response against the same
    opponent objects as the stored one, from the same start working set,
    returns the stored solution, which a re-solve would repeat bit for bit
    (the same deterministic solve on the same data); any other solves.
    Every solve uses the scenario's solver settings."""

    def __init__(self, game, vid, keep_out):
        self.vid = vid
        self.settings = game.scenario.solver
        self._segment = segment = game.segment
        reference, start = game.references[vid], game.initial_states[vid]
        self.s_ref = reference_vector(reference, segment)
        self.h_diag, self.f_vec = objective_qp_data(game.weights[vid], self.s_ref)
        entry = _player_system(game.scenario.vehicle(vid), game.scenario, segment, reference)
        side = _memo(entry.sides, start.as_array().tobytes(), SLOTS_PER_KEY,
                     lambda: entry.side(start))
        hessian = _memo(entry.hessians, self.h_diag[:STEP_VARS].tobytes(), SLOTS_PER_KEY,
                        lambda: ReducedHessian.of(self.h_diag, entry.z_basis, entry.gram))
        self.rows = side.rows
        self.reduced = ReducedQp(hessian, side.elimination)
        self._keep_out = keep_out
        keep_out.attach(vid, side.pose_part)
        self.opponent_ids = tuple(sorted((set(game.weights) | set(game.fixed)) - {vid}))
        self.stack = _memo(entry.layouts, self.opponent_ids, SLOTS_PER_KEY,
                           lambda: assemble(entry.rows, segment.n_steps, self.opponent_ids)).copy()
        n_slots = segment.n_steps * len(self.opponent_ids)
        if side.d_head is None:
            d = self.reduced.reduce_rows(self.stack.rows, self.stack.b)[1]
            n_head = sum(b.size for _, b, _ in self.rows.head)
            side.d_head, side.d_tail = d[:n_head], d[n_head + n_slots:]
        self._d = np.concatenate([side.d_head, np.zeros(n_slots), side.d_tail])
        self._built = dict.fromkeys(self.opponent_ids)  # the strategy each slot holds
        self._solved = None  # (opponent strategies, start working set, solution)
        self._warm = ()  # the last optimal working set, as row indices of the stack

    def _sync(self, opponents):
        """Bring the keep-out slots up to date with `opponents`; returns the
        opponent strategies in solver order."""
        if tuple(sorted(opponents)) != self.opponent_ids:
            raise ValueError(f"player {self.vid} plays against {self.opponent_ids}, "
                             f"got {tuple(sorted(opponents))}")
        strategies = tuple(opponents[oid] for oid in self.opponent_ids)
        for oid, strat in zip(self.opponent_ids, strategies):
            if self._built[oid] is not strat:
                grad, b_in, d = self._keep_out.rows(self.vid, oid, strat)
                self.stack.keep_out(oid, grad, b_in)
                self._d[self.stack.slots[oid]] = d
                self._built[oid] = strat
        return strategies

    def best_response(self, opponents):
        strategies = self._sync(opponents)
        start = self._warm
        if self._solved is not None:
            last, last_start, sol = self._solved
            if last_start == start and all(a is b for a, b in zip(last, strategies)):
                return sol
        sol = self.reduced.solve(self.f_vec, self.stack.rows, self._d, self.settings, start)
        self._warm = sol.working_set if sol.ok else start
        self._solved = (strategies, start, sol)
        return sol

    def violation_at(self, s_vec, opponents):
        self._sync(opponents)
        eq = self.rows.eq_miss(s_vec)
        return max(float(np.abs(eq).max()),
                   float((self.stack.rows @ s_vec - self.stack.b).max()))

    def row_origin(self, p):
        """(family tag, decision point) of row p of the stack, by its tag
        and the step of its first column: every row constrains the variables
        of one step only."""
        step = int(self.stack.rows.cols[p, 0]) // STEP_VARS
        return self.stack.tags[p], self._segment.start + 1 + step

    def objective(self, s_vec):
        dev = s_vec - self.s_ref
        return float(0.5 * dev @ (self.h_diag * dev))


@dataclass(frozen=True)
class EquilibriumResult:
    """Outcome of a best-response sweep: the profile plus its certificates.
    `degraded_players` maps each player whose best response failed in some
    round to (round, status, origin) per failed round, where origin is the
    (family tag, decision point) of the row an INFEASIBLE solve could not
    enforce (`_PlayerWorkspace.row_origin`), else None. `degraded` describes
    the sweep's path, not the final profile: it is set when any best
    response failed in any round, even one that a later round's optimal
    response replaced, so it can hold together with `converged`."""

    strategies: dict
    converged: bool
    degraded: bool
    iterations: int
    rel_step: float
    max_violation: float
    gaps: dict
    objectives: dict
    degraded_players: dict


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


def _profile_certificates(game, workspaces, current):
    """Exact best-response gaps and objectives of a joint profile."""
    gaps = {}
    objectives = {}
    for vid in game.decision_ids:
        ws = workspaces[vid]
        objectives[vid] = ws.objective(current[vid].data)
        sol = ws.best_response(game.opponents_of(vid, current))
        gaps[vid] = objectives[vid] - ws.objective(sol.s_star) if sol.ok else float("inf")
    return gaps, objectives


def _profile_violation(game, workspaces, current):
    """Worst constraint violation of a joint profile over the decision players."""
    return max(
        (workspaces[vid].violation_at(current[vid].data, game.opponents_of(vid, current))
         for vid in game.decision_ids),
        default=0.0,
    )


def _accept(held, s_star):
    """`held` if `s_star` repeats its data bit for bit (-0.0 is not 0.0),
    else a new `Strategy` on its segment."""
    if np.array_equal(s_star.view(np.uint64), held.data.view(np.uint64)):
        return held
    return Strategy(held.segment, s_star)


def solve_games(game, observer=None):
    """Best-response iteration to a generalized equilibrium of one game.

    Players update in ascending id against the latest strategies; iteration
    stops once the largest relative strategy step and the worst constraint
    violation both fall under their thresholds. An infeasible subproblem keeps
    that player's previous iterate and marks the result degraded. Every
    player starts from its reference; the thresholds and the round budget are
    the scenario's solver settings.

    An optimal best response that repeats its player's strategy bit for bit
    keeps that `Strategy` object (`_accept`), and the observer passes the
    same object on, so the identity checks of `_KeepOut` and of every
    workspace's slots and stored solve see an unchanged opponent.
    """
    settings = game.scenario.solver
    observer = observer or _NullObserver()
    keep_out = _KeepOut(game)
    workspaces = {vid: _PlayerWorkspace(game, vid, keep_out) for vid in game.decision_ids}
    strategies = {vid: Strategy.from_reference(game.references[vid], game.segment)
                  for vid in game.decision_ids}
    current = dict(game.fixed)
    current.update(strategies)
    observer.session_started(game, dict(current))

    converged = False
    degraded_players = {}
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
            sol = workspaces[vid].best_response(opponents)
            seconds = time.perf_counter() - t0
            if sol.status == OPTIMAL:
                strategies[vid] = current[vid] = _accept(strategies[vid], sol.s_star)
            else:
                origin = None if sol.row is None else workspaces[vid].row_origin(sol.row)
                failed = (zeta, sol.status, origin)
                degraded_players[vid] = degraded_players.get(vid, ()) + (failed,)
            observer.computed(vid, zeta, strategies[vid], seconds, sol.status)
        t0 = time.perf_counter()
        rel_step = max(
            float(np.linalg.norm(strategies[vid].data - previous[vid]))
            / max(1.0, float(np.linalg.norm(previous[vid])))
            for vid in game.decision_ids
        )
        violation = _profile_violation(game, workspaces, current)
        seconds = time.perf_counter() - t0
        stop = rel_step <= settings.step_eps and violation <= settings.violation_eps
        observer.criterion(zeta, rel_step, violation, seconds, stop)
        if stop:
            converged = True
            break
        if rel_step == 0.0:
            # Exact fixed point of the sweep: no accepted update moved. A best
            # response is a function of the opponents and the workspace's last
            # working set; a solve from the same set on the same data repeats
            # bit for bit, and one started on its optimal set ends on it, so
            # further rounds would replay this one. Stop without claiming
            # convergence; the violation that kept `stop` false is frozen in.
            break

    # The last round's violation was taken on this final profile, and
    # max_iterations >= 1 guarantees there was a round.
    gaps, objectives = _profile_certificates(game, workspaces, current)
    result = EquilibriumResult(
        strategies=dict(strategies),
        converged=converged,
        degraded=bool(degraded_players),
        iterations=iterations,
        rel_step=rel_step,
        max_violation=violation,
        gaps=gaps,
        objectives=objectives,
        degraded_players=degraded_players,
    )
    observer.session_finished(result)
    return result


@dataclass(frozen=True)
class VeReport:
    """Equilibrium-quality certificate of a strategy profile."""

    gaps: dict
    objectives: dict
    max_violation: float


def ve_residual(strategies, game):
    """Best-response gaps and worst violation of a given joint profile, which
    must hold a strategy on the game's segment for every decision player."""
    for vid in game.decision_ids:
        if vid not in strategies:
            raise ValueError(f"decision player {vid} has no strategy in the profile")
        if strategies[vid].segment != game.segment:
            raise ValueError(f"strategy for player {vid} lives on a different segment")
    keep_out = _KeepOut(game)
    workspaces = {vid: _PlayerWorkspace(game, vid, keep_out) for vid in game.decision_ids}
    current = dict(game.fixed)
    current.update({vid: strategies[vid] for vid in game.decision_ids})
    gaps, objectives = _profile_certificates(game, workspaces, current)
    violation = _profile_violation(game, workspaces, current)
    return VeReport(gaps=gaps, objectives=objectives, max_violation=violation)
