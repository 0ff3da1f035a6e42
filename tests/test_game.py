from dataclasses import replace

import numpy as np
import pytest

from hypertraffic import game as game_module
from hypertraffic.constraints import Segment, Strategy, X_V, STEP_VARS, profile_violation
from hypertraffic.game import (
    WEIGHT_PATTERN,
    _KeepOut,
    _PlayerWorkspace,
    make_game,
    objective_qp_data,
    reference_vector,
    solve_games,
    ve_residual,
    weight_diagonal,
)
from hypertraffic.cognition import hv_subjective_game
from hypertraffic.qp import INFEASIBLE, OPTIMAL
from hypertraffic.scenario import (
    LANE_CHANGE,
    StyleWeights,
    default_offline_scenario,
    style_weights_for,
    success_study_scenario,
)

from _oracles import (dense_system, forget_player_systems, kkt_residual, pseudo_gradient,
                      system_violation)


def _scen():
    return default_offline_scenario()


def _subjective_weights(scen):
    weights = {0: scen.hv.weights_true}
    for cav in scen.cavs:
        weights[cav.vid] = style_weights_for(cav.behavior.kind, cav.style)
    return weights


def _true_weights(scen):
    return {v.vid: v.weights_true for v in scen.vehicles}


def _certified(report, tol):
    """Every player's gap within tol * (1 + |J_i|)."""
    return all(gap <= tol * (1.0 + abs(report.objectives[vid]))
               for vid, gap in report.gaps.items())


def _seed(scen, vid):
    seg = Segment(1, scen.horizon)
    return Strategy.from_reference(scen.references()[vid].window(1, scen.horizon), seg)


def test_weight_diagonal_layout():
    theta = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    # block order is (a, delta, p_x, p_y, v, psi); theta stores
    # (p_x, p_y, v, psi, a, delta)
    assert weight_diagonal(theta, 2).tolist() == [5.0, 6.0, 1.0, 2.0, 3.0, 4.0] * 2
    with pytest.raises(ValueError, match="strictly positive"):
        weight_diagonal(np.zeros(6), 2)
    with pytest.raises(ValueError, match="6 components"):
        weight_diagonal(np.ones(3), 2)


def test_objective_value_matches_qp_data():
    scen = _scen()
    seg = Segment(1, scen.horizon)
    ref = scen.references()[0].window(1, scen.horizon)
    weights = scen.hv.weights_true
    rng = np.random.default_rng(5)
    s = Strategy(seg, rng.normal(size=seg.n_vars))
    s_ref = reference_vector(ref, seg)
    h_diag, f_vec = objective_qp_data(weights, s_ref)
    const = 0.5 * s_ref @ (h_diag * s_ref)
    quad = 0.5 * s.data @ (h_diag * s.data) + f_vec @ s.data + const
    game = make_game(scen, {0: weights})
    workspace = _PlayerWorkspace(game, 0, _KeepOut(game))
    assert workspace.objective(s.data) == pytest.approx(quad, rel=1e-12)
    # zero cost exactly on the reference
    on_ref = Strategy.from_reference(ref, seg)
    assert workspace.objective(on_ref.data) == 0.0


def test_pseudo_gradient_is_strongly_monotone():
    # The stacked gradient of diagonal quadratics satisfies the two-sided
    # bound theta_min ||ds||^2 <= <dF, ds> <= theta_max ||ds||^2.
    scen = _scen()
    seg = Segment(1, scen.horizon)
    refs = {vid: scen.references()[vid].window(1, scen.horizon) for vid in (1, 2, 3)}
    rng = np.random.default_rng(12)
    for _ in range(200):
        weights = {
            vid: StyleWeights(rng.uniform(0.05, 5.0, size=6)) for vid in (1, 2, 3)
        }
        s_a = {vid: Strategy(seg, rng.normal(size=seg.n_vars)) for vid in (1, 2, 3)}
        s_b = {vid: Strategy(seg, rng.normal(size=seg.n_vars)) for vid in (1, 2, 3)}
        grad_diff = pseudo_gradient(s_a, weights, refs) - pseudo_gradient(s_b, weights, refs)
        step = np.concatenate([s_a[vid].data - s_b[vid].data for vid in (1, 2, 3)])
        inner = float(grad_diff @ step)
        sq = float(step @ step)
        lo = min(float(np.min(w.theta)) for w in weights.values())
        hi = max(float(np.max(w.theta)) for w in weights.values())
        assert inner >= lo * sq - 1e-9 * (1.0 + abs(inner))
        assert inner <= hi * sq + 1e-9 * (1.0 + abs(inner))


def test_make_game_defaults_and_validation():
    scen = _scen()
    weights = _subjective_weights(scen)
    game = make_game(scen, weights)
    assert game.decision_ids == (0, 1, 2, 3)
    assert game.segment == Segment(1, 36)
    for vid in game.decision_ids:
        assert game.references[vid].start == 1
        assert len(game.references[vid]) == 36
        assert game.initial_states[vid] == scen.vehicle(vid).initial

    cav_weights = {k: v for k, v in weights.items() if k != 0}
    hv_fixed = _seed(scen, 0)
    planning = make_game(scen, cav_weights, fixed={0: hv_fixed})
    assert planning.decision_ids == (1, 2, 3)

    with pytest.raises(ValueError):
        make_game(scen, weights, fixed={0: hv_fixed})
    with pytest.raises(KeyError):
        make_game(scen, {**cav_weights, 9: weights[1]})
    short = Strategy.from_reference(scen.references()[0].window(1, 10), Segment(1, 10))
    with pytest.raises(ValueError):
        make_game(scen, cav_weights, fixed={0: short})


def test_best_response_satisfies_kkt_and_constraints():
    scen = _scen()
    game = make_game(scen, _subjective_weights(scen))
    opponents = {vid: _seed(scen, vid) for vid in (1, 2, 3)}
    sol = _PlayerWorkspace(game, 0, _KeepOut(game)).best_response(opponents)
    assert sol.status == OPTIMAL and sol.ok
    system = dense_system(0, opponents, scen)
    ref = game.references[0]
    s_ref = reference_vector(ref, game.segment)
    h_diag, f_vec = objective_qp_data(game.weights[0], s_ref)
    kkt = kkt_residual(np.diag(h_diag), f_vec, system.a_eq, system.b_eq, system.a_in,
                       system.b_in, sol.s_star, sol.lam)
    assert kkt.stationarity < 1e-6
    assert system_violation(system, sol.s_star) < 1e-8
    # the raw QP value omits the constant reference term; adding it back
    # gives the tracking cost, which is positive because the seeded merge
    # overlaps the human's reference and forces a move
    tracking = sol.objective + 0.5 * s_ref @ (h_diag * s_ref)
    assert tracking > 1e-6


def test_default_game_reaches_equilibrium():
    scen = _scen()
    game = make_game(scen, _subjective_weights(scen))
    result = solve_games(game)
    assert result.converged and not result.degraded
    assert result.iterations <= scen.solver.max_iterations
    assert result.max_violation <= scen.solver.violation_eps
    report = ve_residual(result.strategies, game)
    assert _certified(report, 1e-4)
    assert profile_violation(result.strategies, scen) <= scen.solver.violation_eps
    for vid, gap in result.gaps.items():
        assert gap <= 1e-4 * (1.0 + abs(result.objectives[vid]))

    again = solve_games(game)
    assert again.iterations == result.iterations
    for vid in result.strategies:
        assert np.array_equal(again.strategies[vid].data, result.strategies[vid].data)


def test_fixed_player_stays_data():
    scen = _scen()
    weights = _subjective_weights(scen)
    cav_weights = {k: v for k, v in weights.items() if k != 0}
    hv_fixed = _seed(scen, 0)
    before = hv_fixed.data.copy()
    game = make_game(scen, cav_weights, fixed={0: hv_fixed})
    result = solve_games(game)
    assert sorted(result.strategies) == [1, 2, 3]
    assert np.array_equal(hv_fixed.data, before)
    assert result.converged


def test_blocked_game_stalls_without_convergence(monkeypatch):
    # In the pinched merge the true-weight game wedges: a best response goes
    # infeasible, the sweep freezes at an exact fixed point and reports the
    # failure instead of burning the iteration budget.
    scen = success_study_scenario()
    game = make_game(scen, _true_weights(scen))
    result = solve_games(game)
    assert result.degraded
    assert not result.converged
    assert result.rel_step == 0.0
    assert result.iterations < scen.solver.max_iterations
    assert result.max_violation > scen.solver.violation_eps

    again = solve_games(game)
    assert again.iterations == result.iterations
    for vid in result.strategies:
        assert np.array_equal(again.strategies[vid].data, result.strategies[vid].data)

    # Warm-started best responses stall in the same round as cold ones.
    original = _PlayerWorkspace.best_response

    def cold(self, opponents):
        self._warm = ()
        return original(self, opponents)

    monkeypatch.setattr(_PlayerWorkspace, "best_response", cold)
    assert solve_games(game).iterations == result.iterations


def test_the_success_study_ground_truth_names_its_infeasible_row(monkeypatch):
    # The study's ground truth ends degraded: from round 2 on, the human's QP
    # cannot enforce its keep-out row against player 3 at the last decision
    # point, a miss of about 2.6e4. Every other solve is optimal and names
    # no row.
    solves = []
    original = _PlayerWorkspace.best_response

    def recorded(self, opponents):
        sol = original(self, opponents)
        origin = None if sol.row is None else self.row_origin(sol.row)
        solves.append((self.vid, sol.status, origin, sol.infeasibility))
        return sol

    monkeypatch.setattr(_PlayerWorkspace, "best_response", recorded)
    scen = success_study_scenario()
    result = solve_games(hv_subjective_game(scen))
    assert (result.converged, result.degraded, result.iterations) == (False, True, 3)
    origin = ("collision(3)", scen.horizon)
    assert result.degraded_players == {0: ((2, INFEASIBLE, origin), (3, INFEASIBLE, origin))}
    human = [(status, origin) for vid, status, origin, _ in solves if vid == 0]
    # One solve per round, then the certificate's.
    assert human == [(OPTIMAL, None)] + [(INFEASIBLE, origin)] * 3
    misses = [miss for vid, status, _, miss in solves if status == INFEASIBLE]
    assert misses == pytest.approx([2.5622e4] * 3, rel=1e-4)
    assert all(status == OPTIMAL for vid, status, _, _ in solves if vid != 0)


def test_row_origin_follows_the_stack_layout():
    # A lane changer's stack: box rows (upper and lower per step, family by
    # family), lane rows (four vertices per step, boundary by boundary), one
    # collision slot per opponent, then its behavior rows, one per step.
    scen = _scen()
    game = make_game(scen, _subjective_weights(scen))
    vid = next(v.vid for v in scen.vehicles if v.behavior.kind == LANE_CHANGE)
    ws = _PlayerWorkspace(game, vid, _KeepOut(game))
    steps = np.arange(game.segment.n_steps)
    layout = [("box", np.tile(np.repeat(steps, 2), 3)), ("lane", np.tile(np.repeat(steps, 4), 2))]
    layout += [(f"collision({oid})", steps) for oid in ws.opponent_ids]
    layout += [("behavior", steps)]
    want = [(tag, game.segment.start + 1 + int(step)) for tag, at in layout for step in at]
    assert ws.stack.rows.shape[0] == len(want)
    assert [ws.row_origin(p) for p in range(len(want))] == want


def test_ve_residual_flags_perturbed_profile():
    scen = _scen()
    game = make_game(scen, _subjective_weights(scen))
    result = solve_games(game)
    baseline = ve_residual(result.strategies, game)
    assert _certified(baseline, 1e-4)

    bent = dict(result.strategies)
    data = bent[2].data.copy()
    data[X_V::STEP_VARS] += 0.05
    bent[2] = Strategy(game.segment, data)
    report = ve_residual(bent, game)
    assert report.gaps[2] > baseline.gaps[2]
    assert not _certified(report, 1e-4)


class _Recorder:
    def __init__(self):
        self.log = []

    def session_started(self, game, strategies):
        self.log.append(("start", sorted(strategies)))

    def round_started(self, zeta):
        self.log.append(("round", zeta))

    def opponents_view(self, vid, current):
        self.log.append(("view", vid))
        return current

    def computed(self, vid, zeta, strategy, seconds, status):
        self.log.append(("computed", vid, zeta, status))

    def criterion(self, zeta, rel_step, violation, seconds, stop):
        self.log.append(("criterion", zeta, stop))

    def session_finished(self, result):
        self.log.append(("finished", result.converged))


def test_observer_sees_the_whole_session_in_order():
    scen = _scen()
    game = make_game(scen, _subjective_weights(scen))
    rec = _Recorder()
    result = solve_games(game, observer=rec)
    assert rec.log[0] == ("start", [0, 1, 2, 3])
    assert rec.log[-1] == ("finished", True)
    rounds = [e for e in rec.log if e[0] == "round"]
    assert [e[1] for e in rounds] == list(range(1, result.iterations + 1))
    for zeta in range(1, result.iterations + 1):
        computed = [e for e in rec.log if e[0] == "computed" and e[2] == zeta]
        assert [e[1] for e in computed] == [0, 1, 2, 3]
    # criterion fires once per round and only the last one stops
    crits = [e for e in rec.log if e[0] == "criterion"]
    assert len(crits) == result.iterations
    assert [e[2] for e in crits] == [False] * (result.iterations - 1) + [True]


def test_non_finite_initial_state_is_refused():
    scen = _scen()
    hv = scen.vehicle(0)
    broken = replace(hv, initial=replace(hv.initial, v=float("nan")))
    scen = replace(scen, vehicles=(broken,) + scen.cavs)
    with pytest.raises(ValueError, match="non-finite"):
        solve_games(make_game(scen, _true_weights(scen)))


@pytest.mark.parametrize("field", ["reference", "fixed"])
def test_a_non_finite_reference_or_fixed_strategy_is_refused_naming_the_player(field):
    scen = _scen()
    weights = _true_weights(scen)
    base = make_game(scen, weights)
    if field == "reference":
        states = base.references[2].states.copy()
        states[5, 1] = np.nan
        references = {**base.references, 2: replace(base.references[2], states=states)}
        message = "^reference for player 2 has non-finite states$"
        build = lambda: make_game(scen, weights, references=references,
                                  initial_states=base.initial_states)
    else:
        data = Strategy.from_reference(base.references[2], base.segment).data.copy()
        data[STEP_VARS + X_V] = np.inf
        deciding = {vid: w for vid, w in weights.items() if vid != 2}
        message = "^fixed strategy for player 2 has non-finite entries$"
        build = lambda: make_game(scen, deciding, fixed={2: Strategy(base.segment, data)})
    with pytest.raises(ValueError, match=message):
        solve_games(build())


@pytest.mark.parametrize("fault", ["missing", "segment"])
def test_ve_residual_refuses_a_profile_without_a_decision_player_or_off_the_segment(fault):
    # The parent raised a bare KeyError(3) for the missing player, and failed
    # deep in the sweep for the short strategy.
    scen = _scen()
    game = make_game(scen, _true_weights(scen))
    profile = {vid: Strategy.from_reference(game.references[vid], game.segment)
               for vid in game.decision_ids}
    if fault == "missing":
        del profile[3]
        message = "^decision player 3 has no strategy in the profile$"
    else:
        short = Segment(1, 10)
        profile[3] = Strategy.from_reference(scen.references()[3].window(1, 10), short)
        message = "^strategy for player 3 lives on a different segment$"
    with pytest.raises(ValueError, match=message):
        ve_residual(profile, game)


def test_a_stopped_vehicle_drops_its_repeated_heading_rows_and_its_game_converges(monkeypatch):
    # At v = 0 the heading row of the dynamics loses its steering coefficient
    # and repeats the straight driver's heading pins, so vehicle 3's 175
    # equality rows have rank 140: `factor_equalities` drops 35 and
    # `particular` fits b_eq over all of them. The human's subjective game
    # still converges, undegraded, with every gap at round-off.
    base = default_offline_scenario()
    scen = replace(base, vehicles=tuple(
        replace(v, initial=replace(v.initial, v=0.0)) if v.vid == 3 else v
        for v in base.vehicles))
    factored = []
    original = game_module.factor_equalities

    def spy(a_eq):
        factors = original(a_eq)
        factored.append((a_eq.shape[0], factors.dropped.size))
        return factors

    monkeypatch.setattr(game_module, "factor_equalities", spy)
    forget_player_systems()
    result = solve_games(hv_subjective_game(scen))
    forget_player_systems()
    assert (175, 35) in factored
    assert sum(dropped for _, dropped in factored) == 35
    assert result.converged and not result.degraded
    assert all(abs(gap) <= 1e-12 for gap in result.gaps.values())
    assert result.max_violation <= 1e-12
