"""A game builds the collision rows against each opponent strategy once, for
every decision player in one call, with their d; a player workspace copies
its rows and d into its slot, reuses its last solve when nothing it reads
has changed, and starts each solve from the working set of its last optimal
one. A best response that
repeats its player's strategy keeps the `Strategy` object, so its opponents
see nothing new. These tests pin that the row and solve reuse moves no bit:
the sweep equals, bit for bit, one that makes a new object for every response
and solves every best response. The warm start moves strategies by round-off
only: 1e-9 of the cold solve, relative to the strategy's size."""

from dataclasses import fields, replace
from functools import lru_cache

import numpy as np
import pytest

from hypertraffic import game as game_module
from hypertraffic import harness, netsim
from hypertraffic.constraints import Segment, Strategy, collision_rows, keep_out_axes, pose_columns
from hypertraffic.game import (EquilibriumResult, _KeepOut, _NullObserver, _PlayerWorkspace,
                               make_game, solve_games, ve_residual)
from hypertraffic.netsim import run_distributed
from hypertraffic.qp import OPTIMAL, GiSolver, ReducedQp, SparseRows
from hypertraffic.scenario import (
    default_offline_scenario,
    default_online_scenario,
    success_study_scenario,
)

SCENARIOS = {
    "offline": default_offline_scenario,
    "success": success_study_scenario,
    "online": default_online_scenario,
}


@lru_cache(maxsize=None)
def _game(name, segment=None):
    scen = SCENARIOS[name]()
    return make_game(scen, {v.vid: v.weights_true for v in scen.vehicles}, segment)


@lru_cache(maxsize=None)
def _h121_game():
    scen = replace(default_offline_scenario(), horizon=121)
    return make_game(scen, {v.vid: v.weights_true for v in scen.vehicles})


@lru_cache(maxsize=None)
def _random_cognition_games():
    """Fifty of criterion 09's games: a random human weight guess, true CAV
    weights."""
    scen = success_study_scenario()
    games = []
    for i in range(50):
        weights = {0: harness._random_hv_guess(scen, np.random.default_rng([0, i]))}
        weights.update({cav.vid: cav.weights_true for cav in scen.cavs})
        games.append(make_game(scen, weights))
    return tuple(games)


def _unmemoize(monkeypatch):
    """From here on, every accepted best response gets a new `Strategy` and
    every best response solves: the sweep without its memo."""
    original = _PlayerWorkspace.best_response

    def solve_always(self, opponents):
        self._solved = None
        return original(self, opponents)

    monkeypatch.setattr(game_module, "_accept", lambda held, s_star: Strategy(held.segment, s_star))
    monkeypatch.setattr(_PlayerWorkspace, "best_response", solve_always)


def _bits(value):
    """`value` with every float and strategy replaced by its bytes."""
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, Strategy):
        return value.data.tobytes()
    if isinstance(value, float):
        return np.float64(value).tobytes()
    return value


def _assert_bitwise_equal(got, want):
    for field in fields(EquilibriumResult):
        assert _bits(getattr(got, field.name)) == _bits(getattr(want, field.name)), field.name


def _seeds(game):
    return {vid: Strategy.from_reference(game.references[vid], game.segment)
            for vid in game.decision_ids}


def _close(got, want):
    """Within 1e-9 relative to the larger of 1 and the size of `want`; an
    infinite value (a degraded player's gap) must be matched exactly."""
    got, want = np.asarray(got), np.asarray(want)
    if not np.all(np.isfinite(want)):
        return np.array_equal(got, want)
    return np.max(np.abs(got - want)) <= 1e-9 * (1.0 + np.max(np.abs(want)))


def _assert_same_solution(got, want):
    assert got.status == want.status
    assert _close(got.s_star, want.s_star)
    assert _close(got.objective, want.objective)


def _cold_sweeps(monkeypatch):
    """Make every workspace forget its working set before each best response."""
    original = _PlayerWorkspace.best_response

    def cold(self, opponents):
        self._warm = ()
        return original(self, opponents)

    monkeypatch.setattr(_PlayerWorkspace, "best_response", cold)


@pytest.mark.parametrize("transport", ["centralized", "distributed"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_each_collision_row_is_built_once_per_opponent_strategy(monkeypatch, name, transport):
    # One `collision_rows` call per (opponent id, Strategy object) per game,
    # for every decision player at once: a slot update that finds the rows
    # built by another player's workspace makes no call. A workspace updates
    # a slot once per opponent strategy.
    game = _game(name)
    built = []  # the opponent strategy of every call, which also keeps it alive
    needed = []  # (player, opponent id, strategy) of every slot update
    original_rows = game_module.collision_rows
    original_batch = _KeepOut.rows

    def counting_rows(poses, semi_axes, opponent_strategy):
        assert poses.shape[0] == len(semi_axes) == len(game.decision_ids)
        built.append(opponent_strategy)
        return original_rows(poses, semi_axes, opponent_strategy)

    def recording_batch(self, vid, oid, strategy):
        needed.append((vid, oid, strategy))
        return original_batch(self, vid, oid, strategy)

    monkeypatch.setattr(game_module, "collision_rows", counting_rows)
    monkeypatch.setattr(_KeepOut, "rows", recording_batch)
    if transport == "distributed":
        run_distributed(game)
    else:
        solve_games(game)
    assert len(needed) == len({(vid, oid, id(strat)) for vid, oid, strat in needed})
    pairs = {(oid, id(strat)) for _, oid, strat in needed}
    assert len({id(strat) for _, _, strat in needed}) == len(pairs)  # a strategy is one player's
    assert len(built) == len(pairs)
    assert {id(strat) for strat in built} == {id(strat) for _, _, strat in needed}
    assert len(built) < len(needed)


@pytest.mark.parametrize("name, segment", [(name, None) for name in sorted(SCENARIOS)]
                         + [("online", Segment(13, 25))], ids=[*sorted(SCENARIOS), "online-stage"])
def test_every_slot_holds_its_rows_and_the_d_of_reduce_rows(name, segment):
    # Each slot holds bitwise the rows of a one-player `collision_rows` call
    # against its opponent's strategy, on the columns the rows name, with the
    # d that `ReducedQp.reduce_rows` gives for them; on the full horizon and
    # on an online stage, at the seeds and at the solved profile.
    game = _game(name, segment)
    n, n_vars = game.segment.n_steps, game.segment.n_vars
    solved = {**game.fixed, **solve_games(game).strategies}
    keep_out = _KeepOut(game)
    workspaces = {vid: _PlayerWorkspace(game, vid, keep_out) for vid in game.decision_ids}
    for profile in (_seeds(game), solved):
        for vid, ws in workspaces.items():
            opponents = game.opponents_of(vid, profile)
            ws.best_response(opponents)
            poses = game.references[vid].states[None, 1:]
            axes = (keep_out_axes(game.scenario.vehicle(vid).geometry),)
            stack = ws.stack
            for oid, span in stack.slots.items():
                (grad,), (b_in,) = collision_rows(poses, axes, opponents[oid])
                rows = SparseRows(pose_columns(n), grad, n_vars)
                assert np.array_equal(stack.rows.cols[span, :3], rows.cols)
                coef = stack.rows.coef[span]
                assert np.array_equal(coef[:, :3].view(np.uint64), grad.view(np.uint64))
                assert not np.any(coef[:, 3:])
                assert np.array_equal(stack.b[span].view(np.uint64), b_in.view(np.uint64))
                _, d_want = ws.reduced.reduce_rows(rows, b_in)
                assert np.array_equal(ws._d[span].view(np.uint64), d_want.view(np.uint64))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_warmed_workspace_best_response_equals_a_fresh_one(name):
    game = _game(name)
    solved = solve_games(game).strategies
    seeds = _seeds(game)
    for vid in game.decision_ids:
        ws = _PlayerWorkspace(game, vid, _KeepOut(game))
        ws.best_response(game.opponents_of(vid, seeds))
        # Rows rebuilt by a violation check, then projected by the next solve.
        ws.violation_at(solved[vid].data, game.opponents_of(vid, solved))
        mixed = {k: (solved[k] if k < vid else seeds[k]) for k in game.decision_ids}
        for profile in (solved, mixed, dict(mixed)):
            opponents = game.opponents_of(vid, profile)
            start = ws._warm
            got = ws.best_response(opponents)
            # The same opponents from the same start set give the same solve,
            # bit for bit: the property the stored solve rests on.
            fresh = _PlayerWorkspace(game, vid, _KeepOut(game))
            fresh._warm = start
            want = fresh.best_response(opponents)
            assert got.status == want.status and got.row == want.row
            assert got.working_set == want.working_set
            assert np.array_equal(got.s_star.view(np.uint64), want.s_star.view(np.uint64))
            # From a cold start only the status must agree, and at an optimum
            # the point and objective to round-off: the working set on which
            # an infeasible solve shows its dual ray depends on where it
            # started.
            cold = _PlayerWorkspace(game, vid, _KeepOut(game)).best_response(opponents)
            assert got.status == cold.status
            if got.status == OPTIMAL:
                _assert_same_solution(got, cold)
            s_vec = profile[vid].data
            assert ws.violation_at(s_vec, opponents) == fresh.violation_at(s_vec, opponents)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_certificates_equal_ve_residual_and_reuse_the_last_solve(monkeypatch, name):
    game = _game(name)
    solves, fresh_inputs = [], []
    stored = {}  # workspace -> (opponent strategies, start working set) of its last solve
    original = ReducedQp.solve
    original_response = _PlayerWorkspace.best_response

    def counting_solve(self, *args, **kwargs):
        solves.append(self)
        return original(self, *args, **kwargs)

    def recording_response(self, opponents):
        inputs = (tuple(opponents[oid] for oid in sorted(opponents)), self._warm)
        last = stored.get(self)
        if (last is None or last[1] != inputs[1]
                or any(a is not b for a, b in zip(last[0], inputs[0]))):
            stored[self] = inputs
            fresh_inputs.append(self.vid)
        return original_response(self, opponents)

    monkeypatch.setattr(ReducedQp, "solve", counting_solve)
    monkeypatch.setattr(_PlayerWorkspace, "best_response", recording_response)
    result = solve_games(game)
    # One solve per best response, round or certificate, whose opponent
    # objects or start working set differ from its workspace's last solve;
    # every other returns the stored solution, and in each of these games
    # some do.
    assert len(solves) == len(fresh_inputs)
    assert len(solves) < (result.iterations + 1) * len(game.decision_ids)
    monkeypatch.setattr(_PlayerWorkspace, "best_response", original_response)
    monkeypatch.setattr(ReducedQp, "solve", original)
    report = ve_residual(result.strategies, game)
    assert report.gaps.keys() == result.gaps.keys()
    for vid, gap in result.gaps.items():
        tol = 1e-9 * (1.0 + abs(result.objectives[vid]))
        assert report.gaps[vid] == gap or abs(report.gaps[vid] - gap) <= tol
    assert report.objectives == result.objectives
    assert report.max_violation == result.max_violation


def test_a_new_strategy_object_with_equal_data_is_rebuilt(monkeypatch):
    # Slots compare strategies by identity, so a caller that hands in a new
    # object always gets fresh rows, even for equal data.
    game = _game("offline")
    seeds = _seeds(game)
    ws = _PlayerWorkspace(game, 0, _KeepOut(game))
    opponents = game.opponents_of(0, seeds)
    first = ws.best_response(opponents)
    calls = []
    original = game_module.collision_rows
    monkeypatch.setattr(game_module, "collision_rows",
                        lambda poses, axes, strategy: calls.append(strategy)
                        or original(poses, axes, strategy))
    copies = {k: Strategy(s.segment, s.data.copy()) for k, s in opponents.items()}
    again = ws.best_response(copies)
    assert sorted(map(id, calls)) == sorted(map(id, copies.values()))
    assert again is not first
    _assert_same_solution(again, first)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_warm_sweep_matches_a_cold_sweep(monkeypatch, name):
    game = _game(name)
    warm = solve_games(game)
    _cold_sweeps(monkeypatch)
    cold = solve_games(game)
    assert (warm.iterations, warm.converged, warm.degraded) == (
        cold.iterations, cold.converged, cold.degraded)
    for vid, strat in cold.strategies.items():
        assert _close(warm.strategies[vid].data, strat.data), vid


def test_the_warm_start_saves_iterations(monkeypatch):
    # Player 0's round-2 best response starts from its round-1 working set
    # and needs fewer active-set iterations than a cold solve of the same QP.
    game = _game("offline")
    iterations, responses = [], []
    original_gi = GiSolver.solve
    original_response = _PlayerWorkspace.best_response

    def counting_gi(self, *args, **kwargs):
        res = original_gi(self, *args, **kwargs)
        iterations.append(res.iterations)
        return res

    def recording_response(self, opponents):
        first = len(iterations)
        sol = original_response(self, opponents)
        responses.append((self.vid, opponents, iterations[first:]))
        return sol

    monkeypatch.setattr(GiSolver, "solve", counting_gi)
    monkeypatch.setattr(_PlayerWorkspace, "best_response", recording_response)
    solve_games(game)
    opponents, (warm,) = [(opp, its) for vid, opp, its in responses if vid == 0][1]
    _PlayerWorkspace(game, 0, _KeepOut(game)).best_response(opponents)
    (cold,) = responses[-1][2]
    assert warm < cold


@pytest.mark.parametrize("name", [*sorted(SCENARIOS), "offline-h121"])
def test_the_sweep_equals_the_unmemoized_sweep_bitwise(monkeypatch, name):
    game = _h121_game() if name == "offline-h121" else _game(name)
    memo = solve_games(game)
    _unmemoize(monkeypatch)
    _assert_bitwise_equal(memo, solve_games(game))


def test_random_cognition_draws_equal_the_unmemoized_sweep_with_fewer_solves(monkeypatch):
    games = _random_cognition_games()
    solves = []
    original = ReducedQp.solve

    def counting_solve(self, *args, **kwargs):
        solves.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ReducedQp, "solve", counting_solve)
    memo = [solve_games(game) for game in games]
    memo_solves = len(solves)
    _unmemoize(monkeypatch)
    for game, result in zip(games, memo):
        _assert_bitwise_equal(result, solve_games(game))
    assert memo_solves < len(solves) - memo_solves


def test_every_game_of_an_online_repetition_equals_the_unmemoized_sweep(monkeypatch):
    played = []  # (game, solved over the message layer, result)
    original = game_module.solve_games

    def recording(game, observer=None):
        result = original(game, observer)
        played.append((game, observer is not None, result))
        return result

    for module in (harness, netsim):
        monkeypatch.setattr(module, "solve_games", recording)
    harness.run_online_experiment(default_online_scenario(), repetitions=1, seed=0)
    monkeypatch.undo()
    assert {distributed for _, distributed, _ in played} == {False, True}
    _unmemoize(monkeypatch)
    for game, distributed, result in played:
        again = run_distributed(game)[0] if distributed else solve_games(game)
        _assert_bitwise_equal(result, again)


def test_a_repeated_best_response_keeps_its_strategy_object():
    # An optimal best response hands the observer its player's previous
    # `Strategy` object exactly when it repeats that strategy's data bit for
    # bit; the degraded random-cognition games have both kinds.
    kinds = []

    class Recorder(_NullObserver):
        def session_started(self, game, strategies):
            self.held = dict(strategies)

        def computed(self, vid, zeta, strategy, seconds, status):
            if status == OPTIMAL:
                repeated = strategy.data.tobytes() == self.held[vid].data.tobytes()
                assert (strategy is self.held[vid]) == repeated
                kinds.append(repeated)
            self.held[vid] = strategy

    for game in _random_cognition_games():
        solve_games(game, Recorder())
    assert set(kinds) == {False, True}
