"""A player workspace builds each opponent's collision rows once per opponent
strategy, reuses its last solve when nothing it reads has changed, and starts
each solve from the working set of its last optimal one. These tests pin that
the row and solve reuse moves no bit, and that the warm start moves strategies
by round-off only: 1e-9 of the cold solve, relative to the strategy's size."""

from functools import lru_cache

import numpy as np
import pytest

from hypertraffic import game as game_module
from hypertraffic.constraints import Strategy
from hypertraffic.game import _PlayerWorkspace, best_response, make_game, solve_games, ve_residual
from hypertraffic.netsim import run_distributed
from hypertraffic.qp import GiSolver, ReducedQp
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
def _game(name):
    scen = SCENARIOS[name]()
    return make_game(scen, {v.vid: v.weights_true for v in scen.vehicles})


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
    game = _game(name)
    builds = {}
    keep = []  # holds every argument, so no id() is reused during the solve
    built = []  # every collision block, in build order
    original_rows = game_module.collision_rows

    def counting_rows(reference, opponent_strategy, geometry, opponent_id):
        keep.append((reference, opponent_strategy))
        key = (id(reference), opponent_id, id(opponent_strategy))
        builds[key] = builds.get(key, 0) + 1
        block = original_rows(reference, opponent_strategy, geometry, opponent_id)
        built.append(block[0])
        return block

    reduced = []  # every block `reduce_rows` is given, in call order
    original_reduce = ReducedQp.reduce_rows

    def counting_reduce(self, a_in, b_in):
        reduced.append(a_in)
        return original_reduce(self, a_in, b_in)

    monkeypatch.setattr(game_module, "collision_rows", counting_rows)
    monkeypatch.setattr(ReducedQp, "reduce_rows", counting_reduce)
    if transport == "distributed":
        result, _ = run_distributed(game)
    else:
        result = solve_games(game)
    assert builds and max(builds.values()) == 1
    # Each collision block built is reduced once, in build order.
    collisions = [rows for rows in reduced if any(rows is block for block in built)]
    assert len(collisions) == len(built)
    assert all(a is b for a, b in zip(collisions, built))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_warmed_workspace_best_response_equals_a_fresh_one(name):
    game = _game(name)
    solved = solve_games(game).strategies
    seeds = _seeds(game)
    for vid in game.decision_ids:
        ws = _PlayerWorkspace(game, vid)
        ws.best_response(game.opponents_of(vid, seeds))
        # Rows rebuilt by a violation check, then projected by the next solve.
        ws.violation_at(solved[vid].data, game.opponents_of(vid, solved))
        mixed = {k: (solved[k] if k < vid else seeds[k]) for k in game.decision_ids}
        for profile in (solved, mixed, dict(mixed)):
            opponents = game.opponents_of(vid, profile)
            got = ws.best_response(opponents)
            _assert_same_solution(got, best_response(vid, opponents, game))
            fresh = _PlayerWorkspace(game, vid)
            s_vec = profile[vid].data
            assert ws.violation_at(s_vec, opponents) == fresh.violation_at(s_vec, opponents)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_certificates_equal_ve_residual_and_reuse_the_last_solve(monkeypatch, name):
    game = _game(name)
    solves = []
    original = ReducedQp.solve

    def counting_solve(self, *args, **kwargs):
        solves.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ReducedQp, "solve", counting_solve)
    result = solve_games(game)
    n_players = len(game.decision_ids)
    # One solve per player per round, then one certificate solve per player
    # except the last, whose inputs have not changed since its last round.
    # A player whose QP fails keeps its strategy object, so in a degraded game
    # more solves can find their inputs unchanged.
    expected = result.iterations * n_players + n_players - 1
    if result.degraded:
        assert len(solves) <= expected
    else:
        assert len(solves) == expected
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
    ws = _PlayerWorkspace(game, 0)
    opponents = game.opponents_of(0, seeds)
    first = ws.best_response(opponents)
    calls = []
    original = game_module.collision_rows
    monkeypatch.setattr(game_module, "collision_rows",
                        lambda *args: calls.append(args[3]) or original(*args))
    copies = {k: Strategy(s.segment, s.data.copy()) for k, s in opponents.items()}
    again = ws.best_response(copies)
    assert sorted(calls) == sorted(opponents)
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
    _PlayerWorkspace(game, 0).best_response(opponents)
    (cold,) = responses[-1][2]
    assert warm < cold
