"""A player workspace builds each opponent's collision rows once per opponent
strategy and reuses its last solve when nothing it reads has changed; these
tests pin that the reuse saves work without moving a single bit."""

from functools import lru_cache

import numpy as np
import pytest

from hypertraffic import game as game_module
from hypertraffic.constraints import Strategy, assemble
from hypertraffic.game import (
    _PlayerWorkspace,
    best_response,
    make_game,
    objective_qp_data,
    solve_games,
    ve_residual,
)
from hypertraffic.netsim import run_distributed
from hypertraffic.qp import QpProblem, ReducedQp, kkt_residual
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


def _player_problem(game, vid, opponents):
    system = assemble(vid, opponents, game.scenario, game.segment, game.references[vid],
                      game.initial_states[vid])
    h_diag, f_vec = objective_qp_data(game.weights[vid], game.references[vid], game.segment)
    return QpProblem(np.diag(h_diag), f_vec, system.a_eq, system.b_eq, system.a_in, system.b_in)


def _assert_same_solution(got, want, problem):
    assert got.status == want.status
    assert got.iterations == want.iterations
    for field in ("s_star", "lam"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert np.array_equal(kkt_residual(problem, got.s_star, got.lam).mu,
                          kkt_residual(problem, want.s_star, want.lam).mu)


@pytest.mark.parametrize("transport", ["centralized", "distributed"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_each_collision_row_is_built_once_per_opponent_strategy(monkeypatch, name, transport):
    game = _game(name)
    for vid in game.decision_ids:
        _PlayerWorkspace(game, vid)  # every player's static blocks are reduced by now
    builds = {}
    keep = []  # holds every argument, so no id() is reused during the solve
    original_rows = game_module.collision_rows

    def counting_rows(reference, opponent_strategy, geometry, opponent_id):
        keep.append((reference, opponent_strategy))
        key = (id(reference), opponent_id, id(opponent_strategy))
        builds[key] = builds.get(key, 0) + 1
        return original_rows(reference, opponent_strategy, geometry, opponent_id)

    projections = []
    original_reduce = ReducedQp.reduce_rows

    def counting_reduce(self, a_in, b_in):
        projections.append(a_in.shape[0])
        return original_reduce(self, a_in, b_in)

    monkeypatch.setattr(game_module, "collision_rows", counting_rows)
    monkeypatch.setattr(ReducedQp, "reduce_rows", counting_reduce)
    if transport == "distributed":
        result, _ = run_distributed(game)
    else:
        result = solve_games(game)
    assert builds and max(builds.values()) == 1
    # Every projection is a collision block's and follows its build.
    assert set(projections) == {game.segment.n_steps}
    assert len(projections) <= len(builds)


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
            _assert_same_solution(got, best_response(vid, opponents, game),
                                  _player_problem(game, vid, opponents))
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
    assert report.gaps == result.gaps
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
    _assert_same_solution(again, first, _player_problem(game, 0, opponents))
