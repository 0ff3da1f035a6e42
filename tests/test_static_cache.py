"""The weight-independent part of a player's system (its static rows and
their equality elimination) is cached across games. These tests pin that a
cache hit builds no row and is bitwise a fresh build, that any change of a
static input misses, that a reference stepped otherwise than its scenario is
refused, and that the cache keeps to its bound."""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from hypertraffic import game as game_module
from hypertraffic.constraints import Strategy
from hypertraffic.game import _PlayerWorkspace, make_game, solve_games
from hypertraffic.scenario import (
    STRAIGHT,
    StyleWeights,
    default_offline_scenario,
    default_online_scenario,
    success_study_scenario,
)

SCENARIOS = {
    "offline": default_offline_scenario,
    "online": default_online_scenario,
    "success": success_study_scenario,
    "h121": lambda: replace(default_offline_scenario(), horizon=121),
}


@pytest.fixture(autouse=True)
def empty_cache():
    game_module._STATIC_PARTS.clear()
    yield
    game_module._STATIC_PARTS.clear()


@pytest.fixture
def eliminations(monkeypatch):
    """Count of the equality eliminations computed, i.e. of cache misses."""
    calls = []
    original = game_module.eliminate

    def counting(a_eq, b_eq):
        calls.append(a_eq.shape)
        return original(a_eq, b_eq)

    monkeypatch.setattr(game_module, "eliminate", counting)
    return calls


@lru_cache(maxsize=None)
def _scenario(name):
    return SCENARIOS[name]()


def _scaled_weights(scen, seed):
    """The true weights scaled per component by U(0.85, 1.2) factors."""
    rng = np.random.default_rng(seed)
    weights = {}
    for v in scen.vehicles:
        theta = np.clip(v.weights_true.theta * rng.uniform(0.85, 1.2, 6),
                        scen.theta_min, scen.theta_max)
        weights[v.vid] = StyleWeights(theta, scen.theta_min, scen.theta_max)
    return weights


def _workspaces(game):
    return {vid: _PlayerWorkspace(game, vid) for vid in game.decision_ids}


def _system_parts(system):
    """The arrays and tags of a cached player system, in a fixed order: its
    sparse rows' columns, coefficients and right-hand sides, and the
    null-space basis and particular solution."""
    rows = system.rows
    blocks = rows.eq + rows.head + rows.tail
    arrays = [*(x for a, b, _ in blocks for x in (a.cols, a.coef, b)),
              system.elimination.z_basis, system.elimination.s_part]
    return arrays, tuple(tuple(tags for *_, tags in part) for part in (rows.eq, rows.head, rows.tail))


def _stack(ws):
    """A workspace's stacked inequality rows, their b and their d."""
    return ws._rows.cols, ws._rows.coef, ws._b, ws._d


def _assert_same_workspaces(got, want, game):
    seeds = {vid: Strategy.from_reference(game.references[vid], game.segment)
             for vid in game.decision_ids}
    for vid in game.decision_ids:
        a, b = got[vid], want[vid]
        for name in ("z_basis", "s_part", "eq_residual"):
            assert np.array_equal(getattr(a.reduced, name), getattr(b.reduced, name)), (vid, name)
        (arrays_a, tags_a), (arrays_b, tags_b) = _system_parts(a.system), _system_parts(b.system)
        assert len(arrays_a) == len(arrays_b) and tags_a == tags_b, vid
        assert all(np.array_equal(x, y) for x, y in zip(arrays_a, arrays_b)), vid
        assert all(np.array_equal(x, y) for x, y in zip(_stack(a), _stack(b))), vid
        opponents = game.opponents_of(vid, seeds)
        sol_a, sol_b = a.best_response(opponents), b.best_response(opponents)
        assert sol_a.status == sol_b.status and sol_a.iterations == sol_b.iterations, vid
        assert np.array_equal(sol_a.s_star, sol_b.s_star), vid
        assert np.array_equal(sol_a.lam, sol_b.lam), vid
        assert sol_a.objective == sol_b.objective, vid
        # The collision slots are written by now, so the whole stack is due.
        assert all(np.array_equal(x, y) for x, y in zip(_stack(a), _stack(b))), vid


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_cache_hit_equals_a_fresh_build(name, eliminations):
    scen = _scenario(name)
    warm = _workspaces(make_game(scen, _scaled_weights(scen, 1)))
    n_players = len(warm)
    assert len(eliminations) == n_players
    game = make_game(scen, _scaled_weights(scen, 2))
    hit = _workspaces(game)
    assert len(eliminations) == n_players
    for vid, ws in hit.items():
        assert ws.system is warm[vid].system
        assert ws.reduced.z_basis is warm[vid].reduced.z_basis
    game_module._STATIC_PARTS.clear()
    fresh = _workspaces(game)
    assert len(eliminations) == 2 * n_players
    _assert_same_workspaces(hit, fresh, game)


def _assert_same_result(got, want):
    assert sorted(got.strategies) == sorted(want.strategies)
    for vid in want.strategies:
        assert np.array_equal(got.strategies[vid].data, want.strategies[vid].data), vid
    for name in ("converged", "degraded", "iterations", "rel_step", "max_violation", "gaps",
                 "objectives"):
        assert getattr(got, name) == getattr(want, name), name


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_game_solved_cold_then_warm_gives_the_same_result(name, eliminations):
    scen = _scenario(name)
    game = make_game(scen, {v.vid: v.weights_true for v in scen.vehicles})
    cold = solve_games(game)
    misses = len(eliminations)
    warm = solve_games(game)
    assert len(eliminations) == misses
    _assert_same_result(warm, cold)


def _off_centre_start(scen, game):
    start = game.initial_states[0]
    return {"initial_states": {**game.initial_states, 0: replace(start, p_y=start.p_y + 0.4)}}


def _shifted_window(scen, game):
    # The same segment, tracked along the reference one step further on.
    full = scen.references()
    stop = game.segment.stop
    return {"references": {vid: full[vid].window(2, stop + 1).rebased(1)
                           for vid in game.decision_ids}}


def _longer_step(scen, game):
    # A scenario with a longer step, tracked along its own references.
    changed = replace(scen, ts=1.1 * scen.ts)
    full = changed.references()
    segment = game.segment
    return {"scenario": changed,
            "references": {vid: full[vid].window(segment.start, segment.stop)
                           for vid in game.decision_ids}}


def _with_scenario(changes):
    def change(scen, game):
        return {"scenario": replace(scen, **changes(scen))}
    return change


def _lane_changer_start_x(scen):
    vehicles = tuple(
        replace(v, behavior=replace(v.behavior, start_x=v.behavior.start_x - 0.5))
        if v.behavior.kind != STRAIGHT else v
        for v in scen.vehicles)
    return {"vehicles": vehicles}


VARIANTS = {
    "start_state": _off_centre_start,
    "reference_window": _shifted_window,
    "scenario_ts": _longer_step,
    "v_max": _with_scenario(lambda s: {"limits": replace(s.limits, v_max=s.limits.v_max - 2.0)}),
    "lane_width": _with_scenario(lambda s: {"road": replace(s.road, lane_width=4.2)}),
    "geometry": _with_scenario(lambda s: {"vehicles": tuple(
        replace(v, geometry=replace(v.geometry, length=3.7)) for v in s.vehicles)}),
    "behavior_start_x": _with_scenario(_lane_changer_start_x),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_a_changed_static_input_never_reuses_a_stale_entry(variant, eliminations):
    scen = _scenario("offline")
    weights = {v.vid: v.weights_true for v in scen.vehicles}
    base = make_game(scen, weights)
    _workspaces(base)
    misses = len(eliminations)
    # Everything but the one input is kept, the references and starts too.
    args = {"scenario": scen, "initial_states": base.initial_states,
            "references": base.references}
    args.update(VARIANTS[variant](scen, base))
    changed = make_game(args["scenario"], weights, references=args["references"],
                        initial_states=args["initial_states"])
    got = _workspaces(changed)
    assert len(eliminations) > misses
    game_module._STATIC_PARTS.clear()
    _assert_same_workspaces(got, _workspaces(changed), changed)


def test_the_cache_keeps_to_its_bound_and_drops_the_least_recent(eliminations):
    scen = _scenario("offline")
    weights = {v.vid: v.weights_true for v in scen.vehicles}
    base = make_game(scen, weights)
    games = []
    cap = game_module.STATIC_CACHE_ENTRIES
    n_players = len(base.decision_ids)
    for k in range(cap // n_players + 2):
        shifted = {vid: replace(s, p_x=s.p_x + 0.01 * k)
                   for vid, s in base.initial_states.items()}
        games.append(make_game(scen, weights, initial_states=shifted))
    for game in games:
        _workspaces(game)
        assert len(game_module._STATIC_PARTS) <= cap
    assert len(eliminations) == len(games) * n_players > cap
    assert len(game_module._STATIC_PARTS) == cap
    # The latest game's systems are kept, the first game's were dropped.
    _workspaces(games[-1])
    assert len(eliminations) == len(games) * n_players
    _workspaces(games[0])
    assert len(eliminations) == (len(games) + 1) * n_players


def test_a_cache_hit_builds_no_static_rows(monkeypatch):
    scen = _scenario("offline")
    _workspaces(make_game(scen, _scaled_weights(scen, 1)))
    calls = []
    original = game_module.static_rows
    monkeypatch.setattr(game_module, "static_rows",
                        lambda *args: calls.append(args[0].vid) or original(*args))
    hit = make_game(scen, _scaled_weights(scen, 2))
    solve_games(hit)
    assert calls == []
    game_module._STATIC_PARTS.clear()
    _workspaces(hit)
    assert sorted(calls) == sorted(hit.decision_ids)


@pytest.mark.parametrize("kind, bound", [("lane change", 1.6e6), ("straight", 0.9e6)])
def test_a_cache_entry_at_h121_stays_small(kind, bound):
    # The static rows are kept sparse and no reduced row is kept, so an
    # entry is about the basis Z: 1.52 MB for a lane changer and 0.83 MB
    # for a straight driver, of which Z is 1.38 MB and 0.69 MB. A view
    # counts as the array it keeps alive.
    scen = _scenario("h121")
    game = make_game(scen, {v.vid: v.weights_true for v in scen.vehicles})
    vid = next(v.vid for v in scen.vehicles if (v.behavior.kind == STRAIGHT) == (kind == "straight"))
    _PlayerWorkspace(game, vid)
    (system,) = game_module._STATIC_PARTS.values()
    arrays, _ = _system_parts(system)
    held = {id(a): a for a in (x if x.base is None else x.base for x in arrays)}
    assert sum(a.nbytes for a in held.values()) <= bound


def test_a_reference_stepped_otherwise_than_the_scenario_is_refused():
    scen = _scenario("offline")
    weights = {v.vid: v.weights_true for v in scen.vehicles}
    base = make_game(scen, weights)
    longer = {vid: replace(ref, ts=1.1 * ref.ts) if vid == 2 else ref
              for vid, ref in base.references.items()}
    with pytest.raises(ValueError, match="^reference for player 2 has step"):
        make_game(scen, weights, references=longer, initial_states=base.initial_states)
