"""The weight-independent part of a player's system (its static rows, the
null-space basis of their equality rows and the particular solution) is
cached across games, and each entry holds three memos that keep the reduced
Hessian by the weights, the right-hand side by the start state and the
stack's layout by the opponent ids. The cache is keyed by what the
coefficients read; a new start state is solved from the kept map N. These
tests pin that a hit builds no row and is bitwise a fresh build, that inputs
reaching only the right-hand sides hit and any change of a coefficient input
misses, that every input a memo key holds, down to its last bit or the sign
of a zero, builds its part afresh, that a workspace keeps its right-hand
side when the memo drops it, that every field of the key is needed, that a
reference stepped otherwise than its scenario is refused, that the cache and
the memos keep to their bounds, and that an evicted entry's memos go with
it."""

import gc
import weakref
from dataclasses import fields, is_dataclass, replace
from functools import lru_cache

import numpy as np
import pytest

from hypertraffic import constraints
from hypertraffic import game as game_module
from hypertraffic import harness
from hypertraffic import qp as qp_module
from hypertraffic.constraints import Segment, Strategy
from hypertraffic.dynamics import VehicleState
from hypertraffic.game import _KeepOut, _PlayerWorkspace, make_game, solve_games
from hypertraffic.scenario import (
    STRAIGHT,
    StyleWeights,
    default_offline_scenario,
    default_online_scenario,
    success_study_scenario,
)

from _oracles import forget_player_systems

SCENARIOS = {
    "offline": default_offline_scenario,
    "online": default_online_scenario,
    "success": success_study_scenario,
    "h121": lambda: replace(default_offline_scenario(), horizon=121),
}


@pytest.fixture(autouse=True)
def empty_cache():
    forget_player_systems()
    yield
    forget_player_systems()


@pytest.fixture
def factorizations(monkeypatch):
    """Count of the equality factorizations computed, i.e. of cache misses."""
    calls = []
    original = game_module.factor_equalities

    def counting(a_eq):
        calls.append(a_eq.shape)
        return original(a_eq)

    monkeypatch.setattr(game_module, "factor_equalities", counting)
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
    keep_out = _KeepOut(game)
    return {vid: _PlayerWorkspace(game, vid, keep_out) for vid in game.decision_ids}


def _system_parts(ws):
    """The arrays and tags of a workspace's player system, in a fixed order:
    its static rows' columns, coefficients and right-hand sides, and the
    null-space basis and particular solution of its `ReducedQp`."""
    rows = ws.rows
    blocks = rows.eq + rows.head + rows.tail
    arrays = [*(x for a, b, _ in blocks for x in (a.cols, a.coef, b)),
              ws.reduced.z_basis, ws.reduced.s_part]
    return arrays, tuple(tuple(tags for *_, tags in part) for part in (rows.eq, rows.head, rows.tail))


def _same_system(a, b):
    """Whether two workspaces hold the same player system bitwise."""
    (arrays_a, tags_a), (arrays_b, tags_b) = _system_parts(a), _system_parts(b)
    return (len(arrays_a) == len(arrays_b) and tags_a == tags_b
            and all(x.shape == y.shape and np.array_equal(x, y)
                    for x, y in zip(arrays_a, arrays_b))
            and a.reduced.eq_residual == b.reduced.eq_residual)


def _stack(ws):
    """A workspace's stacked inequality rows, their b and their d."""
    return ws.stack.rows.cols, ws.stack.rows.coef, ws.stack.b, ws._d


def _memo_parts(ws):
    """The arrays a workspace reads from the memos beside the static cache:
    H and the factor of Z'HZ, its stack's columns, coefficients and b, its
    d, and s_part at the pose columns as its `_KeepOut` holds it."""
    keep_out = ws._keep_out
    return (ws.reduced.h, ws.reduced.gi.factor, *_stack(ws),
            keep_out._pose_parts[keep_out._index[ws.vid]])


def _bitwise_equal(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _assert_same_workspaces(got, want, game):
    seeds = {vid: Strategy.from_reference(game.references[vid], game.segment)
             for vid in game.decision_ids}
    for vid in game.decision_ids:
        a, b = got[vid], want[vid]
        assert all(map(_bitwise_equal, _memo_parts(a), _memo_parts(b))), vid
        for name in ("z_basis", "s_part", "eq_residual"):
            assert np.array_equal(getattr(a.reduced, name), getattr(b.reduced, name)), (vid, name)
        assert _same_system(a, b), vid
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
def test_a_cache_hit_equals_a_fresh_build(name, factorizations):
    scen = _scenario(name)
    warm = _workspaces(make_game(scen, _scaled_weights(scen, 1)))
    n_players = len(warm)
    assert len(factorizations) == n_players
    game = make_game(scen, _scaled_weights(scen, 2))
    hit = _workspaces(game)
    assert len(factorizations) == n_players
    for vid, ws in hit.items():
        assert ws.rows is warm[vid].rows
        assert ws.reduced.s_part is warm[vid].reduced.s_part
        assert ws.reduced.z_basis is warm[vid].reduced.z_basis
    forget_player_systems()
    fresh = _workspaces(game)
    assert len(factorizations) == 2 * n_players
    _assert_same_workspaces(hit, fresh, game)


def test_a_memo_hit_equals_a_fresh_build_bitwise(factorizations):
    # A second build of a game's workspaces hits every memo: it shares the
    # first build's reduced Hessians, right-hand sides and stack columns,
    # copies the stack's coefficients and b, and equals a fresh build bit for
    # bit, on the full horizon and on an online stage.
    scen = _scenario("online")
    full = scen.references()
    weights = _scaled_weights(scen, 1)
    for segment in (Segment(1, scen.horizon), Segment(13, 25)):
        refs = {vid: full[vid].window(segment.start, segment.stop) for vid in weights}
        game = make_game(scen, weights, segment=segment, references=refs)
        first = _workspaces(game)
        misses = len(factorizations)
        hit = _workspaces(game)
        assert len(factorizations) == misses
        for vid, ws in hit.items():
            assert ws.reduced.gi is first[vid].reduced.gi and ws.rows is first[vid].rows
            assert ws.stack.rows.cols is first[vid].stack.rows.cols
            assert ws.stack.coef is not first[vid].stack.coef
            assert ws.stack.b is not first[vid].stack.b
        forget_player_systems()
        _assert_same_workspaces(hit, _workspaces(game), game)


def _nudged_weights(scen, game):
    # Player 0's first weight one ulp up.
    weights = dict(game.weights)
    theta = weights[0].theta.copy()
    theta[0] = np.nextafter(theta[0], np.inf)
    weights[0] = replace(weights[0], theta=theta)
    return {"weights": weights}


def _signed_zero_start(scen, game):
    # Player 0's start heading -0.0 in place of 0.0: equal values, other bytes.
    start = game.initial_states[0]
    assert start.psi == 0.0 and np.signbit(-0.0)
    return {"initial_states": {**game.initial_states, 0: replace(start, psi=-0.0)}}


def _last_bit_start(scen, game):
    # Player 0's start speed one ulp up.
    start = game.initial_states[0]
    return {"initial_states": {**game.initial_states,
                               0: replace(start, v=float(np.nextafter(start.v, np.inf)))}}


def _without_last_player(scen, game):
    # The same game without its last player, so every other one faces
    # another opponent set.
    last = max(game.decision_ids)
    return {"weights": {vid: w for vid, w in game.weights.items() if vid != last}}


def _reduced_hessian(ws):
    return ws.reduced.gi


def _right_hand_side(ws):
    return ws.reduced.s_part


def _layout(ws):
    return ws.stack.rows.cols


# Each input a memo key holds, changed alone, with the part of player 0's
# workspace whose memo it keys: a key without that input would serve the
# base game's part.
MEMO_KEY_INPUTS = {
    "weights_one_ulp": (_nudged_weights, _reduced_hessian),
    "start_sign_of_zero": (_signed_zero_start, _right_hand_side),
    "start_last_bit": (_last_bit_start, _right_hand_side),
    "opponent_set": (_without_last_player, _layout),
}


@pytest.mark.parametrize("change", sorted(MEMO_KEY_INPUTS))
def test_an_input_a_memo_key_holds_builds_its_part_afresh(change, factorizations):
    # Weights are strictly positive, so the sign of a zero can reach only a
    # start state. Each changed input builds its part anew on the cached
    # static entry, and the workspaces equal a fresh build.
    scen = _scenario("offline")
    base = make_game(scen, {v.vid: v.weights_true for v in scen.vehicles})
    before = _workspaces(base)
    misses = len(factorizations)
    variant, part = MEMO_KEY_INPUTS[change]
    args = {"weights": base.weights, "initial_states": base.initial_states}
    args.update(variant(scen, base))
    changed = make_game(scen, args["weights"], initial_states=args["initial_states"])
    got = _workspaces(changed)
    assert len(factorizations) == misses
    assert part(got[0]) is not part(before[0])
    forget_player_systems()
    _assert_same_workspaces(got, _workspaces(changed), changed)


def _assert_same_result(got, want):
    assert sorted(got.strategies) == sorted(want.strategies)
    for vid in want.strategies:
        assert np.array_equal(got.strategies[vid].data, want.strategies[vid].data), vid
    for name in ("converged", "degraded", "iterations", "rel_step", "max_violation", "gaps",
                 "objectives"):
        assert getattr(got, name) == getattr(want, name), name


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_game_solved_cold_then_warm_gives_the_same_result(name, factorizations):
    scen = _scenario(name)
    game = make_game(scen, {v.vid: v.weights_true for v in scen.vehicles})
    cold = solve_games(game)
    misses = len(factorizations)
    warm = solve_games(game)
    assert len(factorizations) == misses
    _assert_same_result(warm, cold)


def _mapped_references(game, change):
    """The game's references with `change` applied to a copy of each one's
    states."""
    refs = {}
    for vid, ref in game.references.items():
        states = ref.states.copy()
        change(vid, states)
        refs[vid] = replace(ref, states=states)
    return {"references": refs}


def _off_centre_start(dy):
    def change(scen, game):
        start = game.initial_states[0]
        return {"initial_states": {**game.initial_states, 0: replace(start, p_y=start.p_y + dy)}}
    return change


def _translated_reference(scen, game):
    def shift(vid, states):
        states[:, :2] += (0.7, 0.05)
    return _mapped_references(game, shift)


def _restaged(scen, game):
    # The same references on a segment three steps later.
    segment = Segment(game.segment.start + 3, game.segment.stop + 3)
    return {"segment": segment,
            "references": {vid: ref.rebased(segment.start)
                           for vid, ref in game.references.items()}}


def _shifted_window(scen, game):
    # The same segment, tracked along the reference one step further on.
    full = scen.references()
    stop = game.segment.stop
    return {"references": {vid: full[vid].window(2, stop + 1).rebased(1)
                           for vid in game.decision_ids}}


def _one_entry(column, delta):
    def change(scen, game):
        def nudge(vid, states):
            if vid == 0:
                states[3, column] += delta
        return _mapped_references(game, nudge)
    return change


def _fewer_steps(scen, game):
    segment = Segment(game.segment.start, game.segment.stop - 1)
    return {"segment": segment,
            "references": {vid: ref.window(segment.start, segment.stop)
                           for vid, ref in game.references.items()}}


def _longer_step(scen, game):
    # A scenario with a longer step, tracked along its own references.
    changed = replace(scen, ts=1.1 * scen.ts)
    full = changed.references()
    segment = game.segment
    return {"scenario": changed,
            "references": {vid: full[vid].window(segment.start, segment.stop)
                           for vid in game.decision_ids}}


def _restepped(scen, game):
    # A scenario with a longer step, tracked along the same reference states.
    changed = replace(scen, ts=1.1 * scen.ts)
    return {"scenario": changed,
            "references": {vid: replace(ref, ts=changed.ts)
                           for vid, ref in game.references.items()}}


def _with_scenario(changes):
    def change(scen, game):
        return {"scenario": replace(scen, **changes(scen))}
    return change


def _with_vehicle(vid, changes):
    return _with_scenario(lambda s: {"vehicles": tuple(
        replace(v, **changes(v)) if v.vid == vid else v for v in s.vehicles)})


def _lane_changer_start_x(scen):
    vehicles = tuple(
        replace(v, behavior=replace(v.behavior, start_x=v.behavior.start_x - 0.5))
        if v.behavior.kind != STRAIGHT else v
        for v in scen.vehicles)
    return {"vehicles": vehicles}


# Each variant changes one input of the offline game, keeping the others (the
# references and starts too), and says whether every player's coefficients
# stay those of the base game: then the variant must hit.
VARIANTS = {
    "start_state": (_off_centre_start(0.4), True),
    "translated_reference": (_translated_reference, True),
    "restaged": (_restaged, True),
    "reference_window": (_shifted_window, False),
    "one_v_entry": (_one_entry(2, 0.25), False),
    "one_psi_entry": (_one_entry(3, 0.01), False),
    "n_steps": (_fewer_steps, False),
    "scenario_ts": (_longer_step, False),
    "restepped_reference": (_restepped, False),
    "v_max": (_with_scenario(lambda s: {"limits": replace(s.limits, v_max=s.limits.v_max - 2.0)}),
              False),
    "lane_width": (_with_scenario(lambda s: {"road": replace(s.road, lane_width=4.2)}), False),
    "geometry": (_with_scenario(lambda s: {"vehicles": tuple(
        replace(v, geometry=replace(v.geometry, length=3.7)) for v in s.vehicles)}), False),
    "behavior_start_x": (_with_scenario(_lane_changer_start_x), False),
    "heading": (_with_vehicle(0, lambda v: {"behavior": replace(v.behavior,
                                                                direction=(1.0, 0.001))}),
                False),
    "permitted_lanes": (_with_vehicle(2, lambda v: {"initial": replace(v.initial, p_y=6.0)}),
                        False),
}


def _variant_game(scen, weights, base, variant):
    """The base game with one input changed by `variant`."""
    args = {"scenario": scen, "segment": base.segment, "initial_states": base.initial_states,
            "references": base.references}
    args.update(variant(scen, base))
    return make_game(args["scenario"], weights, segment=args["segment"],
                     references=args["references"], initial_states=args["initial_states"])


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_a_changed_static_input_never_reuses_a_stale_entry(variant, factorizations):
    scen = _scenario("offline")
    weights = {v.vid: v.weights_true for v in scen.vehicles}
    base = make_game(scen, weights)
    warm = _workspaces(base)
    misses = len(factorizations)
    change, hits = VARIANTS[variant]
    changed = _variant_game(scen, weights, base, change)
    got = _workspaces(changed)
    if hits:
        assert len(factorizations) == misses
        assert all(got[vid].reduced.z_basis is warm[vid].reduced.z_basis for vid in got)
    else:
        assert len(factorizations) > misses
    forget_player_systems()
    _assert_same_workspaces(got, _workspaces(changed), changed)


# The key's fields in `constraints.coefficient_key` order, each with the variant that
# changes it alone. The player id and the step count have none: players alike
# in every other field have the same coefficients, and the step count is the
# length of the v and psi bytes.
KEY_FIELDS = {
    "geometry": (1, "geometry"),
    "behavior": (2, "heading"),
    "lanes": (3, "permitted_lanes"),
    "road": (4, "lane_width"),
    "limits": (5, "v_max"),
    "ts": (7, "restepped_reference"),
    "v_psi": (8, "one_psi_entry"),
}


@pytest.mark.parametrize("field", sorted(KEY_FIELDS))
def test_a_key_without_any_one_field_serves_a_stale_system(field, monkeypatch):
    # Mutation check: with the field's slot blanked, the variant that changes
    # only that field gets the base game's entry, and some player's system
    # then differs from a fresh build of the variant.
    slot, variant = KEY_FIELDS[field]
    scen = _scenario("offline")
    weights = {v.vid: v.weights_true for v in scen.vehicles}
    base = make_game(scen, weights)
    original = constraints.coefficient_key
    assert game_module.coefficient_key is original
    assert len(original(scen.vehicle(0), scen, base.segment, base.references[0])) == 9

    def blanked(*args):
        key = list(original(*args))
        key[slot] = None
        return tuple(key)

    monkeypatch.setattr(game_module, "coefficient_key", blanked)
    _workspaces(base)
    changed = _variant_game(scen, weights, base, VARIANTS[variant][0])
    stale = _workspaces(changed)
    forget_player_systems()
    fresh = _workspaces(changed)
    assert not all(_same_system(stale[vid], fresh[vid]) for vid in stale)


def test_a_workspace_outlives_its_right_hand_side_leaving_the_memo(factorizations):
    # New start states push the base game's right-hand side out of the memo;
    # workspaces built on it keep it as it was.
    scen = _scenario("offline")
    weights = {v.vid: v.weights_true for v in scen.vehicles}
    base = make_game(scen, weights)
    before = _workspaces(base)
    misses = len(factorizations)
    for k in range(1, game_module.SLOTS_PER_KEY + 1):
        after = _workspaces(_variant_game(scen, weights, base, _off_centre_start(0.4 * k)))
    assert len(factorizations) == misses
    assert after[0].rows is not before[0].rows
    assert after[0].reduced.s_part is not before[0].reduced.s_part
    assert _workspaces(base)[0].rows is not before[0].rows
    forget_player_systems()
    _assert_same_workspaces(before, _workspaces(base), base)


def test_the_cache_keeps_to_its_bound_and_drops_the_least_recent(factorizations):
    scen = _scenario("offline")
    weights = {v.vid: v.weights_true for v in scen.vehicles}
    base = make_game(scen, weights)
    games = []
    cap = game_module.STATIC_CACHE_ENTRIES
    n_players = len(base.decision_ids)
    for k in range(cap // n_players + 2):
        # A speed limit is read by every player's coefficient key.
        limited = replace(scen, limits=replace(scen.limits, v_max=scen.limits.v_max - 0.01 * k))
        games.append(make_game(limited, weights, references=base.references,
                               initial_states=base.initial_states))
    evicted = None
    for game in games:
        _workspaces(game)
        assert len(game_module._STATIC_PARTS) <= cap
        if evicted is None:
            # A memo value of the first game's first entry, which is evicted.
            evicted = weakref.ref(next(iter(next(iter(
                game_module._STATIC_PARTS.values())).hessians.values())))
    assert len(factorizations) == len(games) * n_players > cap
    assert len(game_module._STATIC_PARTS) == cap
    # Nothing in `game` reaches an evicted entry's memos any more.
    gc.collect()
    assert evicted() is None
    # The latest game's systems are kept, the first game's were dropped.
    _workspaces(games[-1])
    assert len(factorizations) == len(games) * n_players
    _workspaces(games[0])
    assert len(factorizations) == (len(games) + 1) * n_players


def test_a_cache_hit_builds_no_static_rows(monkeypatch):
    scen = _scenario("offline")
    _workspaces(make_game(scen, _scaled_weights(scen, 1)))
    calls = []
    original = game_module.static_rows
    monkeypatch.setattr(game_module, "static_rows",
                        lambda *args: calls.append(args[0].vid) or original(*args))
    hit = make_game(scen, _scaled_weights(scen, 2))
    solve_games(hit)
    # A new right-hand side builds no row either.
    solve_games(_variant_game(scen, _scaled_weights(scen, 2), hit, _translated_reference))
    assert calls == []
    forget_player_systems()
    _workspaces(hit)
    assert sorted(calls) == sorted(hit.decision_ids)


def test_a_reference_off_the_road_is_refused_on_a_hit_as_on_a_miss(factorizations):
    scen = _scenario("offline")
    weights = {v.vid: v.weights_true for v in scen.vehicles}
    base = make_game(scen, weights)
    _workspaces(base)
    misses = len(factorizations)
    # Player 1's reference, translated so that its first decision point lies
    # 5 m behind the road.
    behind = scen.road.x_extent[0] - 5.0 - base.references[1].states[1, 0]

    def translate(vid, states):
        if vid == 1:
            states[:, 0] += behind

    off = _variant_game(scen, weights, base, lambda s, g: _mapped_references(g, translate))
    message = r"^point x=-20\d\.\d+ projects outside the road extent \(-200\.0, 2000\.0\)$"
    with pytest.raises(ValueError, match=message) as on_hit:
        _workspaces(off)
    assert len(factorizations) == misses
    forget_player_systems()
    with pytest.raises(ValueError, match=message) as on_miss:
        _workspaces(off)
    assert str(on_hit.value) == str(on_miss.value)


def _kept_arrays(obj, seen):
    """Every array reachable from `obj` through dataclass fields, tuples,
    lists and dicts, by the array that holds its memory: a view counts as
    its base."""
    if isinstance(obj, np.ndarray):
        base = obj if obj.base is None else obj.base
        seen[id(base)] = base
    elif is_dataclass(obj):
        for f in fields(obj):
            _kept_arrays(getattr(obj, f.name), seen)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _kept_arrays(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            _kept_arrays(item, seen)
    return seen


MEMOS = ("hessians", "sides", "layouts")


def _own_arrays(entry):
    """The arrays `_kept_arrays` finds in a cache entry's fields but its
    memos."""
    return _kept_arrays([getattr(entry, f.name) for f in fields(entry) if f.name not in MEMOS], {})


def _h121_entry(kind):
    """A workspace of the H=121 offline game on a lane changer or a straight
    driver, with its cache entry, the only one."""
    scen = _scenario("h121")
    game = make_game(scen, {v.vid: v.weights_true for v in scen.vehicles})
    vid = next(v.vid for v in scen.vehicles if (v.behavior.kind == STRAIGHT) == (kind == "straight"))
    ws = _PlayerWorkspace(game, vid, _KeepOut(game))
    (entry,) = game_module._STATIC_PARTS.values()
    return ws, entry


@pytest.mark.parametrize("kind, bound", [("lane change", 4.35e6), ("straight", 1.21e6)])
def test_a_cache_entry_at_h121_stays_small(kind, bound):
    # Without its memos, an entry is about the Gram blocks of Z (six of 240 x
    # 240, 2.76 MB, for a lane changer; three of 120 x 120, 0.35 MB, for a
    # straight driver) and the basis Z (1.38 MB and 0.69 MB). The particular
    # solution at a zero start state and its map N from the start state add
    # 0.03 MB, and the static rows the rest: whole, 4.31 MB and 1.20 MB. It
    # keeps no triangular factor of the equality rows, which the build reads
    # once: no square array of the rank's size. Every array reachable from
    # the entry's fields but its memos counts, a view as its base.
    _, entry = _h121_entry(kind)
    held = _own_arrays(entry)
    rank = entry.z_basis.shape[0] - entry.z_basis.shape[1]
    assert [f.name for f in fields(entry)] == ["z_basis", "gram", "s_key", "n_map", "rows", *MEMOS]
    assert not any(a.shape == (rank, rank) for a in held.values())
    assert sum(a.nbytes for a in held.values()) <= bound


@pytest.mark.parametrize("kind, bounds", [("lane change", (4.7e5, 1.25e5, 3.1e4)),
                                          ("straight", (1.25e5, 1.2e5, 3.0e4))])
def test_the_memos_beside_a_cache_entry_at_h121_stay_small(kind, bounds):
    # A workspace at H=121 leaves in its entry's memos, each array reachable
    # from them counted once, as its base: its reduced Hessian, the factor of
    # Z'HZ (240 x 240 for a lane changer, 460,800 bytes; 120 x 120 for a
    # straight driver, 115,200) and H (5,760); its stack's layout, columns,
    # coefficients and b of 2,160 and 2,040 rows (120,960 and 114,240
    # bytes); and its right-hand side, the re-stated dynamics b, s_part,
    # s_part at the pose columns and the stack's d (29,760 and 28,800
    # bytes). `_kept_arrays` sees what the workspace reads.
    ws, entry = _h121_entry(kind)
    own = _own_arrays(entry)
    memos = (entry.hessians, entry.layouts, entry.sides)
    read = (ws.reduced.gi.factor, ws.stack.rows.cols, ws.reduced.s_part)
    for memo, array, bound in zip(memos, read, bounds):
        held = _kept_arrays(memo, {})
        assert id(array if array.base is None else array.base) in held
        assert sum(a.nbytes for key, a in held.items() if key not in own) <= bound


def test_cold_and_warm_caches_give_the_same_online_repetition(factorizations):
    scen = default_online_scenario()

    def timeless(rows):
        return [{k: v for k, v in row.items() if not k.endswith("_seconds")} for row in rows]

    cold, _ = harness._online_rep(scen, 3, 1)
    assert 0 < len(factorizations) <= 7
    misses = len(factorizations)
    warm, _ = harness._online_rep(scen, 3, 1)
    assert len(factorizations) == misses
    assert timeless(warm) == timeless(cold)


def test_gram_blocks_are_built_once_per_coefficient_key(monkeypatch, factorizations):
    # A miss forms the Gram blocks of its basis with its factors; every later
    # workspace on that key, whatever its weights and right-hand side, reads
    # them, so a warm online repetition builds none.
    keys, built = set(), []
    key_of, blocks_of = game_module.coefficient_key, game_module.gram_blocks

    def keyed(*args):
        key = key_of(*args)
        keys.add(key)
        return key

    def counting(z_basis, period):
        built.append(z_basis)
        return blocks_of(z_basis, period)

    monkeypatch.setattr(game_module, "coefficient_key", keyed)
    monkeypatch.setattr(game_module, "gram_blocks", counting)
    scen = default_online_scenario()
    harness._online_rep(scen, 3, 1)
    assert 0 < len(built) == len(keys) == len(factorizations) <= game_module.STATIC_CACHE_ENTRIES
    harness._online_rep(scen, 3, 1)
    assert len(built) == len(keys)


def test_a_reference_stepped_otherwise_than_the_scenario_is_refused():
    scen = _scenario("offline")
    weights = {v.vid: v.weights_true for v in scen.vehicles}
    base = make_game(scen, weights)
    longer = {vid: replace(ref, ts=1.1 * ref.ts) if vid == 2 else ref
              for vid, ref in base.references.items()}
    with pytest.raises(ValueError, match="^reference for player 2 has step"):
        make_game(scen, weights, references=longer, initial_states=base.initial_states)


def test_a_new_right_hand_side_on_a_hit_runs_no_linearization_and_no_triangular_solve(
        monkeypatch, factorizations):
    # A hit whose start state is new re-states the first four dynamics
    # entries from the kept (c_0, A_0) and forms s_part as s_key + N x(0): it
    # linearizes nothing and runs no triangular solve; new reference positions
    # change no right-hand side. A miss runs all three spied functions.
    scen = _scenario("offline")
    weights = {v.vid: v.weights_true for v in scen.vehicles}
    base = make_game(scen, weights)
    before = _workspaces(base)
    misses = len(factorizations)
    calls = []

    def spy(name, original):
        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return counted

    for module, name in ((constraints, "linearize_steps"), (qp_module, "solve_triangular"),
                         (game_module, "particular")):
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    for variant in ("start_state", "translated_reference", "restaged"):
        after = _workspaces(_variant_game(scen, weights, base, VARIANTS[variant][0]))
        # Only a new start state makes a new right-hand side.
        assert (any(after[vid].reduced.s_part is not before[vid].reduced.s_part for vid in after)
                == (variant == "start_state"))
    assert len(factorizations) == misses and calls == []
    forget_player_systems()
    _workspaces(base)
    assert {"linearize_steps", "solve_triangular", "particular"} <= set(calls)


@pytest.mark.parametrize("name", ["offline", "online", "success"])
def test_the_start_state_map_matches_a_particular_solution_of_the_whole_right_hand_side(name):
    # Every elimination is s_key + N x(0); for every decision player, on the
    # full horizon and on the stage [13, 25], from shifted start states, it
    # matches `particular` on the full b_eq within 1e-12 (1 + |s|).
    scen = _scenario(name)
    full = scen.references()
    weights = {v.vid: v.weights_true for v in scen.vehicles}
    rng = np.random.default_rng(4)
    for segment in (Segment(1, scen.horizon), Segment(13, 25)):
        refs = {vid: full[vid].window(segment.start, segment.stop) for vid in weights}
        starts = {vid: VehicleState.from_array(
                      ref.states[0] + rng.normal(0.0, [0.5, 0.2, 0.3, 0.02]))
                  for vid, ref in refs.items()}
        game = make_game(scen, weights, segment=segment, references=refs, initial_states=starts)
        for vid, ws in _workspaces(game).items():
            a_eq, b_eq, _ = constraints.stack_dense(ws.rows.eq)
            want = qp_module.particular(qp_module.factor_equalities(a_eq), b_eq)
            got = ws.reduced.s_part
            assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want))), (segment, vid)
