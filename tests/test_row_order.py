"""The forward game and the inverse fit must read the same constraint rows.

The game's per-player workspace and the inverse fit both take a player's
static rows from `game._player_system` and lay out its inequality rows with
`constraints.assemble`; these tests pin that the stack a best response
actually solves with (`stack.rows`, `stack.b` and `stack.tags`) is bitwise
that of `_oracles.dense_system`, which builds every row fresh and dense, in
the same order, and that every row carries its family's tag.
`test_inverse.py` pins the fit's stack against the same oracle.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypertraffic import game as game_module
from hypertraffic.constraints import Segment, Strategy
from hypertraffic.dynamics import VehicleState
from hypertraffic.harness import _anchored_reference
from hypertraffic.qp import ReducedQp
from hypertraffic.scenario import (
    STRAIGHT,
    default_offline_scenario,
    default_online_scenario,
    success_study_scenario,
)

from _oracles import (
    dense_behavior_rows,
    dense_box_rows,
    dense_collision_rows,
    dense_elimination,
    dense_lane_rows,
    dense_system,
    densify,
    sparsify,
    system_violation,
)


def _off_centre_offline():
    """The offline study with the human started 0.4 m off its lane centre
    and heading 0.02 rad, so its start state is not its reference's first
    point."""
    scen = default_offline_scenario()
    start = replace(scen.hv.initial, p_y=scen.hv.initial.p_y + 0.4, psi=0.02)
    return replace(scen, vehicles=tuple(replace(v, initial=start) if v.is_hv else v
                                        for v in scen.vehicles))


SCENARIOS = {
    "offline": default_offline_scenario,
    "success": success_study_scenario,
    "online": default_online_scenario,
    "off_centre": _off_centre_offline,
}


@lru_cache(maxsize=None)
def _scenario(name):
    scen = SCENARIOS[name]()
    return scen, scen.references()


def _solved_rows(monkeypatch, game, vid, opponents):
    """The workspace of one best response, its reduced QP, and the
    inequality rows (densified) and right-hand sides d it solved with."""
    seen = []
    original = ReducedQp.solve

    def spy(self, f_vec, rows, d_red, settings, warm=()):
        seen.append((self, densify(rows), d_red.copy()))
        return original(self, f_vec, rows, d_red, settings, warm=warm)

    monkeypatch.setattr(ReducedQp, "solve", spy)
    workspace = game_module._PlayerWorkspace(game, vid, game_module._KeepOut(game))
    workspace.best_response(opponents)
    monkeypatch.setattr(ReducedQp, "solve", original)
    assert len(seen) == 1 and seen[0][0] is workspace.reduced
    return (workspace, *seen[0])


def _assert_game_reads_assembled_rows(monkeypatch, game, opponents_of, assembled):
    rng = np.random.default_rng(11)
    for vid in game.decision_ids:
        opponents = opponents_of(vid)
        workspace, reduced, a_in, d_red = _solved_rows(monkeypatch, game, vid, opponents)
        system = assembled(vid, opponents)
        # The equalities reach the solve as their elimination, which may come
        # from the cache of static parts; either way its particular solution
        # is the start state's map applied to x_0.
        elimination = dense_elimination(system.a_eq, system.b_eq, system.start)
        assert np.array_equal(reduced.z_basis, elimination.z_basis), vid
        assert np.array_equal(reduced.s_part, elimination.s_part), vid
        # The stacked rows solved with are the assembled ones, padded with
        # zero coefficients, and so are the stacked b they are judged by.
        assert np.array_equal(a_in, system.a_in), vid
        assert np.array_equal(densify(workspace.stack.rows), system.a_in), vid
        assert np.array_equal(workspace.stack.b, system.b_in), vid
        assert workspace.stack.tags == system.in_tags, vid
        # Their d matches a fresh `reduce_rows` of the assembled rows, read
        # in the row form the game builds, ...
        _, d_want = reduced.reduce_rows(sparsify(system.a_in), system.b_in)
        assert np.max(np.abs(d_red - d_want)) <= 1e-12, vid
        # ... and b - A s_part by BLAS, which may round each entry otherwise
        # (fused multiply-adds), within 8 eps of the sums of |products|.
        eps = np.finfo(float).eps
        abs_a = np.abs(system.a_in)
        d_dense = system.b_in - system.a_in @ reduced.s_part
        d_scale = abs_a @ np.abs(reduced.s_part) + np.abs(system.b_in)
        assert np.all(np.abs(d_red - d_dense) <= 8 * eps * d_scale), vid
        # So is the violation gathered from the sparse rows, against the
        # largest |a_i| . |s| + |b_i|.
        a_all = np.vstack([system.a_eq, system.a_in])
        b_all = np.concatenate([system.b_eq, system.b_in])
        s_star = workspace.best_response(opponents).s_star
        for s_vec in (s_star, s_star + rng.normal(0.0, 0.5, s_star.size)):
            scale = np.max(np.abs(a_all) @ np.abs(s_vec) + np.abs(b_all))
            got = workspace.violation_at(s_vec, opponents)
            assert abs(got - system_violation(system, s_vec)) <= 8 * eps * scale, vid


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_game_solves_with_assembled_rows_on_full_horizon(monkeypatch, name):
    scen, _ = _scenario(name)
    game = game_module.make_game(scen, {v.vid: v.weights_true for v in scen.vehicles})
    seeds = {vid: Strategy.from_reference(game.references[vid], game.segment)
             for vid in game.decision_ids}
    # `make_game` and `dense_system` both default the segment, the reference and
    # the start state, by the same rule.
    _assert_game_reads_assembled_rows(
        monkeypatch, game, lambda vid: {k: s for k, s in seeds.items() if k != vid},
        lambda vid, opponents: dense_system(vid, opponents, scen),
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_game_solves_with_assembled_rows_on_reanchored_stage(monkeypatch, name):
    scen, full = _scenario(name)
    rng = np.random.default_rng(5)
    segment = Segment(13, 25)
    refs, initials, seeds = {}, {}, {}
    for v in scen.vehicles:
        p_x = full[v.vid].states[segment.start - full[v.vid].start][0] + rng.normal(0.0, 0.5)
        refs[v.vid] = _anchored_reference(full[v.vid], segment, p_x)
        initials[v.vid] = VehicleState.from_array(
            refs[v.vid].states[0] + rng.normal(0.0, 0.05, 4))
        seed = Strategy.from_reference(refs[v.vid], segment).data
        seeds[v.vid] = Strategy(segment, seed + rng.normal(0.0, 0.1, seed.size))
    game = game_module.make_game(
        scen, {v.vid: v.weights_true for v in scen.vehicles}, segment=segment,
        references=refs, initial_states=initials,
    )
    _assert_game_reads_assembled_rows(
        monkeypatch, game, lambda vid: {k: s for k, s in seeds.items() if k != vid},
        lambda vid, opponents: dense_system(vid, opponents, scen, segment, refs[vid],
                                            initials[vid]),
    )


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(SCENARIOS)),
    vid=st.integers(0, 3),
    start=st.integers(1, 40),
    length=st.integers(1, 20),
    opponent_count=st.integers(0, 3),
)
def test_assembled_row_counts_and_tags_follow_the_families(name, vid, start, length,
                                                           opponent_count):
    scen, full = _scenario(name)
    stop = min(start + length, scen.horizon)
    if stop <= start:
        start = stop - 1
    segment = Segment(start, stop)
    n = segment.n_steps
    vehicle = scen.vehicle(vid)
    reference = full[vid].window(start, stop)
    others = [k for k in sorted(full) if k != vid][:opponent_count]
    opponents = {k: Strategy.from_reference(full[k].window(start, stop), segment)
                 for k in others}
    system = dense_system(vid, opponents, scen, segment, reference)

    straight = vehicle.behavior.kind == STRAIGHT
    assert system.a_eq.shape == (4 * n + (n if straight else 0), 6 * n)
    assert system.eq_tags == ("dynamics",) * (4 * n) + ("behavior",) * (n if straight else 0)
    families = ["box"] * 6 * n + ["lane"] * 8 * n
    for k in others:
        families += [f"collision({k})"] * n
    families += [] if straight else ["behavior"] * n
    assert system.in_tags == tuple(families)
    assert system.a_in.shape == (len(families), 6 * n) and system.b_in.shape == (len(families),)

    # Each tag selects exactly the rows its family builder produces.
    tags = np.array(system.in_tags)
    lanes = vehicle.behavior.permitted_lanes(scen.road, vehicle.initial.p_y)
    expected = {
        "box": dense_box_rows(scen.limits, segment),
        "lane": dense_lane_rows(reference, vehicle.geometry, scen.road, lanes),
    }
    for k in others:
        expected[f"collision({k})"] = dense_collision_rows(reference, opponents[k],
                                                           vehicle.geometry, k)
    if not straight:
        expected["behavior"] = dense_behavior_rows(vehicle.behavior, reference, scen.road)
    for tag, (rows, rhs, *_) in expected.items():
        assert np.array_equal(system.a_in[tags == tag], rows), tag
        assert np.array_equal(system.b_in[tags == tag], rhs), tag
