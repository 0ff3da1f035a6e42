"""The forward game and the inverse fit must read the same constraint rows.

`constraints.assemble` (used by the inverse) and the game's per-player
workspace both build from `constraints.static_rows`; these tests pin that the
rows a best response actually solves with are bitwise the assembled ones, in
the same order, and that every assembled row carries its family's tag.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypertraffic import game as game_module
from hypertraffic.constraints import (
    Segment,
    Strategy,
    assemble,
    behavior_rows,
    box_rows,
    collision_rows,
    lane_rows,
)
from hypertraffic.dynamics import VehicleState
from hypertraffic.harness import _anchored_reference
from hypertraffic.qp import ReducedQp
from hypertraffic.scenario import (
    STRAIGHT,
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
def _scenario(name):
    scen = SCENARIOS[name]()
    return scen, scen.references()


def _solved_rows(monkeypatch, game, vid, opponents):
    """The equality and inequality data of one best response, as solved."""
    seen = []
    original = ReducedQp.solve

    def spy(self, f_vec, a_in, b_in, settings, c_red=None):
        seen.append((self.a_eq, self.b_eq, a_in, b_in, c_red, self))
        return original(self, f_vec, a_in, b_in, settings, c_red=c_red)

    monkeypatch.setattr(ReducedQp, "solve", spy)
    game_module.best_response(vid, opponents, game)
    monkeypatch.setattr(ReducedQp, "solve", original)
    assert len(seen) == 1
    return seen[0]


def _assert_game_reads_assembled_rows(monkeypatch, game, opponents_of):
    for vid in game.decision_ids:
        opponents = opponents_of(vid)
        a_eq, b_eq, a_in, b_in, c_red, reduced = _solved_rows(monkeypatch, game, vid, opponents)
        system = assemble(vid, opponents, game.scenario, game.segment, game.references[vid],
                          game.initial_states[vid])
        assert np.array_equal(a_eq, system.a_eq), vid
        assert np.array_equal(b_eq, system.b_eq), vid
        assert np.array_equal(a_in, system.a_in), vid
        assert np.array_equal(b_in, system.b_in), vid
        # The cached projections of the static blocks match a fresh one.
        assert np.max(np.abs(c_red - reduced.reduce_rows(a_in))) <= 1e-12, vid


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_game_solves_with_assembled_rows_on_full_horizon(monkeypatch, name):
    scen, _ = _scenario(name)
    game = game_module.make_game(scen, {v.vid: v.weights_true for v in scen.vehicles})
    seeds = {vid: Strategy.from_reference(game.references[vid], game.segment)
             for vid in game.decision_ids}
    _assert_game_reads_assembled_rows(
        monkeypatch, game, lambda vid: {k: s for k, s in seeds.items() if k != vid}
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_game_solves_with_assembled_rows_on_reanchored_stage(monkeypatch, name):
    scen, full = _scenario(name)
    rng = np.random.default_rng(5)
    segment = Segment(13, 25)
    refs, initials, seeds = {}, {}, {}
    for v in scen.vehicles:
        p_x = full[v.vid].state(segment.start)[0] + rng.normal(0.0, 0.5)
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
        monkeypatch, game, lambda vid: {k: s for k, s in seeds.items() if k != vid}
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
    system = assemble(vid, opponents, scen, segment, reference)

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
        "box": box_rows(scen.limits, segment),
        "lane": lane_rows(reference, vehicle.geometry, scen.road, lanes),
    }
    for k in others:
        expected[f"collision({k})"] = collision_rows(reference, opponents[k],
                                                     vehicle.geometry, k)
    if not straight:
        expected["behavior"] = behavior_rows(vehicle.behavior, reference, scen.road)
    for tag, (rows, rhs, *_) in expected.items():
        assert np.array_equal(system.a_in[tags == tag], rows), tag
        assert np.array_equal(system.b_in[tags == tag], rhs), tag
