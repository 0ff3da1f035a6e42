import math
import re

import numpy as np
import pytest

from hypertraffic.dynamics import VehicleState
from hypertraffic.scenario import (
    COMFORT,
    LANE_CHANGE,
    POSE,
    STRAIGHT,
    STYLE_NAMES,
    VELOCITY,
    BehaviorSpec,
    BoxLimits,
    LaneGeometry,
    ReferenceTrajectory,
    StyleWeights,
    build_reference,
    default_offline_scenario,
    default_online_scenario,
    load_config,
    style_weights_for,
    success_study_scenario,
    true_style_weights,
)


def test_typical_weights_are_normalized_ratios():
    sw = style_weights_for(STRAIGHT, COMFORT)
    expect = np.array([1.0, 1.0, 10.0]) / np.linalg.norm([1.0, 1.0, 10.0])
    assert np.allclose(sw.effective(STRAIGHT), expect, atol=1e-12)
    for kind in (STRAIGHT, LANE_CHANGE):
        for style in STYLE_NAMES:
            eff = style_weights_for(kind, style).effective(kind)
            assert np.linalg.norm(eff) == pytest.approx(1.0)


def test_true_weights_halve_the_dominant_entry():
    sw = true_style_weights(STRAIGHT, COMFORT)
    expect = np.array([1.0, 1.0, 5.0]) / math.sqrt(27.0)
    assert np.allclose(sw.effective(STRAIGHT), expect, atol=1e-12)
    # still the same style, but measurably different from the typical guess
    typ = style_weights_for(STRAIGHT, COMFORT)
    assert np.argmax(sw.effective(STRAIGHT)) == np.argmax(typ.effective(STRAIGHT))
    assert np.linalg.norm(sw.theta - typ.theta) > 0.1


def test_style_weight_validation():
    with pytest.raises(ValueError):
        StyleWeights(np.ones(5))
    with pytest.raises(ValueError):
        StyleWeights(np.full(6, 1e5))
    with pytest.raises(ValueError):
        style_weights_for(STRAIGHT, "reckless")
    sw = StyleWeights(np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0]))
    assert np.linalg.norm(sw.normalized(STRAIGHT).effective(STRAIGHT)) == pytest.approx(1.0)


def test_lane_geometry_layout():
    road = LaneGeometry()
    assert road.boundary_y(0) == 0.0
    assert road.boundary_y(2) == 8.0
    assert road.centerline_y(0) == 2.0
    assert road.centerline_y(1) == 6.0
    assert road.lane_of(1.9) == 0
    assert road.lane_of(6.5) == 1
    assert road.lane_of(-3.0) == 0  # clipped onto the road
    with pytest.raises(ValueError):
        road.boundary_y(3)
    with pytest.raises(ValueError):
        LaneGeometry(lane_count=0)


def test_tangent_sign_convention():
    road = LaneGeometry()
    # top boundary, feasible side below: f <= 0 inside the road
    a, b, c = road.tangent_at("boundary_2", (0.0, 6.0), (0.0, 4.0))
    assert a * 0.0 + b * 4.0 + c < 0.0
    assert a * 0.0 + b * 8.0 + c == pytest.approx(0.0)
    assert a * 0.0 + b * 9.0 + c > 0.0
    assert math.hypot(a, b) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        road.tangent_at("median_1", (0.0, 0.0))
    with pytest.raises(ValueError):
        road.tangent_at("boundary_0", (5000.0, 0.0))


def test_behavior_spec():
    straight = BehaviorSpec(kind=STRAIGHT)
    assert straight.heading == 0.0
    road = LaneGeometry()
    assert straight.permitted_lanes(road, 6.0) == (1,)
    with pytest.raises(ValueError):
        straight.permitted_lanes(road)
    change = BehaviorSpec(kind=LANE_CHANGE, source_lane=0, target_lane=1, start_x=5.0)
    assert change.permitted_lanes(road) == (0, 1)
    with pytest.raises(ValueError):
        BehaviorSpec(kind=LANE_CHANGE, source_lane=1, target_lane=1)
    with pytest.raises(ValueError):
        BehaviorSpec(kind="drift")


def test_straight_reference_is_constant_speed():
    road = LaneGeometry()
    ref = build_reference(
        BehaviorSpec(kind=STRAIGHT), VehicleState(-3.0, 6.0, 10.0, 0.0), 36, 0.1, road
    )
    assert ref.start == 1 and ref.stop == 36
    assert np.array_equal(ref.state(1), [-3.0, 6.0, 10.0, 0.0])
    diffs = np.diff(ref.states, axis=0)
    assert np.allclose(diffs[:, 0], 1.0)
    assert np.all(diffs[:, 1:] == 0.0)


def test_lane_change_reference_crosses_midpoint():
    road = LaneGeometry()
    change = BehaviorSpec(kind=LANE_CHANGE, source_lane=0, target_lane=1, start_x=5.0)
    ref = build_reference(change, VehicleState(0.0, 2.0, 10.0, 0.0), 36, 0.1, road)
    assert ref.state(1)[1] == pytest.approx(2.0)
    # px = 20 is the middle of the 30 m transition starting at x = 5
    assert ref.state(21)[0] == pytest.approx(20.0)
    assert ref.state(21)[1] == pytest.approx(4.0)
    assert ref.state(21)[3] > 0.0
    assert np.array_equal(ref.state(36), [35.0, 6.0, 10.0, 0.0])
    assert np.all(np.diff(ref.states[:, 1]) >= 0.0)
    # a transition that cannot finish within the horizon is rejected
    late = BehaviorSpec(kind=LANE_CHANGE, source_lane=0, target_lane=1, start_x=30.0)
    with pytest.raises(ValueError):
        build_reference(late, VehicleState(0.0, 2.0, 10.0, 0.0), 36, 0.1, road)


def test_reference_window_and_anchoring():
    road = LaneGeometry()
    ref = build_reference(
        BehaviorSpec(kind=STRAIGHT), VehicleState(0.0, 2.0, 10.0, 0.0), 40, 0.1, road
    )
    win = ref.window(5, 15)
    assert win.start == 5 and win.stop == 15 and len(win) == 11
    assert np.array_equal(win.state(7), ref.state(7))
    moved = win.rebased(1)
    assert moved.start == 1 and np.array_equal(moved.states, win.states)
    assert ref.nearest_by_px(ref.state(10)[0]) == 10
    assert ref.nearest_by_px(ref.state(10)[0] + 0.4) == 10
    with pytest.raises(ValueError):
        ref.window(0, 10)
    with pytest.raises(ValueError):
        ref.state(41)


def test_box_limits_validation():
    with pytest.raises(ValueError):
        BoxLimits(v_min=5.0, v_max=5.0)
    with pytest.raises(ValueError):
        BoxLimits(delta_max=math.pi)


def test_default_offline_scenario_roster():
    scen = default_offline_scenario()
    assert [v.vid for v in scen.vehicles] == [0, 1, 2, 3]
    assert scen.hv.vid == 0 and scen.hv.is_hv
    assert [c.vid for c in scen.cavs] == [1, 2, 3]
    assert scen.horizon == 36
    assert scen.vehicle(1).behavior.kind == LANE_CHANGE
    refs = scen.references()
    assert set(refs) == {0, 1, 2, 3}
    for ref in refs.values():
        assert ref.stop >= scen.horizon
    with pytest.raises(KeyError):
        scen.vehicle(9)


def test_success_study_scenario_layout():
    scen = success_study_scenario()
    assert scen.horizon == 36
    cav2 = scen.vehicle(2)
    # the slow leader sits in the merge target lane just ahead of the entry
    assert cav2.initial.p_x == pytest.approx(5.5)
    assert cav2.initial.v == pytest.approx(9.4)
    assert cav2.initial.p_y == pytest.approx(scen.road.centerline_y(1))
    assert cav2.style == VELOCITY
    assert scen.vehicle(1).behavior.kind == LANE_CHANGE
    assert scen.vehicle(3).style == POSE


def test_default_online_scenario_staging():
    scen = default_online_scenario()
    assert scen.horizon == 61
    assert scen.stages == (1, 13, 25, 37, 49, 61)
    eff = scen.hv.weights_true.effective(STRAIGHT)
    expect = np.array([10.0, 1.4, 0.4]) / np.linalg.norm([10.0, 1.4, 0.4])
    assert np.allclose(eff, expect, atol=1e-12)


def test_with_weights_override():
    scen = default_offline_scenario()
    new = true_style_weights(STRAIGHT, POSE)
    scen2 = scen.with_weights({2: new})
    assert np.array_equal(scen2.vehicle(2).weights_true.theta, new.theta)
    assert np.array_equal(
        scen2.vehicle(3).weights_true.theta, scen.vehicle(3).weights_true.theta
    )
    assert scen.vehicle(2).weights_true.theta is not scen2.vehicle(2).weights_true.theta


CONFIG_DOC = """
horizon: 20
ts: 0.1
noise_std: 0.02
road:
  lane_count: 2
  lane_width: 4.0
limits:
  v_max: 15.0
  delta_min_deg: -20.0
  delta_max_deg: 20.0
vehicles:
  - id: 0
    is_hv: true
    style: comfort_oriented
    behavior: {kind: straight}
    initial: {x: -3.0, y: 6.0, v: 10.0}
  - id: 1
    style: velocity_consistent
    behavior: {kind: lane_change, source_lane: 0, target_lane: 1, start_x: 2.0, transition_length: 15.0}
    initial: {x: 0.0, y: 2.0, v: 10.0, psi_deg: 0.0}
    weights_true: [1.0, 1.0, 4.0, 1.0, 1.0, 1.0]
"""


def test_load_config_round_trip():
    scen = load_config(CONFIG_DOC)
    assert scen.horizon == 20
    assert scen.noise_std == 0.02
    assert scen.limits.v_max == 15.0
    assert scen.limits.delta_max == pytest.approx(math.radians(20.0))
    assert scen.hv.vid == 0 and scen.hv.is_hv
    assert not scen.vehicle(1).is_hv
    assert scen.vehicle(1).behavior.transition_length == 15.0
    # explicit weight vectors are normalized on the way in
    eff = scen.vehicle(1).weights_true.effective(LANE_CHANGE)
    assert np.linalg.norm(eff) == pytest.approx(1.0)
    assert np.argmax(eff) == 2


def test_load_config_rejects_missing_fields():
    with pytest.raises(ValueError):
        load_config("vehicles:\n  - id: 0\n")
    with pytest.raises(ValueError):
        load_config("- just\n- a\n- list\n")
    bad_kind = CONFIG_DOC.replace("{kind: straight}", "{kind: teleport}")
    with pytest.raises(ValueError):
        load_config(bad_kind)


@pytest.mark.parametrize(
    "old, new, field",
    [
        ("v: 10.0}", "v: .nan}", "vehicles[0].initial.v"),
        ("ts: 0.1", "ts: .inf", "ts"),
        ("v_max: 15.0", "v_max: -.inf", "limits.v_max"),
        ("start_x: 2.0", "start_x: .nan", "vehicles[1].behavior.start_x"),
        ("[1.0, 1.0, 4.0", "[1.0, .nan, 4.0", "vehicles[1].weights_true"),
    ],
)
def test_load_config_refuses_non_finite_fields(old, new, field):
    assert old in CONFIG_DOC
    with pytest.raises(ValueError, match=re.escape(f"config field {field} is not finite")):
        load_config(CONFIG_DOC.replace(old, new, 1))


@pytest.mark.parametrize(
    "old, new, field",
    [
        ("v_max: 15.0", "v_mx: 15.0", "limits.v_mx"),
        ("lane_width: 4.0", "lane_widht: 4.0", "road.lane_widht"),
        ("horizon: 20", "horizon: 20\nhorizn: 30", "horizn"),
        ("v: 10.0}", "v: 10.0, vx: 1.0}", "vehicles[0].initial.vx"),
        ("style: comfort_oriented", "style: comfort_oriented\n    weight: 2", "vehicles[0].weight"),
        ("{kind: straight}", "{kind: straight, start_x: 2.0}", "vehicles[0].behavior.start_x"),
        ("transition_length: 15.0", "transition_len: 15.0", "vehicles[1].behavior.transition_len"),
        ("noise_std: 0.02", "noise_std: 0.02\nsolver: {max_iter: 5}", "solver.max_iter"),
        ("noise_std: 0.02", "noise_std: 0.02\ngeometry: {lenght: 4.0}", "geometry.lenght"),
    ],
)
def test_load_config_refuses_unknown_fields(old, new, field):
    assert old in CONFIG_DOC
    with pytest.raises(ValueError, match=re.escape(f"config field {field} is not a known field")):
        load_config(CONFIG_DOC.replace(old, new, 1))


@pytest.mark.parametrize(
    "old, new, field",
    [
        ("noise_std: 0.02", "noise_std: -0.5", "noise_std"),
        ("noise_std: 0.02", "noise_std: 0.02\nkappa_offline: 0.0", "kappa_offline"),
        ("noise_std: 0.02", "noise_std: 0.02\nkappa_online: -0.3", "kappa_online"),
        ("noise_std: 0.02", "noise_std: 0.02\nomega_dist: -1.0", "omega_dist"),
    ],
)
def test_load_config_refuses_out_of_range_fields(old, new, field):
    with pytest.raises(ValueError, match=f"^{field} "):
        load_config(CONFIG_DOC.replace(old, new, 1))


def test_load_config_refuses_a_field_that_is_not_a_mapping():
    with pytest.raises(ValueError, match=re.escape("config field limits must be a mapping")):
        load_config(CONFIG_DOC.replace(
            "limits:\n  v_max: 15.0\n  delta_min_deg: -20.0\n  delta_max_deg: 20.0",
            "limits: 15.0", 1))
