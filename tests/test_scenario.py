import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from hypertraffic.dynamics import VehicleGeometry, VehicleState
from hypertraffic.qp import SolverSettings
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
    ScenarioConfig,
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
    a, b, c = road.tangent_at(road.boundary_y(2), (0.0, 6.0), (0.0, 4.0))
    assert a * 0.0 + b * 4.0 + c < 0.0
    assert a * 0.0 + b * 8.0 + c == pytest.approx(0.0)
    assert a * 0.0 + b * 9.0 + c > 0.0
    assert math.hypot(a, b) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="outside the road extent"):
        road.tangent_at(road.boundary_y(0), (5000.0, 0.0))


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
    assert np.array_equal(ref.states[0], [-3.0, 6.0, 10.0, 0.0])
    diffs = np.diff(ref.states, axis=0)
    assert np.allclose(diffs[:, 0], 1.0)
    assert np.all(diffs[:, 1:] == 0.0)


def test_lane_change_reference_crosses_midpoint():
    road = LaneGeometry()
    change = BehaviorSpec(kind=LANE_CHANGE, source_lane=0, target_lane=1, start_x=5.0)
    ref = build_reference(change, VehicleState(0.0, 2.0, 10.0, 0.0), 36, 0.1, road)
    assert ref.start == 1
    assert ref.states[0][1] == pytest.approx(2.0)
    # px = 20 (time point 21) is the middle of the 30 m transition starting at x = 5
    assert ref.states[20][0] == pytest.approx(20.0)
    assert ref.states[20][1] == pytest.approx(4.0)
    assert ref.states[20][3] > 0.0
    assert np.array_equal(ref.states[35], [35.0, 6.0, 10.0, 0.0])
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
    assert np.array_equal(win.states, ref.states[4:15])
    moved = win.rebased(1)
    assert moved.start == 1 and np.array_equal(moved.states, win.states)
    assert ref.nearest_by_px(ref.states[9][0]) == 10
    assert ref.nearest_by_px(ref.states[9][0] + 0.4) == 10
    with pytest.raises(ValueError):
        ref.window(0, 10)
    with pytest.raises(ValueError):
        ref.window(30, 41)


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


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("v: 10.0}", "v: fast}", "config field vehicles[0].initial.v is not a number"),
        ("v: 10.0}", "v: [1, 2]}", "config field vehicles[0].initial.v must be a single number"),
        ("lane_count: 2", "lane_count: true", "config field road.lane_count is not a number"),
        ("[1.0, 1.0, 4.0", "[1.0, false, 4.0", "config field vehicles[1].weights_true is not a number"),
        ("{kind: straight}", "{kind: [straight]}",
         "config field vehicles[0].behavior.kind has unknown value ['straight']"),
        ("style: comfort_oriented", "style: reckless",
         "config field vehicles[0].style has unknown value 'reckless'"),
        ("style: velocity_consistent", "style: reckless",
         "config field vehicles[1].style has unknown value 'reckless'"),
        ("style: comfort_oriented", "style: [1]", "config field vehicles[0].style has unknown value [1]"),
        ("horizon: 20", "horizon: 20\nstages: [1, x]", "config field stages is not a number"),
        ("horizon: 20", "horizon: 20\nstages: [1, 10.5, 20]",
         "config field stages is not an integer"),
        ("horizon: 20", "horizon: 36.7", "config field horizon is not an integer"),
        ("source_lane: 0", "source_lane: 0.5",
         "config field vehicles[1].behavior.source_lane is not an integer"),
        ("[1.0, 1.0, 4.0, 1.0, 1.0, 1.0]", "3.0",
         "config field vehicles[1].weights_true must be a list of numbers"),
        ("v: 10.0}", "v: -3.0}", "config field vehicles[0].initial.v cannot be negative"),
        ("lane_width: 4.0", "lane_width: 4.0\n  x_extent: [1.0]",
         "config field road.x_extent must have 2 entries"),
        ("{kind: straight}", "{kind: straight, direction: [1.0, 0.0, 0.0]}",
         "config field vehicles[0].behavior.direction must have 2 entries"),
        ("[1.0, 1.0, 4.0, 1.0, 1.0, 1.0]", "[1.0, 1.0, 4.0, 1.0, 1.0]",
         "config field vehicles[1].weights_true must have 6 entries"),
        ("is_hv: true", "is_hv: 'no'", "config field vehicles[0].is_hv must be true or false"),
        ("style: velocity_consistent", "style: velocity_consistent\n    is_hv: 1",
         "config field vehicles[1].is_hv must be true or false"),
    ],
)
def test_load_config_refuses_wrongly_typed_or_out_of_range_values(old, new, message):
    assert old in CONFIG_DOC
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(CONFIG_DOC.replace(old, new, 1))


def test_load_config_refuses_vehicles_that_are_not_a_list():
    doc = CONFIG_DOC[:CONFIG_DOC.index("vehicles:")] + "vehicles: 5\n"
    with pytest.raises(ValueError, match=re.escape("config field vehicles must be a list")):
        load_config(doc)


MINIMAL_DOC = """
vehicles:
  - {id: 0, style: comfort_oriented, behavior: {kind: straight}, initial: {x: -3.0, y: 6.0, v: 10.0}}
  - id: 1
    style: velocity_consistent
    behavior: {kind: lane_change, source_lane: 0, target_lane: 1, start_x: 2.0}
    initial: {x: 0.0, y: 2.0, v: 10.0}
"""


def test_load_config_fills_omitted_fields_with_the_dataclass_defaults():
    scen = load_config(MINIMAL_DOC)
    assert scen == ScenarioConfig(vehicles=scen.vehicles)
    hv, cav = scen.vehicles
    assert hv.behavior == BehaviorSpec(kind=STRAIGHT)
    assert cav.behavior == BehaviorSpec(kind=LANE_CHANGE, source_lane=0, target_lane=1,
                                        start_x=2.0)
    assert hv.geometry == cav.geometry == VehicleGeometry()
    assert hv.is_hv and not cav.is_hv and hv.initial.psi == 0.0


EVERY_KEY_DOC = """
horizon: 40
ts: 0.2
stages: [1, 20, 40]
noise_std: 0.1
kappa_offline: 2.0
kappa_online: 0.5
omega_dist: 2.0
road: {lane_count: 3, lane_width: 3.5, x_extent: [-100.0, 1500.0]}
limits: {v_min: 1.0, v_max: 18.0, a_min: -6.0, a_max: 3.0, delta_min_deg: -25.0,
         delta_max_deg: 20.0}
geometry: {length: 4.0, width: 1.9, extended_length: 4.2, extended_width: 2.1}
solver: {violation_eps: 2.0e-3, step_eps: 2.0e-2, max_iterations: 50, qp_tolerance: 1.0e-9}
vehicles:
  - id: 0
    is_hv: true
    style: pose_tracking
    behavior: {kind: straight, direction: [3.0, 4.0]}
    initial: {x: -3.0, y: 6.0, v: 10.0, psi_deg: 10.0}
    weights_true: [1.0, 1.0, 2.0, 1.0, 3.0, 1.0]
  - id: 1
    is_hv: false
    style: comfort_oriented
    behavior: {kind: lane_change, source_lane: 2, target_lane: 1, start_x: 7.0,
               transition_length: 20.0}
    initial: {x: 0.0, y: 9.0, v: 12.0, psi_deg: -5.0}
"""


def _differs_in_every_field(value, default):
    return all(getattr(value, f.name) != getattr(default, f.name) for f in fields(default))


def test_load_config_reads_every_key_into_its_field():
    scen = load_config(EVERY_KEY_DOC)
    road = LaneGeometry(lane_count=3, lane_width=3.5, x_extent=(-100.0, 1500.0))
    limits = BoxLimits(v_min=1.0, v_max=18.0, a_min=-6.0, a_max=3.0,
                       delta_min=math.radians(-25.0), delta_max=math.radians(20.0))
    solver = SolverSettings(violation_eps=2e-3, step_eps=2e-2, max_iterations=50,
                            qp_tolerance=1e-9)
    geometry = VehicleGeometry(length=4.0, width=1.9, extended_length=4.2, extended_width=2.1)
    assert (scen.road, scen.limits, scen.solver) == (road, limits, solver)
    for value, default in ((road, LaneGeometry()), (limits, BoxLimits()),
                           (solver, SolverSettings()), (geometry, VehicleGeometry())):
        assert _differs_in_every_field(value, default)
    settings = dict(horizon=40, ts=0.2, stages=(1, 20, 40), noise_std=0.1, kappa_offline=2.0,
                    kappa_online=0.5, omega_dist=2.0)
    assert {name: getattr(scen, name) for name in settings} == settings
    default = ScenarioConfig(vehicles=scen.vehicles)
    assert all(getattr(default, name) != value for name, value in settings.items())
    hv, cav = scen.vehicles
    assert (hv.vid, hv.is_hv, hv.style, cav.vid, cav.is_hv, cav.style) == (
        0, True, POSE, 1, False, COMFORT)
    assert hv.geometry == cav.geometry == geometry
    assert hv.behavior == BehaviorSpec(kind=STRAIGHT, direction=(3.0, 4.0))
    assert cav.behavior == BehaviorSpec(kind=LANE_CHANGE, source_lane=2, target_lane=1,
                                        start_x=7.0, transition_length=20.0)
    assert hv.initial == VehicleState(-3.0, 6.0, 10.0, math.radians(10.0))
    assert cav.initial == VehicleState(0.0, 9.0, 12.0, math.radians(-5.0))
    expect = StyleWeights(np.array([1.0, 1.0, 2.0, 1.0, 3.0, 1.0])).normalized(STRAIGHT)
    assert np.array_equal(hv.weights_true.theta, expect.theta)
    assert np.array_equal(cav.weights_true.theta, true_style_weights(LANE_CHANGE, COMFORT).theta)


@pytest.mark.parametrize("entry", ["source_lane: 0, ", "target_lane: 1, ", "start_x: 2.0, "])
def test_load_config_refuses_a_lane_change_without_its_lanes_or_start(entry):
    key = entry.split(":")[0]
    assert entry in CONFIG_DOC
    with pytest.raises(ValueError,
                       match=re.escape(f"config field vehicles[1].behavior.{key} is missing")):
        load_config(CONFIG_DOC.replace(entry, "", 1))


def test_load_config_reads_integer_lists_and_exponent_strings():
    # PyYAML reads 1e-8 (no dot) as a string; it must still load as a number.
    doc = CONFIG_DOC.replace("horizon: 20", "horizon: 20\nstages: [1, 10, 20]\n"
                             "solver: {qp_tolerance: 1e-8, max_iterations: 40.0}", 1)
    scen = load_config(doc)
    assert scen.stages == (1, 10, 20)
    assert scen.solver.qp_tolerance == 1e-8
    assert scen.solver.max_iterations == 40 and isinstance(scen.solver.max_iterations, int)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["ts", "noise_std", "kappa_offline", "kappa_online",
                                  "omega_dist"])
def test_scenario_refuses_non_finite_settings(name, value):
    scen = default_offline_scenario()
    with pytest.raises(ValueError, match=f"^{name} must be a finite "):
        replace(scen, **{name: value})


# (field, a constructor that sets it to the given value), for every numeric
# field the scenario dataclasses check for finiteness.
NON_FINITE_FIELDS = [
    ("LaneGeometry.lane_count", lambda v: LaneGeometry(lane_count=v)),
    ("LaneGeometry.lane_width", lambda v: LaneGeometry(lane_width=v)),
    ("LaneGeometry.x_extent", lambda v: LaneGeometry(x_extent=(-200.0, v))),
    *((f"BoxLimits.{name}", lambda v, name=name: BoxLimits(**{name: v}))
      for name in ("v_min", "v_max", "a_min", "a_max", "delta_min", "delta_max")),
    ("BehaviorSpec.direction", lambda v: BehaviorSpec(kind=STRAIGHT, direction=(1.0, v))),
    *((f"BehaviorSpec.{name}", lambda v, name=name: BehaviorSpec(
        **{"kind": LANE_CHANGE, "source_lane": 0, "target_lane": 1, name: v}))
      for name in ("source_lane", "target_lane", "start_x", "transition_length")),
    ("StyleWeights.theta", lambda v: StyleWeights(np.array([1.0, 1.0, v, 1.0, 1.0, 1.0]))),
    ("StyleWeights.theta_min", lambda v: StyleWeights(np.ones(6), theta_min=v)),
    ("StyleWeights.theta_max", lambda v: StyleWeights(np.ones(6), theta_max=v)),
    ("ScenarioConfig.theta_min", lambda v: replace(default_offline_scenario(), theta_min=v)),
    ("ScenarioConfig.theta_max", lambda v: replace(default_offline_scenario(), theta_max=v)),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field, make", NON_FINITE_FIELDS, ids=[f for f, _ in NON_FINITE_FIELDS])
def test_a_non_finite_field_is_refused_at_construction_by_name(field, make, value):
    # Each of these once passed construction and failed deep in a solve, as
    # "QP data b_in has non-finite entries" for BoxLimits(v_max=nan) or as
    # "cannot convert float NaN to integer" for LaneGeometry(lane_width=nan).
    with pytest.raises(ValueError, match=rf"^{re.escape(field)} is not finite: "):
        make(value)


INTEGER_FIELDS = [(field, make) for field, make in NON_FINITE_FIELDS
                  if field in ("LaneGeometry.lane_count", "BehaviorSpec.source_lane",
                               "BehaviorSpec.target_lane")]


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize("field, make", INTEGER_FIELDS, ids=[f for f, _ in INTEGER_FIELDS])
def test_a_non_integral_lane_index_is_refused_at_construction_by_name(field, make, value):
    # LaneGeometry(lane_count=2.5) once solved and reported converged, and
    # lane_count=True failed later as "centerline index 1 out of range".
    with pytest.raises(ValueError, match=rf"^{re.escape(field)} is not an integer: "):
        make(value)


@pytest.mark.parametrize("theta_min, theta_max", [(0.0, 1.0), (-1e-3, 1.0), (2.0, 1.0),
                                                  (1.0, 1.0)])
@pytest.mark.parametrize("make", [
    lambda lo, hi: StyleWeights(np.full(6, 1.0), lo, hi),
    lambda lo, hi: replace(default_offline_scenario(), theta_min=lo, theta_max=hi),
], ids=["StyleWeights", "ScenarioConfig"])
def test_a_theta_box_without_0_lt_min_lt_max_is_refused(make, theta_min, theta_max):
    with pytest.raises(ValueError, match=r"\.theta_min must lie in \(0, theta_max\), got "
                                         rf"theta_min={theta_min}, theta_max={theta_max}$"):
        make(theta_min, theta_max)
