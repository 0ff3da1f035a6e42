import numpy as np
import pytest

from hypertraffic.constraints import (
    STEP_VARS,
    X_PSI,
    X_PX,
    X_PY,
    ConstraintSystem,
    RectangleFootprint,
    Segment,
    Strategy,
    assemble,
    behavior_rows,
    box_rows,
    collision_rows,
    collision_value,
    dynamics_rows,
    lane_rows,
    profile_violation,
)
from hypertraffic.dynamics import ControlInput, VehicleGeometry, VehicleState, linearize_discrete
from hypertraffic.scenario import default_offline_scenario, default_online_scenario

from _oracles import fd_gradient, loop_box_rows, loop_dynamics_rows


def _scen():
    return default_offline_scenario()


def _ref(scen, vid):
    return scen.references()[vid].window(1, scen.horizon)


def _seed_strategy(scen, vid):
    return Strategy.from_reference(_ref(scen, vid), Segment(1, scen.horizon))


def test_segment_basics():
    seg = Segment(1, 36)
    assert seg.n_steps == 35
    assert seg.n_vars == 210
    assert list(seg.decision_points()) == list(range(2, 37))
    with pytest.raises(ValueError):
        Segment(3, 3)


def test_strategy_round_trip():
    scen = _scen()
    ref = _ref(scen, 0)
    strat = _seed_strategy(scen, 0)
    assert strat.controls().shape == (35, 2)
    assert np.all(strat.controls() == 0.0)
    for k in strat.segment.decision_points():
        assert np.array_equal(strat.state_at(k).as_array(), ref.state(k))
    assert np.array_equal(strat.terminal_state().as_array(), ref.state(36))
    with pytest.raises(ValueError):
        strat.state_at(1)
    with pytest.raises(ValueError):
        Strategy(Segment(1, 3), np.zeros(5))


def test_rectangle_footprint_vertices():
    geo = VehicleGeometry()
    foot = RectangleFootprint(geo)
    verts = foot.vertices((10.0, 2.0, 0.0))
    l, w = geo.extended_length / 2.0, geo.extended_width / 2.0
    assert np.allclose(verts[0], [10.0 + l, 2.0 + w])
    assert np.allclose(verts[2], [10.0 - l, 2.0 - w])
    # a quarter turn swaps the roles of length and width
    turned = foot.vertices((0.0, 0.0, np.pi / 2.0))
    assert np.allclose(sorted(np.abs(turned[:, 0])), [w, w, w, w])
    assert np.allclose(sorted(np.abs(turned[:, 1])), [l, l, l, l])


def test_constraint_system_violation():
    sys = ConstraintSystem(
        a_eq=np.array([[1.0, 0.0]]),
        b_eq=np.array([1.0]),
        eq_tags=("eq",),
        a_in=np.array([[0.0, 1.0]]),
        b_in=np.array([0.0]),
        in_tags=("in",),
    )
    assert sys.violation(np.array([1.5, 0.7])) == pytest.approx(0.7)
    assert sys.violation(np.array([1.0, -0.3])) == 0.0
    with pytest.raises(ValueError):
        ConstraintSystem(
            a_eq=np.zeros((1, 2)), b_eq=np.zeros(2), eq_tags=("eq",),
            a_in=np.zeros((0, 2)), b_in=np.zeros(0), in_tags=(),
        )


def test_dynamics_rows_hold_on_straight_reference():
    # A constant-speed straight reference is an exact zero-control Euler
    # trajectory, so the reference-seeded strategy satisfies the rows exactly.
    scen = _scen()
    ref = _ref(scen, 0)
    a_eq, b_eq, tags = dynamics_rows(ref, scen.vehicle(0).geometry)
    assert a_eq.shape == (4 * 35, 6 * 35)
    assert set(tags) == {"dynamics"}
    strat = _seed_strategy(scen, 0)
    assert np.max(np.abs(a_eq @ strat.data - b_eq)) < 1e-9


def test_dynamics_rows_initial_state_only_moves_first_block():
    scen = _scen()
    ref = _ref(scen, 0)
    geo = scen.vehicle(0).geometry
    a1, b1, _ = dynamics_rows(ref, geo)
    shifted = VehicleState.from_array(ref.states[0] + np.array([0.5, 0.1, 0.2, 0.01]))
    a2, b2, _ = dynamics_rows(ref, geo, initial_state=shifted)
    assert np.array_equal(a1, a2)
    assert np.any(b1[:4] != b2[:4])
    assert np.array_equal(b1[4:], b2[4:])


@pytest.mark.parametrize("vid", [0, 1])
def test_dynamics_rows_are_the_zero_control_linearization(vid):
    # Block j chains x(j+1) = A_j x(j) + B_j u(j) + c_j, linearized at the
    # reference state j with zero control: [-B_j | I] on its own step,
    # -A_j on the previous state, c_j (plus A_0 x0 on the first) on the right.
    scen = _scen()
    ref = _ref(scen, vid)
    geo = scen.vehicle(vid).geometry
    x0 = VehicleState.from_array(ref.states[0] + np.array([0.5, 0.1, 0.2, 0.01]))
    a_eq, b_eq, _ = dynamics_rows(ref, geo, initial_state=x0)
    n = len(ref) - 1
    for j in range(n):
        lin = linearize_discrete(VehicleState.from_array(ref.states[j]), ControlInput(0.0, 0.0),
                                 geo, ref.ts)
        rows = a_eq[4 * j : 4 * j + 4]
        own = slice(STEP_VARS * j, STEP_VARS * (j + 1))
        assert np.array_equal(rows[:, own], np.hstack([-lin.b_mat, np.eye(4)]))
        if j:
            prev = slice(STEP_VARS * (j - 1) + X_PX, STEP_VARS * j)
            assert np.array_equal(rows[:, prev], -lin.a_mat)
            assert np.array_equal(b_eq[4 * j : 4 * j + 4], lin.c_vec)
            rest = np.delete(rows, np.r_[prev, own], axis=1)
        else:
            assert np.array_equal(b_eq[:4], lin.a_mat @ x0.as_array() + lin.c_vec)
            rest = np.delete(rows, np.r_[own], axis=1)
        assert not np.any(rest)


@pytest.mark.parametrize("make_scenario", [default_offline_scenario, default_online_scenario])
def test_vectorized_rows_match_the_loop_oracles(make_scenario):
    # Box rows only place +-1 entries, so they must agree exactly; dynamics
    # rows use numpy's cos/sin where the oracle uses math's, so allow a few
    # units in the last place.
    scen = make_scenario()
    for segment in (Segment(1, scen.horizon), Segment(13, 25)):
        a_box, b_box, _ = box_rows(scen.limits, segment)
        o_a, o_b = loop_box_rows(scen.limits, segment.n_steps)
        assert np.array_equal(a_box, o_a) and np.array_equal(b_box, o_b)
        for vid, full in scen.references().items():
            ref = full.window(segment.start, segment.stop)
            x0 = ref.states[0] + np.array([0.3, -0.1, 0.2, 0.02])
            geo = scen.vehicle(vid).geometry
            a_eq, b_eq, _ = dynamics_rows(ref, geo, VehicleState.from_array(x0))
            o_a, o_b = loop_dynamics_rows(ref.states, ref.ts, geo.length, x0)
            tol = 8 * np.finfo(float).eps
            assert np.allclose(a_eq, o_a, rtol=tol, atol=tol)
            assert np.allclose(b_eq, o_b, rtol=tol, atol=tol * np.max(np.abs(o_b)))


def test_box_rows_localize_violations():
    scen = _scen()
    seg = Segment(1, scen.horizon)
    a_in, b_in, tags = box_rows(scen.limits, seg)
    n = seg.n_steps
    assert a_in.shape == (6 * n, seg.n_vars)
    assert set(tags) == {"box"}
    strat = _seed_strategy(scen, 0)
    assert np.max(a_in @ strat.data - b_in) < 0.0

    bumped = strat.data.copy()
    bumped[STEP_VARS * 7 + 4] = scen.limits.v_max + 0.5  # X_V of step 7
    resid = a_in @ bumped - b_in
    assert np.sum(resid > 1e-12) == 1
    assert np.max(resid) == pytest.approx(0.5)

    bumped = strat.data.copy()
    bumped[STEP_VARS * 3 + 1] = scen.limits.delta_min - 0.3  # U_DELTA of step 3
    resid = a_in @ bumped - b_in
    assert np.sum(resid > 1e-12) == 1
    assert np.max(resid) == pytest.approx(0.3)


def test_lane_rows_contain_centerline_and_flag_departure():
    scen = _scen()
    hv = scen.vehicle(0)
    ref = _ref(scen, 0)
    lanes = hv.behavior.permitted_lanes(scen.road, hv.initial.p_y)
    a_in, b_in, tags = lane_rows(ref, hv.geometry, scen.road, lanes)
    n = len(ref) - 1
    assert a_in.shape == (8 * n, STEP_VARS * n)
    assert set(tags) == {"lane"}
    strat = _seed_strategy(scen, 0)
    # centered in the lane: every vertex clears the band by half a lane minus
    # half the extended width
    margin = scen.road.lane_width / 2.0 - hv.geometry.extended_width / 2.0
    assert np.max(a_in @ strat.data - b_in) == pytest.approx(-margin, abs=1e-9)

    shifted = strat.data.copy()
    shifted[X_PY::STEP_VARS] += 2.2
    assert np.max(a_in @ shifted - b_in) == pytest.approx(2.2 - margin, abs=1e-9)


def test_collision_value_geometry():
    geo = VehicleGeometry()
    ax = (geo.length + geo.diagonal) / 2.0
    by = (geo.width + geo.diagonal) / 2.0
    assert collision_value((0.0, 0.0, 0.0), (0.0, 0.0), geo) == pytest.approx(1.0)
    assert collision_value((0.0, 0.0, 0.0), (ax, 0.0), geo) == pytest.approx(0.0, abs=1e-12)
    assert collision_value((0.0, 0.0, 0.0), (0.0, by), geo) == pytest.approx(0.0, abs=1e-12)
    assert collision_value((0.0, 0.0, 0.0), (ax + 0.2, 0.0), geo) < 0.0
    assert collision_value((0.0, 0.0, 0.0), (30.0, 0.0), geo) < -100.0
    # rotating the frame with the body leaves the value unchanged
    psi = 0.7
    rot = np.array([[np.cos(psi), -np.sin(psi)], [np.sin(psi), np.cos(psi)]])
    spun = rot @ np.array([ax, 0.0])
    assert collision_value((0.0, 0.0, psi), spun, geo) == pytest.approx(0.0, abs=1e-12)


def test_collision_rows_reproduce_nonlinear_value_at_reference():
    scen = _scen()
    ref = _ref(scen, 0)
    geo = scen.vehicle(0).geometry
    opp = _seed_strategy(scen, 1)
    a_in, rhs, tags = collision_rows(ref, opp, geo, 1)
    n = len(ref) - 1
    assert a_in.shape == (n, STEP_VARS * n)
    assert set(tags) == {"collision(1)"}
    own = _seed_strategy(scen, 0)
    lin_at_ref = a_in @ own.data - rhs
    opp_pos = opp.positions()
    for k in range(n):
        pose = ref.states[k + 1]
        truth = collision_value((pose[0], pose[1], pose[3]), opp_pos[k], geo)
        assert lin_at_ref[k] == pytest.approx(truth, abs=1e-9)


def test_collision_row_gradient_matches_finite_differences():
    scen = _scen()
    ref = _ref(scen, 0)
    geo = scen.vehicle(0).geometry
    opp = _seed_strategy(scen, 1)
    a_in, _, _ = collision_rows(ref, opp, geo, 1)
    opp_pos = opp.positions()
    for k in (5, 20, 34):
        pose = ref.states[k + 1]
        target = opp_pos[k]

        def h_of(pose3):
            return collision_value(pose3, target, geo)

        grad = fd_gradient(h_of, np.array([pose[0], pose[1], pose[3]]))
        cols = STEP_VARS * k
        row = np.array([a_in[k, cols + X_PX], a_in[k, cols + X_PY], a_in[k, cols + X_PSI]])
        assert np.max(np.abs(row - grad)) <= 1e-6 * (1.0 + np.max(np.abs(grad)))


def test_collision_rows_segment_mismatch():
    scen = _scen()
    ref = _ref(scen, 0)
    short = Strategy.from_reference(
        scen.references()[1].window(1, 10), Segment(1, 10)
    )
    with pytest.raises(ValueError):
        collision_rows(ref, short, scen.vehicle(0).geometry, 1)


def test_behavior_rows_straight_pins_heading():
    scen = _scen()
    hv = scen.vehicle(0)
    ref = _ref(scen, 0)
    a, b, tags, is_eq = behavior_rows(hv.behavior, ref, scen.road)
    assert is_eq
    n = len(ref) - 1
    assert a.shape == (n, STEP_VARS * n)
    assert set(tags) == {"behavior"}
    strat = _seed_strategy(scen, 0)
    assert np.max(np.abs(a @ strat.data - b)) < 1e-12


def test_behavior_rows_lane_change_is_one_sided():
    scen = _scen()
    cav = scen.vehicle(1)
    ref = _ref(scen, 1)
    a, b, tags, is_eq = behavior_rows(cav.behavior, ref, scen.road)
    assert not is_eq
    strat = _seed_strategy(scen, 1)
    # the reference starts on the source centerline (boundary of the halfspace)
    # and crosses toward the target, so it never violates
    assert np.max(a @ strat.data - b) <= 1e-9
    # backing toward the source lane interior does
    wrong_way = strat.data.copy()
    wrong_way[X_PY::STEP_VARS] -= 0.5
    assert np.max(a @ wrong_way - b) == pytest.approx(0.5, abs=1e-9)


def test_assemble_counts_and_tag_order():
    scen = _scen()
    n = scen.horizon - 1
    opponents = {vid: _seed_strategy(scen, vid) for vid in (1, 2, 3)}

    sys_hv = assemble(0, opponents, scen)
    assert sys_hv.a_eq.shape[0] == 4 * n + n  # dynamics plus pinned heading
    assert sys_hv.a_in.shape[0] == 6 * n + 8 * n + 3 * n
    tags = sys_hv.in_tags
    assert set(tags[: 6 * n]) == {"box"}
    assert set(tags[6 * n : 14 * n]) == {"lane"}
    assert set(tags[14 * n : 15 * n]) == {"collision(1)"}
    assert set(tags[15 * n : 16 * n]) == {"collision(2)"}
    assert set(tags[16 * n :]) == {"collision(3)"}

    opponents_of_1 = {vid: _seed_strategy(scen, vid) for vid in (0, 2, 3)}
    sys_cav = assemble(1, opponents_of_1, scen)
    assert sys_cav.a_eq.shape[0] == 4 * n  # lane change has no heading pin
    assert sys_cav.a_in.shape[0] == 6 * n + 8 * n + 3 * n + n
    assert set(sys_cav.in_tags[17 * n :]) == {"behavior"}


def test_assemble_rejects_self_opponent_and_short_reference():
    scen = _scen()
    with pytest.raises(ValueError):
        assemble(0, {0: _seed_strategy(scen, 0)}, scen)
    with pytest.raises(ValueError):
        assemble(0, {}, scen, reference=scen.references()[0].window(1, 10))


def test_profile_violation_clean_and_overlapping():
    scen = _scen()
    clean = {0: _seed_strategy(scen, 0), 3: _seed_strategy(scen, 3)}
    assert profile_violation(clean, scen) == 0.0

    # HV and the merging vehicle end up sharing the lane a car length apart,
    # which the keep-out test flags; the direct double loop is the oracle.
    tangled = {0: _seed_strategy(scen, 0), 1: _seed_strategy(scen, 1)}
    expect = 0.0
    for vid, other in ((0, 1), (1, 0)):
        states = tangled[vid].states()
        opp = tangled[other].positions()
        geo = scen.vehicle(vid).geometry
        for row, pos in zip(states, opp):
            expect = max(expect, collision_value((row[0], row[1], row[3]), pos, geo))
    assert expect > 0.0
    assert profile_violation(tangled, scen) == pytest.approx(expect)
