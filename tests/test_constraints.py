from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypertraffic.constraints import (
    STEP_VARS,
    X_PSI,
    X_PX,
    X_PY,
    X_V,
    Segment,
    Strategy,
    assemble,
    behavior_rows,
    body_offsets,
    box_rows,
    collision_rows,
    dynamics_rows,
    keep_out_axes,
    lane_rows,
    pose_columns,
    profile_violation,
    stack_dense,
    start_state,
    static_rows,
)
from hypertraffic.dynamics import (ControlInput, VehicleGeometry, VehicleState, linearize_discrete,
                                  linearize_steps)
from hypertraffic.qp import SparseRows
from hypertraffic.scenario import (
    default_offline_scenario,
    default_online_scenario,
    success_study_scenario,
)

from _oracles import (
    VIOLATION_FAMILIES,
    ConstraintSystem,
    collision_value,
    dense_behavior_rows,
    dense_box_rows,
    dense_collision_rows,
    dense_dynamics_rows,
    dense_lane_rows,
    densify,
    fd_gradient,
    footprint_vertices,
    loop_box_rows,
    loop_dynamics_rows,
    loop_lane_rows,
    loop_profile_violation,
    system_violation,
)


def _scen():
    return default_offline_scenario()


def _ref(scen, vid):
    return scen.references()[vid].window(1, scen.horizon)


def _seed_strategy(scen, vid):
    return Strategy.from_reference(_ref(scen, vid), Segment(1, scen.horizon))


def _collision_block(reference, opponent_strategy, geometry, opponent_id):
    """One player's keep-out rows as (rows, rhs, tags), from a one-player
    `collision_rows` call, as `assemble` forms them."""
    (grad,), (rhs,) = collision_rows(reference.states[None, 1:], (keep_out_axes(geometry),),
                                     opponent_strategy)
    n = len(reference) - 1
    return (SparseRows(pose_columns(n), grad, STEP_VARS * n), rhs,
            (f"collision({opponent_id})",) * n)


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
    assert strat.blocks().shape == (35, 6)
    assert np.all(strat.blocks()[:, :X_PX] == 0.0)
    for j, k in enumerate(strat.segment.decision_points()):
        assert np.array_equal(strat.states()[j], ref.states[k - ref.start])
    assert np.array_equal(strat.terminal_state().as_array(), ref.states[36 - ref.start])
    with pytest.raises(ValueError):
        Strategy(Segment(1, 3), np.zeros(5))


def test_rectangle_footprint_vertices():
    geo = VehicleGeometry()
    verts = footprint_vertices(geo, (10.0, 2.0, 0.0))
    l, w = geo.extended_length / 2.0, geo.extended_width / 2.0
    assert np.allclose(verts[0], [10.0 + l, 2.0 + w])
    assert np.allclose(verts[2], [10.0 - l, 2.0 - w])
    # a quarter turn swaps the roles of length and width
    turned = footprint_vertices(geo, (0.0, 0.0, np.pi / 2.0))
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
    assert system_violation(sys, np.array([1.5, 0.7])) == pytest.approx(0.7)
    assert system_violation(sys, np.array([1.0, -0.3])) == 0.0
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
    assert np.array_equal(densify(a1), densify(a2))
    assert np.any(b1[:4] != b2[:4])
    assert np.array_equal(b1[4:], b2[4:])


@pytest.mark.parametrize("vid", [0, 1])
def test_dynamics_rows_are_the_zero_control_linearization(vid):
    # Block j chains x(j+1) = A_j x(j) + B_j u(j) + c_j, linearized at the
    # reference state j with zero control and zero position (A is the
    # identity on the position, so c is the same at any): [-B_j | I] on its
    # own step, -A_j on the previous state, c_j (plus A_0 x0 on the first)
    # on the right.
    scen = _scen()
    ref = _ref(scen, vid)
    geo = scen.vehicle(vid).geometry
    x0 = VehicleState.from_array(ref.states[0] + np.array([0.5, 0.1, 0.2, 0.01]))
    a_eq, b_eq, _ = dynamics_rows(ref, geo, initial_state=x0)
    a_eq = densify(a_eq)
    n = len(ref) - 1
    for j in range(n):
        nominal = VehicleState(0.0, 0.0, ref.states[j][2], ref.states[j][3])
        lin = linearize_discrete(nominal, ControlInput(0.0, 0.0), geo, ref.ts)
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


@pytest.mark.parametrize(
    "make_scenario", [default_offline_scenario, default_online_scenario, success_study_scenario]
)
def test_vectorized_rows_match_the_loop_oracles(make_scenario):
    # Box rows only place +-1 entries and lane rows do the oracle's
    # arithmetic in the same order, so both must agree exactly; dynamics
    # rows use numpy's cos/sin where the oracle uses math's, so allow a few
    # units in the last place. Every family's sparse rows, densified, are
    # exactly the dense rows the library built before they became sparse.
    scen = make_scenario()
    for segment in (Segment(1, scen.horizon), Segment(13, 25)):
        box = box_rows(scen.limits, segment)
        a_box, b_box = densify(box[0]), box[1]
        o_a, o_b = loop_box_rows(scen.limits, segment.n_steps)
        assert np.array_equal(a_box, o_a) and np.array_equal(b_box, o_b)
        _assert_dense_equal(box, dense_box_rows(scen.limits, segment))
        full_refs = scen.references()
        for vid, full in full_refs.items():
            ref = full.window(segment.start, segment.stop)
            x0 = ref.states[0] + np.array([0.3, -0.1, 0.2, 0.02])
            geo = scen.vehicle(vid).geometry
            dynamics = dynamics_rows(ref, geo, VehicleState.from_array(x0))
            a_eq, b_eq = densify(dynamics[0]), dynamics[1]
            o_a, o_b = loop_dynamics_rows(ref.states, ref.ts, geo.length, x0)
            tol = 8 * np.finfo(float).eps
            assert np.allclose(a_eq, o_a, rtol=tol, atol=tol)
            assert np.allclose(b_eq, o_b, rtol=tol, atol=tol * np.max(np.abs(o_b)))
            _assert_dense_equal(dynamics, dense_dynamics_rows(ref, geo, VehicleState.from_array(x0)))
            vehicle = scen.vehicle(vid)
            lanes = vehicle.behavior.permitted_lanes(scen.road, vehicle.initial.p_y)
            lane = lane_rows(ref, geo, scen.road, lanes)
            a_lane, b_lane = densify(lane[0]), lane[1]
            o_a, o_b = loop_lane_rows(ref, geo, scen.road, lanes)
            assert np.array_equal(a_lane, o_a) and np.array_equal(b_lane, o_b)
            _assert_dense_equal(lane, dense_lane_rows(ref, geo, scen.road, lanes))
            _assert_dense_equal(behavior_rows(vehicle.behavior, ref, scen.road),
                                dense_behavior_rows(vehicle.behavior, ref, scen.road))
            for other in sorted(set(full_refs) - {vid}):
                opp = Strategy.from_reference(full_refs[other].window(segment.start, segment.stop),
                                              segment)
                _assert_dense_equal(_collision_block(ref, opp, geo, other),
                                    dense_collision_rows(ref, opp, geo, other))


@pytest.mark.parametrize(
    "make_scenario", [default_offline_scenario, default_online_scenario, success_study_scenario]
)
def test_collision_rows_of_a_stack_of_players_equal_one_call_per_player(make_scenario):
    # On the full horizon and on an online stage's window, the rows of every
    # player against one opponent strategy, built in one call, are bitwise
    # those of one call per player, and so the dense oracle's rows exactly.
    scen = make_scenario()
    full_refs = scen.references()
    ids = sorted(full_refs)
    for segment in (Segment(1, scen.horizon), Segment(13, 25)):
        refs = {vid: full_refs[vid].window(segment.start, segment.stop) for vid in ids}
        poses = np.stack([refs[vid].states[1:] for vid in ids])
        axes = [keep_out_axes(scen.vehicle(vid).geometry) for vid in ids]
        for other in ids:
            opp = Strategy.from_reference(refs[other], segment)
            grad, rhs = collision_rows(poses, axes, opp)
            assert grad.shape == (len(ids), segment.n_steps, 3)
            assert rhs.shape == (len(ids), segment.n_steps)
            for k, vid in enumerate(ids):
                (one_grad,), (one_rhs,) = collision_rows(poses[k:k + 1], axes[k:k + 1], opp)
                assert np.array_equal(grad[k].view(np.uint64), one_grad.view(np.uint64))
                assert np.array_equal(rhs[k].view(np.uint64), one_rhs.view(np.uint64))
                if vid != other:
                    geo = scen.vehicle(vid).geometry
                    block = (SparseRows(pose_columns(segment.n_steps), grad[k], segment.n_vars),
                             rhs[k], (f"collision({other})",) * segment.n_steps)
                    _assert_dense_equal(block, dense_collision_rows(refs[vid], opp, geo, other))


def _dense_block(rows):
    """One block made dense by a `bincount` of its own."""
    m, n = rows.shape
    flat = np.arange(m)[:, None] * n + rows.cols
    return np.bincount(flat.ravel(), rows.coef.ravel(), m * n).reshape(m, n)


@pytest.mark.parametrize(
    "make_scenario", [default_offline_scenario, default_online_scenario, success_study_scenario]
)
def test_stack_dense_equals_the_dense_blocks_stacked_bitwise(make_scenario):
    # One write of A over every block's flat indices gives the bits of each
    # block made dense on its own by a `bincount` and stacked, as A was
    # written before, repeated columns included.
    scen = make_scenario()
    for segment in (Segment(1, scen.horizon), Segment(13, 25)):
        refs = {vid: full.window(segment.start, segment.stop)
                for vid, full in scen.references().items()}
        for vid, ref in refs.items():
            vehicle = scen.vehicle(vid)
            rows = static_rows(vehicle, scen, segment, ref, start_state(vehicle, segment, ref))
            collisions = tuple(_collision_block(ref, Strategy.from_reference(refs[k], segment),
                                                vehicle.geometry, k)
                               for k in sorted(set(refs) - {vid}))
            for blocks in (rows.eq, rows.head + collisions + rows.tail):
                a, b, tags = stack_dense(blocks)
                want = np.vstack([_dense_block(block) for block, _, _ in blocks])
                assert a.shape == want.shape
                assert np.array_equal(a.view(np.uint64), want.view(np.uint64))
                assert np.array_equal(b, np.concatenate([rhs for _, rhs, _ in blocks]))
                assert tags == sum((t for _, _, t in blocks), ())


def _assert_dense_equal(sparse, dense):
    """A sparse builder's output, densified, equals the dense builder's."""
    rows, *rest = sparse
    want, *want_rest = dense
    assert rows.shape == want.shape and np.array_equal(densify(rows), want)
    assert np.array_equal(rest[0], want_rest[0]) and tuple(rest[1:]) == tuple(want_rest[1:])


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
    a_in, rhs, tags = _collision_block(ref, opp, geo, 1)
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
    a_in = densify(_collision_block(ref, opp, geo, 1)[0])
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
    with pytest.raises(ValueError, match="does not cover the player's segment"):
        collision_rows(ref.states[None, 1:], (keep_out_axes(scen.vehicle(0).geometry),), short)


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
    # `assemble` lays out the inequality stack in solver order: the static
    # head, one keep-out slot per opponent by ascending id, the static tail.
    scen = _scen()
    n = scen.horizon - 1
    segment = Segment(1, scen.horizon)

    def stacked(vid, opponent_ids):
        vehicle, ref = scen.vehicle(vid), _ref(scen, vid)
        rows = static_rows(vehicle, scen, segment, ref, start_state(vehicle, segment, ref))
        # Given out of order, to show the slots come by ascending id.
        stack = assemble(rows, n, reversed(opponent_ids))
        assert list(stack.slots) == sorted(opponent_ids)
        return rows, stack

    rows_hv, stack = stacked(0, (1, 2, 3))
    tags = stack.tags
    assert sum(b.size for _, b, _ in rows_hv.eq) == 4 * n + n  # dynamics plus pinned heading
    assert len(tags) == 6 * n + 8 * n + 3 * n == stack.rows.shape[0] == stack.b.size
    assert set(tags[: 6 * n]) == {"box"}
    assert set(tags[6 * n : 14 * n]) == {"lane"}
    assert set(tags[14 * n : 15 * n]) == {"collision(1)"}
    assert set(tags[15 * n : 16 * n]) == {"collision(2)"}
    assert set(tags[16 * n :]) == {"collision(3)"}
    assert [stack.slots[k] for k in (1, 2, 3)] == [slice(14 * n + k * n, 15 * n + k * n)
                                                  for k in range(3)]

    rows_cav, stack = stacked(1, (0, 2, 3))
    tags = stack.tags
    assert sum(b.size for _, b, _ in rows_cav.eq) == 4 * n  # lane change has no heading pin
    assert len(tags) == 6 * n + 8 * n + 3 * n + n
    assert set(tags[14 * n : 15 * n]) == {"collision(0)"}
    assert set(tags[17 * n :]) == {"behavior"}


def test_assemble_stacks_the_static_blocks_and_fills_a_slot_by_keep_out():
    # The stack densifies to the static head, zero rows in each empty slot
    # and the static tail; `keep_out` writes one slot's rows and b, bitwise
    # a one-player `collision_rows` block, and leaves every other row as it
    # was. The rows themselves stay read-only.
    scen = _scen()
    segment = Segment(1, scen.horizon)
    n = segment.n_steps
    vehicle, ref = scen.vehicle(1), _ref(scen, 1)
    rows = static_rows(vehicle, scen, segment, ref, start_state(vehicle, segment, ref))
    stack = assemble(rows, n, (0, 2, 3))
    head = stack_dense(rows.head)
    tail = stack_dense(rows.tail)
    empty = np.zeros((3 * n, segment.n_vars))
    assert np.array_equal(densify(stack.rows), np.vstack([head[0], empty, tail[0]]))
    assert np.array_equal(stack.b, np.concatenate([head[1], np.zeros(3 * n), tail[1]]))
    assert np.array_equal(stack.rows.cols[stack.slots[2], :3], pose_columns(n))
    before = densify(stack.rows), stack.b.copy()
    block = _collision_block(ref, _seed_strategy(scen, 2), vehicle.geometry, 2)
    stack.keep_out(2, block[0].coef, block[1])
    span = stack.slots[2]
    after = densify(stack.rows)
    assert np.array_equal(after[span], densify(block[0]))
    assert np.array_equal(stack.b[span], block[1]) and stack.tags[span] == block[2]
    others = np.ones(stack.b.size, dtype=bool)
    others[span] = False
    assert np.array_equal(after[others], before[0][others])
    assert np.array_equal(stack.b[others], before[1][others])
    assert not stack.rows.coef.flags.writeable and not stack.rows.cols.flags.writeable


@pytest.mark.parametrize("start, stop", [(1, 36), (5, 12), (35, 36)])
def test_strategy_from_reference_copies_every_decision_state(start, stop):
    ref = default_offline_scenario().references()[2]
    segment = Segment(start, stop)
    strat = Strategy.from_reference(ref, segment)
    assert not strat.blocks()[:, :X_PX].any()
    for j, k in enumerate(segment.decision_points()):
        assert np.array_equal(strat.states()[j], ref.states[k - ref.start])


@pytest.mark.parametrize("window, segment", [((3, 20), (1, 10)), ((1, 9), (1, 10)),
                                             ((4, 30), (2, 8))])
def test_strategy_from_reference_refuses_a_reference_short_of_the_segment(window, segment):
    ref = default_offline_scenario().references()[0].window(*window)
    with pytest.raises(ValueError, match="does not cover the decision points"):
        Strategy.from_reference(ref, Segment(*segment))


def test_profile_violation_clean_and_overlapping():
    scen = _scen()
    clean = {0: _seed_strategy(scen, 0), 3: _seed_strategy(scen, 3)}
    assert profile_violation(clean, scen) == 0.0

    # HV and the merging vehicle end up sharing the lane a car length apart,
    # which the keep-out test flags; the loop over steps and pairs is the oracle.
    tangled = {0: _seed_strategy(scen, 0), 1: _seed_strategy(scen, 1)}
    expect = loop_profile_violation(tangled, scen, ("keep_out",))
    assert expect > 0.0
    assert loop_profile_violation(tangled, scen) == expect
    assert profile_violation(tangled, scen) == pytest.approx(expect)


SCENARIOS = (default_offline_scenario, default_online_scenario, success_study_scenario)


@settings(max_examples=150, deadline=None)
@given(
    make=st.sampled_from(SCENARIOS),
    ids=st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True),
    family=st.sampled_from((None,) + VIOLATION_FAMILIES),
    scale=st.sampled_from((0.0, 0.01, 0.3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_profile_violation_matches_the_loop_oracle(make, ids, family, scale, seed):
    """Perturbed profiles of 1-4 players; a draw that pushes one family
    makes it the worst, so each family leads in some draws."""
    scen = make()
    rng = np.random.default_rng(seed)
    other = next(v for v in ids + [0] if v != 1)
    if family == "keep_out":
        ids = sorted(set(ids[:2]) | {1, other})
    profile = {}
    for vid in ids:
        data = _seed_strategy(scen, vid).data
        profile[vid] = Strategy(Segment(1, scen.horizon), data + scale * rng.normal(size=data.size))
    vid, step = min(ids), int(rng.integers(scen.horizon - 1))
    blocks = profile[vid].blocks()  # a view: edits reach the strategy
    if family == "box":
        blocks[step, X_V] = scen.limits.v_max + 10.0
    elif family == "lane":
        blocks[step, X_PY] += 3.0 * scen.road.lane_width
    elif family == "keep_out":
        # The lane changer's band holds every lane, so it can sit on anyone.
        profile[1].blocks()[step, X_PX:X_PY + 1] = profile[other].blocks()[step, X_PX:X_PY + 1]

    expect = loop_profile_violation(profile, scen)
    got = profile_violation(profile, scen)
    assert abs(got - expect) <= 1e-12 * (1.0 + abs(expect))
    if family is not None and scale <= 0.01:
        worst = {f: loop_profile_violation(profile, scen, (f,)) for f in VIOLATION_FAMILIES}
        assert max(worst, key=worst.get) == family


EPS = np.finfo(float).eps


@pytest.mark.parametrize("make_scenario", SCENARIOS)
def test_the_product_and_position_free_spellings_match_the_textbook_forms(make_scenario):
    # The rows write the keep-out powers as products of u = rx / a, and take
    # the dynamics' affine terms and the lane right-hand sides with the
    # positions cancelled analytically. The textbook spellings, `**` and the
    # linearization at the reference with its positions left in, agree with
    # them to 16 ulps of the sum of the magnitudes each entry is formed from.
    scen = make_scenario()
    full_refs = scen.references()
    for segment in (Segment(1, scen.horizon), Segment(13, 25)):
        refs = {vid: full.window(segment.start, segment.stop) for vid, full in full_refs.items()}
        for vid, ref in refs.items():
            vehicle = scen.vehicle(vid)
            geo = vehicle.geometry
            poses = ref.states[1:]
            x0 = VehicleState.from_array(ref.states[0] + np.array([0.3, -0.1, 0.2, 0.02]))
            # Dynamics: c with the positions left in, and A_0 x0 on the first step.
            a_mat, _, c_vec = linearize_steps(ref.states[:-1], np.zeros((len(poses), 2)), geo,
                                              ref.ts)
            want = c_vec.reshape(-1)
            want[:4] += a_mat[0] @ x0.as_array()
            scale = 1.0 + np.abs(ref.states[:-1]).sum(axis=1).repeat(4)
            scale[:4] += np.abs(a_mat[0]) @ np.abs(x0.as_array())
            got = dynamics_rows(ref, geo, x0)[1]
            assert np.all(np.abs(got - want) <= 16 * EPS * scale), vid
            # Lane: grad f . pose - f at each vertex of the reference pose.
            lanes = sorted(vehicle.behavior.permitted_lanes(scen.road, vehicle.initial.p_y))
            bounds = (lanes[0], lanes[-1] + 1)
            band_mid = 0.5 * (scen.road.boundary_y(bounds[0]) + scen.road.boundary_y(bounds[1]))
            lx, wy = body_offsets(geo).T
            cos, sin = np.cos(poses[:, 3])[:, None], np.sin(poses[:, 3])[:, None]
            vx = poses[:, 0, None] + lx * cos - wy * sin
            vy = poses[:, 1, None] + lx * sin + wy * cos
            want, scale = [], []
            for bound in bounds:
                a, b, c = scen.road.tangent_at(scen.road.boundary_y(bound), poses[0, :2],
                                               (poses[0, 0], band_mid))
                dpsi = a * (-lx * sin - wy * cos) + b * (lx * cos - wy * sin)
                terms = (a * poses[:, 0, None], b * poses[:, 1, None], dpsi * poses[:, 3, None],
                         -(a * vx + b * vy + c))
                want.append(sum(terms).reshape(-1))
                scale.append((sum(np.abs(t) for t in terms) + np.abs(a * vx) + np.abs(b * vy)
                              + abs(c)).reshape(-1))
            got = lane_rows(ref, geo, scen.road, lanes)[1]
            assert np.all(np.abs(got - np.concatenate(want))
                          <= 16 * EPS * np.concatenate(scale)), vid
            # Keep-out: 1 - (rx / a)**6 - (ry / b)**6 and its gradient by powers.
            ax, by = keep_out_axes(geo)
            for other in sorted(set(refs) - {vid}):
                opp = Strategy.from_reference(refs[other], segment).positions()
                (grad,), (got,) = collision_rows(poses[None], (keep_out_axes(geo),),
                                                 Strategy.from_reference(refs[other], segment))
                cos, sin = np.cos(poses[:, 3]), np.sin(poses[:, 3])
                dx, dy = opp[:, 0] - poses[:, 0], opp[:, 1] - poses[:, 1]
                rx, ry = cos * dx + sin * dy, -sin * dx + cos * dy
                h = 1.0 - (rx / ax) ** 6 - (ry / by) ** 6
                gx, gy = 6.0 * rx**5 / ax**6, 6.0 * ry**5 / by**6
                want_grad = np.column_stack([gx * cos - gy * sin, gx * sin + gy * cos,
                                             -gx * ry + gy * rx])
                grad_scale = (np.abs(gx) + np.abs(gy)) * (1.0 + np.abs(rx) + np.abs(ry))
                assert np.all(np.abs(grad - want_grad) <= 16 * EPS * grad_scale[:, None]), vid
                want = (want_grad * poses[:, [0, 1, 3]]).sum(axis=1) - h
                scale = (grad_scale * np.abs(poses[:, [0, 1, 3]]).sum(axis=1)
                         + 1.0 + (rx / ax) ** 6 + (ry / by) ** 6)
                assert np.all(np.abs(got - want) <= 16 * EPS * scale), vid


@settings(max_examples=40, deadline=None)
@given(make=st.sampled_from(SCENARIOS), vid=st.integers(0, 3), start=st.sampled_from((1, 13)),
       shift=st.tuples(st.floats(-150.0, 150.0), st.floats(-3.0, 3.0)))
def test_translating_a_reference_leaves_the_affine_terms_and_lane_sides_bitwise(make, vid, start,
                                                                               shift):
    # c and the lane right-hand sides read the reference's v and psi only, so
    # moving its positions (on the road) changes none of their bits; the
    # dynamics rows are taken at the same start state.
    scen = make()
    ref = scen.references()[vid].window(start, start + 12)
    states = ref.states.copy()
    states[:, :2] += shift
    moved = replace(ref, states=states)
    vehicle = scen.vehicle(vid)
    lanes = vehicle.behavior.permitted_lanes(scen.road, vehicle.initial.p_y)
    x0 = VehicleState.from_array(ref.states[0])
    for build in (lambda r: dynamics_rows(r, vehicle.geometry, x0),
                  lambda r: lane_rows(r, vehicle.geometry, scen.road, lanes)):
        (rows, rhs, _), (rows_moved, rhs_moved, _) = build(ref), build(moved)
        assert np.array_equal(rhs.view(np.uint64), rhs_moved.view(np.uint64))
        assert np.array_equal(rows.coef.view(np.uint64), rows_moved.coef.view(np.uint64))
