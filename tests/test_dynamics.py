import math

import numpy as np
import pytest

from hypertraffic.dynamics import (
    ControlInput,
    VehicleGeometry,
    VehicleState,
    euler_step,
    linearize_discrete,
    linearize_steps,
    rollout,
)

from _oracles import fd_step_jacobians, random_nominal


def test_rhs_hand_values():
    geo = VehicleGeometry()
    state = VehicleState(p_x=0.0, p_y=0.0, v=10.0, psi=0.1)
    control = ControlInput(a=1.0, delta=0.2)
    rhs = (euler_step(state, control, geo, 0.1).as_array() - state.as_array()) / 0.1
    assert abs(rhs[0] - 10.0 * math.cos(0.1)) < 1e-12
    assert abs(rhs[1] - 10.0 * math.sin(0.1)) < 1e-12
    assert abs(rhs[2] - 1.0) < 1e-12
    assert abs(rhs[3] - 10.0 * math.tan(0.2) / geo.length) < 1e-12


def test_steering_domain():
    geo = VehicleGeometry()
    state = VehicleState(0.0, 0.0, 5.0, 0.0)
    with pytest.raises(ValueError):
        euler_step(state, ControlInput(0.0, math.pi / 2), geo, 0.1)
    with pytest.raises(ValueError):
        linearize_discrete(state, ControlInput(0.0, -math.pi / 2), geo, 0.1)


def test_linearization_matches_finite_differences():
    geo = VehicleGeometry()
    rng = np.random.default_rng(7)
    points = [random_nominal(rng) for _ in range(100)]
    # The same points once more through the batched path, nonzero controls.
    batch_a, batch_b, _ = linearize_steps(
        [s.as_array() for s, _ in points], [u.as_array() for _, u in points], geo, 0.1
    )
    worst = 0.0
    for j, (state, control) in enumerate(points):
        lin = linearize_discrete(state, control, geo, 0.1)
        fd_a, fd_b = fd_step_jacobians(state, control, geo, 0.1)
        for a_mat, b_mat in ((lin.a_mat, lin.b_mat), (batch_a[j], batch_b[j])):
            worst = max(
                worst,
                float(np.max(np.abs(a_mat - fd_a))),
                float(np.max(np.abs(b_mat - fd_b))),
            )
    assert worst <= 1e-6


def test_linearization_exact_at_nominal():
    geo = VehicleGeometry()
    rng = np.random.default_rng(8)
    for _ in range(20):
        state, control = random_nominal(rng)
        lin = linearize_discrete(state, control, geo, 0.1)
        predicted = lin.a_mat @ state.as_array() + lin.b_mat @ control.as_array() + lin.c_vec
        actual = euler_step(state, control, geo, 0.1).as_array()
        assert np.max(np.abs(predicted - actual)) < 1e-12


def test_step_size_validation():
    geo = VehicleGeometry()
    state = VehicleState(0.0, 0.0, 5.0, 0.0)
    with pytest.raises(ValueError):
        linearize_discrete(state, ControlInput(0.0, 0.0), geo, 0.0)


def test_rollout_is_cumulative_euler():
    geo = VehicleGeometry()
    rng = np.random.default_rng(9)
    initial = VehicleState(0.0, 0.0, 10.0, 0.0)
    controls = [
        ControlInput(float(rng.uniform(-2, 2)), float(rng.uniform(-0.2, 0.2)))
        for _ in range(12)
    ]
    states = rollout(initial, controls, geo, 0.1)
    assert len(states) == 13
    assert states[0] is initial
    for k, u in enumerate(controls):
        expect = euler_step(states[k], u, geo, 0.1)
        assert np.max(np.abs(states[k + 1].as_array() - expect.as_array())) == 0.0


def test_state_array_round_trip():
    state = VehicleState(1.0, -2.0, 3.0, 0.25)
    arr = state.as_array()
    assert arr.tolist() == [1.0, -2.0, 3.0, 0.25]
    assert VehicleState.from_array(arr) == state


def test_geometry_diagonal():
    geo = VehicleGeometry()
    assert abs(geo.diagonal - math.hypot(geo.length, geo.width)) < 1e-12
    with pytest.raises(ValueError):
        VehicleGeometry(length=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["length", "width", "extended_length", "extended_width"])
def test_geometry_refuses_a_non_finite_field_by_name(field, value):
    with pytest.raises(ValueError, match=rf"^VehicleGeometry\.{field} is not finite: "):
        VehicleGeometry(**{field: value})
