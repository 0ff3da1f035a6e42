"""Kinematic bicycle model: forward-Euler discretization and first-order
linearization about a nominal point.

States are (p_x, p_y, v, psi); controls are (a, delta). Angles are radians
everywhere inside the library; degree conversion happens at config boundaries.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

STATE_DIM = 4
CONTROL_DIM = 2


@dataclass(frozen=True)
class VehicleState:
    """Planar vehicle state: position, longitudinal speed, heading."""

    p_x: float
    p_y: float
    v: float
    psi: float

    def as_array(self):
        return np.array([self.p_x, self.p_y, self.v, self.psi], dtype=float)

    @staticmethod
    def from_array(x):
        x = np.asarray(x, dtype=float)
        if x.shape != (STATE_DIM,):
            raise ValueError(f"state array must have shape (4,), got {x.shape}")
        return VehicleState(float(x[0]), float(x[1]), float(x[2]), float(x[3]))


@dataclass(frozen=True)
class ControlInput:
    """Acceleration and front steering angle."""

    a: float
    delta: float

    def as_array(self):
        return np.array([self.a, self.delta], dtype=float)

    @staticmethod
    def from_array(u):
        u = np.asarray(u, dtype=float)
        if u.shape != (CONTROL_DIM,):
            raise ValueError(f"control array must have shape (2,), got {u.shape}")
        return ControlInput(float(u[0]), float(u[1]))


def require_finite(owner, *names):
    """Refuse `owner` unless each of its fields `names` is finite, naming the
    first that is not."""
    for name in names:
        value = getattr(owner, name)
        if not np.all(np.isfinite(np.asarray(value, dtype=float))):
            raise ValueError(f"{type(owner).__name__}.{name} is not finite: {value!r}")


def require_integer(owner, *names):
    """Refuse `owner` unless each of its fields `names` is an integer and not
    a bool, naming the first that is not."""
    for name in names:
        value = getattr(owner, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{type(owner).__name__}.{name} is not an integer: {value!r}")


@dataclass(frozen=True)
class VehicleGeometry:
    """Body rectangle and the enlarged rectangle used for lane constraints.

    The diagonal of the base rectangle doubles as the keep-out inflation for
    collision constraints, so it is derived rather than configured.
    """

    length: float = 3.63
    width: float = 1.85
    extended_length: float = 3.73
    extended_width: float = 1.95
    diagonal: float = field(init=False)

    def __post_init__(self):
        require_finite(self, "length", "width", "extended_length", "extended_width")
        if self.length <= 0 or self.width <= 0:
            raise ValueError("vehicle length and width must be positive")
        if self.extended_length < self.length or self.extended_width < self.width:
            raise ValueError("extended rectangle must contain the base rectangle")
        object.__setattr__(self, "diagonal", math.hypot(self.length, self.width))


@dataclass(frozen=True)
class LinearizedStep:
    """One discrete step x(k+1) = A x(k) + B u(k) + c of the Euler model,
    exact at the nominal point it was built from."""

    a_mat: np.ndarray
    b_mat: np.ndarray
    c_vec: np.ndarray
    ts: float


def euler_steps(states, controls, geometry, ts):
    """Forward-Euler steps x + ts (v cos psi, v sin psi, a, v tan(delta) / L)
    of the nonlinear model from n (state, control) pairs, as an (n, 4) array;
    every |delta| must be below pi/2 and L is the body length."""
    if ts <= 0:
        raise ValueError("step size must be positive")
    states = np.asarray(states, dtype=float).reshape(-1, STATE_DIM)
    controls = np.asarray(controls, dtype=float).reshape(-1, CONTROL_DIM)
    if np.any(np.abs(controls[:, 1]) >= math.pi / 2):
        raise ValueError(f"steering angles {controls[:, 1]} outside (-pi/2, pi/2)")
    v, psi = states[:, 2], states[:, 3]
    return states + ts * np.column_stack([v * np.cos(psi), v * np.sin(psi), controls[:, 0],
                                          v * np.tan(controls[:, 1]) / geometry.length])


def linearize_steps(states, controls, geometry, ts):
    """First-order Taylor expansions of the Euler step at n nominal points.

    Args:
        states: (n, 4) nominal states.
        controls: (n, 2) nominal controls; every |delta| must be below pi/2.
        geometry: VehicleGeometry supplying the wheelbase (body length).
        ts: step size.

    Returns:
        (A, B, c) of shapes (n, 4, 4), (n, 4, 2) and (n, 4). The affine term
        makes each linear step reproduce the nonlinear Euler step exactly at
        its nominal (state, control).
    """
    nominal_next = euler_steps(states, controls, geometry, ts)
    states = np.asarray(states, dtype=float).reshape(-1, STATE_DIM)
    controls = np.asarray(controls, dtype=float).reshape(-1, CONTROL_DIM)
    v, psi = states[:, 2], states[:, 3]
    cos, sin, tan = np.cos(psi), np.sin(psi), np.tan(controls[:, 1])
    a_mat = np.tile(np.eye(STATE_DIM), (states.shape[0], 1, 1))
    a_mat[:, 0, 2] = ts * cos
    a_mat[:, 0, 3] = -ts * v * sin
    a_mat[:, 1, 2] = ts * sin
    a_mat[:, 1, 3] = ts * v * cos
    a_mat[:, 3, 2] = ts * tan / geometry.length
    b_mat = np.zeros((states.shape[0], STATE_DIM, CONTROL_DIM))
    b_mat[:, 2, 0] = ts
    b_mat[:, 3, 1] = ts * v * (1.0 + tan**2) / geometry.length
    c_vec = (nominal_next - (a_mat @ states[:, :, None])[:, :, 0]
             - (b_mat @ controls[:, :, None])[:, :, 0])
    return a_mat, b_mat, c_vec


def linearize_discrete(nominal_state, nominal_control, geometry, ts):
    """The one-point case of ``linearize_steps``."""
    a_mat, b_mat, c_vec = linearize_steps(
        nominal_state.as_array(), nominal_control.as_array(), geometry, ts
    )
    return LinearizedStep(a_mat=a_mat[0], b_mat=b_mat[0], c_vec=c_vec[0], ts=ts)


def euler_step(state, control, geometry, ts):
    """One forward-Euler step of the nonlinear model."""
    return VehicleState.from_array(
        euler_steps(state.as_array(), control.as_array(), geometry, ts)[0])


def rollout(initial, controls, geometry, ts):
    """Integrate a control sequence with forward Euler.

    Returns the visited states including the initial one, so the output is one
    longer than the control sequence.
    """
    states = [initial]
    for u in controls:
        states.append(euler_step(states[-1], u, geometry, ts))
    return states
