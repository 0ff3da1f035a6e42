"""Per-player constraint assembly over the interleaved strategy vector.

A strategy over time points k0..kT stacks (u(k0), x(k0+1), u(k0+1), ...,
u(kT-1), x(kT)): the initial state is data, the terminal control never acts.
All rows are affine in that vector; lane and collision rows are first-order
expansions about the player's reference trajectory, which keeps every
best-response subproblem a convex QP. Row order and provenance tags are
deterministic so duals can be traced back to the constraint family that
produced them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import CONTROL_DIM, VehicleState, linearize_steps
from .scenario import STRAIGHT

STEP_VARS = 6
# Column offsets inside one (u, x) block.
U_A, U_DELTA = 0, 1
X_PX, X_PY, X_V, X_PSI = 2, 3, 4, 5


@dataclass(frozen=True)
class Segment:
    """Inclusive range of discrete time points handled as one game."""

    start: int
    stop: int

    def __post_init__(self):
        if self.stop <= self.start:
            raise ValueError(f"segment [{self.start}, {self.stop}] must contain at least one step")

    @property
    def n_steps(self):
        return self.stop - self.start

    @property
    def n_vars(self):
        return STEP_VARS * self.n_steps

    def decision_points(self):
        """Time points whose states are decision variables."""
        return range(self.start + 1, self.stop + 1)


@dataclass(frozen=True)
class Strategy:
    """One player's decision vector over a segment."""

    segment: Segment
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float).reshape(-1)
        if data.shape[0] != self.segment.n_vars:
            raise ValueError(
                f"strategy length {data.shape[0]} does not match segment "
                f"[{self.segment.start}, {self.segment.stop}] ({self.segment.n_vars} vars)"
            )
        object.__setattr__(self, "data", data)

    @classmethod
    def from_reference(cls, reference, segment):
        """Reference states with zero controls; the conventional iteration seed."""
        data = np.zeros(segment.n_vars)
        blocks = data.reshape(segment.n_steps, STEP_VARS)
        for j, k in enumerate(segment.decision_points()):
            blocks[j, X_PX:] = reference.state(k)
        return cls(segment, data)

    def blocks(self):
        return self.data.reshape(self.segment.n_steps, STEP_VARS)

    def states(self):
        """Decision states, one row per time point start+1..stop."""
        return self.blocks()[:, X_PX:]

    def controls(self):
        return self.blocks()[:, :X_PX]

    def positions(self):
        return self.blocks()[:, X_PX:X_PY + 1]

    def state_at(self, k):
        points = self.segment.decision_points()
        if k not in points:
            raise ValueError(f"time point {k} has no decision state in this strategy")
        return VehicleState.from_array(self.states()[k - self.segment.start - 1])

    def terminal_state(self):
        return VehicleState.from_array(self.states()[-1])


@dataclass(frozen=True)
class RectangleFootprint:
    """Extended body rectangle; vertices counterclockwise from front-left."""

    geometry: object

    def body_offsets(self):
        l = self.geometry.extended_length / 2.0
        w = self.geometry.extended_width / 2.0
        return np.array([[l, w], [-l, w], [-l, -w], [l, -w]])

    def vertices(self, pose):
        """World positions of the four vertices for a pose (p_x, p_y, psi)."""
        px, py, psi = float(pose[0]), float(pose[1]), float(pose[2])
        c, s = math.cos(psi), math.sin(psi)
        rot = np.array([[c, -s], [s, c]])
        return np.array([px, py]) + self.body_offsets() @ rot.T


@dataclass(frozen=True)
class ConstraintSystem:
    """Stacked affine rows A_eq s = b_eq, A_in s <= b_in with one provenance
    tag per row."""

    a_eq: np.ndarray
    b_eq: np.ndarray
    eq_tags: tuple
    a_in: np.ndarray
    b_in: np.ndarray
    in_tags: tuple

    def __post_init__(self):
        if self.a_eq.shape[0] != self.b_eq.shape[0] or self.a_eq.shape[0] != len(self.eq_tags):
            raise ValueError("equality rows, rhs, and tags must agree in length")
        if self.a_in.shape[0] != self.b_in.shape[0] or self.a_in.shape[0] != len(self.in_tags):
            raise ValueError("inequality rows, rhs, and tags must agree in length")
        if self.a_eq.shape[0] and self.a_in.shape[0] and self.a_eq.shape[1] != self.a_in.shape[1]:
            raise ValueError("equality and inequality column counts differ")

    @property
    def n_vars(self):
        return self.a_eq.shape[1] if self.a_eq.shape[0] else self.a_in.shape[1]

    def violation(self, s):
        """Worst constraint violation of a candidate vector (0 when feasible)."""
        worst = 0.0
        if self.a_eq.shape[0]:
            worst = float(np.max(np.abs(self.a_eq @ s - self.b_eq)))
        if self.a_in.shape[0]:
            worst = max(worst, float(np.max(self.a_in @ s - self.b_in)))
        return max(worst, 0.0)


def dynamics_rows(reference, geometry, initial_state=None):
    """Equality rows chaining the linearized Euler steps along the segment.

    Step j is linearized at reference point j with zero nominal control; the
    initial state (default: the reference's first point) enters only the
    right-hand side.
    """
    n = len(reference) - 1
    x0 = (initial_state.as_array() if initial_state is not None else reference.states[0])
    a_mat, b_mat, c_vec = linearize_steps(
        reference.states[:-1], np.zeros((n, CONTROL_DIM)), geometry, reference.ts
    )
    a_eq = np.zeros((4 * n, STEP_VARS * n))
    blocks = a_eq.reshape(n, 4, n, STEP_VARS)  # [step, row, step, column] view
    j = np.arange(n)
    blocks[j, :, j, U_A:X_PX] = -b_mat
    blocks[j, :, j, X_PX:] = np.eye(4)
    blocks[j[1:], :, j[:-1], X_PX:] = -a_mat[1:]
    b_eq = c_vec.reshape(-1)
    b_eq[:4] += a_mat[0] @ x0
    return a_eq, b_eq, ("dynamics",) * (4 * n)


def box_rows(limits, segment):
    """Two-sided bounds on v, a, delta at every step: upper then lower row
    per step, family by family."""
    n = segment.n_steps
    steps = np.arange(n)
    blocks = []
    rhs = []
    for col, lo, hi in ((X_V, limits.v_min, limits.v_max), (U_A, limits.a_min, limits.a_max),
                        (U_DELTA, limits.delta_min, limits.delta_max)):
        block = np.zeros((2 * n, STEP_VARS * n))
        block[2 * steps, STEP_VARS * steps + col] = 1.0
        block[2 * steps + 1, STEP_VARS * steps + col] = -1.0
        blocks.append(block)
        rhs.append(np.tile([hi, -lo], n))
    return np.vstack(blocks), np.concatenate(rhs), ("box",) * (6 * n)


def lane_rows(reference, geometry, road, permitted_lanes):
    """Keep all four extended-rectangle vertices inside the permitted lane
    band, linearized about the reference poses.

    Four rows per boundary per decision step: the band's outer boundaries are
    the relevant curves, one tangent query each.
    """
    n = len(reference) - 1
    lanes = sorted(permitted_lanes)
    boundaries = (lanes[0], lanes[-1] + 1)
    band_mid = 0.5 * (road.boundary_y(boundaries[0]) + road.boundary_y(boundaries[1]))
    offsets = RectangleFootprint(geometry).body_offsets()
    poses = reference.states[1:, :]  # decision points only
    blocks = []
    for b_idx in boundaries:
        probe = (float(poses[0, 0]), band_mid)
        a, b, c = road.tangent_at(f"boundary_{b_idx}", (float(poses[0, 0]), float(poses[0, 1])), probe)
        cos = np.cos(poses[:, 3])
        sin = np.sin(poses[:, 3])
        block = np.zeros((n * 4, STEP_VARS * n))
        block_rhs = np.zeros(n * 4)
        for v_idx, (lx, wy) in enumerate(offsets):
            # f = a*(px + lx cos - wy sin) + b*(py + lx sin + wy cos) + c
            dpsi = a * (-lx * sin - wy * cos) + b * (lx * cos - wy * sin)
            vx = poses[:, 0] + lx * cos - wy * sin
            vy = poses[:, 1] + lx * sin + wy * cos
            f_ref = a * vx + b * vy + c
            rows_idx = np.arange(n) * 4 + v_idx
            block[rows_idx, STEP_VARS * np.arange(n) + X_PX] = a
            block[rows_idx, STEP_VARS * np.arange(n) + X_PY] = b
            block[rows_idx, STEP_VARS * np.arange(n) + X_PSI] = dpsi
            grad_dot_ref = a * poses[:, 0] + b * poses[:, 1] + dpsi * poses[:, 3]
            block_rhs[rows_idx] = grad_dot_ref - f_ref
        blocks.append((block, block_rhs))
    a_rows = np.vstack([a for a, _ in blocks])
    return a_rows, np.concatenate([b for _, b in blocks]), ("lane",) * a_rows.shape[0]


def collision_value(own_pose, opponent_pos, geometry):
    """Nonlinear keep-out value: negative outside the inflated super-ellipse
    around the opponent, zero on its boundary, positive inside."""
    px, py, psi = float(own_pose[0]), float(own_pose[1]), float(own_pose[2])
    dx = float(opponent_pos[0]) - px
    dy = float(opponent_pos[1]) - py
    c, s = math.cos(psi), math.sin(psi)
    rx = c * dx + s * dy
    ry = -s * dx + c * dy
    ax = (geometry.length + geometry.diagonal) / 2.0
    by = (geometry.width + geometry.diagonal) / 2.0
    return 1.0 - (rx / ax) ** 6 - (ry / by) ** 6


def collision_rows(reference, opponent_strategy, geometry, opponent_id):
    """One keep-out row per decision step against a fixed opponent strategy,
    linearized in the player's own pose about its reference."""
    n = len(reference) - 1
    if opponent_strategy.segment.n_steps != n:
        raise ValueError("opponent strategy does not cover the player's segment")
    opp = opponent_strategy.positions()
    poses = reference.states[1:, :]
    ax = (geometry.length + geometry.diagonal) / 2.0
    by = (geometry.width + geometry.diagonal) / 2.0
    cos = np.cos(poses[:, 3])
    sin = np.sin(poses[:, 3])
    dx = opp[:, 0] - poses[:, 0]
    dy = opp[:, 1] - poses[:, 1]
    rx = cos * dx + sin * dy
    ry = -sin * dx + cos * dy
    h_ref = 1.0 - (rx / ax) ** 6 - (ry / by) ** 6
    gx = 6.0 * rx**5 / ax**6
    gy = 6.0 * ry**5 / by**6
    d_px = gx * cos - gy * sin
    d_py = gx * sin + gy * cos
    d_psi = -gx * ry + gy * rx
    a_rows = np.zeros((n, STEP_VARS * n))
    cols = STEP_VARS * np.arange(n)
    a_rows[np.arange(n), cols + X_PX] = d_px
    a_rows[np.arange(n), cols + X_PY] = d_py
    a_rows[np.arange(n), cols + X_PSI] = d_psi
    grad_dot_ref = d_px * poses[:, 0] + d_py * poses[:, 1] + d_psi * poses[:, 3]
    rhs = grad_dot_ref - h_ref
    tags = tuple(f"collision({opponent_id})" for _ in range(n))
    return a_rows, rhs, tags


def behavior_rows(behavior, reference, road):
    """Maneuver commitment rows.

    Straight driving pins the heading to the lane direction (equalities); a
    lane change keeps the vehicle center on the target side of the source-lane
    centerline (inequalities). Returns (rows, rhs, tags, is_equality).
    """
    n = len(reference) - 1
    if behavior.kind == STRAIGHT:
        a_rows = np.zeros((n, STEP_VARS * n))
        a_rows[np.arange(n), STEP_VARS * np.arange(n) + X_PSI] = 1.0
        rhs = np.full(n, behavior.heading)
        return a_rows, rhs, tuple("behavior" for _ in range(n)), True
    y_tgt = road.centerline_y(behavior.target_lane)
    poses = reference.states[1:, :]
    a, b, c = road.tangent_at(
        f"centerline_{behavior.source_lane}",
        (float(poses[0, 0]), float(poses[0, 1])),
        (float(poses[0, 0]), y_tgt),
    )
    a_rows = np.zeros((n, STEP_VARS * n))
    cols = STEP_VARS * np.arange(n)
    a_rows[np.arange(n), cols + X_PX] = a
    a_rows[np.arange(n), cols + X_PY] = b
    rhs = np.full(n, -c)
    return a_rows, rhs, tuple("behavior" for _ in range(n)), False


@dataclass(frozen=True)
class StaticRows:
    """One player's opponent-independent rows, in the order every solve uses.

    Equalities are the dynamics chain then the straight heading pins. The
    inequality blocks, each (rows, rhs, tags), split around the collision
    blocks, which depend on the opponents: the head is box then lane rows,
    the tail the lane-change behavior rows (empty when driving straight).
    """

    a_eq: np.ndarray
    b_eq: np.ndarray
    eq_tags: tuple
    head: tuple
    tail: tuple


def static_rows(vehicle, scenario, segment, reference, initial_state):
    """Build a player's static rows; the one owner of the row order."""
    a_eq, b_eq, eq_tags = dynamics_rows(reference, vehicle.geometry, initial_state)
    beh_a, beh_b, beh_tags, beh_is_eq = behavior_rows(vehicle.behavior, reference, scenario.road)
    tail = ()
    if beh_is_eq:
        a_eq = np.vstack([a_eq, beh_a])
        b_eq = np.concatenate([b_eq, beh_b])
        eq_tags = eq_tags + beh_tags
    else:
        tail = ((beh_a, beh_b, beh_tags),)
    lanes = vehicle.behavior.permitted_lanes(scenario.road, vehicle.initial.p_y)
    head = (box_rows(scenario.limits, segment),
            lane_rows(reference, vehicle.geometry, scenario.road, lanes))
    return StaticRows(a_eq=a_eq, b_eq=b_eq, eq_tags=eq_tags, head=head, tail=tail)


def assemble(player_vid, opponent_strategies, scenario, segment=None, reference=None,
             initial_state=None):
    """Full constraint system for one player against fixed opponent strategies.

    Row order: the static equalities; then the head inequalities, collision
    rows by opponent id ascending, and the tail (see ``StaticRows``).
    """
    if segment is None:
        segment = Segment(1, scenario.horizon)
    if reference is None:
        reference = scenario.references()[player_vid].window(segment.start, segment.stop)
    if len(reference) != segment.n_steps + 1 or reference.start != segment.start:
        raise ValueError("reference does not cover the requested segment")
    if initial_state is None:
        initial_state = VehicleState.from_array(reference.states[0])
    if player_vid in opponent_strategies:
        raise ValueError(f"player {player_vid} listed among its own opponents")
    vehicle = scenario.vehicle(player_vid)
    rows = static_rows(vehicle, scenario, segment, reference, initial_state)
    collisions = tuple(
        collision_rows(reference, opponent_strategies[opp_id], vehicle.geometry, opp_id)
        for opp_id in sorted(opponent_strategies)
    )
    blocks = rows.head + collisions + rows.tail
    return ConstraintSystem(
        a_eq=rows.a_eq,
        b_eq=rows.b_eq,
        eq_tags=rows.eq_tags,
        a_in=np.vstack([a for a, _, _ in blocks]),
        b_in=np.concatenate([b for _, b, _ in blocks]),
        in_tags=tuple(tag for _, _, tags in blocks for tag in tags),
    )


def profile_violation(strategies, scenario):
    """Worst nonlinear constraint violation of a realized joint profile.

    Checks box limits directly, lane containment of the extended-rectangle
    vertices, and the pairwise keep-out value; behavior rows are planning
    commitments and are not graded here. Returns the largest violation
    (0 when the profile is clean).
    """
    worst = 0.0
    ids = sorted(strategies)
    for vid in ids:
        vehicle = scenario.vehicle(vid)
        strat = strategies[vid]
        states = strat.states()
        controls = strat.controls()
        lim = scenario.limits
        worst = max(
            worst,
            float(np.max(states[:, 2] - lim.v_max, initial=0.0)),
            float(np.max(lim.v_min - states[:, 2], initial=0.0)),
            float(np.max(controls[:, 0] - lim.a_max, initial=0.0)),
            float(np.max(lim.a_min - controls[:, 0], initial=0.0)),
            float(np.max(controls[:, 1] - lim.delta_max, initial=0.0)),
            float(np.max(lim.delta_min - controls[:, 1], initial=0.0)),
        )
        lanes = vehicle.behavior.permitted_lanes(scenario.road, vehicle.initial.p_y)
        y_lo = scenario.road.boundary_y(min(lanes))
        y_hi = scenario.road.boundary_y(max(lanes) + 1)
        foot = RectangleFootprint(vehicle.geometry)
        for row in states:
            verts = foot.vertices((row[0], row[1], row[3]))
            worst = max(
                worst,
                float(np.max(verts[:, 1] - y_hi, initial=0.0)),
                float(np.max(y_lo - verts[:, 1], initial=0.0)),
            )
        for other in ids:
            if other == vid:
                continue
            opp_pos = strategies[other].positions()
            for row, opp in zip(states, opp_pos):
                worst = max(worst, collision_value((row[0], row[1], row[3]), opp, vehicle.geometry))
    return worst
