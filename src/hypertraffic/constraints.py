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

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .dynamics import CONTROL_DIM, VehicleState, linearize_steps
from .qp import SparseRows
from .scenario import STRAIGHT

STEP_VARS = 6
# Column offsets inside one (u, x) block.
U_A, U_DELTA = 0, 1
X_PX, X_PY, X_V, X_PSI = 2, 3, 4, 5
# The pose columns a lane or collision row touches.
_POSE_COLUMNS = np.array([X_PX, X_PY, X_PSI])


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
        first, last = segment.start + 1, segment.stop
        if not reference.start <= first <= last <= reference.stop:
            raise ValueError(f"reference [{reference.start}, {reference.stop}] does not cover "
                             f"the decision points [{first}, {last}]")
        data = np.zeros(segment.n_vars)
        blocks = data.reshape(segment.n_steps, STEP_VARS)
        blocks[:, X_PX:] = reference.states[first - reference.start:last - reference.start + 1]
        return cls(segment, data)

    def blocks(self):
        return self.data.reshape(self.segment.n_steps, STEP_VARS)

    def states(self):
        """Decision states, one row per time point start+1..stop."""
        return self.blocks()[:, X_PX:]

    def positions(self):
        return self.blocks()[:, X_PX:X_PY + 1]

    def terminal_state(self):
        return VehicleState.from_array(self.states()[-1])


def body_offsets(geometry):
    """Extended body rectangle's vertices relative to the vehicle center in
    the body frame, counterclockwise from front-left."""
    l = geometry.extended_length / 2.0
    w = geometry.extended_width / 2.0
    return np.array([[l, w], [-l, w], [-l, -w], [l, -w]])


def _step_columns(steps, offsets):
    """Row i holds the columns `offsets` (broadcast per row) of step steps[i]."""
    return STEP_VARS * steps[:, None] + offsets


def _step_rows(steps, offsets, coef, n_steps):
    """`SparseRows` over an n-step strategy whose row i has the coefficients
    coef[i] on the columns `offsets` (broadcast per row) of step steps[i]."""
    return SparseRows(_step_columns(steps, offsets), coef, STEP_VARS * n_steps)


def dynamics_rows(reference, geometry, initial_state=None):
    """Equality rows chaining the linearized Euler steps along the segment.

    Step j is linearized at reference point j with zero nominal control, so
    the coefficients and the affine terms c read only the reference's v and
    psi; the initial state x(0) (default: the reference's first point)
    enters only the first step's right-hand side, c_0 + A_0 x(0). Row 4 j + i
    holds -B_j[i] on u(j), 1 on x_i(j) and -A_j[i] on x(j-1), seven slots;
    the first step's previous state is data, so its last four slots hold 0
    on x_i(0).
    """
    n = len(reference) - 1
    a_mat, b_mat, c_vec = _linearized(reference, geometry)
    state = X_PX + np.arange(4)
    offsets = np.empty((n, 4, 7), dtype=np.intp)
    coef = np.empty((n, 4, 7))
    offsets[:, :, :2] = U_A, U_DELTA
    coef[:, :, :2] = -b_mat
    offsets[:, :, 2] = state
    coef[:, :, 2] = 1.0
    offsets[:, :, 3:] = state - STEP_VARS
    coef[:, :, 3:] = -a_mat
    offsets[0, :, 3:] = state[:, None]
    coef[0, :, 3:] = 0.0
    rows = _step_rows(np.repeat(np.arange(n), 4), offsets.reshape(4 * n, 7),
                      coef.reshape(4 * n, 7), n)
    x0 = (initial_state.as_array() if initial_state is not None else reference.states[0])
    b_eq = c_vec.reshape(-1)
    b_eq[:4] = c_vec[0] + a_mat[0] @ x0
    return rows, b_eq, ("dynamics",) * (4 * n)


def _linearized(reference, geometry):
    """(A, B, c) of the Euler steps at the reference's points but its last,
    with zero nominal control and zero position: A is the identity on (p_x,
    p_y), so c is the same at any position, and none of them reads more than
    `coefficient_key` holds."""
    states = reference.states[:-1].copy()
    states[:, :2] = 0.0
    return linearize_steps(states, np.zeros((len(reference) - 1, CONTROL_DIM)), geometry,
                           reference.ts)


def box_rows(limits, segment):
    """Two-sided bounds on v, a, delta at every step: upper then lower row
    per step, family by family."""
    n = segment.n_steps
    families = ((X_V, limits.v_min, limits.v_max), (U_A, limits.a_min, limits.a_max),
                (U_DELTA, limits.delta_min, limits.delta_max))
    offsets = np.repeat([col for col, _, _ in families], 2 * n)[:, None]
    rows = _step_rows(np.tile(np.repeat(np.arange(n), 2), 3), offsets,
                      np.tile([1.0, -1.0], 3 * n)[:, None], n)
    rhs = np.concatenate([np.tile([hi, -lo], n) for _, lo, hi in families])
    return rows, rhs, ("box",) * (6 * n)


def lane_rows(reference, geometry, road, permitted_lanes):
    """Keep all four extended-rectangle vertices inside the permitted lane
    band, linearized about the reference poses.

    Four rows per boundary per decision step (row step * 4 + vertex): the
    band's outer boundaries are the relevant curves, one tangent query each
    at the first decision point, which must lie within the road's x extent.
    A boundary's feasible side is f = a (p_x + ox) + b (p_y + oy) + c <= 0,
    (ox, oy) a vertex's offset from the center; the right-hand side
    grad f . pose - f = dpsi psi - a ox - b oy - c has no position term, so
    coefficients and right-hand sides alike read the reference's headings
    only.
    """
    n = len(reference) - 1
    lanes = sorted(permitted_lanes)
    boundaries = (lanes[0], lanes[-1] + 1)
    band_mid = 0.5 * (road.boundary_y(boundaries[0]) + road.boundary_y(boundaries[1]))
    poses = reference.states[1:, :]  # decision points only
    cos = np.cos(poses[:, 3])[:, None]
    sin = np.sin(poses[:, 3])[:, None]
    lx, wy = body_offsets(geometry).T
    ox, oy = lx * cos - wy * sin, lx * sin + wy * cos
    coefs, rhs = [], []
    for b_idx in boundaries:
        a, b, c = road.tangent_at(road.boundary_y(b_idx), poses[0, :2],
                                  (float(poses[0, 0]), band_mid))
        dpsi = a * (-lx * sin - wy * cos) + b * (lx * cos - wy * sin)
        coef = np.empty((4 * n, 3))
        coef[:, :2] = a, b
        coef[:, 2] = dpsi.reshape(-1)
        coefs.append(coef)
        rhs.append((dpsi * poses[:, 3, None] - a * ox - b * oy - c).reshape(-1))
    rows = _step_rows(np.tile(np.repeat(np.arange(n), 4), 2), _POSE_COLUMNS, np.vstack(coefs), n)
    return rows, np.concatenate(rhs), ("lane",) * (8 * n)


def keep_out_axes(geometry):
    """The semi-axes (a_x, b_y) of the keep-out superellipse about a vehicle's
    center, in its body frame."""
    return (geometry.length + geometry.diagonal) / 2.0, (geometry.width + geometry.diagonal) / 2.0


def pose_columns(n_steps):
    """The columns of each step's pose (p_x, p_y, psi) in an n-step strategy,
    one row per step: where a keep-out row's coefficients sit."""
    return _step_columns(np.arange(n_steps), _POSE_COLUMNS)


def keep_out_value(rx, ry, ax, by):
    """The keep-out value 1 - u^6 - w^6 of body-frame offsets (rx, ry),
    u = rx / ax and w = ry / by, with u^5 and w^5, all by products."""
    u, w = rx / ax, ry / by
    u2, w2 = u * u, w * w
    u5, w5 = u2 * u2 * u, w2 * w2 * w
    return 1.0 - u5 * u - w5 * w, u5, w5


def collision_rows(poses, semi_axes, opponent_strategy):
    """The keep-out value of p players against one fixed opponent strategy,
    linearized in each player's own pose about its decision poses, in one
    array pass.

    `poses` holds each player's decision states (p, n, 4) and `semi_axes`
    its `keep_out_axes`, (p, 2). Returns the gradients in (p_x, p_y, psi),
    (p, n, 3), and b, (p, n): player i's row at step k is grad[i, k] on
    that step's `pose_columns`, <= b[i, k]."""
    n = poses.shape[1]
    if opponent_strategy.segment.n_steps != n:
        raise ValueError("opponent strategy does not cover the player's segment")
    opp = opponent_strategy.positions()
    ax, by = np.asarray(semi_axes, dtype=float).T[:, :, None]
    px, py, psi = poses[:, :, 0], poses[:, :, 1], poses[:, :, 3]
    cos = np.cos(psi)
    sin = np.sin(psi)
    dx = opp[:, 0] - px
    dy = opp[:, 1] - py
    rx = cos * dx + sin * dy
    ry = -sin * dx + cos * dy
    h_ref, u5, w5 = keep_out_value(rx, ry, ax, by)
    gx = 6.0 * u5 / ax
    gy = 6.0 * w5 / by
    grad = np.empty((*px.shape, 3))
    grad[:, :, 0] = gx * cos - gy * sin
    grad[:, :, 1] = gx * sin + gy * cos
    grad[:, :, 2] = -gx * ry + gy * rx
    d_px, d_py, d_psi = grad.transpose(2, 0, 1)
    grad_dot_ref = d_px * px + d_py * py + d_psi * psi
    return grad, grad_dot_ref - h_ref


def behavior_rows(behavior, reference, road):
    """Maneuver commitment rows.

    Straight driving pins the heading to the lane direction (equalities); a
    lane change keeps the vehicle center on the target side of the source-lane
    centerline (inequalities). Returns (rows, rhs, tags, is_equality).
    Both read the reference only for its length and the x-extent check of
    its first decision point.
    """
    n = len(reference) - 1
    if behavior.kind == STRAIGHT:
        rows = _step_rows(np.arange(n), [X_PSI], np.ones((n, 1)), n)
        return rows, np.full(n, behavior.heading), ("behavior",) * n, True
    y_tgt = road.centerline_y(behavior.target_lane)
    poses = reference.states[1:, :]
    a, b, c = road.tangent_at(road.centerline_y(behavior.source_lane), poses[0, :2],
                              (poses[0, 0], y_tgt))
    rows = _step_rows(np.arange(n), [X_PX, X_PY], np.tile([a, b], (n, 1)), n)
    return rows, np.full(n, -c), ("behavior",) * n, False


@dataclass(frozen=True)
class StaticRows:
    """One player's opponent-independent rows, in the order every solve uses,
    as blocks (rows, rhs, tags) whose rows are `SparseRows`.

    The equality blocks are the dynamics chain then the straight heading
    pins. The inequality blocks split around the collision blocks, which
    depend on the opponents: the head is box then lane rows, the tail the
    lane-change behavior rows (empty when driving straight). `start` holds
    (c_0, A_0) of the first Euler step: the first four dynamics right-hand
    sides are c_0 + A_0 x(0) in the start state x(0), and no other entry
    reads the start state. The right-hand sides are made read-only, as
    `SparseRows` makes its arrays, so that many solves can share the rows.
    """

    eq: tuple
    head: tuple
    tail: tuple
    start: tuple

    def __post_init__(self):
        for _, b, _ in (*self.eq, *self.head, *self.tail):
            b.flags.writeable = False

    def eq_miss(self, s_vec):
        """A_eq s - b_eq over the equality blocks, in order."""
        return np.concatenate([a @ s_vec - b for a, b, _ in self.eq])

    def start_columns(self):
        """The equality right-hand side as the columns [b_0, E], b_eq = b_0 +
        E A_0 x(0): b_0 is b_eq at x(0) = 0, E the unit columns of its first
        four entries."""
        cols = np.zeros((sum(b.size for _, b, _ in self.eq), 5))
        cols[:, 0] = np.concatenate([b for _, b, _ in self.eq])
        cols[:4, 0], cols[:4, 1:] = self.start[0], np.eye(4)
        return cols


def stack_dense(blocks):
    """(A, b, tags) of (rows, rhs, tags) blocks stacked in order, with A
    dense: the form the equality elimination and the test oracles read. A is
    written once, by one `bincount` over every block's flat indices: a
    column repeated in a row gets the sum of its coefficients, added slot by
    slot."""
    n = blocks[0][0].n_cols
    starts = np.cumsum([0] + [rows.shape[0] for rows, _, _ in blocks])
    flat = np.concatenate([((start + np.arange(rows.shape[0]))[:, None] * n + rows.cols).ravel()
                           for start, (rows, _, _) in zip(starts, blocks)])
    coef = np.concatenate([rows.coef.ravel() for rows, _, _ in blocks])
    return (np.bincount(flat, coef, starts[-1] * n).reshape(starts[-1], n),
            np.concatenate([rhs for _, rhs, _ in blocks]),
            sum((tags for _, _, tags in blocks), ()))


def start_state(vehicle, segment, reference):
    """A player's default start state: its configured initial state on a
    segment from step 1, the reference's first point on a later one."""
    if segment.start == 1:
        return vehicle.initial
    return VehicleState.from_array(reference.states[0])


def coefficient_key(vehicle, scenario, segment, reference):
    """What the coefficients of the vehicle's `static_rows` read, by value:
    its id, geometry, behavior and permitted lanes, the road, the limits,
    the step count and step, each by its repr, which spells every float
    exactly (0.0 and -0.0 apart), and the bytes of the reference's v and psi
    columns. Every right-hand side reads only these too, but for the first
    four dynamics entries, c_0 + A_0 x(0), which `restated_rows` rewrites
    for a new start state; the reference's positions and the segment's
    first step reach no row, only the x-extent check."""
    lanes = vehicle.behavior.permitted_lanes(scenario.road, vehicle.initial.p_y)
    return (*map(repr, (vehicle.vid, vehicle.geometry, vehicle.behavior, lanes, scenario.road,
                        scenario.limits, segment.n_steps, reference.ts)),
            reference.states[:, 2:].tobytes())


def static_rows(vehicle, scenario, segment, reference, initial_state):
    """Build a player's static rows; the one owner of the row order."""
    dynamics = dynamics_rows(reference, vehicle.geometry, initial_state)
    beh_rows, beh_rhs, beh_tags, beh_is_eq = behavior_rows(vehicle.behavior, reference,
                                                           scenario.road)
    behavior = (beh_rows, beh_rhs, beh_tags)
    eq, tail = ((dynamics, behavior), ()) if beh_is_eq else ((dynamics,), (behavior,))
    lanes = vehicle.behavior.permitted_lanes(scenario.road, vehicle.initial.p_y)
    head = (box_rows(scenario.limits, segment),
            lane_rows(reference, vehicle.geometry, scenario.road, lanes))
    a_mat, _, c_vec = _linearized(reference, vehicle.geometry)
    return StaticRows(eq=eq, head=head, tail=tail, start=(c_vec[0].copy(), a_mat[0].copy()))


def restated_rows(rows, initial_state):
    """`rows`, a player's static rows, as `static_rows` would give them for
    a start state, on a reference with the same `coefficient_key`: only the
    first four dynamics right-hand sides, c_0 + A_0 x(0), change, and they
    are written as `dynamics_rows` writes them. No row is built."""
    (dynamics, b_eq, tags), *pins = rows.eq
    c_0, a_0 = rows.start
    b_eq = b_eq.copy()
    b_eq[:4] = c_0 + a_0 @ initial_state.as_array()
    return replace(rows, eq=((dynamics, b_eq, tags), *pins))


@dataclass(eq=False)
class InequalityStack:
    """A player's inequality rows A s <= b in the order `assemble` lays out:
    `rows` (`SparseRows`, a read-only view of `coef`), `b`, each row's
    family in `tags` (formed on first read) and each opponent's keep-out
    rows in `slots`; `static` holds the head and tail blocks of the static
    rows. A slot holds zero rows on its steps' pose columns until
    `keep_out` writes it."""

    rows: SparseRows
    coef: np.ndarray
    b: np.ndarray
    slots: dict
    static: tuple

    @cached_property
    def tags(self):
        n_steps = self.rows.n_cols // STEP_VARS
        slots = tuple(f"collision({oid})" for oid in self.slots for _ in range(n_steps))
        head, tail = (sum((tags for _, _, tags in part), ()) for part in self.static)
        return head + slots + tail

    def keep_out(self, oid, grad, b):
        """Write opponent `oid`'s keep-out gradients (n, 3) and b, as
        `collision_rows` gives them, into its slot."""
        span = self.slots[oid]
        self.coef[span, :3], self.b[span] = grad, b

    def copy(self):
        """A stack on the same read-only columns whose coefficients and b
        are its own, so that its slots are written apart from this one's."""
        coef = self.coef.copy()
        return InequalityStack(SparseRows(self.rows.cols, coef.view(), self.rows.n_cols), coef,
                               self.b.copy(), self.slots, self.static)


def assemble(rows, n_steps, opponent_ids):
    """The one layout of a player's inequality rows, for the forward game and
    the inverse fit: the head of its static rows `rows`, one empty keep-out
    slot of `n_steps` rows per opponent by ascending id, then the tail."""
    ids = sorted(opponent_ids)
    width = max(a.coef.shape[1] for a, _, _ in (*rows.head, *rows.tail))
    n_head, n_slots = sum(b.size for _, b, _ in rows.head), n_steps * len(ids)
    m = n_head + n_slots + sum(b.size for _, b, _ in rows.tail)
    cols, coef, b_all = np.zeros((m, width), dtype=np.intp), np.zeros((m, width)), np.zeros(m)
    at = 0
    for blocks, skip in ((rows.head, n_slots), (rows.tail, 0)):
        for a, b, _ in blocks:
            span, k = slice(at, at + b.size), a.coef.shape[1]
            cols[span, :k], coef[span, :k], b_all[span] = a.cols, a.coef, b
            at += b.size
        at += skip
    slot_cols = cols[n_head:n_head + n_slots].reshape(len(ids), n_steps, width)
    slot_cols[:, :, :3] = pose_columns(n_steps)
    slots = {oid: slice(n_head + k * n_steps, n_head + (k + 1) * n_steps)
             for k, oid in enumerate(ids)}
    return InequalityStack(SparseRows(cols.view(), coef.view(), STEP_VARS * n_steps), coef, b_all,
                           slots, (rows.head, rows.tail))


def profile_violation(strategies, scenario):
    """Worst nonlinear constraint violation of a realized joint profile.

    Checks the box limits by `box_rows`, which are exact, lane containment
    of the extended-rectangle vertices, and the pairwise keep-out value, in
    one array pass over all players, steps and opponents; behavior rows are
    planning commitments and are not graded here. Returns the largest
    violation (0 when the profile is clean).
    """
    road = scenario.road
    ids = sorted(strategies)
    vehicles = [scenario.vehicle(vid) for vid in ids]
    data = np.stack([strategies[vid].data for vid in ids])
    blocks = data.reshape(len(ids), -1, STEP_VARS)
    px, py, psi = blocks[:, :, X_PX], blocks[:, :, X_PY], blocks[:, :, X_PSI]
    cos, sin = np.cos(psi), np.sin(psi)
    box, box_rhs, _ = box_rows(scenario.limits, strategies[ids[0]].segment)
    # Per player: the body's vertex offsets (p, 1, 4), its lane band and its
    # keep-out semi-axes (p, 1, 1).
    lx, wy = np.stack([body_offsets(v.geometry) for v in vehicles]).transpose(2, 0, 1)[:, :, None]
    lanes = [v.behavior.permitted_lanes(road, v.initial.p_y) for v in vehicles]
    upper, lower = (np.array([road.boundary_y(lane) for lane in band])[:, None, None]
                    for band in ([max(l) + 1 for l in lanes], [min(l) for l in lanes]))
    ax, by = np.array([keep_out_axes(v.geometry) for v in vehicles]).T[:, :, None, None]
    vy = py[:, :, None] + (lx * sin[:, :, None] + wy * cos[:, :, None])
    # Pair (i, j): opponent j's offset from player i, in player i's frame.
    dx = px[None, :, :] - px[:, None, :]
    dy = py[None, :, :] - py[:, None, :]
    rx = cos[:, None] * dx + sin[:, None] * dy
    ry = -sin[:, None] * dx + cos[:, None] * dy
    pairs = ~np.eye(len(ids), dtype=bool)
    return max(0.0, *(float(np.max(term, initial=0.0)) for term in (
        box @ data.T - box_rhs[:, None],
        np.maximum(vy - upper, lower - vy),
        keep_out_value(rx, ry, ax, by)[0][pairs])))
