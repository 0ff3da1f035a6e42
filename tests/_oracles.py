"""Independent reference implementations the tests check the package against.

Everything here is deliberately written the slow, obvious way: exhaustive
enumeration instead of pivoting, finite differences instead of hand-derived
calculus. None of it imports solver internals, except the dense QP entry
points (`dense_elimination`, `solve_dense`) and the `kkt_residual`
certificate, which drive the package's own LU on dense data.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
from scipy.linalg import cho_factor, cho_solve


def enumerate_qp(h_mat, f_vec, a_eq, b_eq, a_in, b_in, tol=1e-8):
    """Globally solve a small convex QP by trying every active set.

    For each subset of inequality rows, solve the KKT system that treats those
    rows as equalities, then keep candidates that are primal feasible with
    nonnegative multipliers. Any such candidate is a KKT point of a convex
    problem and therefore a global minimizer; the best objective is returned
    anyway as a guard against numerical ties.

    Returns (s, objective), or (None, None) when no subset produces a feasible
    candidate, which for these problem sizes means the QP is infeasible.
    """
    n = h_mat.shape[0]
    m = a_in.shape[0]
    p = a_eq.shape[0]
    best = None
    best_obj = np.inf
    for r in range(m + 1):
        for subset in itertools.combinations(range(m), r):
            rows = a_in[list(subset)]
            rhs = b_in[list(subset)]
            k = p + r
            kkt = np.zeros((n + k, n + k))
            kkt[:n, :n] = h_mat
            if p:
                kkt[:n, n:n + p] = a_eq.T
                kkt[n:n + p, :n] = a_eq
            if r:
                kkt[:n, n + p:] = rows.T
                kkt[n + p:, :n] = rows
            vec = np.concatenate([-f_vec, b_eq, rhs])
            sol, *_ = np.linalg.lstsq(kkt, vec, rcond=None)
            # Two rounds of iterative refinement: lstsq alone leaves ~1e-9
            # errors on ill-scaled active sets, which a large solution
            # magnifies past the objective tolerances being certified.
            for _ in range(2):
                residual = vec - kkt @ sol
                correction, *_ = np.linalg.lstsq(kkt, residual, rcond=None)
                sol = sol + correction
            if np.linalg.norm(kkt @ sol - vec) > tol * (1.0 + np.linalg.norm(vec)):
                continue
            s = sol[:n]
            lam = sol[n + p:]
            if lam.size and lam.min() < -tol:
                continue
            if p and np.max(np.abs(a_eq @ s - b_eq)) > tol:
                continue
            if m and np.max(a_in @ s - b_in) > tol:
                continue
            obj = 0.5 * s @ h_mat @ s + f_vec @ s
            if obj < best_obj:
                best_obj = obj
                best = s
    if best is None:
        return None, None
    return best, best_obj


def svd_null_space(a_eq, b_eq):
    """Orthonormal null-space basis of A_eq and the minimum-norm
    least-squares solution of A_eq s = b_eq, both from one full SVD.

    Singular values at most max(m, n) * eps * sigma_max count as zero.
    Returns (z_basis, s_part); the rank is n - z_basis.shape[1].
    """
    m, n = a_eq.shape
    if m == 0:
        return np.eye(n), np.zeros(n)
    u, sing, vt = np.linalg.svd(a_eq, full_matrices=True)
    tol = max(m, n) * np.finfo(float).eps * sing[0]
    rank = int(np.sum(sing > tol))
    s_part = vt[:rank].T @ ((u[:, :rank].T @ b_eq) / sing[:rank])
    return vt[rank:].T, s_part


def loop_dynamics_rows(ref_states, ts, length, x0):
    """Euler-chain equality rows built step by step from the hand-derived
    zero-control Jacobians, in the (a, delta, p_x, p_y, v, psi) step layout.
    Step j is linearized at ref_states[j]; x0 enters the first right-hand side.
    """
    n = len(ref_states) - 1
    a_eq = np.zeros((4 * n, 6 * n))
    b_eq = np.zeros(4 * n)
    for j in range(n):
        v, psi = ref_states[j][2], ref_states[j][3]
        a_mat = np.eye(4)
        a_mat[0, 2] = ts * math.cos(psi)
        a_mat[0, 3] = -ts * v * math.sin(psi)
        a_mat[1, 2] = ts * math.sin(psi)
        a_mat[1, 3] = ts * v * math.cos(psi)
        b_mat = np.zeros((4, 2))
        b_mat[2, 0] = ts
        b_mat[3, 1] = ts * v / length
        drift = np.array([v * math.cos(psi), v * math.sin(psi), 0.0, 0.0])
        c_vec = ref_states[j] + ts * drift - a_mat @ ref_states[j]
        rows = slice(4 * j, 4 * j + 4)
        a_eq[rows, 6 * j : 6 * j + 2] = -b_mat
        a_eq[rows, 6 * j + 2 : 6 * j + 6] = np.eye(4)
        if j == 0:
            b_eq[rows] = a_mat @ x0 + c_vec
        else:
            a_eq[rows, 6 * j - 4 : 6 * j] = -a_mat
            b_eq[rows] = c_vec
    return a_eq, b_eq


def loop_box_rows(limits, n):
    """Upper then lower bound row per step for v, then a, then delta."""
    rows, rhs = [], []
    for col, lo, hi in ((4, limits.v_min, limits.v_max), (0, limits.a_min, limits.a_max),
                        (1, limits.delta_min, limits.delta_max)):
        for j in range(n):
            for sign, bound in ((1.0, hi), (-1.0, -lo)):
                row = np.zeros(6 * n)
                row[6 * j + col] = sign
                rows.append(row)
                rhs.append(bound)
    return np.array(rows), np.array(rhs)


def loop_lane_rows(reference, geometry, road, permitted_lanes):
    """Lane-band rows built one vertex offset at a time: for each outer
    boundary of the band, four rows per step (vertex v of step j is row
    4 j + v), linearized about the reference poses, in the (a, delta, p_x,
    p_y, v, psi) step layout."""
    n = len(reference) - 1
    lanes = sorted(permitted_lanes)
    boundaries = (lanes[0], lanes[-1] + 1)
    band_mid = 0.5 * (road.boundary_y(boundaries[0]) + road.boundary_y(boundaries[1]))
    half_l = geometry.extended_length / 2.0
    half_w = geometry.extended_width / 2.0
    offsets = np.array([[half_l, half_w], [-half_l, half_w], [-half_l, -half_w], [half_l, -half_w]])
    poses = reference.states[1:, :]
    blocks = []
    for b_idx in boundaries:
        probe = (float(poses[0, 0]), band_mid)
        a, b, c = road.tangent_at(road.boundary_y(b_idx), (float(poses[0, 0]), float(poses[0, 1])),
                                  probe)
        cos = np.cos(poses[:, 3])
        sin = np.sin(poses[:, 3])
        block = np.zeros((n * 4, 6 * n))
        block_rhs = np.zeros(n * 4)
        for v_idx, (lx, wy) in enumerate(offsets):
            dpsi = a * (-lx * sin - wy * cos) + b * (lx * cos - wy * sin)
            # The vertex's offset from the center; grad f . pose - f at the
            # reference pose, whose position terms cancel.
            ox = lx * cos - wy * sin
            oy = lx * sin + wy * cos
            rows_idx = np.arange(n) * 4 + v_idx
            block[rows_idx, 6 * np.arange(n) + 2] = a
            block[rows_idx, 6 * np.arange(n) + 3] = b
            block[rows_idx, 6 * np.arange(n) + 5] = dpsi
            block_rhs[rows_idx] = dpsi * poses[:, 3] - a * ox - b * oy - c
        blocks.append((block, block_rhs))
    return np.vstack([a for a, _ in blocks]), np.concatenate([b for _, b in blocks])


def densify(rows):
    """Dense matrix of a `SparseRows`, one entry at a time."""
    a = np.zeros(rows.shape)
    for i, (cols, coefs) in enumerate(zip(rows.cols, rows.coef)):
        for col, coef in zip(cols, coefs):
            a[i, col] += coef
    return a


def sparsify(a):
    """`SparseRows` of a dense matrix: each row's nonzero columns in
    increasing order, padded with its zero columns, in increasing order, to
    the longest row's count."""
    from hypertraffic.qp import SparseRows

    a = np.asarray(a, dtype=float)
    nonzero = [np.flatnonzero(row) for row in a]
    k = max((len(c) for c in nonzero), default=0)
    cols = np.zeros((a.shape[0], k), dtype=np.intp)
    for i, (c, row) in enumerate(zip(nonzero, a)):
        cols[i] = np.concatenate([c, np.flatnonzero(row == 0.0)])[:k]
    return SparseRows(cols, np.take_along_axis(a, cols, axis=1), a.shape[1])


def dense_elimination(a_eq, b_eq, start=None):
    """The `qp.Elimination` of dense equality rows A_eq s = b_eq: `particular`
    on the `factor_equalities` of A_eq, with the miss A_eq s - b_eq. With
    `start` = (c_0, A_0, x_0), b_eq's first four entries being c_0 + A_0 x_0,
    the particular solution is formed as the game's cache forms it: s_0 +
    (M A_0) x_0, where s_0 solves b_eq with c_0 in those entries and the
    four columns M solve the unit vectors there."""
    from hypertraffic.qp import Elimination, factor_equalities, particular

    a_eq = np.asarray(a_eq, dtype=float)
    b_eq = np.asarray(b_eq, dtype=float)
    factors = factor_equalities(a_eq)
    if start is None:
        s_part = particular(factors, b_eq)
    else:
        c_0, a_0, x_0 = start
        cols = np.zeros((b_eq.size, 5))
        cols[:, 0] = b_eq
        cols[:4, 0] = c_0
        cols[:4, 1:] = np.eye(4)
        sol = particular(factors, cols)
        s_part = sol[:, 0] + (sol[:, 1:] @ a_0) @ x_0
    return Elimination.of(factors.z_basis, s_part, b_eq, lambda s: a_eq @ s - b_eq)


def forget_player_systems():
    """Empty the static cache of `game`, and with its entries their memos,
    so that the next workspace builds every part afresh."""
    from hypertraffic import game

    game._STATIC_PARTS.clear()


def reduced_qp(h, elimination, gram=None):
    """`qp.ReducedQp` of the quadratic block H, a diagonal with the Gram
    blocks `gram` of Z or dense, on `elimination`, with its own
    `qp.ReducedHessian`."""
    from hypertraffic.qp import ReducedHessian, ReducedQp

    return ReducedQp(ReducedHessian.of(h, elimination.z_basis, gram), elimination)


def solve_dense(h, f, a_eq, b_eq, a_in, b_in, settings=None):
    """minimize 0.5 s'Hs + f's  s.t.  A_eq s = b_eq, A_in s <= b_in, all
    dense, through the game's solver path: `qp.ReducedQp` with the dense H
    on the `dense_elimination`, the inequality rows as `sparsify` reads them.
    Returns the `qp.QpSolution`."""
    from hypertraffic.qp import SolverSettings

    reduced = reduced_qp(h, dense_elimination(a_eq, b_eq))
    return reduced.solve(f, *reduced.reduce_rows(sparsify(a_in), b_in),
                         settings or SolverSettings())


@dataclass(frozen=True)
class KktResiduals:
    """KKT residuals of a candidate point; `mu` are its equality multipliers."""

    stationarity: float
    primal_eq: float
    primal_in: float
    complementarity: float
    min_lambda: float
    mu: np.ndarray


def kkt_residual(h_mat, f_vec, a_eq, b_eq, a_in, b_in, s, lam):
    """KKT residuals of a primal point and its inequality multipliers for
    the dense QP of `solve_dense`. The equality multipliers `mu` solve
    stationarity on the dependent variables of `factor_equalities`; dropped
    rows get zero."""
    from hypertraffic.qp import _lu_solve, factor_equalities

    s = np.asarray(s, dtype=float).reshape(-1)
    lam = np.asarray(lam, dtype=float).reshape(-1)
    grad = h_mat @ s + f_vec
    if a_in.shape[0]:
        grad = grad + a_in.T @ lam
    mu = np.zeros(a_eq.shape[0])
    if a_eq.shape[0]:
        factors = factor_equalities(a_eq)
        mu[factors.rows] = -_lu_solve(factors.l1, factors.upper, grad[factors.dep])
        grad = grad + a_eq.T @ mu
    stationarity = float(np.max(np.abs(grad))) if grad.size else 0.0
    primal_eq = float(np.max(np.abs(a_eq @ s - b_eq))) if a_eq.shape[0] else 0.0
    if a_in.shape[0]:
        slack = a_in @ s - b_in
        primal_in = float(np.max(np.maximum(slack, 0.0)))
        complementarity = float(np.max(np.abs(lam * slack)))
        min_lambda = float(np.min(lam))
    else:
        primal_in = complementarity = min_lambda = 0.0
    return KktResiduals(stationarity, primal_eq, primal_in, complementarity, min_lambda, mu)


def pseudo_gradient(strategies, weights, references):
    """The players' objective gradients h * s + f, with (h, f) from
    `game.objective_qp_data`, stacked by ascending id."""
    from hypertraffic.game import objective_qp_data, reference_vector

    parts = []
    for vid in sorted(strategies):
        strat = strategies[vid]
        h_diag, f_vec = objective_qp_data(weights[vid],
                                          reference_vector(references[vid], strat.segment))
        parts.append(h_diag * strat.data + f_vec)
    return np.concatenate(parts)


# The vectorized dense row builders the library used before its rows became
# sparse, kept as references for the sparse builders: each returns what its
# namesake in `hypertraffic.constraints` returns, with a dense matrix.

def dense_dynamics_rows(reference, geometry, initial_state=None):
    from hypertraffic.dynamics import CONTROL_DIM, linearize_steps

    n = len(reference) - 1
    x0 = (initial_state.as_array() if initial_state is not None else reference.states[0])
    # Linearized at the reference with its positions zeroed: A is the
    # identity on (p_x, p_y), so the affine terms c are position-free.
    nominal = reference.states[:-1].copy()
    nominal[:, :2] = 0.0
    a_mat, b_mat, c_vec = linearize_steps(nominal, np.zeros((n, CONTROL_DIM)), geometry,
                                          reference.ts)
    a_eq = np.zeros((4 * n, 6 * n))
    blocks = a_eq.reshape(n, 4, n, 6)  # [step, row, step, column] view
    j = np.arange(n)
    blocks[j, :, j, 0:2] = -b_mat
    blocks[j, :, j, 2:] = np.eye(4)
    blocks[j[1:], :, j[:-1], 2:] = -a_mat[1:]
    b_eq = c_vec.reshape(-1)
    b_eq[:4] = c_vec[0] + a_mat[0] @ x0
    return a_eq, b_eq, ("dynamics",) * (4 * n)


def dense_box_rows(limits, segment):
    n = segment.n_steps
    steps = np.arange(n)
    blocks = []
    rhs = []
    for col, lo, hi in ((4, limits.v_min, limits.v_max), (0, limits.a_min, limits.a_max),
                        (1, limits.delta_min, limits.delta_max)):
        block = np.zeros((2 * n, 6 * n))
        block[2 * steps, 6 * steps + col] = 1.0
        block[2 * steps + 1, 6 * steps + col] = -1.0
        blocks.append(block)
        rhs.append(np.tile([hi, -lo], n))
    return np.vstack(blocks), np.concatenate(rhs), ("box",) * (6 * n)


def dense_lane_rows(reference, geometry, road, permitted_lanes):
    from hypertraffic.constraints import body_offsets

    n = len(reference) - 1
    lanes = sorted(permitted_lanes)
    boundaries = (lanes[0], lanes[-1] + 1)
    band_mid = 0.5 * (road.boundary_y(boundaries[0]) + road.boundary_y(boundaries[1]))
    offsets = body_offsets(geometry)
    poses = reference.states[1:, :]
    cos = np.cos(poses[:, 3])[:, None]
    sin = np.sin(poses[:, 3])[:, None]
    lx, wy = offsets[:, 0], offsets[:, 1]
    ox = lx * cos - wy * sin
    oy = lx * sin + wy * cos
    rows_idx = np.arange(4 * n)
    cols = np.repeat(6 * np.arange(n), 4)
    blocks = []
    for b_idx in boundaries:
        probe = (float(poses[0, 0]), band_mid)
        a, b, c = road.tangent_at(road.boundary_y(b_idx), (float(poses[0, 0]), float(poses[0, 1])),
                                  probe)
        dpsi = a * (-lx * sin - wy * cos) + b * (lx * cos - wy * sin)
        # grad f . pose - f with f = a (p_x + ox) + b (p_y + oy) + c: the
        # position terms cancel.
        rhs = dpsi * poses[:, 3, None] - a * ox - b * oy - c
        block = np.zeros((n * 4, 6 * n))
        block[rows_idx, cols + 2] = a
        block[rows_idx, cols + 3] = b
        block[rows_idx, cols + 5] = dpsi.reshape(-1)
        blocks.append((block, rhs.reshape(-1)))
    a_rows = np.vstack([a for a, _ in blocks])
    return a_rows, np.concatenate([b for _, b in blocks]), ("lane",) * a_rows.shape[0]


def dense_collision_rows(reference, opponent_strategy, geometry, opponent_id):
    n = len(reference) - 1
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
    # The powers of u = rx / ax and w = ry / by as products.
    u, w = rx / ax, ry / by
    u5, w5 = (u * u) * (u * u) * u, (w * w) * (w * w) * w
    h_ref = 1.0 - u5 * u - w5 * w
    gx = 6.0 * u5 / ax
    gy = 6.0 * w5 / by
    d_px = gx * cos - gy * sin
    d_py = gx * sin + gy * cos
    d_psi = -gx * ry + gy * rx
    a_rows = np.zeros((n, 6 * n))
    cols = 6 * np.arange(n)
    a_rows[np.arange(n), cols + 2] = d_px
    a_rows[np.arange(n), cols + 3] = d_py
    a_rows[np.arange(n), cols + 5] = d_psi
    grad_dot_ref = d_px * poses[:, 0] + d_py * poses[:, 1] + d_psi * poses[:, 3]
    return a_rows, grad_dot_ref - h_ref, (f"collision({opponent_id})",) * n


def dense_behavior_rows(behavior, reference, road):
    from hypertraffic.scenario import STRAIGHT

    n = len(reference) - 1
    if behavior.kind == STRAIGHT:
        a_rows = np.zeros((n, 6 * n))
        a_rows[np.arange(n), 6 * np.arange(n) + 5] = 1.0
        return a_rows, np.full(n, behavior.heading), ("behavior",) * n, True
    y_tgt = road.centerline_y(behavior.target_lane)
    poses = reference.states[1:, :]
    a, b, c = road.tangent_at(
        road.centerline_y(behavior.source_lane),
        (float(poses[0, 0]), float(poses[0, 1])),
        (float(poses[0, 0]), y_tgt),
    )
    a_rows = np.zeros((n, 6 * n))
    cols = 6 * np.arange(n)
    a_rows[np.arange(n), cols + 2] = a
    a_rows[np.arange(n), cols + 3] = b
    return a_rows, np.full(n, -c), ("behavior",) * n, False


@dataclass(frozen=True)
class ConstraintSystem:
    """Stacked affine rows A_eq s = b_eq, A_in s <= b_in with one provenance
    tag per row; `start` is (c_0, A_0, x_0) of the first dynamics step, whose
    right-hand sides are c_0 + A_0 x_0, when the rows come from
    `dense_system`."""

    a_eq: np.ndarray
    b_eq: np.ndarray
    eq_tags: tuple
    a_in: np.ndarray
    b_in: np.ndarray
    in_tags: tuple
    start: tuple = None

    def __post_init__(self):
        if self.a_eq.shape[0] != self.b_eq.shape[0] or self.a_eq.shape[0] != len(self.eq_tags):
            raise ValueError("equality rows, rhs, and tags must agree in length")
        if self.a_in.shape[0] != self.b_in.shape[0] or self.a_in.shape[0] != len(self.in_tags):
            raise ValueError("inequality rows, rhs, and tags must agree in length")
        if self.a_eq.shape[0] and self.a_in.shape[0] and self.a_eq.shape[1] != self.a_in.shape[1]:
            raise ValueError("equality and inequality column counts differ")


def dense_system(player_vid, opponent_strategies, scenario, segment=None, reference=None,
                 initial_state=None):
    """One player's full constraint system against fixed opponent
    strategies, every row built fresh and made dense: its `static_rows`
    from scratch, not from the game's cache, and one one-player
    `collision_rows` call per opponent. Row order: the static equalities;
    then the head inequalities, the keep-out rows by opponent id ascending,
    and the tail. The segment, reference and start state default as
    `game.make_game` defaults them."""
    from hypertraffic.constraints import (
        STEP_VARS, Segment, collision_rows, keep_out_axes, pose_columns, stack_dense,
        start_state, static_rows)
    from hypertraffic.qp import SparseRows

    if segment is None:
        segment = Segment(1, scenario.horizon)
    if reference is None:
        reference = scenario.references()[player_vid].window(segment.start, segment.stop)
    vehicle = scenario.vehicle(player_vid)
    if initial_state is None:
        initial_state = start_state(vehicle, segment, reference)
    rows = static_rows(vehicle, scenario, segment, reference, initial_state)
    n = segment.n_steps
    collisions = []
    for opp_id in sorted(opponent_strategies):
        (grad,), (b_in,) = collision_rows(reference.states[None, 1:],
                                          (keep_out_axes(vehicle.geometry),),
                                          opponent_strategies[opp_id])
        collisions.append((SparseRows(pose_columns(n), grad, STEP_VARS * n), b_in,
                           (f"collision({opp_id})",) * n))
    a_eq, b_eq, eq_tags = stack_dense(rows.eq)
    a_in, b_in, in_tags = stack_dense(rows.head + tuple(collisions) + rows.tail)
    return ConstraintSystem(a_eq=a_eq, b_eq=b_eq, eq_tags=eq_tags, a_in=a_in, b_in=b_in,
                            in_tags=in_tags, start=(*rows.start, initial_state.as_array()))


def block_sum_hessian(z_basis, h_diag, period):
    """Z' diag(h) Z for a diagonal h that repeats `period` weights, as the
    sum over positions j, in ascending order, of h_j Z_j'Z_j, where Z_j
    stacks the rows j, j + period, j + 2 period, ... of Z; a position whose
    rows are all zero adds nothing and is skipped."""
    k = z_basis.shape[1]
    total = np.zeros((k, k))
    for j in range(period):
        z_j = np.ascontiguousarray(z_basis[j::period])
        if np.any(z_j != 0.0):
            total += h_diag[j] * (z_j.T @ z_j)
    return total


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
    u, w = rx / ax, ry / by
    return 1.0 - (u * u) * (u * u) * u * u - (w * w) * (w * w) * w * w


def footprint_vertices(geometry, pose):
    """World positions of the extended rectangle's four vertices for a pose
    (p_x, p_y, psi), counterclockwise from front-left."""
    from hypertraffic.constraints import body_offsets

    px, py, psi = float(pose[0]), float(pose[1]), float(pose[2])
    c, s = math.cos(psi), math.sin(psi)
    rot = np.array([[c, -s], [s, c]])
    return np.array([px, py]) + body_offsets(geometry) @ rot.T


def system_violation(system, s):
    """Worst violation at s of a constraint system's dense rows, A_eq s = b_eq
    and A_in s <= b_in (0 when feasible)."""
    eq = np.abs(system.a_eq @ s - system.b_eq)
    ineq = system.a_in @ s - system.b_in
    return max(float(np.max(eq, initial=0.0)), float(np.max(ineq, initial=0.0)))


VIOLATION_FAMILIES = ("box", "lane", "keep_out")


def loop_profile_violation(strategies, scenario, families=VIOLATION_FAMILIES):
    """`profile_violation` one step, vertex and pair at a time, over the
    violation families named in `families` only."""
    worst = 0.0
    ids = sorted(strategies)
    for vid in ids:
        vehicle = scenario.vehicle(vid)
        strat = strategies[vid]
        states = strat.states()
        controls = strat.blocks()[:, :2]
        lim = scenario.limits
        if "box" in families:
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
        for row in states if "lane" in families else ():
            verts = footprint_vertices(vehicle.geometry, (row[0], row[1], row[3]))
            worst = max(
                worst,
                float(np.max(verts[:, 1] - y_hi, initial=0.0)),
                float(np.max(y_lo - verts[:, 1], initial=0.0)),
            )
        for other in ids if "keep_out" in families else ():
            if other == vid:
                continue
            opp_pos = strategies[other].positions()
            for row, opp in zip(states, opp_pos):
                worst = max(worst, collision_value((row[0], row[1], row[3]), opp, vehicle.geometry))
    return worst


def random_qp(rng, n_max=6, m_max=4, p_max=2):
    """Random strictly convex QP within the sizes the enumeration can afford.

    The right-hand sides are anchored at a random point so most draws are
    feasible, with enough negative slack mixed in that infeasible instances
    show up too.
    """
    n = int(rng.integers(1, n_max + 1))
    p = int(rng.integers(0, min(p_max, n - 1) + 1)) if n > 1 else 0
    m = int(rng.integers(0, m_max + 1))
    r_mat = rng.normal(size=(n, n))
    h_mat = r_mat @ r_mat.T + 0.5 * np.eye(n)
    f_vec = rng.normal(size=n)
    anchor = rng.normal(size=n)
    a_eq = rng.normal(size=(p, n))
    b_eq = a_eq @ anchor
    a_in = rng.normal(size=(m, n))
    b_in = a_in @ anchor + rng.uniform(-0.8, 1.5, size=m)
    return h_mat, f_vec, a_eq, b_eq, a_in, b_in


def loop_gi_solve(g_mat, a_vec, c_mat, d_vec, tol=1e-8, max_iterations=None, warm=()):
    """The dual active-set method of `qp.GiSolver.solve` with nothing kept
    between its steps: every inner step gathers the working rows C_W, forms
    S = C_W G^{-1} C_W' and solves it afresh, every warm-start repair factors
    S again, and the ratio test loops over the working set. Same pivot rules
    (the entering row is the most violated of the rows its last full pass
    `c_mat @ y - d` found violated; the next full pass comes when none is)
    and iteration count, no refinement step. Returns a namespace with
    `status` ("optimal", "infeasible" or "max_iter"), `y`, `lam`,
    `iterations`, `infeasibility` and `working_set`."""
    g_mat = np.atleast_2d(np.asarray(g_mat, dtype=float))
    cho = cho_factor(g_mat, lower=True, check_finite=False)
    dim = g_mat.shape[0]
    c_mat = np.asarray(c_mat, dtype=float).reshape(-1, dim)
    d_vec = np.asarray(d_vec, dtype=float).reshape(-1)
    m = c_mat.shape[0]
    if max_iterations is None:
        max_iterations = 50 + 10 * (m + dim)

    def g_solve(rhs):
        return cho_solve(cho, rhs, check_finite=False)

    # The warm start: drop the row of the most negative multiplier, lowest
    # index first, until none is; cold on a refused factor or budget.
    y = -g_solve(np.asarray(a_vec, dtype=float).reshape(-1))
    work = list(warm)
    ginv_cw = g_solve(c_mat[work].T) if work else None
    iterations = 0
    warm_start = None
    while work and iterations < max_iterations:
        iterations += 1
        c_w = c_mat[work]
        try:
            factor, _ = cho_factor(c_w @ ginv_cw, lower=True)
        except (np.linalg.LinAlgError, ValueError):
            break
        floor = np.maximum(1e-13 * (1.0 + np.sum(c_w * c_w, axis=1)),
                           1e-8 * np.einsum("ij,ji->i", c_w, ginv_cw))
        if np.any(np.diag(factor) ** 2 <= floor):
            break
        lam = cho_solve((factor, True), c_w @ y - d_vec[work])
        j = int(np.argmin(lam))
        if lam[j] >= 0.0:
            warm_start = (y - ginv_cw @ lam, work, lam.tolist(), ginv_cw)
            break
        work.pop(j)
        ginv_cw = np.delete(ginv_cw, j, axis=1)
    y, work, lam_work, ginv_cw = warm_start or (y, [], [], np.zeros((dim, 0)))

    def result(status, infeasibility=0.0):
        lam = np.zeros(m)
        lam[work] = lam_work
        return SimpleNamespace(status=status, y=y, lam=lam, iterations=iterations,
                               infeasibility=infeasibility, working_set=tuple(work))

    scale = 1.0 + np.abs(d_vec)
    cand = np.zeros(0, dtype=int)  # the rows the last full pass found violated
    while True:
        iterations += 1
        if iterations > max_iterations:
            return result("max_iter")
        resid = c_mat[cand] @ y - d_vec[cand]
        if not np.any(resid > tol * scale[cand]):
            resid = c_mat @ y - d_vec
            if np.all(resid <= tol * scale):
                return result("optimal")
            cand = np.flatnonzero(resid > tol * scale)
            resid = resid[cand]
        p = int(cand[np.argmax(resid / scale[cand])])
        c_p = c_mat[p]
        lam_p = 0.0
        while True:
            ginv_cp = g_solve(c_p)
            dlam, dy = np.zeros(0), -ginv_cp
            if work:
                c_w = c_mat[work]
                dlam = -np.linalg.solve(c_w @ ginv_cw, c_w @ ginv_cp)
                dy = dy - ginv_cw @ dlam
            descent = -float(c_p @ dy)
            viol_p = float(c_p @ y - d_vec[p])
            t1, j_out = min(
                ((lam_work[j] / -dlam[j], j) for j in range(len(work)) if dlam[j] < -1e-14),
                default=(np.inf, -1),
            )
            if descent <= max(1e-13 * (1.0 + float(c_p @ c_p)), 1e-8 * float(c_p @ ginv_cp)):
                if j_out < 0:
                    return result("infeasible", viol_p)
                lam_work = [lw + t1 * dl for lw, dl in zip(lam_work, dlam)]
                lam_p += t1
                work.pop(j_out)
                lam_work.pop(j_out)
                ginv_cw = np.delete(ginv_cw, j_out, axis=1)
                continue
            t2 = viol_p / descent
            t = min(t1, t2)
            y = y + t * dy
            lam_work = [lw + t * dl for lw, dl in zip(lam_work, dlam)]
            lam_p += t
            if t2 <= t1:
                work.append(p)
                lam_work.append(lam_p)
                ginv_cw = np.column_stack([ginv_cw, ginv_cp])
                break
            work.pop(j_out)
            lam_work.pop(j_out)
            ginv_cw = np.delete(ginv_cw, j_out, axis=1)


def exact_kkt_objective(h_mat, f_vec, a_eq, b_eq):
    """Objective of the minimizer of 0.5 s'Hs + f's subject to A_eq s = b_eq,
    in exact rational arithmetic on the exact values of the floats: the KKT
    system [[H, A_eq'], [A_eq, 0]] [s; mu] = [-f; b_eq] solved by Gauss-Jordan
    elimination over `fractions.Fraction`. The KKT matrix must be
    nonsingular."""
    n, k = h_mat.shape[0], a_eq.shape[0]
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = h_mat
    kkt[:n, n:] = a_eq.T
    kkt[n:, :n] = a_eq
    rhs = np.concatenate([-np.asarray(f_vec, dtype=float), b_eq])
    rows = [[Fraction(float(x)) for x in row] + [Fraction(float(r))]
            for row, r in zip(kkt, rhs)]
    for col in range(n + k):
        pivot = next(i for i in range(col, n + k) if rows[i][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for i in range(n + k):
            if i != col and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[col])]
    s = [rows[i][-1] for i in range(n)]
    h = [[Fraction(float(x)) for x in row] for row in h_mat]
    quad = sum(s[i] * h[i][j] * s[j] for i in range(n) for j in range(n))
    return quad / 2 + sum(Fraction(float(f)) * x for f, x in zip(f_vec, s))


def fd_step_jacobians(state, control, geometry, ts, eps=1e-6):
    """Central finite differences of the one-step Euler map.

    Returns (d step / d state, d step / d control) as (4, 4) and (4, 2)
    arrays, directly comparable to the linearization's a_mat and b_mat.
    """
    from hypertraffic.dynamics import ControlInput, VehicleState, euler_step

    def step(x_arr, u_arr):
        nxt = euler_step(
            VehicleState.from_array(x_arr), ControlInput(u_arr[0], u_arr[1]), geometry, ts
        )
        return nxt.as_array()

    x0 = state.as_array()
    u0 = control.as_array()
    a_mat = np.zeros((4, 4))
    for i in range(4):
        hi = x0.copy()
        lo = x0.copy()
        hi[i] += eps
        lo[i] -= eps
        a_mat[:, i] = (step(hi, u0) - step(lo, u0)) / (2.0 * eps)
    b_mat = np.zeros((4, 2))
    for i in range(2):
        hi = u0.copy()
        lo = u0.copy()
        hi[i] += eps
        lo[i] -= eps
        b_mat[:, i] = (step(x0, hi) - step(x0, lo)) / (2.0 * eps)
    return a_mat, b_mat


def fd_gradient(func, point, eps=1e-6):
    """Central-difference gradient of a scalar function of a flat array."""
    point = np.asarray(point, dtype=float)
    grad = np.zeros(point.shape)
    for i in range(point.size):
        hi = point.copy()
        lo = point.copy()
        hi[i] += eps
        lo[i] -= eps
        grad[i] = (func(hi) - func(lo)) / (2.0 * eps)
    return grad


def random_nominal(rng):
    """A random but physically sane linearization point."""
    from hypertraffic.dynamics import ControlInput, VehicleState

    state = VehicleState(
        p_x=float(rng.uniform(-50.0, 50.0)),
        p_y=float(rng.uniform(-10.0, 10.0)),
        v=float(rng.uniform(0.5, 20.0)),
        psi=float(rng.uniform(-0.5, 0.5)),
    )
    control = ControlInput(
        a=float(rng.uniform(-4.0, 3.0)),
        delta=float(rng.uniform(-0.4, 0.4)),
    )
    return state, control
