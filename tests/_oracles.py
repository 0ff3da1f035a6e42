"""Independent reference implementations the tests check the package against.

Everything here is deliberately written the slow, obvious way: exhaustive
enumeration instead of pivoting, finite differences instead of hand-derived
calculus. None of it imports solver internals.
"""

import itertools

import numpy as np


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
