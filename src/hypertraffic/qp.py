"""Deterministic convex QP solver with equality and inequality constraints.

The solver eliminates equalities by variable reduction: one LU factorization
with partial pivoting of A_eq' splits the variables into dependent and free
ones, the null-space basis is the identity on the free variables, and the
same triangular factors give the particular solution and the equality
multipliers. A dual active-set method then runs on the reduced problem:
start at the unconstrained minimum, repeatedly enforce the most violated
inequality, dropping working-set rows whose multipliers would cross zero. All
pivots break ties by lowest index, so identical inputs give bitwise-identical
outputs, and the working set at termination yields exact multipliers.

Primal infeasibility surfaces as a dual ray: the violated row cannot be
enforced and no working-set row opposes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, lu, solve_triangular

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
MAX_ITER = "max_iter"


@dataclass(frozen=True)
class SolverSettings:
    """Shared numeric settings for equilibrium iteration and inner QP solves."""

    violation_eps: float = 1e-3
    step_eps: float = 1e-2
    max_iterations: int = 100
    qp_tolerance: float = 1e-8

    def __post_init__(self):
        if self.violation_eps <= 0 or self.step_eps <= 0 or self.qp_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class KktResiduals:
    stationarity: float
    primal_eq: float
    primal_in: float
    complementarity: float
    min_lambda: float


@dataclass(frozen=True)
class QpProblem:
    """minimize 0.5 s'Hs + f's  s.t.  A_eq s = b_eq, A_in s <= b_in."""

    h_mat: np.ndarray
    f_vec: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_in: np.ndarray
    b_in: np.ndarray

    def __post_init__(self):
        h = np.atleast_2d(np.asarray(self.h_mat, dtype=float))
        n = h.shape[0]
        if h.shape != (n, n):
            raise ValueError(f"H must be square, got {h.shape}")
        if not np.allclose(h, h.T, atol=1e-10):
            raise ValueError("H must be symmetric")
        f = np.asarray(self.f_vec, dtype=float).reshape(-1)
        if f.shape != (n,):
            raise ValueError(f"f must have length {n}, got {f.shape}")
        a_eq = np.asarray(self.a_eq, dtype=float).reshape(-1, n) if np.size(self.a_eq) else np.zeros((0, n))
        b_eq = np.asarray(self.b_eq, dtype=float).reshape(-1)
        if a_eq.shape[0] != b_eq.shape[0]:
            raise ValueError("A_eq and b_eq row counts differ")
        a_in = np.asarray(self.a_in, dtype=float).reshape(-1, n) if np.size(self.a_in) else np.zeros((0, n))
        b_in = np.asarray(self.b_in, dtype=float).reshape(-1)
        if a_in.shape[0] != b_in.shape[0]:
            raise ValueError("A_in and b_in row counts differ")
        object.__setattr__(self, "h_mat", h)
        object.__setattr__(self, "f_vec", f)
        object.__setattr__(self, "a_eq", a_eq)
        object.__setattr__(self, "b_eq", b_eq)
        object.__setattr__(self, "a_in", a_in)
        object.__setattr__(self, "b_in", b_in)

    @property
    def n(self):
        return self.h_mat.shape[0]


@dataclass(frozen=True)
class QpSolution:
    status: str
    s_star: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    objective: float
    iterations: int
    kkt: KktResiduals
    infeasibility: float = 0.0

    @property
    def ok(self):
        return self.status == OPTIMAL


@dataclass
class GiResult:
    status: str
    y: np.ndarray
    lam: np.ndarray
    iterations: int
    infeasibility: float = 0.0


class GiSolver:
    """Dual active-set method for min 0.5 y'Gy + a'y s.t. C y <= d with G
    positive definite. The Cholesky factor of G is reused across solves."""

    def __init__(self, g_mat):
        g_mat = np.atleast_2d(np.asarray(g_mat, dtype=float))
        self._g = g_mat
        self._cho = cho_factor(g_mat, lower=True, check_finite=False)
        self.dim = g_mat.shape[0]

    def _g_solve(self, rhs):
        return cho_solve(self._cho, rhs, check_finite=False)

    def solve(self, a_vec, c_mat, d_vec, tol=1e-8, max_iterations=None):
        a_vec = np.asarray(a_vec, dtype=float).reshape(-1)
        c_mat = np.asarray(c_mat, dtype=float).reshape(-1, self.dim)
        d_vec = np.asarray(d_vec, dtype=float).reshape(-1)
        m = c_mat.shape[0]
        if max_iterations is None:
            max_iterations = 50 + 10 * (m + self.dim)

        y = -self._g_solve(a_vec)
        work: list[int] = []
        lam_work: list[float] = []
        # Cache G^{-1} C_W' columns for the current working set.
        ginv_cw = np.zeros((self.dim, 0))

        iterations = 0
        while True:
            iterations += 1
            if iterations > max_iterations:
                lam = np.zeros(m)
                lam[work] = lam_work
                return GiResult(MAX_ITER, y, lam, iterations)
            resid = c_mat @ y - d_vec if m else np.zeros(0)
            scale = 1.0 + np.abs(d_vec) if m else np.zeros(0)
            if m == 0 or np.all(resid <= tol * scale):
                lam = np.zeros(m)
                lam[work] = lam_work
                return GiResult(OPTIMAL, y, lam, iterations)
            p = int(np.argmax(resid / scale))
            c_p = c_mat[p]
            lam_p = 0.0
            while True:
                # Direction pair: move y along dy while growing lambda_p,
                # adjusting working-set multipliers along dlam.
                ginv_cp = self._g_solve(c_p)
                if work:
                    s_mat = c_mat[work] @ ginv_cw
                    dlam = -np.linalg.solve(s_mat, c_mat[work] @ ginv_cp)
                    dy = -ginv_cp - ginv_cw @ dlam
                else:
                    dlam = np.zeros(0)
                    dy = -ginv_cp
                descent = -float(c_p @ dy)  # equals dy'G dy >= 0
                viol_p = float(c_p @ y - d_vec[p])
                blocking = [j for j in range(len(work)) if dlam[j] < -1e-14]
                if descent <= 1e-13 * (1.0 + float(c_p @ c_p)):
                    # Constraint value cannot move: dual-only step.
                    if not blocking:
                        lam = np.zeros(m)
                        lam[work] = lam_work
                        return GiResult(INFEASIBLE, y, lam, iterations, infeasibility=viol_p)
                    t1, j_out = min(
                        ((lam_work[j] / -dlam[j], j) for j in blocking),
                        key=lambda item: (item[0], item[1]),
                    )
                    lam_work = [lw + t1 * dl for lw, dl in zip(lam_work, dlam)]
                    lam_p += t1
                    self._drop(work, lam_work, j_out)
                    ginv_cw = self._ginv_columns(c_mat, work)
                    continue
                t2 = viol_p / descent
                if blocking:
                    t1, j_out = min(
                        ((lam_work[j] / -dlam[j], j) for j in blocking),
                        key=lambda item: (item[0], item[1]),
                    )
                else:
                    t1, j_out = np.inf, -1
                t = min(t1, t2)
                y = y + t * dy
                lam_work = [lw + t * dl for lw, dl in zip(lam_work, dlam)]
                lam_p += t
                if t2 <= t1:
                    work.append(p)
                    lam_work.append(lam_p)
                    ginv_cw = np.column_stack([ginv_cw, ginv_cp])
                    break
                self._drop(work, lam_work, j_out)
                ginv_cw = self._ginv_columns(c_mat, work)

    @staticmethod
    def _drop(work, lam_work, j_out):
        work.pop(j_out)
        lam_work.pop(j_out)

    def _ginv_columns(self, c_mat, work):
        if not work:
            return np.zeros((self.dim, 0))
        return self._g_solve(c_mat[work].T)


def _require_finite(**arrays):
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"QP data {name} has non-finite entries")


def variable_reduction(a_eq):
    """Split the variables of A_eq s = b_eq into dependent and free ones by
    one LU factorization with partial pivoting of A_eq' (variable reduction,
    Nocedal & Wright section 15.3).

    Equality row j is dropped when its pivot is at most max(m, n) * eps times
    the largest pivot before it; the rest are re-factored, so a near-zero
    pivot never feeds the elimination of later rows. Returns (rows, dep, l1,
    upper, z_basis): the kept independent rows, the dependent variables, the
    factors A_eq[rows][:, dep]' = l1 @ upper with l1 unit lower triangular,
    and the null-space basis Z of A_eq, equal to the identity on the free
    variables. With no equality rows every variable is free and Z = I.
    """
    m, n = a_eq.shape
    rows = np.arange(m)
    tol = max(m, n) * np.finfo(float).eps
    while rows.size:
        perm, lower, upper = lu(a_eq[rows].T, p_indices=True, check_finite=False)
        piv = np.abs(np.diag(upper))
        bad = np.flatnonzero(piv <= tol * np.maximum.accumulate(piv))
        if bad.size:
            rows = np.delete(rows, bad[0])
        elif rows.size > n:
            rows = rows[:n]  # n independent rows already span every later one
        else:
            break
    else:  # no independent equality row
        perm, lower, upper = np.arange(n), np.zeros((n, 0)), np.zeros((0, 0))
    rank = rows.size
    order = np.argsort(perm)
    dep, free = order[:rank], order[rank:]
    l1 = lower[:rank]
    z_basis = np.zeros((n, n - rank))
    z_basis[free, np.arange(n - rank)] = 1.0
    z_basis[dep] = -solve_triangular(
        l1, lower[rank:].T, trans="T", lower=True, unit_diagonal=True, check_finite=False,
    )
    return rows, dep, l1, upper, z_basis


class ReducedQp:
    """Equality-eliminated view of a QP with a fixed quadratic block.

    `variable_reduction` yields the null-space basis Z, and its LU factors a
    particular solution for b_eq; the Cholesky factor of Z'HZ is kept too, so
    repeated solves that differ only in the linear term and the inequality
    rows stay cheap. Redundant equality rows are dropped from the
    factorization and get zero multipliers; the particular solution then fits
    b_eq over all rows in the least-squares sense, and `eq_residual` over all
    rows flags inconsistent systems.
    """

    def __init__(self, h_mat, a_eq, b_eq):
        h_mat = np.atleast_2d(np.asarray(h_mat, dtype=float))
        n = h_mat.shape[0]
        a_eq = np.asarray(a_eq, dtype=float).reshape(-1, n) if np.size(a_eq) else np.zeros((0, n))
        b_eq = np.asarray(b_eq, dtype=float).reshape(-1)
        _require_finite(h_mat=h_mat, a_eq=a_eq, b_eq=b_eq)
        self.h_mat = h_mat
        self.a_eq = a_eq
        self.b_eq = b_eq
        self.n = n
        rows, self._dep, self._l1, self._u, self.z_basis = variable_reduction(a_eq)
        rank = rows.size
        self._rows = rows
        self.s_part = np.zeros(n)
        if rank:
            b_fit = b_eq[rows]
            if rank < a_eq.shape[0]:
                # Dropped rows are combinations C of the kept ones; fit the
                # kept right-hand sides y to [I; C] y = b in least squares.
                dropped = np.setdiff1d(np.arange(a_eq.shape[0]), rows)
                c_t = self._lu_solve(a_eq[dropped][:, self._dep].T)
                b_fit = np.linalg.solve(np.eye(rank) + c_t @ c_t.T,
                                        b_fit + c_t @ b_eq[dropped])
            w = solve_triangular(self._u, b_fit, trans="T", lower=False, check_finite=False)
            self.s_part[self._dep] = solve_triangular(
                self._l1, w, trans="T", lower=True, unit_diagonal=True, check_finite=False
            )
        self.eq_residual = float(np.max(np.abs(a_eq @ self.s_part - b_eq))) if a_eq.shape[0] else 0.0
        self.null_dim = self.z_basis.shape[1]
        if self.null_dim:
            g_red = self.z_basis.T @ h_mat @ self.z_basis
            g_red = 0.5 * (g_red + g_red.T)
            self.gi = GiSolver(g_red)
        else:
            self.gi = None
        self._h_spart = h_mat @ self.s_part

    def _lu_solve(self, rhs):
        """Solve (L1 U) x = rhs with the stored triangular factors."""
        y = solve_triangular(self._l1, rhs, lower=True, unit_diagonal=True, check_finite=False)
        return solve_triangular(self._u, y, lower=False, check_finite=False)

    def reduce_rows(self, a_in):
        """Project inequality rows into the null-space coordinates."""
        if not np.size(a_in):
            return np.zeros((0, self.null_dim))
        return np.asarray(a_in, dtype=float).reshape(-1, self.n) @ self.z_basis

    def solve(self, f_vec, a_in, b_in, settings, c_red=None):
        """Solve with the stored quadratic block and fresh linear/inequality data.

        `c_red` may carry precomputed reduced inequality rows (matching a_in).
        """
        f_vec = np.asarray(f_vec, dtype=float).reshape(-1)
        a_in = np.asarray(a_in, dtype=float).reshape(-1, self.n) if np.size(a_in) else np.zeros((0, self.n))
        b_in = np.asarray(b_in, dtype=float).reshape(-1)
        _require_finite(f_vec=f_vec, b_in=b_in)
        tol = settings.qp_tolerance
        eq_scale = 1.0 + (float(np.max(np.abs(self.b_eq))) if self.b_eq.size else 0.0)
        if self.eq_residual > 1e-8 * eq_scale:
            return self._finish(
                INFEASIBLE, self.s_part, np.zeros(a_in.shape[0]), f_vec, a_in, b_in, 0,
                infeasibility=self.eq_residual,
            )
        if self.null_dim == 0:
            resid = a_in @ self.s_part - b_in if a_in.shape[0] else np.zeros(0)
            worst = float(np.max(resid)) if resid.size else 0.0
            status = OPTIMAL if worst <= tol * (1.0 + float(np.max(np.abs(b_in))) if b_in.size else 1.0) else INFEASIBLE
            return self._finish(status, self.s_part, np.zeros(a_in.shape[0]), f_vec, a_in, b_in, 0,
                                infeasibility=max(worst, 0.0))
        a_red = self.z_basis.T @ (self._h_spart + f_vec)
        if c_red is None:
            c_red = self.reduce_rows(a_in)
        d_red = b_in - a_in @ self.s_part if a_in.shape[0] else np.zeros(0)
        res = self.gi.solve(a_red, c_red, d_red, tol=tol)
        s_star = self.s_part + self.z_basis @ res.y
        return self._finish(res.status, s_star, res.lam, f_vec, a_in, b_in, res.iterations,
                            infeasibility=res.infeasibility)

    def _finish(self, status, s_star, lam, f_vec, a_in, b_in, iterations, infeasibility=0.0):
        grad = self.h_mat @ s_star + f_vec
        if a_in.shape[0]:
            grad_full = grad + a_in.T @ lam
        else:
            grad_full = grad
        mu = np.zeros(self.a_eq.shape[0])
        if self._rows.size:
            mu[self._rows] = -self._lu_solve(grad_full[self._dep])
        kkt = _residuals(self.h_mat, f_vec, self.a_eq, self.b_eq, a_in, b_in, s_star, lam, mu)
        objective = float(0.5 * s_star @ self.h_mat @ s_star + f_vec @ s_star)
        return QpSolution(
            status=status,
            s_star=s_star,
            lam=lam,
            mu=mu,
            objective=objective,
            iterations=iterations,
            kkt=kkt,
            infeasibility=infeasibility,
        )


def _residuals(h_mat, f_vec, a_eq, b_eq, a_in, b_in, s, lam, mu):
    grad = h_mat @ s + f_vec
    if a_in.shape[0]:
        grad = grad + a_in.T @ lam
    if a_eq.shape[0]:
        grad = grad + a_eq.T @ mu
    stationarity = float(np.max(np.abs(grad))) if grad.size else 0.0
    primal_eq = float(np.max(np.abs(a_eq @ s - b_eq))) if a_eq.shape[0] else 0.0
    if a_in.shape[0]:
        slack = a_in @ s - b_in
        primal_in = float(np.max(np.maximum(slack, 0.0)))
        complementarity = float(np.max(np.abs(lam * slack)))
        min_lambda = float(np.min(lam))
    else:
        primal_in = 0.0
        complementarity = 0.0
        min_lambda = 0.0
    return KktResiduals(stationarity, primal_eq, primal_in, complementarity, min_lambda)


def solve(problem, settings=None):
    """Solve a convex QP; H must be positive definite on the equality null space.

    Returns a QpSolution carrying the primal point, both multiplier vectors,
    KKT residuals, and a status of optimal / infeasible / max_iter.
    """
    settings = settings or SolverSettings()
    reduced = ReducedQp(problem.h_mat, problem.a_eq, problem.b_eq)
    return reduced.solve(problem.f_vec, problem.a_in, problem.b_in, settings)


def kkt_residual(problem, s, lam, mu):
    """KKT residuals of a candidate primal/dual triple for a QpProblem."""
    s = np.asarray(s, dtype=float).reshape(-1)
    lam = np.asarray(lam, dtype=float).reshape(-1)
    mu = np.asarray(mu, dtype=float).reshape(-1)
    return _residuals(problem.h_mat, problem.f_vec, problem.a_eq, problem.b_eq,
                      problem.a_in, problem.b_in, s, lam, mu)
