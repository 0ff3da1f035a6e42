"""Deterministic convex QP solver with equality and inequality constraints.

The solver eliminates equalities by variable reduction: one LU factorization
with partial pivoting of A_eq' splits the variables into dependent and free
ones, the null-space basis is the identity on the free variables, and the
same triangular factors give the particular solution. The factor step
(`factor_equalities`, the one LU, which the inverse fit's null space reads
too) reads A_eq only, so systems that differ in b_eq alone
share it and take their particular solutions by two triangular solves
(`particular`, linear in b_eq, one column per right-hand side); the
resulting `Elimination` does not depend on the objective, so many
objectives can share one. A dual
active-set method then runs on the reduced problem, reading the inequality
rows as the sparse rows A they were built as (`SparseRows`), with d = b -
A s_part: it starts at the unconstrained minimum, or warm on a given
working set (say the one a solve of a nearby problem ended on, which every
solve returns) after dropping its rows with negative multipliers, then
repeatedly enforces a violated inequality, dropping working-set rows whose
multipliers would cross zero. A pass over every row keeps the rows it finds
violated as candidates; each step enters the most violated candidate, and
the next pass over every row comes only when no candidate is violated, so
only such a pass declares the optimum.
All pivots break ties by lowest index, so identical inputs and starting sets
give bitwise-identical outputs. The working rows, their multipliers and the
Cholesky factor L of S are updated in place, not re-formed (an entry borders
L, a drop is a Givens column-delete of L'), so at the optimum one refinement
step puts the point back on those rows; the multipliers keep the round-off of
the steps.

Primal infeasibility surfaces as a dual ray: the violated row cannot be
enforced and no working-set row opposes it. A solve returns the primal point,
the inequality multipliers and a status.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu, qr_delete, solve_triangular
from scipy.linalg.blas import dtrsv
from scipy.linalg.lapack import dpotrf, dpotrs

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
        for name in ("violation_eps", "step_eps", "qp_tolerance"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite positive number, got {value}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class QpSolution:
    """A solve's outcome. `row` is the inequality row an INFEASIBLE solve
    could not enforce, violated by `infeasibility`; None when the solve is
    OPTIMAL, ran out of iterations or was refused on the equality residual."""

    status: str
    s_star: np.ndarray
    lam: np.ndarray
    objective: float
    iterations: int
    infeasibility: float = 0.0
    working_set: tuple = ()
    row: int | None = None

    @property
    def ok(self):
        return self.status == OPTIMAL


@dataclass
class GiResult:
    """`row` is the violated row of an INFEASIBLE solve's dual ray, else None."""

    status: str
    y: np.ndarray
    lam: np.ndarray
    iterations: int
    infeasibility: float = 0.0
    working_set: tuple = ()
    row: int | None = None


@dataclass(frozen=True)
class GiSolver:
    """Dual active-set method (Goldfarb & Idnani, 1983) for min 0.5 y'Gy + a'y
    s.t. C y <= d, C = A Z, with G positive definite, reusing the lower
    Cholesky factor `factor` of G across solves. A full pricing judges
    every row of the `SparseRows` A by one gather of Z y and keeps the
    violated ones as candidates, forming their rows C_cand = A_cand Z once,
    each from at most k rows of Z; later steps price only C_cand y - d_cand
    and enter the most violated candidate (any violated row may enter), and
    the next full pricing comes when no candidate is violated. Rows that
    start in the working set W are formed the same way. A solve keeps W in a
    `_WorkingSet`: the factor of S = C_W G^{-1} C_W' is bordered as a row
    enters and loses a column by Givens rotations as one leaves, so a step
    costs O(|W|^2) plus one pass over the rows G^{-1} c_j of W."""

    factor: np.ndarray

    @classmethod
    def of(cls, g_mat):
        """The solver of G, refused unless G is positive definite."""
        factor, info = dpotrf(np.atleast_2d(np.asarray(g_mat, dtype=float)), lower=1, clean=0)
        if info:
            raise np.linalg.LinAlgError(f"G is not positive definite (LAPACK info {info})")
        return cls(factor)

    @property
    def dim(self):
        return self.factor.shape[0]

    def solve(self, a_vec, rows, z_basis, d_vec, tol=1e-8, max_iterations=None, warm=()):
        """Solve from the start `_warm_start` makes of the row indices `warm`.
        At OPTIMAL, one refinement step y -= G^{-1} C_W' S^{-1} (C_W y - d_W)
        puts y back on its working rows; the multipliers are the last step's."""
        a_vec = np.asarray(a_vec, dtype=float).reshape(-1)
        d_vec = np.asarray(d_vec, dtype=float).reshape(-1)
        m = d_vec.shape[0]
        if max_iterations is None:
            max_iterations = 50 + 10 * (m + self.dim)
        scale = 1.0 + np.abs(d_vec)
        bound = tol * scale
        y, ws, iterations = self._warm_start(
            -dpotrs(self.factor, a_vec, lower=1)[0], rows, z_basis, d_vec, list(warm),
            max_iterations)
        work = ws.rows

        def result(status, infeasibility=0.0, row=None):
            lam = np.zeros(m)
            lam[work] = ws.view()[0]
            return GiResult(status, y, lam, iterations, infeasibility, tuple(work), row)

        # The rows the last full pricing found violated, with their reduced
        # rows, d, scale and bound; none before the first pricing.
        cand = ()
        while True:
            iterations += 1
            if iterations > max_iterations:
                return result(MAX_ITER)
            r = c_cand @ y - d_cand if len(cand) else None
            if r is None or not np.any(r > bound_cand):
                resid = rows @ (z_basis @ y) - d_vec
                if np.all(resid <= bound):
                    if work:
                        _, ginv_cw, r_fac = ws.view()
                        y = y - dpotrs(r_fac, resid[work], lower=0)[0] @ ginv_cw
                    return result(OPTIMAL)
                cand = np.flatnonzero(resid > bound)
                c_cand = _reduced_rows(rows, z_basis, cand)
                d_cand, scale_cand, r = d_vec[cand], scale[cand], resid[cand]
                bound_cand = bound[cand]
            k = int(np.argmax(r / scale_cand))
            p, c_p = int(cand[k]), c_cand[k]
            ginv_cp = dtrsv(self.factor, dtrsv(self.factor, c_p, lower=1), trans=1, lower=1)
            # The descent c_p'G^-1 c_p - u'S^-1 u (u = C_W G^-1 c_p) cancels to
            # round-off as c_p nears the working rows' span: under 1e-8 of
            # c_p'G^-1 c_p the constraint value cannot move; dual-only step.
            floor = max(1e-13 * (1.0 + float(c_p @ c_p)), 1e-8 * float(c_p @ ginv_cp))
            lam_p = 0.0
            while True:
                # Direction pair: move y along dy while growing lambda_p,
                # adjusting working-set multipliers along dlam.
                lam_w, ginv_cw, r_fac = ws.view()
                dlam = -dpotrs(r_fac, ginv_cw @ c_p, lower=0)[0] if work else np.zeros(0)
                dy = -ginv_cp - dlam @ ginv_cw
                descent = -float(c_p @ dy)  # equals dy'G dy >= 0
                viol_p = float(c_p @ y - d_vec[p])
                # Ratio test over the falling multipliers: the first to reach
                # zero at t1 leaves, lowest index on ties; t1 = inf if none.
                j_out, t1 = None, np.inf
                falling = np.flatnonzero(dlam < -1e-14)
                if falling.size:
                    ratios = lam_w[falling] / -dlam[falling]
                    first = int(np.argmin(ratios))
                    j_out, t1 = int(falling[first]), ratios[first]
                if descent <= floor:
                    if t1 == np.inf:
                        return result(INFEASIBLE, viol_p, p)
                    lam_w += t1 * dlam
                    lam_p += t1
                    ws.drop(j_out)
                    continue
                t2 = viol_p / descent
                t = min(t1, t2)
                y = y + t * dy
                lam_w += t * dlam
                lam_p += t
                if t2 <= t1:
                    # Border the factor: row p's Schur complement is descent.
                    ws.enter(p, lam_p, ginv_cp, -(r_fac @ dlam), math.sqrt(descent))
                    break
                ws.drop(j_out)

    def _warm_start(self, y, rows, z_basis, d_vec, work, budget):
        """(y, `_WorkingSet`, solves) of a dual feasible start: from the
        unconstrained minimum y, the minimum with the rows `work` held as
        equalities, y - G^{-1} C_W' lam where S lam = C_W y - d_W, dropping the
        row of the most negative lam (lowest index first) until none is. Each
        solve is one of `budget` iterations. The start is cold if S has
        non-finite entries, no Cholesky factor or a pivot the main loop would
        refuse (a drop shrinks none), or if budget runs out."""
        if not work or budget < 1:
            return y, _WorkingSet(self.dim, []), 0
        c_w = _reduced_rows(rows, z_basis, work)
        ginv_cw = dpotrs(self.factor, c_w.T, lower=1)[0].T
        s_mat = c_w @ ginv_cw.T
        s_chol, info = dpotrf(s_mat, lower=1)
        if (info or not np.isfinite(s_mat).all()
                or np.any(np.diag(s_chol) ** 2 <= np.maximum(
                    1e-13 * (1.0 + np.sum(c_w * c_w, axis=1)), 1e-8 * np.diag(s_mat)))):
            return y, _WorkingSet(self.dim, []), 1
        # The multiplier slots hold C_W y - d_W until the last solve.
        ws = _WorkingSet(self.dim, work, (c_w @ y - d_vec[work], ginv_cw, s_chol.T))
        for solves in range(1, budget + 1):
            rhs, ginv_cw, r_fac = ws.view()
            lam = dpotrs(r_fac, rhs, lower=0)[0]
            j = int(np.argmin(lam))
            if lam[j] >= 0.0:
                rhs[:] = lam
                return y - lam @ ginv_cw, ws, solves
            ws.drop(j)
            if not ws.rows:
                break
        return y, _WorkingSet(self.dim, []), solves


class _WorkingSet:
    """A working set W (the list `rows`, in entry order) with its multipliers,
    rows G^{-1} c_j and the upper factor R = L' of S = C_W G^{-1} C_W' = R'R,
    in buffers that start from `held` and double when full; `view` gives
    (lam, G^{-1} C_W', R), their first |W| entries."""

    def __init__(self, dim, rows, held=(), capacity=16):
        self.rows = rows
        capacity = max(capacity, len(self.rows))
        self._lam, self._ginv = np.empty(capacity), np.empty((capacity, dim))
        self._r = np.zeros((capacity, capacity), order="F")
        for buf, old in zip(self.view(), held):
            buf[...] = old

    def view(self):
        w = len(self.rows)
        return self._lam[:w], self._ginv[:w], self._r[:w, :w]

    def enter(self, p, lam_p, ginv_cp, r_col, pivot):
        """Row p joins W: R gains the column (r_col, pivot)."""
        w = len(self.rows)
        if w == self._lam.size:
            self.__init__(self._ginv.shape[1], self.rows, self.view(), 2 * w)
        self._lam[w], self._ginv[w] = lam_p, ginv_cp
        self._r[:w, w], self._r[w, :w], self._r[w, w] = r_col, 0.0, pivot
        self.rows.append(p)

    def drop(self, j):
        """W's j-th row leaves in place: later slots move up one, and R (a QR
        factor with Q = I) loses column j by the Givens rotations of
        `qr_delete`, so R'R is S of the rows kept, in O(|W|^2); the last
        row leaves without a rotation."""
        w = len(self.rows)
        if j < w - 1:
            qr_delete(np.eye(w), self._r[:w, :w], j, which="col", overwrite_qr=True,
                      check_finite=False)
        self._lam[j:w - 1], self._ginv[j:w - 1] = self._lam[j + 1:w], self._ginv[j + 1:w]
        del self.rows[j]


def _reduced_rows(rows, z_basis, index):
    """The rows `index` of A Z, each a gather of the rows of Z its row of A
    touches."""
    return np.einsum("ij,ijk->ik", rows.coef[index], z_basis[rows.cols[index]])


def _require_finite(**arrays):
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"QP data {name} has non-finite entries")


@dataclass(frozen=True)
class SparseRows:
    """An m x n_cols matrix with at most k nonzeros in a row, kept as the
    (m, k) arrays `cols` and `coef` (the ELLPACK layout): row i is the sum
    over slots j of coef[i, j] times the unit row of column cols[i, j]. A
    row with fewer nonzeros fills its spare slots with coefficient 0. A
    product `rows @ x` gathers the rows of x, k multiply-adds per row and
    column of x in place of n_cols. The arrays are made read-only."""

    cols: np.ndarray
    coef: np.ndarray
    n_cols: int

    def __post_init__(self):
        if self.cols.ndim != 2 or self.cols.shape != self.coef.shape:
            raise ValueError(f"cols and coef must be matrices of one shape, "
                             f"got {self.cols.shape} and {self.coef.shape}")
        self.cols.flags.writeable = self.coef.flags.writeable = False

    @property
    def shape(self):
        return self.cols.shape[0], self.n_cols

    def __matmul__(self, x):
        if x.shape[0] != self.n_cols:
            raise ValueError(f"rows have {self.n_cols} columns, the operand {x.shape[0]} rows")
        return np.einsum("ij,ij...->i...", self.coef, x.take(self.cols, axis=0))


def _lu_solve(l1, upper, rhs):
    """Solve (l1 @ upper) x = rhs with the triangles of an `EqFactors`."""
    y = solve_triangular(l1, rhs, lower=True, unit_diagonal=True, check_finite=False)
    return solve_triangular(upper, y, lower=False, check_finite=False)


@dataclass(frozen=True)
class EqFactors:
    """What A_eq alone fixes, so that a new right-hand side needs only
    `particular`: the kept independent rows `rows`, the dependent variables
    `dep`, the dense factors A_eq[rows][:, dep]' = l1 @ upper with l1 unit
    lower triangular, the dropped rows `dropped` with their coefficients
    `fit` = C' on the kept ones, and the read-only null-space basis
    `z_basis` of A_eq, equal to the identity on the free variables."""

    rows: np.ndarray
    dep: np.ndarray
    l1: np.ndarray
    upper: np.ndarray
    dropped: np.ndarray
    fit: np.ndarray
    z_basis: np.ndarray


def factor_equalities(a_eq):
    """The `EqFactors` of a dense A_eq with finite entries, the one LU of the
    package: one factorization with partial pivoting of A_eq' splits the
    variables into dependent and free ones (variable reduction, Nocedal &
    Wright section 15.3).

    Equality row j is dropped when its pivot is at most max(m, n) * eps times
    the largest pivot before it; the rest are re-factored, so a near-zero
    pivot never feeds the elimination of later rows. `lu` reads A_eq' itself
    until a row is dropped. With no equality rows every variable is free and
    Z = I."""
    _require_finite(a_eq=a_eq)
    m, n = a_eq.shape
    rows, kept = np.arange(m), a_eq
    tol = max(m, n) * np.finfo(float).eps
    while rows.size:
        perm, lower, upper = lu(kept.T, p_indices=True, check_finite=False)
        piv = np.abs(np.diag(upper))
        bad = np.flatnonzero(piv <= tol * np.maximum.accumulate(piv))
        if bad.size:
            rows = np.delete(rows, bad[0])
        elif rows.size > n:
            rows = rows[:n]  # n independent rows already span every later one
        else:
            break
        kept = a_eq[rows]
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
    dropped = np.setdiff1d(np.arange(m), rows)
    # Dropped rows are combinations C of the kept ones.
    fit = _lu_solve(l1, upper, a_eq[dropped][:, dep].T)
    z_basis.flags.writeable = False
    return EqFactors(rows, dep, l1, upper, dropped, fit, z_basis)


@dataclass(frozen=True)
class Elimination:
    """What a QP's equality rows A_eq s = b_eq fix, independent of its
    objective: every feasible point is s_part + Z y, so one elimination can
    be shared by many quadratic blocks; both arrays are read-only.
    `eq_residual` is the largest miss of s_part over all rows, and
    `eq_scale` is 1 + max |b_eq|, the scale that residual is judged against."""

    z_basis: np.ndarray
    s_part: np.ndarray
    eq_residual: float
    eq_scale: float

    @classmethod
    def of(cls, z_basis, s_part, b_eq, eq_miss):
        """The elimination with particular solution `s_part`, made read-only,
        of A_eq s = b_eq, whose miss A_eq s - b_eq is `eq_miss(s)`."""
        s_part.flags.writeable = False
        return cls(z_basis, s_part, float(np.max(np.abs(eq_miss(s_part)), initial=0.0)),
                   1.0 + float(np.max(np.abs(b_eq), initial=0.0)))


def particular(factors, b_eq):
    """A particular solution of A_eq s = b_eq from the `EqFactors` of A_eq,
    by two triangular solves, (n,) for b_eq (m,) or (n, k) for k columns
    (m, k). With dropped rows it fits b_eq over all rows in the
    least-squares sense; s is linear in b_eq either way."""
    b_eq = np.asarray(b_eq, dtype=float)
    rank = factors.rows.size
    if b_eq.shape[0] != rank + factors.dropped.size:
        raise ValueError(f"b_eq has {b_eq.shape[0]} entries for "
                         f"{rank + factors.dropped.size} equality rows")
    _require_finite(b_eq=b_eq)
    s_part = np.zeros((factors.z_basis.shape[0], *b_eq.shape[1:]))
    if rank:
        b_fit = b_eq[factors.rows]
        if factors.dropped.size:
            # Fit the kept right-hand sides y to [I; C] y = b in least squares.
            c_t = factors.fit
            b_fit = np.linalg.solve(np.eye(rank) + c_t @ c_t.T,
                                    b_fit + c_t @ b_eq[factors.dropped])
        w = solve_triangular(factors.upper, b_fit, trans="T", lower=False, check_finite=False)
        s_part[factors.dep] = solve_triangular(
            factors.l1, w, trans="T", lower=True, unit_diagonal=True, check_finite=False
        )
    return s_part


@dataclass(frozen=True)
class GramBlocks:
    """The Gram blocks G_j = Z_j'Z_j of a null-space basis Z, where Z_j holds
    the rows of Z at positions j, j + period, j + 2 period, ...: for a
    diagonal H that repeats `period` weights w along the variables, Z'HZ is
    the sum of w_j G_j (the reduced Hessian of variable reduction, Nocedal &
    Wright section 16.2). `positions` lists, ascending, the j whose rows of Z
    are not all zero, and `blocks` their G_j, read-only."""

    period: int
    positions: np.ndarray
    blocks: np.ndarray


def gram_blocks(z_basis, period):
    """The `GramBlocks` of Z for diagonals that repeat `period` weights."""
    n, k = z_basis.shape
    if period < 1 or n % period:
        raise ValueError(f"Z has {n} rows, not a multiple of the period {period}")
    steps = z_basis.reshape(n // period, period, k)
    positions = np.flatnonzero(np.any(steps != 0.0, axis=(0, 2)))
    blocks = np.empty((positions.size, k, k))
    for out, j in zip(blocks, positions):
        z_j = np.ascontiguousarray(steps[:, j])
        np.matmul(z_j.T, z_j, out=out)
    blocks.flags.writeable = False
    return GramBlocks(period, positions, blocks)


@dataclass(frozen=True)
class ReducedHessian:
    """A QP's quadratic block H, given either as its diagonal, as the game's
    tracking objectives are, or as a dense symmetric matrix, with the
    `GiSolver` of the reduced Hessian Z'HZ on a null-space basis Z. It
    reads no right-hand side, so every QP on the same H and Z can share it;
    h is read-only.

    A diagonal must repeat the first `period` weights of the `GramBlocks` of
    Z that come with it; Z'HZ is then the weighted sum of the blocks, and no
    dense n x n product is formed. The two forms agree to round-off."""

    h: np.ndarray
    gi: GiSolver

    @classmethod
    def of(cls, h, z_basis, gram=None):
        """The reduced Hessian of H on Z, the one place its factor is formed;
        H is refused unless finite and shaped for Z, and Z unless it has a
        column."""
        n, null_dim = z_basis.shape
        if not null_dim:
            raise ValueError("the null-space basis has no column: the equality rows fix "
                             "every variable")
        h = np.asarray(h, dtype=float)
        if h.shape not in ((n,), (n, n)):
            raise ValueError(f"H must be a diagonal of length {n} or a square matrix "
                             f"of that size, got {h.shape}")
        _require_finite(h=h)
        if h.ndim == 1:
            if gram is None or gram.blocks.shape[1:] != (null_dim,) * 2:
                raise ValueError("a diagonal H needs the Gram blocks of its null-space basis")
            period = gram.period
            if h.tobytes() != h[:period].tobytes() * (n // period):
                raise ValueError(f"a diagonal H must repeat its first {period} weights")
            g_red = np.einsum("j,jkl->kl", h[gram.positions], gram.blocks)
        else:
            g_red = z_basis.T @ h @ z_basis
            g_red = 0.5 * (g_red + g_red.T)
        h.flags.writeable = False
        return cls(h, GiSolver.of(g_red))


class ReducedQp:
    """Equality-eliminated view of a QP with a fixed quadratic block.

    The `Elimination` carries the null-space basis Z and the particular
    solution and the `ReducedHessian` the quadratic block H with the
    Cholesky factor of Z'HZ, so repeated solves that differ only in the
    linear term and the inequality rows stay cheap; both can be shared, and
    this class forms only H s_part. With H a diagonal, H s and s'Hs cost
    no dense n x n product.
    """

    def __init__(self, hessian, elimination):
        self.z_basis, self.s_part = elimination.z_basis, elimination.s_part
        self.eq_residual = elimination.eq_residual
        self._eq_scale = elimination.eq_scale
        self.h, self.gi = hessian.h, hessian.gi
        self._h_spart = self.h * self.s_part if self.h.ndim == 1 else self.h @ self.s_part

    def reduce_rows(self, a_in, b_in):
        """Inequality rows A_in s <= b_in in the null-space coordinates y,
        where s = s_part + Z y, as the pair (A_in, b_in - A_in s_part): the
        `SparseRows` A_in stay as they are, and the solver reduces a row
        against Z only when it needs it."""
        b_in = np.asarray(b_in, dtype=float).reshape(-1)
        if b_in.shape != (a_in.shape[0],):
            raise ValueError(f"A_in has {a_in.shape[0]} rows but b_in {b_in.shape[0]} entries")
        _require_finite(b_in=b_in)
        return a_in, b_in - a_in @ self.s_part

    def solve(self, f_vec, rows, d_red, settings, warm=()):
        """Solve with the stored quadratic block, a fresh linear term and
        inequality rows A Z y <= d_red as `reduce_rows` gives them, starting
        the active set from the row indices `warm` (see `GiSolver.solve`)."""
        f_vec = np.asarray(f_vec, dtype=float).reshape(-1)
        _require_finite(f_vec=f_vec, d_red=d_red)
        if self.eq_residual > 1e-8 * self._eq_scale:
            return self._finish(INFEASIBLE, self.s_part, np.zeros(d_red.shape[0]), f_vec, 0,
                                infeasibility=self.eq_residual)
        a_red = self.z_basis.T @ (self._h_spart + f_vec)
        res = self.gi.solve(a_red, rows, self.z_basis, d_red, tol=settings.qp_tolerance,
                            warm=warm)
        s_star = self.s_part + self.z_basis @ res.y
        return self._finish(res.status, s_star, res.lam, f_vec, res.iterations,
                            res.infeasibility, res.working_set, res.row)

    def _finish(self, status, s_star, lam, f_vec, iterations, infeasibility=0.0, working_set=(),
                row=None):
        half = 0.5 * s_star
        quad = (half * self.h if self.h.ndim == 1 else half @ self.h) @ s_star
        objective = float(quad + f_vec @ s_star)
        return QpSolution(status, s_star, lam, objective, iterations, infeasibility, working_set,
                          row)

