import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st
from scipy.linalg import solve_triangular

from hypertraffic import qp as qp_module
from hypertraffic.constraints import STEP_VARS, Strategy
from hypertraffic.game import (_KeepOut, _PlayerWorkspace, make_game, objective_qp_data,
                               reference_vector)
from hypertraffic.qp import (
    INFEASIBLE,
    MAX_ITER,
    OPTIMAL,
    GiSolver,
    SolverSettings,
    factor_equalities,
    gram_blocks,
    particular,
)
from hypertraffic.scenario import (
    default_offline_scenario,
    default_online_scenario,
    success_study_scenario,
)

from _oracles import (
    block_sum_hessian,
    dense_elimination,
    dense_system,
    enumerate_qp,
    exact_kkt_objective,
    forget_player_systems,
    kkt_residual,
    loop_gi_solve,
    random_qp,
    reduced_qp,
    solve_dense,
    sparsify,
    svd_null_space,
)


def test_unconstrained_minimum():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        r = rng.normal(size=(n, n))
        h = r @ r.T + 0.5 * np.eye(n)
        f = rng.normal(size=n)
        sol = solve_dense(h, f, np.zeros((0, n)), np.zeros(0), np.zeros((0, n)), np.zeros(0))
        assert sol.status == OPTIMAL
        expect = np.linalg.solve(h, -f)
        assert np.max(np.abs(sol.s_star - expect)) < 1e-9


def test_equality_constrained_closed_form():
    # With only equalities the optimum is the unique solution of the saddle
    # point system, which plain numpy can produce directly.
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, n))
        r = rng.normal(size=(n, n))
        h = r @ r.T + 0.5 * np.eye(n)
        f = rng.normal(size=n)
        a_eq = rng.normal(size=(p, n))
        b_eq = rng.normal(size=p)
        kkt = np.block([[h, a_eq.T], [a_eq, np.zeros((p, p))]])
        expect = np.linalg.solve(kkt, np.concatenate([-f, b_eq]))[:n]
        sol = solve_dense(h, f, a_eq, b_eq, np.zeros((0, n)), np.zeros(0))
        assert sol.status == OPTIMAL
        assert np.max(np.abs(sol.s_star - expect)) < 1e-8
        assert np.max(np.abs(a_eq @ sol.s_star - b_eq)) < 1e-9


def test_matches_exhaustive_enumeration():
    rng = np.random.default_rng(11)
    n_infeasible = 0
    for _ in range(300):
        h, f, a_eq, b_eq, a_in, b_in = random_qp(rng)
        expect_s, expect_obj = enumerate_qp(h, f, a_eq, b_eq, a_in, b_in)
        sol = solve_dense(h, f, a_eq, b_eq, a_in, b_in)
        if expect_s is None:
            n_infeasible += 1
            assert sol.status == INFEASIBLE
            continue
        assert sol.status == OPTIMAL
        assert np.max(np.abs(sol.s_star - expect_s)) <= 1e-6
        assert abs(sol.objective - expect_obj) <= 1e-6
    # the draw has to exercise both outcomes for the comparison to mean much
    assert n_infeasible > 0


def test_kkt_residuals_reported_at_solution():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 25:
        problem = random_qp(rng)
        sol = solve_dense(*problem)
        if sol.status != OPTIMAL:
            continue
        checked += 1
        kkt = kkt_residual(*problem, sol.s_star, sol.lam)
        assert kkt.stationarity < 1e-7
        assert kkt.primal_eq < 1e-8
        assert kkt.primal_in < 1e-8
        assert kkt.complementarity < 1e-7
        assert kkt.min_lambda > -1e-9
        assert kkt.mu.shape == problem[3].shape


def test_active_constraint_gets_positive_multiplier():
    # Minimize |s|^2 subject to s_0 >= 1: the bound is active and its
    # multiplier is the known value 2.
    h = 2.0 * np.eye(2)
    f = np.zeros(2)
    a_in = np.array([[-1.0, 0.0]])
    b_in = np.array([-1.0])
    sol = solve_dense(h, f, np.zeros((0, 2)), np.zeros(0), a_in, b_in)
    assert sol.status == OPTIMAL
    assert np.max(np.abs(sol.s_star - np.array([1.0, 0.0]))) < 1e-9
    assert abs(sol.lam[0] - 2.0) < 1e-8


def test_detects_contradictory_rows():
    # s <= 0 together with s >= 1 has no feasible point.
    h = np.eye(1)
    f = np.zeros(1)
    a_in = np.array([[1.0], [-1.0]])
    b_in = np.array([0.0, -1.0])
    sol = solve_dense(h, f, np.zeros((0, 1)), np.zeros(0), a_in, b_in)
    assert sol.status == INFEASIBLE
    assert not sol.ok
    assert sol.infeasibility > 0.0
    # s >= 1 enters first; then s <= 0 cannot be enforced against it.
    assert sol.row == 0


@pytest.mark.parametrize("delta, status", [(1e-3, OPTIMAL), (1e-5, INFEASIBLE)])
def test_a_row_all_but_in_the_working_rows_span_counts_as_dependent(delta, status):
    # s_1 + delta s_2 <= -1 enters first, then s_1 >= 1. Enforcing both takes
    # s_2 = -2 / delta: the second row's descent is delta^2 / (1 + delta^2)
    # of c'G^-1 c. Under 1e-8 of it that descent is what round-off leaves of
    # a row in the working rows' span, so the row reads as dependent and
    # cannot be enforced, rather than taking a step t = viol / descent of
    # order 1 / delta^2.
    a_in = np.array([[1.0, delta], [-1.0, 0.0]])
    sol = solve_dense(np.eye(2), np.zeros(2), np.zeros((0, 2)), np.zeros(0), a_in,
                      np.array([-1.0, -1.0]))
    assert sol.status == status
    if status == OPTIMAL:
        assert np.allclose(sol.s_star, [1.0, -2.0 / delta], rtol=1e-9)
    else:
        assert sol.row == 1 and sol.infeasibility > 1.0


def test_an_infeasible_draw_in_a_plane_ends_on_two_working_rows():
    # Seed 4011589171 draws an infeasible QP whose reduced problem is a
    # plane. With the entry test absolute in |c|^2, a third, dependent row
    # entered and the dual ray ended with multipliers near 5e15.
    h, f, a_eq, b_eq, a_in, b_in = random_qp(np.random.default_rng(4011589171))
    reduced = reduced_qp(h, dense_elimination(a_eq, b_eq))
    sol = reduced.solve(f, *reduced.reduce_rows(sparsify(a_in), b_in), SolverSettings())
    assert reduced.z_basis.shape[1] == 2 and sol.status == INFEASIBLE
    assert len(sol.working_set) <= 2 and np.max(sol.lam) < 1e6


def test_bitwise_determinism():
    rng = np.random.default_rng(3)
    problem = random_qp(rng)
    first = solve_dense(*problem)
    second = solve_dense(*problem)
    assert first.status == second.status
    if first.status == OPTIMAL:
        assert np.array_equal(first.s_star, second.s_star)
        assert np.array_equal(first.lam, second.lam)
        assert first.objective == second.objective


def test_settings_validation():
    with pytest.raises(ValueError):
        SolverSettings(max_iterations=0)
    with pytest.raises(ValueError):
        SolverSettings(violation_eps=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["violation_eps", "step_eps", "qp_tolerance"])
def test_settings_refuse_non_finite_tolerances(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a finite positive number"):
        SolverSettings(**{name: value})


def test_redundant_equality_rows():
    # A duplicated row changes nothing when consistent; when the copies
    # disagree the best equality fit misses each by half the gap.
    h = np.diag([1.0, 2.0, 3.0])
    f = np.array([2.0, 0.0, 0.5])
    a_eq = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    none = (np.zeros((0, 3)), np.zeros(0))
    single_problem = (h, f, a_eq[:1], np.array([1.0]), *none)
    single = solve_dense(*single_problem)
    assert np.max(np.abs(single.s_star - np.array([0.0, 1.0, -1.0 / 6.0]))) < 1e-12
    problem = (h, f, a_eq, np.array([1.0, 1.0]), *none)
    sol = solve_dense(*problem)
    assert sol.status == OPTIMAL
    assert np.max(np.abs(sol.s_star - single.s_star)) < 1e-12
    kkt = kkt_residual(*problem, sol.s_star, sol.lam)
    assert kkt.stationarity <= 1e-9
    # the dropped copy gets a zero multiplier; the kept one carries it all
    assert kkt.mu[1] == 0.0
    single_kkt = kkt_residual(*single_problem, single.s_star, single.lam)
    assert abs(kkt.mu[0] - single_kkt.mu[0]) < 1e-12
    assert sol.row is None
    bad = solve_dense(h, f, a_eq, [1.0, 2.0], *none)
    assert bad.status == INFEASIBLE
    assert abs(bad.infeasibility - 0.5) < 1e-9
    assert bad.row is None  # refused on the equality residual, before any row


@pytest.mark.parametrize(
    "a_eq, b_eq, field",
    [([[np.nan, 0.0, 0.0]], [1.0], "a_eq"), ([[1.0, 0.0, 0.0]], [np.nan], "b_eq")],
)
def test_non_finite_equality_data_is_refused(a_eq, b_eq, field):
    # `factor_equalities` refuses a non-finite A_eq, `particular` a b_eq.
    a_eq = np.array(a_eq)
    with pytest.raises(ValueError, match=f"^QP data {field} has non-finite entries$"):
        particular(factor_equalities(a_eq), b_eq)


def test_kkt_residual_refuses_non_finite_equality_rows():
    # The equality multipliers come from `factor_equalities`, which refuses a
    # non-finite A_eq rather than giving NaN residuals.
    problem = (np.eye(3), np.zeros(3), np.array([[np.nan, 1.0, 0.0]]), np.array([1.0]),
               np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(ValueError, match="^QP data a_eq has non-finite entries$"):
        kkt_residual(*problem, np.zeros(3), np.zeros(0))


def test_non_finite_solve_data_is_refused():
    reduced = reduced_qp(np.eye(2), dense_elimination([[1.0, 1.0]], [1.0]))
    settings = SolverSettings()
    with pytest.raises(ValueError, match="f_vec"):
        reduced.solve([np.inf, 0.0], *reduced.reduce_rows(sparsify(np.zeros((0, 2))), np.zeros(0)),
                      settings)
    with pytest.raises(ValueError, match="b_in"):
        reduced.solve(np.zeros(2), *reduced.reduce_rows(sparsify([[1.0, 0.0]]), [np.nan]), settings)
    # A non-finite row reaches the reduced right-hand side.
    with pytest.raises(ValueError, match="d_red"):
        reduced.solve(np.zeros(2), *reduced.reduce_rows(sparsify([[np.inf, 0.0]]), [1.0]), settings)


def test_reduce_rows_refuses_a_row_count_mismatch():
    # One right-hand side for two rows is refused, not broadcast.
    reduced = reduced_qp(np.eye(2), dense_elimination([[1.0, 1.0]], [1.0]))
    with pytest.raises(ValueError, match="A_in has 2 rows but b_in 1 entries"):
        reduced.reduce_rows(sparsify(np.eye(2)), [1.0])


def test_a_fully_determined_qp_is_refused():
    # Two independent equalities in two variables leave an empty null space,
    # which no game's player system has: the reduced Hessian refuses it.
    with pytest.raises(ValueError, match="^the null-space basis has no column: the equality "
                                         "rows fix every variable$"):
        solve_dense(np.diag([1.0, 2.0]), np.array([0.5, -1.0]), np.array([[1.0, 1.0], [1.0, -1.0]]),
                    [2.0, 1.0], np.array([[1.0, 1.0], [-1.0, 0.0]]), [2.5, -0.5])


def _player_qps(scenario):
    """Each decision player's QP in the scenario's full-horizon game with the
    true weights, opponents held at their reference strategies."""
    game = make_game(scenario, {v.vid: v.weights_true for v in scenario.vehicles})
    seeds = {
        vid: Strategy.from_reference(game.references[vid], game.segment)
        for vid in game.decision_ids
    }
    for vid in game.decision_ids:
        opponents = {k: s for k, s in seeds.items() if k != vid}
        system = dense_system(vid, opponents, scenario, game.segment, game.references[vid],
                              game.initial_states[vid])
        h_diag, f = objective_qp_data(game.weights[vid],
                                      reference_vector(game.references[vid], game.segment))
        yield np.diag(h_diag), f, system


@pytest.mark.parametrize(
    "make_scenario",
    [default_offline_scenario, success_study_scenario, default_online_scenario],
)
def test_lu_basis_matches_svd_oracle_on_player_qps(make_scenario):
    settings = SolverSettings()
    n_optimal = 0
    for h, f, system in _player_qps(make_scenario()):
        a_eq, b_eq, a_in, b_in = system.a_eq, system.b_eq, system.a_in, system.b_in
        reduced = reduced_qp(h, dense_elimination(a_eq, b_eq))
        z_svd, s_part = svd_null_space(a_eq, b_eq)
        assert np.linalg.norm(a_eq @ reduced.z_basis) <= 1e-10 * (1.0 + np.linalg.norm(a_eq))
        assert reduced.z_basis.shape[1] == z_svd.shape[1]
        sol = reduced.solve(f, *reduced.reduce_rows(sparsify(a_in), b_in), settings)
        oracle = GiSolver.of(z_svd.T @ h @ z_svd).solve(
            z_svd.T @ (h @ s_part + f), sparsify(a_in), z_svd,
            b_in - a_in @ s_part, tol=settings.qp_tolerance,
        )
        assert sol.status == oracle.status
        if sol.status != OPTIMAL:
            continue
        n_optimal += 1
        assert np.max(np.abs(sol.s_star - (s_part + z_svd @ oracle.y))) <= 1e-9
        grad = h @ sol.s_star + f + a_in.T @ sol.lam
        mu_ref = np.linalg.lstsq(a_eq.T, -grad, rcond=None)[0]
        mu = kkt_residual(h, f, a_eq, b_eq, a_in, b_in, sol.s_star, sol.lam).mu
        assert np.max(np.abs(mu - mu_ref)) <= 1e-9
    assert n_optimal >= 3


@hyp_settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    copies=st.lists(st.tuples(st.integers(0, 5), st.one_of(st.just(1.0), st.floats(0.25, 4.0))),
                    min_size=1, max_size=3),
    diagonal=st.booleans(),
)
def test_reduced_qp_matches_enumeration_on_degenerate_rows(seed, copies, diagonal):
    # Inequality rows repeated verbatim (scale 1) or as positively scaled
    # copies describe the same half-spaces; the dual active set must still
    # find the enumerated optimum, or report infeasibility exactly when the
    # enumeration finds no feasible point.
    rng = np.random.default_rng(seed)
    h, f, a_eq, b_eq, a_in, b_in = random_qp(rng, m_max=3)
    if diagonal:
        h = rng.uniform(0.5, 3.0, h.shape[0])
    if a_in.shape[0] == 0:
        a_in = rng.normal(size=(1, h.shape[0]))
        b_in = rng.uniform(-0.5, 1.0, 1)
    for row, scale in copies:
        row %= a_in.shape[0]
        a_in = np.vstack([a_in, scale * a_in[row]])
        b_in = np.append(b_in, scale * b_in[row])
    h_mat = np.diag(h) if diagonal else h
    expect_s, expect_obj = enumerate_qp(h_mat, f, a_eq, b_eq, a_in, b_in)
    elimination = dense_elimination(a_eq, b_eq)
    # A diagonal with no repeating pattern has one Gram block per variable.
    gram = gram_blocks(elimination.z_basis, h.shape[0]) if diagonal else None
    reduced = reduced_qp(h, elimination, gram)
    sol = reduced.solve(f, *reduced.reduce_rows(sparsify(a_in), b_in), SolverSettings())
    if expect_s is None:
        assert sol.status == INFEASIBLE
        return
    assert sol.status == OPTIMAL
    assert np.max(np.abs(sol.s_star - expect_s)) <= 1e-6
    assert abs(sol.objective - expect_obj) <= 1e-6
    assert np.all(sol.lam >= 0.0)


def _h121_scenario():
    return replace(default_offline_scenario(), horizon=121)


ALL_SCENARIOS = [default_offline_scenario, success_study_scenario, default_online_scenario,
                 _h121_scenario]


def _reduced_hessians(monkeypatch, scenario):
    """Each decision player's workspace in the scenario's full-horizon game
    with the true weights, with the reduced Hessian its `ReducedHessian`
    factors from the Gram blocks of the static cache."""
    forget_player_systems()
    game = make_game(scenario, {v.vid: v.weights_true for v in scenario.vehicles})
    keep_out = _KeepOut(game)
    seen = []
    original = GiSolver.of.__func__

    def capture(cls, g_mat):
        seen.append(g_mat)
        return original(cls, g_mat)

    monkeypatch.setattr(GiSolver, "of", classmethod(capture))
    for vid in game.decision_ids:
        before = len(seen)
        workspace = _PlayerWorkspace(game, vid, keep_out)
        assert len(seen) == before + 1
        yield game, workspace, seen[-1]


@pytest.mark.parametrize("make_scenario", ALL_SCENARIOS)
def test_the_reduced_hessian_is_bitwise_the_oracles_block_sum(monkeypatch, make_scenario):
    for _, workspace, g_mat in _reduced_hessians(monkeypatch, make_scenario()):
        z_basis = workspace.reduced.z_basis
        assert np.array_equal(g_mat, block_sum_hessian(z_basis, workspace.h_diag, STEP_VARS))
        assert np.array_equal(g_mat, g_mat.T)


@pytest.mark.parametrize("make_scenario", ALL_SCENARIOS)
def test_the_block_sum_is_the_dense_product_to_round_off(monkeypatch, make_scenario):
    # The sum over step positions adds the products of Z'diag(h)Z in another
    # order, so the two agree to round-off, not bitwise.
    for _, workspace, g_mat in _reduced_hessians(monkeypatch, make_scenario()):
        z_basis = workspace.reduced.z_basis
        g_dense = z_basis.T @ np.diag(workspace.h_diag) @ z_basis
        assert np.max(np.abs(g_mat - g_dense)) <= 1e-13 * np.max(np.abs(g_dense))


@pytest.mark.parametrize("make_scenario", ALL_SCENARIOS)
def test_a_best_response_ends_as_the_dense_h_one_shot_solve(monkeypatch, make_scenario):
    settings = SolverSettings()
    statuses = set()
    for game, workspace, _ in _reduced_hessians(monkeypatch, make_scenario()):
        opponents = {vid: Strategy.from_reference(game.references[vid], game.segment)
                     for vid in game.decision_ids if vid != workspace.vid}
        system = dense_system(workspace.vid, opponents, game.scenario, game.segment,
                              game.references[workspace.vid],
                              game.initial_states[workspace.vid])
        one_shot = solve_dense(np.diag(workspace.h_diag), workspace.f_vec, system.a_eq,
                               system.b_eq, system.a_in, system.b_in, settings)
        sol = workspace.best_response(opponents)
        # Near ties among entering rows may resolve in another order.
        assert sol.status == one_shot.status and sol.row == one_shot.row
        assert sorted(sol.working_set) == sorted(one_shot.working_set)
        if sol.status == OPTIMAL:
            assert np.max(np.abs(sol.s_star - one_shot.s_star)) <= 1e-9
        statuses.add(sol.status)
    assert OPTIMAL in statuses


def test_a_diagonal_h_needs_its_gram_blocks_and_a_repeating_pattern():
    elimination = dense_elimination([[1.0, 1.0, 0.0, 0.0]], [1.0])
    gram = gram_blocks(elimination.z_basis, 2)
    assert list(gram.positions) == [0, 1]
    with pytest.raises(ValueError, match="Gram blocks"):
        reduced_qp(np.ones(4), elimination)
    with pytest.raises(ValueError, match="Gram blocks"):
        reduced_qp(np.ones(4), elimination, gram_blocks(np.eye(4), 2))
    with pytest.raises(ValueError, match="repeat its first 2 weights"):
        reduced_qp(np.array([1.0, 2.0, 1.0, 3.0]), elimination, gram)
    with pytest.raises(ValueError, match="multiple of the period 3"):
        gram_blocks(elimination.z_basis, 3)
    h = np.array([1.0, 2.0, 1.0, 2.0])
    reduced = reduced_qp(h, elimination, gram)
    dense = reduced_qp(np.diag(h), elimination)
    f = np.array([0.5, -1.0, 0.0, 2.0])
    sol, want = (r.solve(f, *r.reduce_rows(sparsify(np.zeros((0, 4))), np.zeros(0)),
                         SolverSettings())
                 for r in (reduced, dense))
    assert np.max(np.abs(sol.s_star - want.s_star)) <= 1e-12


@pytest.mark.parametrize("warm, max_iterations, status, point, iterations, working_set", [
    ((), None, OPTIMAL, [1.0, 0.0], 2, (0,)),
    ((0,), None, OPTIMAL, [1.0, 0.0], 2, (0,)),
    # Row 1 gets a negative multiplier and is dropped from the Cholesky
    # factor of S, not factored again; a second solve gives row 0's.
    ((1, 0), None, OPTIMAL, [1.0, 0.0], 3, (0,)),
    # The drop used the whole budget: the start is cold and the loop stops.
    ((1, 0), 1, MAX_ITER, [2.0, 0.0], 2, ()),
    # A repeated row makes S singular: its refused factor counts as one
    # solve, then the cold start.
    ((0, 0), None, OPTIMAL, [1.0, 0.0], 3, (0,)),
])
def test_warm_start_counts_each_repair_solve(warm, max_iterations, status, point, iterations,
                                             working_set):
    # min 0.5 |y|^2 - 2 y_0  s.t.  y_0 <= 1 (active at the optimum), y_1 <= 5.
    eye = np.eye(2)
    res = GiSolver.of(eye).solve([-2.0, 0.0], sparsify(eye), eye, [1.0, 5.0],
                              max_iterations=max_iterations, warm=warm)
    assert res.status == status
    assert np.array_equal(res.y, point)
    assert res.iterations == iterations
    assert res.working_set == working_set


# Hand-worked drops with G = I in three variables. Each ends at iteration 4
# on the working set (2, 1), with row 0, which entered first, dropped.
@pytest.mark.parametrize("a_vec, c_mat, d_vec, point", [
    # A drop after a partial step (t1 < t2). Rows 0 (10 y_0 >= 10) and 2
    # (5 y_2 >= 5) enter: y = (1, 0, 1), lambda_0 = 0.1. Row 1 (y_0 + y_1 >= 3)
    # moves y along (0, 1, 0) while lambda_0 falls by 0.1 a unit: lambda_0
    # reaches zero at t1 = 1 before row 1 holds at t2 = 2, so row 0 leaves
    # at y = (1, 1, 1). Row 1 then enters at y = (1.5, 1.5, 1).
    ([0.0, 0.0, 0.0], [[-10.0, 0.0, 0.0], [-1.0, -1.0, 0.0], [0.0, 0.0, -5.0]],
     [-10.0, -3.0, -5.0], [1.5, 1.5, 1.0]),
    # A dual-only step. From y = (2, 0, 0), rows 0 (10 y_0 <= 10) and 2
    # (5 y_2 >= 5) enter: y = (1, 0, 1), lambda_0 = 0.1. Row 1 (y_0 <= 0.9)
    # is parallel to row 0, so y cannot move: lambda_1 takes over lambda_0
    # until it is zero, row 0 leaves, and row 1 enters at y = (0.9, 0, 1).
    ([-2.0, 0.0, 0.0], [[10.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -5.0]],
     [10.0, 0.9, -5.0], [0.9, 0.0, 1.0]),
])
def test_hand_worked_drops(a_vec, c_mat, d_vec, point):
    eye = np.eye(3)
    res = GiSolver.of(eye).solve(a_vec, sparsify(c_mat), eye, d_vec)
    assert res.status == OPTIMAL
    assert np.array_equal(res.y, point)
    assert res.iterations == 4
    assert res.working_set == (2, 1)


def test_a_tie_in_the_ratio_test_drops_the_lower_index():
    # G = I in three variables, warm on rows 0 (y_0 <= -1) and 1 (y_1 - y_0
    # <= 0): S = [[1, -1], [-1, 2]], y = (-1, -1, 0) and lambda = (2, 1).
    # Row 2 (y_0 + y_1 + y_2 <= -5) is violated by 3. Its u = C_W c_2 =
    # (1, 0) gives dlam = -S^{-1} u = (-2, -1), so both multipliers reach
    # zero at t1 = 1, before row 2 holds at t2 = 3. Row 0, the lower index,
    # leaves; row 1 stays at lambda = 0, since its u is 0 and its multiplier
    # no longer falls, and row 2 enters at y = -(5/3)(1, 1, 1). Had row 1
    # left, row 0's multiplier would fall from zero and the solve would end
    # on (2,) alone.
    eye = np.eye(3)
    c_mat = [[1.0, 0.0, 0.0], [-1.0, 1.0, 0.0], [1.0, 1.0, 1.0]]
    res = GiSolver.of(eye).solve(np.zeros(3), sparsify(c_mat), eye, [-1.0, 0.0, -5.0],
                                 warm=(0, 1))
    assert res.status == OPTIMAL
    assert res.working_set == (1, 2)
    assert res.lam[0] == res.lam[1] == 0.0
    assert abs(res.lam[2] - 5.0 / 3.0) <= 1e-15
    assert np.max(np.abs(res.y + 5.0 / 3.0)) <= 1e-15


def test_ill_conditioned_working_set_meets_the_exact_objective():
    # Criterion 01's draw 540 (rng 2024): two nearly parallel rows are active
    # at the optimum, with multipliers of order 1e5. The refinement step puts
    # the point back on its working rows; the objective must match the exact
    # rational one on that working set.
    rng = np.random.default_rng(2024)
    for _ in range(541):
        h, f, a_eq, b_eq, a_in, b_in = random_qp(rng)
    sol = solve_dense(h, f, a_eq, b_eq, a_in, b_in)
    assert sol.status == OPTIMAL and sol.working_set == (1, 0)
    rows = list(sol.working_set)
    exact = exact_kkt_objective(h, f, np.vstack([a_eq, a_in[rows]]),
                                np.concatenate([b_eq, b_in[rows]]))
    assert abs(Fraction(sol.objective) - exact) <= 1e-8


def _degenerate_rows(a_in, b_in, extra):
    """Append dependent copies of existing inequality rows: `dup` repeats a
    row, `scaled` repeats it times a positive factor, `collinear` adds the
    opposite half-space shifted by `width` (a slab for width > 0, an equality
    for 0, an empty set below; the draw keeps |width| off the solver's
    tolerance, where feasibility is a matter of round-off), and `sum` adds
    the sum of two rows."""
    for kind, row, other, factor, width in extra:
        row %= a_in.shape[0]
        other %= a_in.shape[0]
        if kind == "dup":
            a_new, b_new = a_in[row], b_in[row]
        elif kind == "scaled":
            a_new, b_new = factor * a_in[row], factor * b_in[row]
        elif kind == "collinear":
            a_new, b_new = -factor * a_in[row], -factor * (b_in[row] - width)
        else:
            a_new, b_new = a_in[row] + a_in[other], b_in[row] + b_in[other]
        a_in = np.vstack([a_in, a_new])
        b_in = np.append(b_in, b_new)
    return a_in, b_in


@hyp_settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    extra=st.lists(st.tuples(st.sampled_from(("dup", "scaled", "collinear", "sum")),
                             st.integers(0, 5), st.integers(0, 5), st.floats(0.25, 4.0),
                             st.one_of(st.just(0.0), st.floats(0.01, 1.0),
                                       st.floats(-0.3, -0.01))),
                   min_size=1, max_size=3),
    warm=st.lists(st.integers(0, 63), max_size=8),
)
# An empty slab whose two rows both seed the working set: S is singular, yet
# its Cholesky factor can succeed on a round-off pivot.
@example(seed=3, extra=[("collinear", 0, 0, 1.0, -0.25)], warm=[0, 1])
def test_warm_start_matches_cold_and_enumeration_on_degenerate_rows(seed, extra, warm):
    # Any subset of rows may seed the working set: rows inactive at the
    # optimum, dependent copies, or rows of an infeasible problem. The warm
    # solve must reach the cold solve's status and point, and the enumerated
    # optimum; an empty warm set is the cold solve itself.
    rng = np.random.default_rng(seed)
    h, f, a_eq, b_eq, a_in, b_in = random_qp(rng, m_max=3)
    if a_in.shape[0] == 0:
        a_in = rng.normal(size=(1, h.shape[0]))
        b_in = rng.uniform(-0.5, 1.0, 1)
    a_in, b_in = _degenerate_rows(a_in, b_in, extra)
    warm = tuple(dict.fromkeys(i % a_in.shape[0] for i in warm))
    expect_s, _ = enumerate_qp(h, f, a_eq, b_eq, a_in, b_in)
    reduced = reduced_qp(h, dense_elimination(a_eq, b_eq))
    rows = reduced.reduce_rows(sparsify(a_in), b_in)
    settings = SolverSettings()
    cold = reduced.solve(f, *rows, settings)
    empty = reduced.solve(f, *rows, settings, warm=())
    for name in ("status", "s_star", "lam", "objective", "iterations", "infeasibility",
                 "working_set"):
        assert np.array_equal(getattr(empty, name), getattr(cold, name)), name
    hot = reduced.solve(f, *rows, settings, warm=warm)
    status = INFEASIBLE if expect_s is None else OPTIMAL
    assert cold.status == hot.status == status
    if status == OPTIMAL:
        assert np.max(np.abs(cold.s_star - expect_s)) <= 1e-6
        assert np.max(np.abs(hot.s_star - expect_s)) <= 1e-6
        assert np.max(np.abs(hot.s_star - cold.s_star)) <= 1e-9
        assert np.all(hot.lam >= 0.0)


def _gi_problem(h, f, a_eq, b_eq, a_in, b_in):
    """(Z, G = Z'HZ, a, A_in, d) of a dense QP: the data `GiSolver.solve`
    takes for the reduced problem, A_in read in s-space against Z."""
    reduced = reduced_qp(h, dense_elimination(a_eq, b_eq))
    z_basis = reduced.z_basis
    g_mat = z_basis.T @ h @ z_basis
    g_mat = 0.5 * (g_mat + g_mat.T)
    a_vec = z_basis.T @ (h @ reduced.s_part + f)
    return z_basis, g_mat, a_vec, *reduced.reduce_rows(sparsify(a_in), b_in)


@hyp_settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    extra=st.lists(st.tuples(st.sampled_from(("dup", "scaled", "collinear", "sum")),
                             st.integers(0, 5), st.integers(0, 5), st.floats(0.25, 4.0),
                             st.one_of(st.just(0.0), st.floats(0.01, 1.0),
                                       st.floats(-0.3, -0.01))),
                   max_size=3),
    warm=st.lists(st.integers(0, 63), max_size=8),
    s_space=st.booleans(),
)
# Infeasible draws whose dual ray both find on different working sets: an
# empty slab on a full working set, and two nearly parallel rows in a plane.
@example(seed=1048, extra=[("collinear", 3, 0, 1.0, -0.25)], warm=[], s_space=False)
@example(seed=4011589171, extra=[], warm=[56], s_space=False)
# Three rows seed the warm set in a plane, two of them almost opposite, so S
# is nearly singular (an explicit S^{-1} has entries near 1e16). Each drop
# must still leave a factor of the rows left: the optimum is the cold one.
@example(seed=1852456101, extra=[("dup", 2, 3, 0.5563541670300529, 0.0)],
         warm=[35, 10, 8, 63, 9], s_space=False)
# The same three draws with the rows read in s-space against the basis Z.
@example(seed=1048, extra=[("collinear", 3, 0, 1.0, -0.25)], warm=[], s_space=True)
@example(seed=4011589171, extra=[], warm=[56], s_space=True)
@example(seed=1852456101, extra=[("dup", 2, 3, 0.5563541670300529, 0.0)],
         warm=[35, 10, 8, 63, 9], s_space=True)
def test_updated_factor_matches_the_loop_that_forms_s_afresh(seed, extra, warm, s_space):
    # The oracle re-forms and re-solves S at every step on the dense reduced
    # rows C = A_in Z; the solver updates its Cholesky factor and reads the
    # rows either in s-space, A_in against the elimination's basis Z (which
    # is not the identity when the draw has equality rows), or as C itself
    # against the identity. Same pivots, so the same status; at an optimum,
    # the same working set and points equal to round-off, and without
    # degenerate rows the same iteration count. On which working set an
    # infeasible problem shows its dual ray is decided by round-off: over
    # 100,000 draws of this test, 99 infeasible ones ended on another working
    # set than the oracle's, and 77 when the oracle solves S by Cholesky
    # instead of LU; no optimal one did.
    rng = np.random.default_rng(seed)
    h, f, a_eq, b_eq, a_in, b_in = random_qp(rng)
    if a_in.shape[0] == 0:
        a_in = rng.normal(size=(1, h.shape[0]))
        b_in = rng.uniform(-0.5, 1.0, 1)
    a_in, b_in = _degenerate_rows(a_in, b_in, extra)
    warm = tuple(dict.fromkeys(i % a_in.shape[0] for i in warm))
    z_basis, g_mat, a_vec, rows, d_vec = _gi_problem(h, f, a_eq, b_eq, a_in, b_in)
    c_mat = a_in @ z_basis
    if s_space:
        new = GiSolver.of(g_mat).solve(a_vec, rows, z_basis, d_vec, warm=warm)
    else:
        eye = np.eye(z_basis.shape[1])
        new = GiSolver.of(g_mat).solve(a_vec, sparsify(c_mat), eye, d_vec, warm=warm)
    old = loop_gi_solve(g_mat, a_vec, c_mat, d_vec, warm=warm)
    assert new.status == old.status
    if new.status == INFEASIBLE:
        return
    assert new.working_set == old.working_set
    assert np.max(np.abs(new.y - old.y)) <= 1e-9 * (1.0 + np.max(np.abs(old.y)))
    if not extra:
        assert new.iterations == old.iterations


def test_a_near_singular_warm_set_is_refused_by_the_relative_pivot_test():
    # Seed 1852456101 seeds rows (0, 3, 4) on a 2-dimensional null space: the
    # third Cholesky pivot^2 of S is 2.7e-12, above 1e-13 (1 + |c|^2) but
    # under 1e-8 S_jj = 2.9e-8. The warm start refuses that factor (one
    # solve) and the loop starts cold, as the main loop would refuse the
    # row's entry; an absolute test kept it and dropped all three rows one by
    # one.
    rng = np.random.default_rng(1852456101)
    h, f, a_eq, b_eq, a_in, b_in = random_qp(rng)
    a_in, b_in = _degenerate_rows(a_in, b_in, [("dup", 2, 3, 0.5563541670300529, 0.0)])
    z_basis, g_mat, a_vec, rows, d_vec = _gi_problem(h, f, a_eq, b_eq, a_in, b_in)
    assert z_basis.shape[1] == 2
    solver = GiSolver.of(g_mat)
    cold = solver.solve(a_vec, rows, z_basis, d_vec)
    warm = solver.solve(a_vec, rows, z_basis, d_vec, warm=(0, 3, 4))
    assert warm.status == cold.status == OPTIMAL
    assert warm.iterations == cold.iterations + 1
    assert warm.working_set == cold.working_set
    assert np.array_equal(warm.y, cold.y)
    old = loop_gi_solve(g_mat, a_vec, a_in @ z_basis, d_vec, warm=(0, 3, 4))
    assert old.iterations == warm.iterations


def _spd(rng, dim):
    a = rng.normal(size=(dim, dim))
    return a @ a.T + dim * np.eye(dim)


def _entered(g_mat, c_mat):
    """The `_WorkingSet` of the rows of C entered one by one, each bordering
    R as `GiSolver.solve` does, with multiplier slot j holding j."""
    ws = qp_module._WorkingSet(g_mat.shape[0], [])
    for p, c_p in enumerate(c_mat):
        ginv_cp = np.linalg.solve(g_mat, c_p)
        _, ginv_cw, r_fac = ws.view()
        col = solve_triangular(r_fac, ginv_cw @ c_p, trans="T") if p else np.zeros(0)
        ws.enter(p, float(p), ginv_cp, col, math.sqrt(c_p @ ginv_cp - col @ col))
    return ws


def _assert_factors(r_fac, s_mat):
    """R is upper triangular with R'R = S to 1e-12 of S's largest entry."""
    assert np.array_equal(np.tril(r_fac, -1), np.zeros_like(r_fac))
    assert (np.max(np.abs(r_fac.T @ r_fac - s_mat), initial=0.0)
            <= 1e-12 * np.max(np.abs(s_mat), initial=0.0))


@pytest.mark.parametrize("w", [1, 2, 17, 67])
def test_a_drop_leaves_the_factor_of_the_rows_kept(w):
    # The rows enter one by one, through the buffers' doublings from 16
    # slots; a drop of the first, a middle or the last row must leave R'R
    # the S = C_keep G^{-1} C_keep' of the rows kept, formed afresh, and the
    # slots of exactly the other rows.
    rng = np.random.default_rng(w)
    g_mat = _spd(rng, 80)
    c_mat = rng.normal(size=(w, 80))
    for j in sorted({0, w // 2, w - 1}):
        ws = _entered(g_mat, c_mat)
        lam, ginv_cw, _ = (x.copy() for x in ws.view())
        ws.drop(j)
        keep = np.arange(w) != j
        lam_kept, ginv_kept, r_fac = ws.view()
        assert ws.rows == np.flatnonzero(keep).tolist()
        assert np.array_equal(lam_kept, lam[keep])
        assert np.array_equal(ginv_kept, ginv_cw[keep])
        _assert_factors(r_fac, c_mat[keep] @ np.linalg.solve(g_mat, c_mat[keep].T))


def test_a_warm_start_drops_several_rows_in_a_row():
    # Seven warm rows; three have the most negative multiplier in turn and
    # leave one after the other through `_WorkingSet.drop`. The rows kept,
    # their factor and their multipliers are those of S formed afresh for
    # each repair.
    rng = np.random.default_rng(0)
    dim, w = 10, 7
    g_mat = _spd(rng, dim)
    c_mat, a_vec, d_vec = rng.normal(size=(w, dim)), rng.normal(size=dim), rng.normal(size=w)
    y_free = np.linalg.solve(g_mat, -a_vec)
    y, ws, solves = GiSolver.of(g_mat)._warm_start(y_free, sparsify(c_mat), np.eye(dim), d_vec,
                                                    list(range(w)), 100)
    work = list(range(w))
    while True:
        ginv = np.linalg.solve(g_mat, c_mat[work].T)
        lam = np.linalg.solve(c_mat[work] @ ginv, c_mat[work] @ y_free - d_vec[work])
        if lam.min() >= 0.0:
            break
        work.pop(int(np.argmin(lam)))
    assert ws.rows == work == [1, 4, 5, 6]
    assert solves == 4
    lam_w, ginv_cw, r_fac = ws.view()
    _assert_factors(r_fac, c_mat[work] @ ginv)
    assert np.max(np.abs(ginv_cw - ginv.T)) <= 1e-12 * np.max(np.abs(ginv))
    assert np.max(np.abs(lam_w - lam)) <= 1e-9 * (1.0 + np.max(np.abs(lam)))
    assert np.max(np.abs(y - (y_free - ginv @ lam))) <= 1e-9 * (1.0 + np.max(np.abs(y)))


def test_a_solve_past_the_buffers_first_capacity_matches_the_loop_oracle(monkeypatch):
    # A cold solve whose working set ends on 17 rows: the buffers start with
    # 16 slots and double once. The oracle forms S afresh at every step.
    capacities = []
    init = qp_module._WorkingSet.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        capacities.append(self._lam.size)

    monkeypatch.setattr(qp_module._WorkingSet, "__init__", counting_init)
    rng = np.random.default_rng(4)
    dim, m = 30, 60
    g_mat = _spd(rng, dim)
    c_mat = rng.normal(size=(m, dim))
    a_vec, d_vec = -10.0 * rng.normal(size=dim), rng.uniform(0.0, 1.0, m)
    new = GiSolver.of(g_mat).solve(a_vec, sparsify(c_mat), np.eye(dim), d_vec)
    old = loop_gi_solve(g_mat, a_vec, c_mat, d_vec)
    assert capacities == [16, 32]
    assert new.status == old.status == OPTIMAL
    assert len(new.working_set) == 17
    assert new.working_set == old.working_set
    assert new.iterations == old.iterations
    assert np.max(np.abs(new.y - old.y)) <= 1e-9 * (1.0 + np.max(np.abs(old.y)))


def test_a_long_cold_solve_prices_every_row_only_a_few_times(monkeypatch):
    # The human's round-1 best response at H=121 (it moves first, against the
    # references, from an empty working set) runs about 70 iterations, and
    # every row it enters was found violated by its first pass over all the
    # rows: the steps between full passes price only those candidates.
    scenario = replace(default_offline_scenario(), horizon=121)
    game = make_game(scenario, {v.vid: v.weights_true for v in scenario.vehicles})
    inside, products = [False], []
    solve, matmul = GiSolver.solve, qp_module.SparseRows.__matmul__

    def counting_solve(self, *args, **kwargs):
        inside[0] = True
        try:
            return solve(self, *args, **kwargs)
        finally:
            inside[0] = False

    def counting_matmul(self, x):
        if inside[0]:
            products.append(self.shape)
        return matmul(self, x)

    monkeypatch.setattr(GiSolver, "solve", counting_solve)
    monkeypatch.setattr(qp_module.SparseRows, "__matmul__", counting_matmul)
    (hv,) = [v.vid for v in scenario.vehicles if v.is_hv]
    workspace = _PlayerWorkspace(game, hv, _KeepOut(game))
    seeds = {vid: Strategy.from_reference(game.references[vid], game.segment)
             for vid in game.decision_ids}
    opponents = game.opponents_of(hv, seeds)
    sol = workspace.best_response(opponents)
    assert sol.status == OPTIMAL and sol.iterations >= 60
    assert 1 <= len(products) <= 3
    system = dense_system(hv, opponents, scenario, game.segment, game.references[hv],
                          game.initial_states[hv])
    kkt = kkt_residual(np.diag(workspace.h_diag), workspace.f_vec, system.a_eq, system.b_eq,
                       system.a_in, system.b_in, sol.s_star, sol.lam)
    assert kkt.stationarity < 1e-7
    assert kkt.primal_eq < 1e-8
    assert kkt.primal_in < 1e-8
    assert kkt.complementarity < 1e-7
    assert kkt.min_lambda > -1e-9
