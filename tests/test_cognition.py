import numpy as np
import pytest

from hypertraffic.cognition import (
    average_weights,
    cognitive_threshold,
    hne_gap_sweep,
    hv_subjective_game,
    interpolated_scenario,
    plan_cavs,
    predict_hv,
    verify_hne,
)
from hypertraffic.constraints import STEP_VARS, Strategy, X_PY
from hypertraffic.game import solve_games
from hypertraffic.scenario import default_offline_scenario, style_weights_for


def _scen():
    return default_offline_scenario()


def test_average_weights_are_the_typical_styles():
    scen = _scen()
    ave = average_weights(scen)
    assert sorted(ave) == [1, 2, 3]
    for cav in scen.cavs:
        expect = style_weights_for(cav.behavior.kind, cav.style)
        assert np.array_equal(ave[cav.vid].theta, expect.theta)


def test_cognitive_threshold_scales_linearly_with_mismatch():
    scen = _scen()
    full = cognitive_threshold(scen)
    assert full > 0.0
    for alpha in (0.0, 0.25, 0.5, 1.0):
        eps = cognitive_threshold(interpolated_scenario(scen, alpha))
        assert eps == pytest.approx(alpha * full, abs=1e-12)


def test_cognitive_threshold_is_the_worst_cav():
    scen = _scen()
    ave = average_weights(scen)
    expect = max(
        float(np.linalg.norm(cav.weights_true.theta - ave[cav.vid].theta))
        for cav in scen.cavs
    )
    assert cognitive_threshold(scen) == pytest.approx(expect)


def test_subjective_and_perceived_games_align_at_exact_estimate():
    # When the estimate equals the human's true weights the perceived game is
    # the subjective game, so both sides compute the same human trajectory.
    scen = _scen()
    subjective = solve_games(hv_subjective_game(scen))
    model = predict_hv(scen, scen.hv.weights_true)
    assert model.result.converged
    dev = model.s_0c.data - subjective.strategies[0].data
    assert np.max(np.abs(dev)) < 1e-9
    assert sorted(model.cav_views) == [1, 2, 3]


def test_perceived_game_uses_estimate_for_the_human():
    scen = _scen()
    guess = style_weights_for(scen.hv.behavior.kind, scen.hv.style)
    game = hv_subjective_game(scen, hv_weights=guess)
    assert np.array_equal(game.weights[0].theta, guess.theta)
    for cav in scen.cavs:
        typical = style_weights_for(cav.behavior.kind, cav.style)
        assert np.array_equal(game.weights[cav.vid].theta, typical.theta)


def test_plan_cavs_keeps_the_human_fixed():
    scen = _scen()
    model = predict_hv(scen, scen.hv.weights_true)
    plans, result, trace = plan_cavs(scen, model.s_0c)
    assert sorted(plans) == [1, 2, 3]
    assert result.converged and not result.degraded
    assert trace.rounds == result.iterations and trace.message_count > 0


def test_verify_hne_accepts_the_aligned_pipeline():
    scen = interpolated_scenario(_scen(), 0.0)
    model = predict_hv(scen, scen.hv.weights_true)
    plans, _, _ = plan_cavs(scen, model.s_0c)
    profile = {0: model.s_0c}
    profile.update(plans)
    verdict = verify_hne(profile, scen, eps_p=1e-4)
    assert verdict.ok
    assert verdict.failing == ()
    assert verdict.hv_gap <= 1e-4
    assert verdict.max_violation <= 1e-3


def test_verify_hne_refuses_a_profile_without_a_player():
    scen = _scen()
    model = predict_hv(scen, scen.hv.weights_true)
    with pytest.raises(ValueError, match="^decision player 1 has no strategy in the profile$"):
        verify_hne({0: model.s_0c}, scen, eps_p=1e-4)


def test_verify_hne_flags_deviating_players():
    scen = interpolated_scenario(_scen(), 0.0)
    model = predict_hv(scen, scen.hv.weights_true)
    plans, _, _ = plan_cavs(scen, model.s_0c)
    profile = {0: model.s_0c}
    profile.update(plans)

    bent_hv = dict(profile)
    data = bent_hv[0].data.copy()
    data[X_PY::STEP_VARS] += 0.05
    bent_hv[0] = Strategy(bent_hv[0].segment, data)
    verdict = verify_hne(bent_hv, scen, eps_p=1e-4)
    assert not verdict.ok
    assert 0 in verdict.failing
    assert verdict.hv_gap > 1e-4
    # a roomier perceptual threshold forgives the human deviation
    lenient = verify_hne(bent_hv, scen, eps_p=verdict.hv_gap * 1.01)
    assert 0 not in lenient.failing

    bent_cav = dict(profile)
    data = bent_cav[2].data.copy()
    data[X_PY::STEP_VARS] += 0.05
    bent_cav[2] = Strategy(bent_cav[2].segment, data)
    verdict = verify_hne(bent_cav, scen, eps_p=1e-4)
    assert not verdict.ok
    assert 2 in verdict.failing


@pytest.mark.parametrize("thresholds", [{"eps_p": float("nan")}, {"eps_p": 0.0},
                                        {"eps_p": -1e-3}, {"gap_tol": float("nan")},
                                        {"gap_tol": 0.0}], ids=str)
def test_verify_hne_refuses_a_nan_or_non_positive_threshold(thresholds):
    # A human guessed to drive for speed sits far from its best response, so
    # a NaN threshold, which no gap exceeds, would let it pass.
    scen = _scen()
    model = predict_hv(scen, style_weights_for(scen.hv.behavior.kind, "velocity_consistent"))
    plans, _, _ = plan_cavs(scen, model.s_0c)
    profile = {0: model.s_0c, **plans}
    verdict = verify_hne(profile, scen, eps_p=1e-3)
    assert 0 in verdict.failing and verdict.hv_gap > 1.0
    assert 0 not in verify_hne(profile, scen, eps_p=float("inf")).failing
    name = next(iter(thresholds))
    with pytest.raises(ValueError, match=f"{name} must be a positive number or inf"):
        verify_hne(profile, scen, **{"eps_p": 1e-3, **thresholds})


def test_gap_sweep_grows_from_zero_with_positive_slope():
    scen = _scen()
    sweep = hne_gap_sweep(scen, alphas=(0.0, 0.5, 1.0))
    assert len(sweep.rows) == 3
    eps_values = [eps for eps, _ in sweep.rows]
    assert eps_values == sorted(eps_values)
    assert sweep.rows[0][0] == 0.0
    # no mismatch, no gap beyond solver tolerance
    assert sweep.rows[0][1] <= 1e-4
    assert sweep.rows[-1][1] > sweep.rows[0][1]
    gaps = [gap for _, gap in sweep.rows]
    assert all(b >= a - 1e-9 for a, b in zip(gaps, gaps[1:]))
    assert np.isfinite(sweep.slope)
    assert sweep.slope > 0.0


def test_interpolated_scenario_endpoints():
    scen = _scen()
    typical = interpolated_scenario(scen, 0.0)
    for cav in typical.cavs:
        expect = style_weights_for(cav.behavior.kind, cav.style)
        assert np.allclose(cav.weights_true.theta, expect.theta, atol=1e-15)
    original = interpolated_scenario(scen, 1.0)
    for cav in original.cavs:
        assert np.allclose(
            cav.weights_true.theta, scen.vehicle(cav.vid).weights_true.theta, atol=1e-15
        )
    # the human's weights are never interpolated
    assert np.array_equal(typical.hv.weights_true.theta, scen.hv.weights_true.theta)
