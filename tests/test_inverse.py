import numpy as np
import pytest

from hypertraffic import harness, inverse
from hypertraffic.cognition import hv_subjective_game
from hypertraffic.constraints import Segment, Strategy, assemble
from hypertraffic.game import solve_games
from hypertraffic.harness import NoiseSpec, apply_noise, run_online_experiment
from hypertraffic.inverse import (
    InverseSettings,
    Observation,
    interpret_offline,
    interpret_online,
    parameter_error,
)
from hypertraffic.scenario import (
    COMFORT,
    LANE_CHANGE,
    STRAIGHT,
    StyleWeights,
    default_offline_scenario,
    default_online_scenario,
    style_weights_for,
    success_study_scenario,
)

from _oracles import svd_null_space


def _observed_truth(scen):
    result = solve_games(hv_subjective_game(scen))
    assert result.converged
    return result.strategies[0]


def test_settings_validation_and_presets():
    with pytest.raises(ValueError):
        InverseSettings(kappa=0.0)
    with pytest.raises(ValueError):
        InverseSettings(omega_dist=-1.0)
    scen = default_offline_scenario()
    off = InverseSettings.offline(scen)
    assert off.kappa == scen.kappa_offline
    assert off.omega_dist == 0.0
    on = InverseSettings.online(scen)
    assert on.kappa == scen.kappa_online
    assert on.omega_dist == scen.omega_dist


def test_noise_free_recovery_is_exact():
    scen = default_offline_scenario()
    s_actual = _observed_truth(scen)
    interp = interpret_offline(Observation(s_actual), scen)
    err = parameter_error(interp.theta_0c, scen.hv.weights_true, scen.hv.behavior.kind)
    assert err < 1e-8
    assert not interp.low_identifiability
    assert interp.residual < 1e-8
    assert np.all(interp.lam >= 0.0)
    assert interp.warnings == ()
    assert sorted(interp.cav_strategies) == [1, 2, 3]


def test_offline_requires_full_horizon():
    scen = default_offline_scenario()
    s_actual = _observed_truth(scen)
    short = Strategy(Segment(1, 10), s_actual.data[: Segment(1, 10).n_vars])
    with pytest.raises(ValueError):
        interpret_offline(Observation(short), scen)


def test_supplied_cav_strategies_skip_embedded_solve():
    scen = default_offline_scenario()
    s_actual = _observed_truth(scen)
    first = interpret_offline(Observation(s_actual), scen)
    second = interpret_offline(
        Observation(s_actual), scen, cav_strategies=first.cav_strategies
    )
    assert np.array_equal(first.theta_raw, second.theta_raw)
    assert np.array_equal(first.lam, second.lam)


def test_kappa_controls_the_active_set():
    scen = default_offline_scenario()
    s_actual = _observed_truth(scen)
    obs = Observation(s_actual)
    tight = interpret_offline(
        obs, scen, settings=InverseSettings(kappa=0.01, omega_dist=0.0)
    )
    loose = interpret_offline(
        obs, scen, settings=InverseSettings(kappa=50.0, omega_dist=0.0)
    )
    assert len(tight.active_rows) < len(loose.active_rows)
    assert set(tight.active_rows) <= set(loose.active_rows)


def test_violated_rows_are_reported():
    # An observation pushed through a constraint beyond kappa should be
    # flagged, not silently absorbed.
    scen = default_offline_scenario()
    s_actual = _observed_truth(scen)
    data = s_actual.data.copy()
    data[4::6] = scen.limits.v_max + 3.0  # X_V columns
    rough = Strategy(s_actual.segment, data)
    interp = interpret_offline(Observation(rough), scen)
    assert any("treating them as active" in w for w in interp.warnings)


def test_zero_deviation_is_low_identifiability():
    # Observing exactly the reference leaves nothing for the stationarity
    # system to work with: every weight explains it equally well.
    scen = default_offline_scenario()
    ref = scen.references()[0].window(1, scen.horizon)
    seg = Segment(1, scen.horizon)
    obs = Observation(Strategy.from_reference(ref, seg))
    interp = interpret_offline(Observation(obs.strategy), scen)
    assert interp.low_identifiability
    assert interp.sigma_min < 1e-8


def test_online_with_zero_pull_matches_offline():
    scen = default_offline_scenario()
    s_actual = _observed_truth(scen)
    settings = InverseSettings(kappa=scen.kappa_offline, omega_dist=0.0)
    off = interpret_offline(Observation(s_actual), scen, settings=settings)
    prev = style_weights_for(STRAIGHT, COMFORT)
    on = interpret_online(
        Observation(s_actual), prev, scen, settings=settings,
        cav_strategies=off.cav_strategies,
    )
    assert np.allclose(on.theta_raw, off.theta_raw, atol=1e-10)


def test_conservativeness_pulls_toward_previous_estimate():
    scen = default_offline_scenario()
    s_actual = _observed_truth(scen)
    base = interpret_offline(Observation(s_actual), scen)
    prev = style_weights_for(STRAIGHT, COMFORT)
    heavy = interpret_online(
        Observation(s_actual), prev, scen,
        settings=InverseSettings(kappa=scen.kappa_offline, omega_dist=1e6),
        cav_strategies=base.cav_strategies,
    )
    assert np.max(np.abs(heavy.theta_raw - prev.theta)) < 1e-3

    with pytest.raises(ValueError):
        interpret_online(
            Observation(s_actual), None, scen,
            settings=InverseSettings(kappa=scen.kappa_offline, omega_dist=1.0),
            cav_strategies=base.cav_strategies,
        )


def test_online_skips_pull_when_disabled():
    scen = default_offline_scenario()
    s_actual = _observed_truth(scen)
    base = interpret_offline(Observation(s_actual), scen)
    prev = style_weights_for(STRAIGHT, COMFORT)
    settings = InverseSettings(kappa=scen.kappa_offline, omega_dist=1e6)
    free = interpret_online(
        Observation(s_actual), prev, scen, settings=settings,
        include_conservativeness=False, cav_strategies=base.cav_strategies,
    )
    # without the pull the huge omega is inert and the fit tracks the data
    err = parameter_error(free.theta_0c, scen.hv.weights_true, STRAIGHT)
    assert err < 1e-6


def test_parameter_error_formula():
    est = np.array([0.6, 0.8, 0.0])
    true = np.array([1.0, 0.0, 0.0])
    expect = np.linalg.norm(est - true) / np.linalg.norm(true)
    assert parameter_error(est, true, STRAIGHT) == pytest.approx(expect)

    sw_true = style_weights_for(STRAIGHT, COMFORT)
    assert parameter_error(sw_true, sw_true, STRAIGHT) == 0.0
    # a 6-vector is sliced to the effective straight components (p_x, v, a)
    six = np.array([1.0, 9.0, 0.0, 9.0, 0.0, 9.0])
    assert parameter_error(six, np.array([1.0, 0.0, 0.0]), STRAIGHT) == 0.0
    with pytest.raises(ValueError):
        parameter_error(np.ones(4), np.ones(3), STRAIGHT)
    with pytest.raises(ValueError):
        parameter_error(np.ones(3), np.ones(3), LANE_CHANGE)


def _reference_strategy(scen, vid=0):
    seg = Segment(1, scen.horizon)
    return Strategy.from_reference(scen.references()[vid].window(1, scen.horizon), seg)


def test_observation_segment_property():
    scen = default_offline_scenario()
    seg = Segment(1, scen.horizon)
    strat = Strategy.from_reference(scen.references()[0].window(1, scen.horizon), seg)
    obs = Observation(strat, perturbed=(2, 8), noise_std=0.05)
    assert obs.segment == seg
    assert obs.perturbed == (2, 8)


N_VARS = Segment(1, default_offline_scenario().horizon).n_vars


@pytest.mark.parametrize(
    "field, entry, perturbed, noise_std",
    [
        ("strategy", np.nan, (2, 8), 0.05),
        ("strategy", -np.inf, (2, 8), 0.05),
        ("perturbed", None, (2, -1), 0.05),
        ("perturbed", None, (2, N_VARS), 0.05),
        ("noise_std", None, (2, 8), -0.5),
        ("noise_std", None, (2, 8), np.nan),
        ("noise_std", None, (2, 8), np.inf),
    ],
)
def test_observation_refuses_bad_input(field, entry, perturbed, noise_std):
    strat = _reference_strategy(default_offline_scenario())
    data = strat.data.copy()
    if entry is not None:
        data[7] = entry
    with pytest.raises(ValueError, match=f"observation {field}"):
        Observation(Strategy(strat.segment, data), perturbed=perturbed, noise_std=noise_std)


def _svd_null_space(a_eq):
    return svd_null_space(a_eq, np.zeros(a_eq.shape[0]))[0]


def _hv_systems():
    """The human's full-horizon constraint system in each built-in scenario,
    the CAVs held at their reference strategies."""
    for make in (default_offline_scenario, success_study_scenario, default_online_scenario):
        scen = make()
        yield assemble(0, {cav.vid: _reference_strategy(scen, cav.vid) for cav in scen.cavs}, scen)


def test_null_space_is_orthonormal_and_spans_the_svd_null_space():
    for system in _hv_systems():
        z_basis = inverse.null_space(system.a_eq)
        z_svd = _svd_null_space(system.a_eq)
        assert z_basis.shape == z_svd.shape
        assert np.max(np.abs(z_basis.T @ z_basis - np.eye(z_basis.shape[1]))) <= 1e-12
        assert np.linalg.norm(system.a_eq @ z_basis) <= 1e-10 * np.linalg.norm(system.a_eq)
        assert np.max(np.abs(z_basis @ z_basis.T - z_svd @ z_svd.T)) <= 1e-12


def _assert_fits_agree(fast, slow):
    for name in ("theta_raw", "lam", "sigma_min", "residual"):
        a, b = np.asarray(getattr(fast, name)), np.asarray(getattr(slow, name))
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-9 * (1.0 + np.max(np.abs(b), initial=0.0)), name
    assert fast.low_identifiability == slow.low_identifiability
    assert fast.active_rows == slow.active_rows


def test_offline_fit_matches_the_svd_basis_fit(monkeypatch):
    scen = default_offline_scenario()
    s_actual = _observed_truth(scen)
    cavs = interpret_offline(Observation(s_actual), scen).cav_strategies
    for std in (0.0, 0.05, 0.2, 0.4):
        for seed in (0, 1):
            obs = apply_noise(s_actual, NoiseSpec(std), np.random.default_rng([seed, 7]))
            fast = interpret_offline(obs, scen, cav_strategies=cavs)
            with monkeypatch.context() as patch:
                patch.setattr(inverse, "null_space", _svd_null_space)
                slow = interpret_offline(obs, scen, cav_strategies=cavs)
            _assert_fits_agree(fast, slow)


def test_online_stage_fit_matches_the_svd_basis_fit(monkeypatch):
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return interpret_online(*args, **kwargs)

    monkeypatch.setattr(harness, "interpret_online", record)
    run_online_experiment(default_online_scenario(), repetitions=1, seed=0)
    pulled = [(a, k) for a, k in calls if k["include_conservativeness"]]
    assert pulled
    args, kwargs = pulled[0]
    fast = interpret_online(*args, **kwargs)
    monkeypatch.setattr(inverse, "null_space", _svd_null_space)
    slow = interpret_online(*args, **kwargs)
    _assert_fits_agree(fast, slow)
