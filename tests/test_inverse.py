from dataclasses import replace

import numpy as np
import pytest

from hypertraffic import constraints, harness, inverse, qp
from hypertraffic import game as game_module
from hypertraffic.cognition import hv_subjective_game
from hypertraffic.constraints import Segment, Strategy, coefficient_key, start_state
from hypertraffic.game import solve_games
from hypertraffic.harness import apply_noise, run_online_experiment
from hypertraffic.inverse import (
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

from _oracles import dense_system, densify, forget_player_systems, svd_null_space


def _observed_truth(scen):
    result = solve_games(hv_subjective_game(scen))
    assert result.converged
    return result.strategies[0]


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
    tight = interpret_offline(obs, replace(scen, kappa_offline=0.01))
    loose = interpret_offline(obs, replace(scen, kappa_offline=50.0))
    assert len(tight.active_rows) < len(loose.active_rows)
    assert set(tight.active_rows) <= set(loose.active_rows)


def test_online_active_rows_follow_kappa_online():
    scen = default_offline_scenario()
    s_actual = _observed_truth(scen)
    cavs = interpret_offline(Observation(s_actual), scen).cav_strategies
    prev = style_weights_for(STRAIGHT, COMFORT)

    def online_rows(**kappas):
        return interpret_online(Observation(s_actual), prev, replace(scen, **kappas),
                                cav_strategies=cavs).active_rows

    tight = online_rows(kappa_online=0.01, kappa_offline=50.0)
    loose = online_rows(kappa_online=50.0, kappa_offline=0.01)
    assert len(tight) < len(loose)
    assert tight == online_rows(kappa_online=0.01, kappa_offline=0.01)
    assert loose == online_rows(kappa_online=50.0, kappa_offline=50.0)


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
    assert interp.warnings[0] == ("observation violates 35 constraint rows beyond kappa (box); "
                                  "treating them as active")


def test_violated_rows_are_named_by_their_family_tags():
    # The human's last five poses put on CAV 1's, which ends in the human's
    # lane: the warning names the rows by the stack's tags, so it names the
    # keep-out rows against CAV 1 and nothing else.
    scen = default_offline_scenario()
    s_actual = _observed_truth(scen)
    cavs, _ = inverse._embedded_cav_solve(Observation(s_actual), scen)
    data = s_actual.data.copy()
    data.reshape(-1, 6)[-5:, 2:4] = cavs[1].positions()[-5:]  # (p_x, p_y) columns
    interp = interpret_offline(Observation(Strategy(s_actual.segment, data)), scen,
                               cav_strategies=cavs)
    assert interp.warnings == ("observation violates 5 constraint rows beyond kappa "
                               "(collision(1)); treating them as active",)


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
    off = interpret_offline(Observation(s_actual), scen)
    prev = style_weights_for(STRAIGHT, COMFORT)
    on = interpret_online(
        Observation(s_actual), prev,
        replace(scen, kappa_online=scen.kappa_offline, omega_dist=0.0),
        cav_strategies=off.cav_strategies,
    )
    assert np.allclose(on.theta_raw, off.theta_raw, atol=1e-10)


def test_conservativeness_pulls_toward_previous_estimate():
    scen = default_offline_scenario()
    s_actual = _observed_truth(scen)
    base = interpret_offline(Observation(s_actual), scen)
    prev = style_weights_for(STRAIGHT, COMFORT)
    heavy = interpret_online(
        Observation(s_actual), prev,
        replace(scen, kappa_online=scen.kappa_offline, omega_dist=1e6),
        cav_strategies=base.cav_strategies,
    )
    assert np.max(np.abs(heavy.theta_raw - prev.theta)) < 1e-3

    with pytest.raises(ValueError):
        interpret_online(
            Observation(s_actual), None,
            replace(scen, kappa_online=scen.kappa_offline, omega_dist=1.0),
            cav_strategies=base.cav_strategies,
        )


def test_online_skips_pull_when_disabled():
    scen = default_offline_scenario()
    s_actual = _observed_truth(scen)
    base = interpret_offline(Observation(s_actual), scen)
    prev = style_weights_for(STRAIGHT, COMFORT)
    free = interpret_online(
        Observation(s_actual), prev,
        replace(scen, kappa_online=scen.kappa_offline, omega_dist=1e6),
        include_conservativeness=False, cav_strategies=base.cav_strategies,
    )
    # without the pull the huge omega is inert and the fit tracks the data
    err = parameter_error(free.theta_0c, scen.hv.weights_true, STRAIGHT)
    assert err < 1e-6


def test_parameter_error_formula():
    # Straight effective components are (p_x, v, a), entries 0, 2 and 4.
    est = StyleWeights(np.array([0.6, 1.0, 0.8, 1.0, 0.01, 1.0]))
    true = StyleWeights(np.array([1.0, 1.0, 0.01, 1.0, 0.01, 1.0]))
    unit_est = np.array([0.6, 0.8, 0.01]) / np.linalg.norm([0.6, 0.8, 0.01])
    unit_true = np.array([1.0, 0.01, 0.01]) / np.linalg.norm([1.0, 0.01, 0.01])
    expect = np.linalg.norm(unit_est - unit_true)
    assert parameter_error(est, true, STRAIGHT) == pytest.approx(expect, rel=1e-12)

    sw_true = style_weights_for(STRAIGHT, COMFORT)
    assert parameter_error(sw_true, sw_true, STRAIGHT) == 0.0
    # Only the effective components count, and only their direction.
    other = StyleWeights(np.array([2.0, 9.0, 0.02, 9.0, 0.02, 9.0]))
    assert parameter_error(other, true, STRAIGHT) == pytest.approx(0.0, abs=1e-15)
    # Every component counts for a lane change.
    unit = [w.theta / np.linalg.norm(w.theta) for w in (other, true)]
    assert parameter_error(other, true, LANE_CHANGE) == pytest.approx(
        np.linalg.norm(unit[0] - unit[1]), rel=1e-12)
    # A vector of the wrong size is refused where weights are made.
    with pytest.raises(ValueError):
        StyleWeights(np.ones(3))


def _reference_strategy(scen, vid=0):
    seg = Segment(1, scen.horizon)
    return Strategy.from_reference(scen.references()[vid].window(1, scen.horizon), seg)


def test_observation_segment_property():
    scen = default_offline_scenario()
    seg = Segment(1, scen.horizon)
    strat = Strategy.from_reference(scen.references()[0].window(1, scen.horizon), seg)
    obs = Observation(strat)
    assert obs.segment == seg


@pytest.mark.parametrize("field, entry", [("strategy", np.nan), ("strategy", -np.inf)])
def test_observation_refuses_bad_input(field, entry):
    strat = _reference_strategy(default_offline_scenario())
    data = strat.data.copy()
    data[7] = entry
    with pytest.raises(ValueError, match=f"observation {field}"):
        Observation(Strategy(strat.segment, data))


def _hv_systems():
    """The human's full-horizon constraint system in each built-in scenario,
    built fresh by the oracle, with the LU basis Z of its equality rows that
    the fit reads, from the game's static cache."""
    for make in (default_offline_scenario, success_study_scenario, default_online_scenario):
        scen = make()
        segment = Segment(1, scen.horizon)
        ref = scen.references()[0].window(1, scen.horizon)
        entry = game_module._player_system(scen.hv, scen, segment, ref)
        yield dense_system(0, {}, scen), entry.z_basis


def test_null_space_is_orthonormal_and_spans_the_svd_null_space():
    for system, z_lu in _hv_systems():
        z_basis = inverse.null_space(z_lu)
        z_svd = svd_null_space(system.a_eq, system.b_eq)[0]
        assert z_basis.shape == z_svd.shape
        assert np.max(np.abs(z_basis.T @ z_basis - np.eye(z_basis.shape[1]))) <= 1e-12
        assert np.linalg.norm(system.a_eq @ z_basis) <= 1e-10 * np.linalg.norm(system.a_eq)
        assert np.max(np.abs(z_basis @ z_basis.T - z_svd @ z_svd.T)) <= 1e-12


def _use_the_svd_basis(patch, system):
    """Make the fit read the SVD null-space basis of the oracle's dense A_eq
    in place of the orthonormalized LU basis the game keeps."""
    z_svd = svd_null_space(system.a_eq, system.b_eq)[0]

    def substitute(z_lu):
        assert z_lu.shape == z_svd.shape
        return z_svd

    patch.setattr(inverse, "null_space", substitute)


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
            obs = apply_noise(s_actual, std, np.random.default_rng([seed, 7]))
            fast = interpret_offline(obs, scen, cav_strategies=cavs)
            with monkeypatch.context() as patch:
                _use_the_svd_basis(patch, dense_system(0, cavs, scen))
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
    observation, _, scen = args
    _use_the_svd_basis(monkeypatch, dense_system(
        0, kwargs["cav_strategies"], scen, observation.segment, kwargs["hv_reference"],
        kwargs["hv_initial"]))
    slow = interpret_online(*args, **kwargs)
    _assert_fits_agree(fast, slow)


def test_fit_rejects_self_opponent_and_short_reference():
    scen = default_offline_scenario()
    obs = Observation(_reference_strategy(scen))
    prev = style_weights_for(STRAIGHT, COMFORT)
    with pytest.raises(ValueError, match="^player 0 listed among its own opponents"):
        interpret_offline(obs, scen, cav_strategies={0: obs.strategy})
    with pytest.raises(ValueError, match="^hv_reference does not cover the segment"):
        interpret_online(obs, prev, scen, {}, hv_reference=scen.references()[0].window(1, 10))


def test_fit_refuses_a_reference_stepped_otherwise_than_the_scenario():
    scen = default_offline_scenario()
    obs = Observation(_reference_strategy(scen))
    longer = replace(scen.references()[0].window(1, scen.horizon), ts=1.1 * scen.ts)
    with pytest.raises(ValueError, match="^hv_reference has step"):
        interpret_online(obs, style_weights_for(STRAIGHT, COMFORT), scen, {},
                         hv_reference=longer)


@pytest.mark.parametrize("field", ["hv_reference", "hv_initial"])
def test_online_fit_refuses_a_non_finite_reference_or_start(field):
    scen = default_offline_scenario()
    obs = Observation(_reference_strategy(scen))
    ref = scen.references()[0].window(1, scen.horizon)
    start = start_state(scen.hv, obs.segment, ref)
    if field == "hv_reference":
        states = ref.states.copy()
        states[3, 0] = np.nan
        ref = replace(ref, states=states)
    else:
        start = replace(start, p_y=np.nan)
    with pytest.raises(ValueError, match=f"^{field} has non-finite"):
        interpret_online(obs, style_weights_for(STRAIGHT, COMFORT), scen, {},
                         hv_reference=ref, hv_initial=start)


@pytest.mark.parametrize("entry", ["offline", "online"])
def test_the_fit_refuses_a_non_finite_cav_strategy_naming_the_player(entry):
    # A NaN keep-out row is never active, so the fit once returned weights as
    # if CAV 1 were absent.
    scen = default_offline_scenario()
    obs = Observation(_reference_strategy(scen))
    cavs = {vid: _reference_strategy(scen, vid) for vid in (1, 2, 3)}
    data = cavs[1].data.copy()
    data.reshape(-1, 6)[:, 2] = np.nan  # the p_x column
    cavs[1] = Strategy(cavs[1].segment, data)
    with pytest.raises(ValueError, match="^strategy of CAV 1 has non-finite entries$"):
        if entry == "offline":
            interpret_offline(obs, scen, cav_strategies=cavs)
        else:
            interpret_online(obs, style_weights_for(STRAIGHT, COMFORT), scen, cavs)


def _counting(calls, name, fn):
    def spy(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return spy


def test_a_fit_on_cached_coefficients_runs_no_lu_and_builds_no_static_row(monkeypatch):
    # In one online repetition every fit finds the human's coefficients in
    # the static cache, from the stage's prediction game, and so factors
    # nothing and builds no static row. It reads no particular solution, so
    # it forms none, though its right-hand side is new to the entry.
    calls = []
    for module, name in ((qp, "factor_equalities"), (game_module, "factor_equalities"),
                         (game_module, "particular"),
                         (constraints, "dynamics_rows"), (constraints, "box_rows"),
                         (constraints, "lane_rows"), (constraints, "behavior_rows")):
        monkeypatch.setattr(module, name, _counting(calls, name, getattr(module, name)))
    fits = []
    player_system, interpret = inverse._player_system, inverse._interpret

    def cached_system(vehicle, scenario, segment, reference):
        key = coefficient_key(vehicle, scenario, segment, reference)
        fits.append([key in game_module._STATIC_PARTS])
        return player_system(vehicle, scenario, segment, reference)

    def counted_interpret(*args, **kwargs):
        before = len(calls)
        result = interpret(*args, **kwargs)
        fits[-1].append(calls[before:])
        return result

    monkeypatch.setattr(inverse, "_player_system", cached_system)
    monkeypatch.setattr(inverse, "_interpret", counted_interpret)
    forget_player_systems()
    harness._online_rep(default_online_scenario(), 0, 1)
    assert len(fits) == len(harness.stage_segments(default_online_scenario())) - 1
    assert {"factor_equalities", "particular"} <= set(calls)  # the forward games did
    assert fits == [[True, []]] * len(fits)


def _recorded_fits(monkeypatch, run):
    """Run `run`, recording for every fit its arguments, what it read (the
    `InequalityStack` that `assemble` gave it, which it then filled, and Z
    before and after the QR) and its result."""
    fits = []
    interpret, assemble, orthonormal = inverse._interpret, inverse.assemble, inverse.null_space

    def recorded(*args, **kwargs):
        fits.append({"args": args, "kwargs": kwargs})
        fits[-1]["result"] = interpret(*args, **kwargs)
        return fits[-1]["result"]

    def assembled(*args):
        fits[-1]["stack"] = assemble(*args)
        return fits[-1]["stack"]

    def basis(z_basis):
        fits[-1]["z"] = z_basis
        fits[-1]["q"] = orthonormal(z_basis)
        return fits[-1]["q"]

    monkeypatch.setattr(inverse, "_interpret", recorded)
    monkeypatch.setattr(inverse, "assemble", assembled)
    monkeypatch.setattr(inverse, "null_space", basis)
    run()
    return fits


def _online_and_offline_fits(monkeypatch):
    """Every fit of one online and one offline repetition (whose embedded
    CAV solve leaves the human's coefficients uncached), each with the
    fresh dense system of its rows from `_oracles.dense_system`."""
    online = default_online_scenario()
    offline = default_offline_scenario()
    s_actual = _observed_truth(offline)
    fits = _recorded_fits(monkeypatch, lambda: (
        harness._online_rep(online, 0, 1),
        harness._offline_rep(offline, s_actual, 0.05, 0, 0)))
    # One fit per online stage but the last, then the offline one.
    assert len(fits) == len(harness.stage_segments(online)) - 1 + 1
    for fit in fits:
        observation, scen, _, _, _, cavs = fit["args"]
        fit["system"] = dense_system(0, cavs, scen, observation.segment,
                                     fit["kwargs"].get("hv_reference"),
                                     fit["kwargs"].get("hv_initial"))
    return fits


def test_the_fit_reads_the_oracles_rows_and_basis_bitwise(monkeypatch):
    # Every fit reads bitwise the rows, b, tags, free rows and LU basis Z
    # that a fresh dense build gives.
    for fit in _online_and_offline_fits(monkeypatch):
        observation, kappa, stack, system = fit["args"][0], fit["args"][2], fit["stack"], fit["system"]
        assert np.array_equal(densify(stack.rows), system.a_in)
        assert np.array_equal(stack.b, system.b_in)
        assert stack.tags == system.in_tags
        g_vals = system.a_in @ observation.strategy.data - system.b_in
        assert np.array_equal(fit["result"].active_rows, np.flatnonzero(g_vals + kappa >= 0.0))
        assert np.array_equal(fit["z"], qp.factor_equalities(system.a_eq).z_basis)


def test_the_sparse_fit_matches_the_dense_oracle(monkeypatch):
    # The fit's g = A s - b, its A_free Z and its stationarity residual,
    # read sparse, agree with the dense products of the oracle's system to
    # 1e-12 of the sums of |terms| they add up.
    for fit in _online_and_offline_fits(monkeypatch):
        observation, scen = fit["args"][:2]
        stack, system, q, result = fit["stack"], fit["system"], fit["q"], fit["result"]
        s_hat = observation.strategy.data
        abs_a = np.abs(system.a_in)
        g_dense = system.a_in @ s_hat - system.b_in
        g_scale = abs_a @ np.abs(s_hat) + np.abs(system.b_in)
        assert np.all(np.abs(stack.rows @ s_hat - stack.b - g_dense) <= 1e-12 * g_scale)
        free = np.array(result.active_rows, dtype=int)
        az_dense = system.a_in[free] @ q
        az_scale = abs_a[free] @ np.abs(q)
        assert np.all(np.abs(qp._reduced_rows(stack.rows, q, free) - az_dense) <= 1e-12 * az_scale)
        reference = fit["kwargs"].get("hv_reference")
        if reference is None:
            reference = scen.references()[0].window(observation.segment.start,
                                                    observation.segment.stop)
        dev = s_hat - game_module.reference_vector(reference, observation.segment)
        c_theta = dev * np.tile(result.theta_raw[game_module.WEIGHT_PATTERN],
                                observation.segment.n_steps)
        terms = c_theta + system.a_in.T @ result.lam
        scale = np.abs(q).T @ (np.abs(c_theta) + abs_a.T @ np.abs(result.lam))
        assert abs(result.residual - np.linalg.norm(q.T @ terms)) <= 1e-12 * np.linalg.norm(scale)


def test_a_fit_forms_no_dense_inequality_matrix(monkeypatch):
    # With the human's coefficients uncached, the only rows a fit makes
    # dense are its equality rows, for their LU; the inverse module has no
    # dense stacking of its own.
    assert not hasattr(inverse, "stack_dense")
    dense_tags = []
    stack_dense = constraints.stack_dense

    def spy(blocks):
        dense_tags.append({tag for _, _, tags in blocks for tag in tags})
        return stack_dense(blocks)

    scen = default_offline_scenario()
    s_actual = _observed_truth(scen)
    cavs, _ = inverse._embedded_cav_solve(Observation(s_actual), scen)
    monkeypatch.setattr(game_module, "stack_dense", spy)
    monkeypatch.setattr(constraints, "stack_dense", spy)
    forget_player_systems()
    interp = interpret_offline(Observation(s_actual), scen, cav_strategies=cavs)
    assert dense_tags == [{"dynamics", "behavior"}]  # the human pins its heading
    assert interp.residual < 1e-8
