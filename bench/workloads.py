"""Benchmark workloads: set-up, one operation, and the per-op outcome.

Each workload is a closed loop with a single client. Op ``i`` of a run with
seed ``s`` draws its inputs from ``numpy.random.default_rng([s, i])`` (or a
per-op harness seed derived from both), so the same seed gives the same
inputs. The library is called through module attributes, never through names
imported into this module, so a tracer that rebinds module attributes sees
every call.

``outcome`` turns an op's return value into a record with:

- ``digest``: a hash of the op's bitwise results, to compare two runs;
- ``ref``: the values compared against the recorded reference outcomes;
- ``problems``: the correctness gate's findings (empty when the op passed).
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np

from hypertraffic import cognition, constraints, game, harness, inverse, scenario

# Warm-up ops use this index, which no timed op reaches.
WARMUP_OP = 999_999
# Criterion 04's bounds, and the harness's success threshold.
GAP_TOL = 1e-4
VIOLATION_TOL = 1e-3


def _digest(arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()


def _strategy_ref(result):
    ref = {
        "rounds": result.iterations,
        "converged": bool(result.converged),
        "degraded": bool(result.degraded),
    }
    for vid in sorted(result.strategies):
        ref[f"norm_{vid}"] = float(np.linalg.norm(result.strategies[vid].data))
        ref[f"objective_{vid}"] = float(result.objectives[vid])
    return ref


class ForwardH121:
    """``make_game`` + ``solve_games`` on the default offline scenario at H=121.

    Every vehicle's true weights are scaled by U(0.85, 1.2) factors per op,
    the family criterion 05 validates. Centralized, no observer.
    """

    name = "forward-h121"
    # Probe repetitions between ops, about 2 % of an op's time.
    probe_units = 15
    # Exponent of the probe ratio in the normalised times: this op's large
    # LAPACK calls follow the host's slow phases about half as much as the
    # probe does (log-log slope 0.47-0.53 over 25 runs).
    probe_slope = 0.5

    def __init__(self, seed):
        self.seed = seed
        self.scenario = None

    def setup(self):
        self.scenario = replace(scenario.default_offline_scenario(), horizon=121)

    def op(self, i):
        base = self.scenario
        rng = np.random.default_rng([self.seed, i])
        weights = {}
        for vehicle in base.vehicles:
            factors = rng.uniform(0.85, 1.2, size=6)
            theta = np.clip(vehicle.weights_true.theta * factors, base.theta_min, base.theta_max)
            weights[vehicle.vid] = scenario.StyleWeights(theta, base.theta_min, base.theta_max)
        return game.solve_games(game.make_game(base, weights))

    def outcome(self, result):
        problems = []
        if not result.converged or result.degraded:
            problems.append(f"converged={result.converged} degraded={result.degraded}")
        for vid, gap in sorted(result.gaps.items()):
            if not gap <= GAP_TOL * (1.0 + abs(result.objectives[vid])):
                problems.append(f"player {vid} gap {gap:.3e}")
        if not result.max_violation <= VIOLATION_TOL:
            problems.append(f"max_violation {result.max_violation:.3e}")
        worst = constraints.profile_violation(result.strategies, self.scenario)
        if not worst <= VIOLATION_TOL:
            problems.append(f"profile_violation {worst:.3e}")
        strategies = [result.strategies[vid].data for vid in sorted(result.strategies)]
        return {"digest": _digest(strategies), "ref": _strategy_ref(result),
                "problems": problems}


class RandomCognition:
    """One game of criterion 09's random-cognition loop.

    Set-up solves the human's ground-truth trajectory once. Each op draws a
    human weight guess with the harness's own random-cognition draw, solves
    the 4-player game, and scores success against the ground truth with
    ``constraints.profile_violation``.
    """

    name = "random-cognition"
    probe_units = 1
    probe_slope = 1.0

    def __init__(self, seed):
        self.seed = seed
        self.scenario = None
        self.s_actual = None

    def setup(self):
        self.scenario = scenario.success_study_scenario()
        truth = game.solve_games(cognition.hv_subjective_game(self.scenario))
        self.s_actual = truth.strategies[0]

    def op(self, i):
        scen = self.scenario
        rng = np.random.default_rng([self.seed, i])
        guess = harness._random_hv_guess(scen, rng)
        weights = {0: guess}
        weights.update({cav.vid: cav.weights_true for cav in scen.cavs})
        result = game.solve_games(game.make_game(scen, weights))
        profile = {0: self.s_actual}
        profile.update({vid: result.strategies[vid] for vid in weights if vid != 0})
        success = (constraints.profile_violation(profile, scen) <= VIOLATION_TOL
                   and not result.degraded)
        error = inverse.parameter_error(guess, scen.hv.weights_true, scen.hv.behavior.kind)
        return error, success, result

    def outcome(self, value):
        error, success, result = value
        problems = []
        data = [result.strategies[vid].data for vid in sorted(result.strategies)]
        if not all(np.all(np.isfinite(d)) for d in data):
            problems.append("non-finite strategy")
        ref = _strategy_ref(result)
        ref.update(error=error, success=bool(success))
        return {"digest": _digest(data + [np.array([error])]), "ref": ref,
                "problems": problems}


class OnlineStaged:
    """One repetition of the staged online loop over the distributed transport."""

    name = "online-staged"
    probe_units = 3
    probe_slope = 1.0

    def __init__(self, seed):
        self.seed = seed
        self.scenario = None

    def setup(self):
        self.scenario = scenario.default_online_scenario()

    def op(self, i):
        # The harness seeds repetition r with [seed, r]; a distinct integer
        # seed per op keeps every op's noise draws distinct.
        return harness.run_online_experiment(
            self.scenario, repetitions=1, seed=self.seed * 2**20 + i
        )

    def outcome(self, rows):
        """The harness returns stage rows, not strategies, so the digest covers
        every non-timing row value bitwise but no strategy directly: the last
        stage's plans reach it only through its ``success`` flag."""
        problems = [f"stage {r['stage']}: {r['failure']}" for r in rows if r.get("failure")]
        if len(rows) != 5:
            problems.append(f"{len(rows)} stage rows, expected 5")
        ref = {}
        digest_values = []
        for r in rows:
            for key in sorted(r):
                if key.endswith("_seconds") or key in ("rep", "stage", "failure"):
                    continue
                value = r[key]
                ref[f"s{r['stage']}.{key}"] = value if value is None else (
                    bool(value) if isinstance(value, (bool, np.bool_)) else float(value))
                digest_values.append(np.nan if value is None else float(value))
        decision = [r["interpret_seconds"] + r["predict_seconds"] + r["plan_seconds"]
                    for r in rows if r["stage"] >= 2 and not r.get("failure")]
        return {"digest": _digest([np.array(digest_values)]), "ref": ref,
                "problems": problems, "decision_s": decision}


WORKLOADS = {cls.name: cls for cls in (ForwardH121, RandomCognition, OnlineStaged)}


def compare_ref(got, expected, rel_tol=1e-6, abs_tol=1e-9):
    """Differences between an op's reference values and the recorded ones.

    Booleans, integers and missing values must match exactly; floats within
    a relative tolerance, so later round-off changes still pass.
    """
    problems = []
    for key in sorted(set(got) | set(expected)):
        a, b = got.get(key), expected.get(key)
        if isinstance(a, float) and isinstance(b, float):
            if not abs(a - b) <= rel_tol * max(abs(a), abs(b)) + abs_tol:
                problems.append(f"{key}: {a!r} != reference {b!r}")
        elif type(a) is not type(b) or a != b:
            problems.append(f"{key}: {a!r} != reference {b!r}")
    return problems
