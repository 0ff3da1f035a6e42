"""Spans around the calls into each hypertraffic module, taken from outside.

The tracer wraps public functions and methods of the library at their module
boundary and restores every original when it is removed. Names that modules
import from each other (``from .game import solve_games``) are bound by value,
so a wrapped function is replaced in every hypertraffic module namespace, and
in function default arguments, that holds the original object. The message
layer is counted through the ``SessionTrace`` objects it builds rather than by
wrapping ``run_distributed``, which other modules also bind as a default
argument.

A span records its name, start, end, parent span and op id. Spans are kept in
memory; ``write_spans`` writes them once the run ends. A span's self time is
its duration minus the time its child spans cover, so the self times of one op
add up to the op's wall time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter

# (span name, module, attribute path). Missing targets are reported, not fatal,
# so the benchmark keeps running when a later change renames an internal.
FUNCTIONS = (
    ("qp.reduce", "hypertraffic.qp", "ReducedQp.__init__"),
    ("qp.solve", "hypertraffic.qp", "ReducedQp.solve"),
    ("qp.reduce_rows", "hypertraffic.qp", "ReducedQp.reduce_rows"),
    ("qp.active_set", "hypertraffic.qp", "GiSolver.solve"),
    ("constraints.collision_rows", "hypertraffic.constraints", "collision_rows"),
    ("constraints.static_rows", "hypertraffic.constraints", "dynamics_rows"),
    ("constraints.static_rows", "hypertraffic.constraints", "box_rows"),
    ("constraints.static_rows", "hypertraffic.constraints", "lane_rows"),
    ("constraints.static_rows", "hypertraffic.constraints", "behavior_rows"),
    ("constraints.assemble", "hypertraffic.constraints", "assemble"),
    ("constraints.profile_violation", "hypertraffic.constraints", "profile_violation"),
    ("dynamics", "hypertraffic.dynamics", "linearize_discrete"),
    ("dynamics", "hypertraffic.dynamics", "euler_step"),
    ("dynamics", "hypertraffic.dynamics", "rollout"),
    ("scenario.references", "hypertraffic.scenario", "ScenarioConfig.references"),
    ("game.solve_games", "hypertraffic.game", "solve_games"),
    ("netsim.observer", "hypertraffic.netsim", "_DistributedObserver.session_started"),
    ("netsim.observer", "hypertraffic.netsim", "_DistributedObserver.round_started"),
    ("netsim.observer", "hypertraffic.netsim", "_DistributedObserver.opponents_view"),
    ("netsim.observer", "hypertraffic.netsim", "_DistributedObserver.computed"),
    ("netsim.observer", "hypertraffic.netsim", "_DistributedObserver.criterion"),
    ("netsim.observer", "hypertraffic.netsim", "_DistributedObserver.session_finished"),
    ("inverse.fit", "hypertraffic.inverse", "interpret_offline"),
    ("inverse.fit", "hypertraffic.inverse", "interpret_online"),
    ("inverse.null_space", "hypertraffic.inverse", "null_space"),
    ("inverse.lsq_linear", "hypertraffic.inverse", "lsq_linear"),
    ("cognition.predict_hv", "hypertraffic.cognition", "predict_hv"),
    ("cognition.plan_cavs", "hypertraffic.cognition", "plan_cavs"),
    ("harness", "hypertraffic.harness", "run_online_experiment"),
)

# Boundaries that no workload reaches at this commit: nothing in the forward,
# inverse or harness paths calls the dynamics module yet.
UNREACHED = frozenset({"dynamics"})

ROOT = "bench.op"


def _count_result(counts, name, result):
    """Counts read off a boundary's return value."""
    if name == "qp.solve":
        counts["qp.optimal"] += result.status == "optimal"
    elif name == "qp.active_set":
        counts["qp.active_set.iterations"] += result.iterations
    elif name == "game.solve_games":
        counts["game.rounds"] += result.iterations
        counts["game.converged"] += bool(result.converged)
        counts["game.degraded"] += bool(result.degraded)
    elif name == "inverse.fit":
        counts["inverse.low_ident"] += bool(result.low_identifiability)


class Tracer:
    """Wraps the library's boundaries while installed and aggregates spans."""

    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.counts = Counter()
        self.missing = []
        self.op = None
        self._stack = []
        self._next_id = 0
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.total_s[name] += duration
                tracer.self_s[name] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                tracer.spans.append(
                    (span_id, name, start, end, parent[0] if parent else None, tracer.op)
                )
            _count_result(tracer.counts, name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id, fn, *args):
        """Call one benchmark op under a root span."""
        self.op = op_id
        try:
            return self._wrap(ROOT, fn)(*args)
        finally:
            self.op = None

    def _count_session(self, init):
        counts = self.counts

        def counted(trace, *args, **kwargs):
            init(trace, *args, **kwargs)
            counts["netsim.sessions"] += 1
            counts["netsim.messages"] += len(trace.messages)
            counts["netsim.rounds"] += trace.rounds

        counted.__wrapped__ = init
        return counted

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapped):
        """Replace every by-value binding of `original` in the library."""
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "hypertraffic" or mod_name.startswith("hypertraffic.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapped)
                elif inspect.isfunction(value):
                    self._rebind_defaults(value, original, wrapped)
                elif inspect.isclass(value) and value.__module__ == mod_name:
                    for member in vars(value).values():
                        if inspect.isfunction(member):
                            self._rebind_defaults(member, original, wrapped)

    def _rebind_defaults(self, fn, original, wrapped):
        defaults = fn.__defaults__
        if defaults and any(d is original for d in defaults):
            self._undo.append((fn, "__defaults__", defaults))
            fn.__defaults__ = tuple(wrapped if d is original else d for d in defaults)

    def install(self):
        for name, mod_name, path in FUNCTIONS:
            module = importlib.import_module(mod_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{mod_name}.{path}")
                continue
            original = vars(owner)[attr]
            wrapped = self._wrap(name, original)
            if owner_name:
                self._set(owner, attr, wrapped)
            else:
                self._rebind(original, wrapped)
        netsim = importlib.import_module("hypertraffic.netsim")
        session = getattr(netsim, "SessionTrace", None)
        if session is None:
            self.missing.append("hypertraffic.netsim.SessionTrace")
        else:
            self._set(session, "__init__", self._count_session(session.__init__))
        if self.missing:
            print("tracer: targets not found, their layers read 0: "
                  + ", ".join(self.missing), file=sys.stderr)
        return self

    def remove(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self, n_ops):
        """Per-layer metrics, per op where they are totals."""
        c, s, t, k = self.calls, self.self_s, self.total_s, self.counts

        def per_op(value):
            return value / n_ops

        def ratio(num, den):
            return num / den if den else 0.0

        games = c["game.solve_games"]
        out = {
            "qp.solve.calls": (per_op(c["qp.solve"]), "count/op"),
            "qp.solve.self_s": (per_op(s["qp.solve"]), "s/op"),
            "qp.reduce.calls": (per_op(c["qp.reduce"]), "count/op"),
            "qp.reduce.self_s": (per_op(s["qp.reduce"]), "s/op"),
            "qp.active_set.self_s": (per_op(s["qp.active_set"]), "s/op"),
            "qp.active_set.iterations": (per_op(k["qp.active_set.iterations"]), "count/op"),
            "qp.optimal_ratio": (ratio(k["qp.optimal"], c["qp.solve"]), "ratio"),
            "qp.reduce_rows.self_s": (per_op(s["qp.reduce_rows"]), "s/op"),
            "constraints.collision_rows.calls": (per_op(c["constraints.collision_rows"]), "count/op"),
            "constraints.collision_rows.self_s": (per_op(s["constraints.collision_rows"]), "s/op"),
            "constraints.static_rows.self_s": (per_op(s["constraints.static_rows"]), "s/op"),
            "constraints.assemble.self_s": (per_op(s["constraints.assemble"]), "s/op"),
            "constraints.profile_violation.self_s": (
                per_op(s["constraints.profile_violation"]), "s/op"),
            "dynamics.calls": (per_op(c["dynamics"]), "count/op"),
            "dynamics.self_s": (per_op(s["dynamics"]), "s/op"),
            "scenario.references.calls": (per_op(c["scenario.references"]), "count/op"),
            "scenario.references.self_s": (per_op(s["scenario.references"]), "s/op"),
            "game.solve_games.calls": (per_op(games), "count/op"),
            "game.solve_games.self_s": (per_op(s["game.solve_games"]), "s/op"),
            "game.rounds": (per_op(k["game.rounds"]), "count/op"),
            "game.qp_per_game": (ratio(c["qp.solve"], games), "count/game"),
            "game.converged_ratio": (ratio(k["game.converged"], games), "ratio"),
            "game.degraded_ratio": (ratio(k["game.degraded"], games), "ratio"),
            "netsim.sessions": (per_op(k["netsim.sessions"]), "count/op"),
            "netsim.messages": (per_op(k["netsim.messages"]), "count/op"),
            "netsim.rounds": (per_op(k["netsim.rounds"]), "count/op"),
            "netsim.observer_s": (per_op(s["netsim.observer"]), "s/op"),
            "inverse.calls": (per_op(c["inverse.fit"]), "count/op"),
            "inverse.fit.self_s": (per_op(s["inverse.fit"]), "s/op"),
            "inverse.null_space.self_s": (per_op(s["inverse.null_space"]), "s/op"),
            "inverse.lsq_linear.self_s": (per_op(s["inverse.lsq_linear"]), "s/op"),
            "inverse.low_ident_ratio": (ratio(k["inverse.low_ident"], c["inverse.fit"]), "ratio"),
            "cognition.predict_hv.total_s": (per_op(t["cognition.predict_hv"]), "s/op"),
            "cognition.plan_cavs.total_s": (per_op(t["cognition.plan_cavs"]), "s/op"),
            "harness.self_s": (per_op(s["harness"]), "s/op"),
            "bench.self_s": (per_op(s[ROOT]), "s/op"),
            "trace.op_s": (per_op(t[ROOT]), "s/op"),
        }
        return out

    def write_spans(self, path):
        """Write the recorded spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")
