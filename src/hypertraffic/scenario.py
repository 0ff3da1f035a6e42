"""Road geometry, driving behaviors, style weight tables, reference
trajectories, and scenario configuration.

A scenario is the complete ground-truth description of one traffic situation:
the road, the vehicles with their true objective weights, the horizon, and the
numeric settings every downstream module shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, partial

import numpy as np

from .dynamics import VehicleGeometry, VehicleState, require_finite, require_integer
from .qp import SolverSettings

STRAIGHT = "straight"
LANE_CHANGE = "lane_change"

POSE = "pose_tracking"
VELOCITY = "velocity_consistent"
COMFORT = "comfort_oriented"
STYLE_NAMES = (POSE, VELOCITY, COMFORT)

# Effective components per behavior. Straight driving pins the lateral motion,
# so only longitudinal tracking, speed, and acceleration weights act.
EFFECTIVE_INDICES = {
    STRAIGHT: (0, 2, 4),
    LANE_CHANGE: (0, 1, 2, 3, 4, 5),
}

# Typical weight ratios per (behavior, style): what everyone assumes a driver
# of that style uses. Straight entries are (p_x, v, a) ratios.
TYPICAL_RATIOS = {
    (STRAIGHT, POSE): (10.0, 1.0, 1.0),
    (STRAIGHT, VELOCITY): (1.0, 10.0, 1.0),
    (STRAIGHT, COMFORT): (1.0, 1.0, 10.0),
    (LANE_CHANGE, POSE): (10.0, 10.0, 1.0, 10.0, 1.0, 1.0),
    (LANE_CHANGE, VELOCITY): (1.0, 1.0, 10.0, 1.0, 1.0, 1.0),
    (LANE_CHANGE, COMFORT): (1.0, 1.0, 1.0, 1.0, 1.0, 10.0),
}

THETA_MIN_DEFAULT = 1e-3
THETA_MAX_DEFAULT = 1e2

REFERENCE_EXTENSION = 40  # steps every reference runs past the horizon


def _ratio_to_full(behavior_kind, ratio):
    """Expand a per-behavior ratio tuple to the 6-component weight vector."""
    ratio = tuple(float(r) for r in ratio)
    if behavior_kind == STRAIGHT:
        if len(ratio) != 3:
            raise ValueError("straight style ratio needs 3 entries (p_x, v, a)")
        px, v, a = ratio
        return np.array([px, 1.0, v, 1.0, a, 1.0])
    if len(ratio) != 6:
        raise ValueError("lane-change style ratio needs 6 entries")
    return np.array(ratio)


def _require_theta_box(owner):
    """Refuse `owner`'s weight box unless it is finite with 0 < theta_min < theta_max."""
    require_finite(owner, "theta_min", "theta_max")
    if not 0 < owner.theta_min < owner.theta_max:
        raise ValueError(f"{type(owner).__name__}.theta_min must lie in (0, theta_max), got "
                         f"theta_min={owner.theta_min}, theta_max={owner.theta_max}")


@dataclass(frozen=True)
class StyleWeights:
    """Objective weight vector with its admissible box. `theta` is a
    read-only copy of the vector given, so one object can be shared."""

    theta: np.ndarray
    theta_min: float = THETA_MIN_DEFAULT
    theta_max: float = THETA_MAX_DEFAULT

    def __post_init__(self):
        theta = np.array(self.theta, dtype=float)
        theta.flags.writeable = False
        if theta.shape != (6,):
            raise ValueError(f"weight vector must have 6 components, got {theta.shape}")
        require_finite(self, "theta")
        _require_theta_box(self)
        if np.any(theta < self.theta_min) or np.any(theta > self.theta_max):
            raise ValueError(
                f"weights {theta} leave the box [{self.theta_min}, {self.theta_max}]"
            )
        object.__setattr__(self, "theta", theta)

    def effective(self, behavior_kind):
        return self.theta[list(EFFECTIVE_INDICES[behavior_kind])]

    def normalized(self, behavior_kind):
        """Scale so the effective components have unit 2-norm, then clamp the
        result back into the admissible box."""
        eff = self.effective(behavior_kind)
        norm = float(np.linalg.norm(eff))
        if norm == 0.0:
            raise ValueError("cannot normalize a zero effective weight vector")
        scaled = np.clip(self.theta / norm, self.theta_min, self.theta_max)
        return StyleWeights(scaled, self.theta_min, self.theta_max)


@cache
def style_weights_for(behavior_kind, style):
    """Typical (commonly assumed) weights for a style, unit effective norm;
    one shared object per (kind, style)."""
    if style not in STYLE_NAMES:
        raise ValueError(f"unknown style {style!r}, expected one of {STYLE_NAMES}")
    full = _ratio_to_full(behavior_kind, TYPICAL_RATIOS[(behavior_kind, style)])
    return StyleWeights(full).normalized(behavior_kind)


def true_style_weights(behavior_kind, style):
    """Default ground-truth weights for a style: the typical ratio with the
    dominant entry halved, unit effective norm. Style-consistent but distinct
    from what observers assume."""
    if style not in STYLE_NAMES:
        raise ValueError(f"unknown style {style!r}, expected one of {STYLE_NAMES}")
    ratio = np.array(TYPICAL_RATIOS[(behavior_kind, style)], dtype=float)
    ratio[np.argmax(ratio)] = ratio.max() / 2.0
    full = _ratio_to_full(behavior_kind, tuple(ratio))
    return StyleWeights(full).normalized(behavior_kind)


@dataclass(frozen=True)
class LaneGeometry:
    """Parallel horizontal lanes. Lane i spans y in [i*w, (i+1)*w]; boundary i
    is the line y = i*w, centerline i the line y = (i + 0.5)*w."""

    lane_count: int = 2
    lane_width: float = 4.0
    x_extent: tuple = (-200.0, 2000.0)

    def __post_init__(self):
        require_finite(self, "lane_count", "lane_width", "x_extent")
        require_integer(self, "lane_count")
        if self.lane_count < 1:
            raise ValueError("lane_count must be at least 1")
        if self.lane_width <= 0:
            raise ValueError("lane_width must be positive")
        if self.x_extent[0] >= self.x_extent[1]:
            raise ValueError("x_extent must be an increasing interval")

    def boundary_y(self, index):
        if not 0 <= index <= self.lane_count:
            raise ValueError(f"boundary index {index} out of range")
        return index * self.lane_width

    def centerline_y(self, index):
        if not 0 <= index < self.lane_count:
            raise ValueError(f"centerline index {index} out of range")
        return (index + 0.5) * self.lane_width

    def lane_of(self, p_y):
        """Lane index containing a lateral position (clipped to the road)."""
        idx = int(math.floor(p_y / self.lane_width))
        return min(max(idx, 0), self.lane_count - 1)

    def tangent_at(self, y0, point, feasible_point=None):
        """Normalized tangent-line coefficients (a, b, c) of the line y = y0
        at the projection of `point`, signed so that the feasible side
        satisfies a*x + b*y + c <= 0.

        `feasible_point` picks the permitted side; it defaults to `point`
        itself, which covers the lane-keeping case. Points projecting outside
        the road's x extent are rejected.
        """
        px = float(point[0])
        if not self.x_extent[0] <= px <= self.x_extent[1]:
            raise ValueError(
                f"point x={px} projects outside the road extent {self.x_extent}"
            )
        probe = point if feasible_point is None else feasible_point
        # Horizontal line y = y0; (a, b) already unit length.
        a, b, c = 0.0, 1.0, -y0
        side = a * float(probe[0]) + b * float(probe[1]) + c
        if side > 0:
            a, b, c = -a, -b, -c
        return (a, b, c)


@dataclass(frozen=True)
class BehaviorSpec:
    """Declared maneuver of one vehicle over the horizon.

    Straight driving keeps a lane with a fixed direction; a lane change moves
    between adjacent lane centerlines along a smooth lateral transition that
    starts at a given longitudinal position.
    """

    kind: str
    direction: tuple = (1.0, 0.0)
    source_lane: int = 0
    target_lane: int = 0
    start_x: float = 0.0
    transition_length: float = 30.0

    def __post_init__(self):
        if self.kind not in (STRAIGHT, LANE_CHANGE):
            raise ValueError(f"unknown behavior kind {self.kind!r}")
        require_finite(self, "direction", "source_lane", "target_lane", "start_x",
                       "transition_length")
        require_integer(self, "source_lane", "target_lane")
        d = np.asarray(self.direction, dtype=float)
        n = float(np.linalg.norm(d))
        if n == 0.0:
            raise ValueError("behavior direction must be nonzero")
        object.__setattr__(self, "direction", (float(d[0] / n), float(d[1] / n)))
        if self.kind == LANE_CHANGE:
            if self.source_lane == self.target_lane:
                raise ValueError("lane change must move between distinct lanes")
            if self.transition_length <= 0:
                raise ValueError("transition_length must be positive")

    @property
    def heading(self):
        return math.atan2(self.direction[1], self.direction[0])

    def permitted_lanes(self, road, p_y=None):
        """Lane indices the vehicle may occupy; the lane row assembly keeps it
        between the outermost boundaries of this band."""
        if self.kind == LANE_CHANGE:
            lo = min(self.source_lane, self.target_lane)
            hi = max(self.source_lane, self.target_lane)
            return tuple(range(lo, hi + 1))
        if p_y is None:
            raise ValueError("straight behavior needs a lateral position to find its lane")
        return (road.lane_of(p_y),)


def _smoothstep(xi):
    """Quintic blend with zero slope and curvature at both ends."""
    return xi**3 * (10.0 - 15.0 * xi + 6.0 * xi**2)


def _smoothstep_slope(xi):
    return 30.0 * xi**2 * (1.0 - xi) ** 2


@dataclass(frozen=True)
class ReferenceTrajectory:
    """Desired states indexed by discrete time points start, start+1, ..."""

    start: int
    states: np.ndarray
    ts: float

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 2 or states.shape[1] != 4:
            raise ValueError(f"reference states must be (m, 4), got {states.shape}")
        if states.shape[0] < 2:
            raise ValueError("reference needs at least two time points")
        object.__setattr__(self, "states", states)

    def __len__(self):
        return self.states.shape[0]

    @property
    def stop(self):
        return self.start + len(self) - 1

    def window(self, start, stop):
        """Sub-reference over time points start..stop inclusive."""
        if start < self.start or stop > self.stop or start >= stop:
            raise ValueError(f"window [{start}, {stop}] not contained in [{self.start}, {self.stop}]")
        return ReferenceTrajectory(start, self.states[start - self.start : stop - self.start + 1], self.ts)

    def nearest_by_px(self, p_x):
        """Time point whose reference longitudinal position is closest to p_x;
        earliest wins on ties so re-anchoring is deterministic."""
        return self.start + int(np.argmin(np.abs(self.states[:, 0] - float(p_x))))

    def rebased(self, start):
        return ReferenceTrajectory(start, self.states, self.ts)


def build_reference(behavior, initial, horizon, ts, road, start=1):
    """Reference states over `horizon` time points for one vehicle.

    Straight driving advances at constant speed along the centerline of the
    initial lane. A lane change follows the quintic lateral blend between the
    source and target centerlines, parameterized by longitudinal position; the
    blend must finish within the horizon.
    """
    if horizon < 2:
        raise ValueError("horizon must span at least two time points")
    if ts <= 0:
        raise ValueError("ts must be positive")
    steps = np.arange(horizon, dtype=float)
    if behavior.kind == STRAIGHT:
        dx, dy = behavior.direction
        lane = road.lane_of(initial.p_y)
        y_c = road.centerline_y(lane)
        px = initial.p_x + steps * initial.v * ts * dx
        py = y_c + steps * initial.v * ts * dy
        v = np.full(horizon, initial.v)
        psi = np.full(horizon, behavior.heading)
        states = np.column_stack([px, py, v, psi])
        return ReferenceTrajectory(start, states, ts)

    y_src = road.centerline_y(behavior.source_lane)
    y_tgt = road.centerline_y(behavior.target_lane)
    end_x = behavior.start_x + behavior.transition_length
    final_px = initial.p_x + (horizon - 1) * initial.v * ts
    if end_x > final_px + 1e-9:
        raise ValueError(
            f"lane-change transition ends at x={end_x} but the horizon reaches x={final_px}"
        )
    px = initial.p_x + steps * initial.v * ts
    xi = np.clip((px - behavior.start_x) / behavior.transition_length, 0.0, 1.0)
    py = y_src + (y_tgt - y_src) * _smoothstep(xi)
    slope = (y_tgt - y_src) * _smoothstep_slope(xi) / behavior.transition_length
    in_blend = (px > behavior.start_x) & (px < end_x)
    slope = np.where(in_blend, slope, 0.0)
    psi = np.arctan(slope)
    v = initial.v * np.sqrt(1.0 + slope**2)
    states = np.column_stack([px, py, v, psi])
    return ReferenceTrajectory(start, states, ts)


@dataclass(frozen=True)
class BoxLimits:
    """Scalar bounds on speed, acceleration, and steering (radians)."""

    v_min: float = 0.0
    v_max: float = 20.0
    a_min: float = -8.0
    a_max: float = 2.0
    delta_min: float = -math.radians(33.0)
    delta_max: float = math.radians(33.0)

    def __post_init__(self):
        require_finite(self, "v_min", "v_max", "a_min", "a_max", "delta_min", "delta_max")
        for lo, hi, name in (
            (self.v_min, self.v_max, "v"),
            (self.a_min, self.a_max, "a"),
            (self.delta_min, self.delta_max, "delta"),
        ):
            if lo >= hi:
                raise ValueError(f"{name} bounds must satisfy min < max")
        if not -math.pi / 2 < self.delta_min < math.pi / 2:
            raise ValueError("delta_min must lie inside (-pi/2, pi/2)")
        if not -math.pi / 2 < self.delta_max < math.pi / 2:
            raise ValueError("delta_max must lie inside (-pi/2, pi/2)")


@dataclass(frozen=True)
class VehicleConfig:
    """One vehicle of the roster: identity, maneuver, start state, true weights."""

    vid: int
    is_hv: bool
    style: str
    behavior: BehaviorSpec
    initial: VehicleState
    weights_true: StyleWeights
    geometry: VehicleGeometry = VehicleGeometry()

    def __post_init__(self):
        if self.style not in STYLE_NAMES:
            raise ValueError(f"vehicle {self.vid}: unknown style {self.style!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Ground truth for one experiment: roster, road, horizon, shared settings."""

    vehicles: tuple
    road: LaneGeometry = LaneGeometry()
    horizon: int = 36
    ts: float = 0.1
    limits: BoxLimits = BoxLimits()
    stages: tuple = ()
    solver: SolverSettings = SolverSettings()
    noise_std: float = 0.05
    kappa_offline: float = 1.5
    kappa_online: float = 0.3
    omega_dist: float = 1.0
    theta_min: float = THETA_MIN_DEFAULT
    theta_max: float = THETA_MAX_DEFAULT

    def __post_init__(self):
        vehicles = tuple(self.vehicles)
        object.__setattr__(self, "vehicles", vehicles)
        if not vehicles:
            raise ValueError("scenario needs at least one vehicle")
        ids = [v.vid for v in vehicles]
        if len(set(ids)) != len(ids):
            raise ValueError(f"vehicle ids must be unique, got {ids}")
        hvs = [v.vid for v in vehicles if v.is_hv]
        if len(hvs) != 1:
            raise ValueError(f"scenario needs exactly one HV, got ids {hvs}")
        if hvs[0] != 0:
            raise ValueError("the HV must have id 0")
        if self.horizon < 2:
            raise ValueError("horizon must span at least two time points")
        _require_theta_box(self)
        for name, positive in (("ts", True), ("noise_std", False), ("kappa_offline", True),
                               ("kappa_online", True), ("omega_dist", False)):
            value = getattr(self, name)
            if not math.isfinite(value) or (value <= 0 if positive else value < 0):
                sign = "positive" if positive else "non-negative"
                raise ValueError(f"{name} must be a finite {sign} number, got {value}")
        stages = tuple(int(k) for k in self.stages)
        object.__setattr__(self, "stages", stages)
        if stages:
            if stages[0] != 1 or stages[-1] != self.horizon:
                raise ValueError(f"stage boundaries {stages} must start at 1 and end at horizon")
            if any(b <= a for a, b in zip(stages, stages[1:])):
                raise ValueError(f"stage boundaries {stages} must be strictly increasing")

    @property
    def hv(self):
        return next(v for v in self.vehicles if v.is_hv)

    @property
    def cavs(self):
        return tuple(v for v in self.vehicles if not v.is_hv)

    def vehicle(self, vid):
        for v in self.vehicles:
            if v.vid == vid:
                return v
        raise KeyError(f"no vehicle with id {vid}")

    def references(self):
        """Full-horizon reference per vehicle, extended past the horizon so
        re-anchoring by longitudinal position has room to match forward."""
        refs = {}
        for v in self.vehicles:
            refs[v.vid] = build_reference(
                v.behavior, v.initial, self.horizon + REFERENCE_EXTENSION, self.ts, self.road
            )
        return refs

    def with_weights(self, overrides):
        """Copy of the scenario with some vehicles' true weights replaced."""
        vehicles = tuple(
            replace(v, weights_true=overrides[v.vid]) if v.vid in overrides else v
            for v in self.vehicles
        )
        return replace(self, vehicles=vehicles)


def _default_roster(hv_style, cav_styles, road):
    """Shared lane-change layout: HV in the left lane slightly behind CAV 1,
    which changes from the right lane into the HV's lane; CAVs 2 and 3 keep
    the right lane ahead of and behind CAV 1."""
    y_right = road.centerline_y(0)
    y_left = road.centerline_y(1)
    speed = 10.0
    straight = BehaviorSpec(kind=STRAIGHT)
    change = BehaviorSpec(kind=LANE_CHANGE, source_lane=0, target_lane=1, start_x=5.0)
    hv = VehicleConfig(
        vid=0,
        is_hv=True,
        style=hv_style,
        behavior=straight,
        initial=VehicleState(-3.0, y_left, speed, 0.0),
        weights_true=true_style_weights(STRAIGHT, hv_style),
    )
    starts = {1: 0.0, 2: 24.0, 3: -24.0}
    cavs = []
    for vid, style in zip((1, 2, 3), cav_styles):
        behavior = change if vid == 1 else straight
        cavs.append(
            VehicleConfig(
                vid=vid,
                is_hv=False,
                style=style,
                behavior=behavior,
                initial=VehicleState(starts[vid], y_right, speed, 0.0),
                weights_true=true_style_weights(behavior.kind, style),
            )
        )
    return (hv, *cavs)


def default_offline_scenario():
    """Four-vehicle lane-change scenario for the one-shot experiments."""
    road = LaneGeometry()
    return ScenarioConfig(
        vehicles=_default_roster(COMFORT, (COMFORT, VELOCITY, POSE), road),
        road=road,
        horizon=36,
        kappa_offline=1.5,
    )


def success_study_scenario():
    """Tight-gap merge used for the success-rate contrast.

    CAV 1's merge slot is pinched between a slow car ahead in the target lane
    and the human behind. It is the default roster with CAV 2 moved into the
    target lane just ahead of CAV 1, slightly slower. The squeeze degrades
    even the ground truth (the human's subjective game): the human's best
    response is infeasible at its keep-out rows against CAV 3 (`collision(3)`,
    decision point 36) in rounds 2 and 3. In 40 random-cognition games at
    seed 0 the degraded player was the human in 32 and CAV 1 in 8.
    """
    road = LaneGeometry()
    hv, cav1, cav2, cav3 = _default_roster(COMFORT, (COMFORT, VELOCITY, POSE), road)
    cav2 = replace(cav2, initial=VehicleState(5.5, road.centerline_y(1), 9.4, 0.0))
    return ScenarioConfig(
        vehicles=(hv, cav1, cav2, cav3),
        road=road,
        horizon=36,
        kappa_offline=1.5,
    )


def default_online_scenario():
    """Five-stage staged variant of the lane-change scenario.

    The human is pose-first exactly as the stylebook assumes, but weighs
    holding speed over gentle pedal work more than the typical pose driver,
    so there is a real minor-weight mismatch for the online updates to learn.
    """
    road = LaneGeometry()
    vehicles = list(_default_roster(POSE, (COMFORT, VELOCITY, POSE), road))
    individual = StyleWeights(_ratio_to_full(STRAIGHT, (10.0, 1.4, 0.4)))
    vehicles[0] = replace(vehicles[0], weights_true=individual.normalized(STRAIGHT))
    return ScenarioConfig(
        vehicles=tuple(vehicles),
        road=road,
        horizon=61,
        stages=(1, 13, 25, 37, 49, 61),
        kappa_online=0.3,
        omega_dist=1.0,
    )


# --- configuration file ingestion -------------------------------------------

def _path(context, key):
    return f"{context}.{key}" if context else key


def _fields(raw, context, known):
    """Refuse a config mapping unless all its keys are known, naming the
    first unknown key by its path, so a misspelled field never falls back to
    its default."""
    if not isinstance(raw, dict):
        raise ValueError(f"config field {context} must be a mapping")
    for key in raw:
        if key not in known:
            raise ValueError(f"config field {_path(context, key)} is not a known field")


def _req(mapping, key, context):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ValueError(f"config field {_path(context, key)} is missing")
    return mapping[key]


def _num(mapping, key, context, vector=False, integer=False, length=None):
    """A required numeric field as a float, or as a tuple of floats when
    `vector` is set (with exactly `length` entries when given). A value of the
    wrong shape or length, one that is not a number (a boolean is not), a
    non-finite one, or a non-integral one for an `integer` field (returned as
    int) is refused with the field's path."""
    raw = _req(mapping, key, context)
    path = _path(context, key)
    try:
        value = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"config field {path} is not a number: {raw!r}") from None
    if any(isinstance(v, bool) for v in np.ravel(np.asarray(raw, dtype=object))):
        raise ValueError(f"config field {path} is not a number: {raw!r}")
    if value.ndim != (1 if vector else 0):
        shape = "a list of numbers" if vector else "a single number"
        raise ValueError(f"config field {path} must be {shape}: {raw!r}")
    if length is not None and value.size != length:
        raise ValueError(f"config field {path} must have {length} entries: {raw!r}")
    if not np.all(np.isfinite(value)):
        raise ValueError(f"config field {path} is not finite: {raw!r}")
    if integer:
        if not np.all(value == np.round(value)):
            raise ValueError(f"config field {path} is not an integer: {raw!r}")
        return tuple(int(v) for v in value) if vector else int(value)
    return tuple(value.tolist()) if vector else float(value)


# Readers of one document key, each (mapping, key, context) -> value.
_int = partial(_num, integer=True)
_ints = partial(_num, vector=True, integer=True)
_pair = partial(_num, vector=True, length=2)


def _deg(mapping, key, context):
    return math.radians(_num(mapping, key, context))


def _section(cls, raw, context, spec, required=(), **given):
    """`cls` built from the config mapping `raw` found at `context`. `spec`
    maps each document key to (field, reader) and is the list of known keys.
    A key the document omits takes its value from `given`, or else from the
    dataclass default; a key in `required` must be present."""
    _fields(raw, context, spec)
    values = dict(given)
    for key, (name, read) in spec.items():
        if key in raw:
            values[name] = read(raw, key, context)
        elif key in required:
            raise ValueError(f"config field {_path(context, key)} is missing")
    return cls(**values)


def _subsection(cls, spec):
    """Reader of a nested section; an omitted one is the scenario's default."""
    return lambda mapping, key, context: _section(cls, mapping[key], _path(context, key), spec)


_GEOMETRY = {key: (key, _num) for key in ("length", "width", "extended_length",
                                          "extended_width")}
_INITIAL = {"x": ("p_x", _num), "y": ("p_y", _num), "v": ("v", _num), "psi_deg": ("psi", _deg)}
_BEHAVIOR = {
    STRAIGHT: ({"kind": ("kind", _req), "direction": ("direction", _pair)}, ()),
    LANE_CHANGE: ({"kind": ("kind", _req), "source_lane": ("source_lane", _int),
                   "target_lane": ("target_lane", _int), "start_x": ("start_x", _num),
                   "transition_length": ("transition_length", _num)},
                  ("source_lane", "target_lane", "start_x")),
}
_SCENARIO = {
    "road": ("road", _subsection(LaneGeometry, {"lane_count": ("lane_count", _int),
                                                "lane_width": ("lane_width", _num),
                                                "x_extent": ("x_extent", _pair)})),
    "limits": ("limits", _subsection(BoxLimits, {
        **{key: (key, _num) for key in ("v_min", "v_max", "a_min", "a_max")},
        "delta_min_deg": ("delta_min", _deg), "delta_max_deg": ("delta_max", _deg)})),
    "solver": ("solver", _subsection(SolverSettings, {
        "violation_eps": ("violation_eps", _num), "step_eps": ("step_eps", _num),
        "max_iterations": ("max_iterations", _int), "qp_tolerance": ("qp_tolerance", _num)})),
    "horizon": ("horizon", _int),
    "ts": ("ts", _num),
    "stages": ("stages", _ints),
    **{key: (key, _num) for key in ("noise_std", "kappa_offline", "kappa_online",
                                    "omega_dist")},
}


def _vehicle(raw, context, geometry):
    _fields(raw, context, ("id", "is_hv", "style", "behavior", "initial", "weights_true"))
    vid = _int(raw, "id", context)
    behavior_raw = _req(raw, "behavior", context)
    kind = _req(behavior_raw, "kind", f"{context}.behavior")
    if kind not in tuple(_BEHAVIOR):  # by equality, so an unhashable value is refused too
        raise ValueError(f"config field {context}.behavior.kind has unknown value {kind!r}")
    behavior = _section(BehaviorSpec, behavior_raw, f"{context}.behavior", *_BEHAVIOR[kind])
    initial = _section(VehicleState, _req(raw, "initial", context), f"{context}.initial",
                       _INITIAL, ("x", "y", "v"), psi=0.0)
    if initial.v < 0:
        raise ValueError(f"config field {context}.initial.v cannot be negative: {initial.v}")
    style = _req(raw, "style", context)
    if style not in STYLE_NAMES:  # by equality, so an unhashable value is refused too
        raise ValueError(f"config field {context}.style has unknown value {style!r}")
    is_hv = raw.get("is_hv", vid == 0)
    if not isinstance(is_hv, bool):
        raise ValueError(f"config field {context}.is_hv must be true or false: {is_hv!r}")
    if "weights_true" in raw:
        theta = np.asarray(_num(raw, "weights_true", context, vector=True, length=6))
        weights = StyleWeights(theta).normalized(kind)
    else:
        weights = true_style_weights(kind, style)
    return VehicleConfig(vid=vid, is_hv=is_hv, style=style, behavior=behavior,
                         initial=initial, weights_true=weights, geometry=geometry)


def _vehicles(mapping, key, context, geometry):
    listed = mapping[key]
    if not isinstance(listed, list):
        raise ValueError(f"config field {_path(context, key)} must be a list: {listed!r}")
    return tuple(_vehicle(raw, f"vehicles[{i}]", geometry) for i, raw in enumerate(listed))


def load_config(text):
    """Parse a YAML scenario document into a ScenarioConfig.

    Every section is read through `_section`, so a key the document omits
    takes the default of its dataclass field. Angles appear in degrees in the
    document (psi_deg, delta bounds) and are converted here; everything
    downstream is radians. A missing required field, an unknown field, a
    value of the wrong type or shape, a non-finite number or a negative
    initial speed fails here, naming the field; the dataclasses refuse the
    rest at construction. The `geometry` section applies to every vehicle.
    PyYAML is imported here, on the first config read: its import costs
    about 18 ms that no built-in scenario needs.
    """
    import yaml

    raw = yaml.safe_load(text)
    if not isinstance(raw, dict):
        raise ValueError("config document must be a mapping")
    geometry = _section(VehicleGeometry, raw.pop("geometry", {}), "geometry", _GEOMETRY)
    spec = {**_SCENARIO, "vehicles": ("vehicles", partial(_vehicles, geometry=geometry))}
    return _section(ScenarioConfig, raw, "", spec, ("vehicles",))


def load_config_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_config(fh.read())
