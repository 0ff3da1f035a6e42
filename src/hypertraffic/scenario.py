"""Road geometry, driving behaviors, style weight tables, reference
trajectories, and scenario configuration.

A scenario is the complete ground-truth description of one traffic situation:
the road, the vehicles with their true objective weights, the horizon, and the
numeric settings every downstream module shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from .dynamics import VehicleGeometry, VehicleState
from .qp import SolverSettings

STRAIGHT = "straight"
LANE_CHANGE = "lane_change"

POSE = "pose_tracking"
VELOCITY = "velocity_consistent"
COMFORT = "comfort_oriented"
STYLE_NAMES = (POSE, VELOCITY, COMFORT)

# Weight components, in vector order: (p_x, p_y, v, psi, a, delta).
WEIGHT_LABELS = ("theta_px", "theta_py", "theta_v", "theta_psi", "theta_a", "theta_delta")

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


@dataclass(frozen=True)
class StyleWeights:
    """Objective weight vector with its admissible box."""

    theta: np.ndarray
    theta_min: float = THETA_MIN_DEFAULT
    theta_max: float = THETA_MAX_DEFAULT

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.shape != (6,):
            raise ValueError(f"weight vector must have 6 components, got {theta.shape}")
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


def style_weights_for(behavior_kind, style):
    """Typical (commonly assumed) weights for a style, unit effective norm."""
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
    is the line y = i*w. Curves are addressed by string ids so the tangent
    query stays the single entry point for road shape."""

    lane_count: int = 2
    lane_width: float = 4.0
    x_extent: tuple = (-200.0, 2000.0)

    def __post_init__(self):
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

    def _curve_y(self, curve_id):
        kind, _, num = curve_id.partition("_")
        try:
            index = int(num)
        except ValueError:
            raise ValueError(f"malformed curve id {curve_id!r}") from None
        if kind == "boundary":
            return self.boundary_y(index)
        if kind == "centerline":
            return self.centerline_y(index)
        raise ValueError(f"unknown curve kind in id {curve_id!r}")

    def tangent_at(self, curve_id, point, feasible_point=None):
        """Normalized tangent-line coefficients (a, b, c) of a curve at the
        projection of `point`, signed so that the feasible side satisfies
        a*x + b*y + c <= 0.

        `feasible_point` picks the permitted side; it defaults to `point`
        itself, which covers the lane-keeping case. Points projecting outside
        the road's x extent are rejected.
        """
        y0 = self._curve_y(curve_id)
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

    def state(self, k):
        if not self.start <= k <= self.stop:
            raise ValueError(f"time point {k} outside reference range [{self.start}, {self.stop}]")
        return self.states[k - self.start]

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
    reference_extension: int = 40

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
        if self.ts <= 0:
            raise ValueError("ts must be positive")
        if self.noise_std < 0:
            raise ValueError(f"noise_std cannot be negative, got {self.noise_std}")
        for name in ("kappa_offline", "kappa_online"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.omega_dist < 0:
            raise ValueError(f"omega_dist cannot be negative, got {self.omega_dist}")
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
                v.behavior, v.initial, self.horizon + self.reference_extension, self.ts, self.road
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
    and the human behind, so whether CAV 1 can commit to the change depends on
    how far back the human is read to drop. A correct read leaves room; a
    sufficiently wrong one leaves CAV 1's program with no feasible response,
    which the sweep records as a degraded run. It is the default roster with
    CAV 2 moved into the target lane just ahead of CAV 1, slightly slower.
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
    """A config mapping whose keys are all known; the first unknown key is
    refused with its path, so a misspelled field never falls back to its
    default."""
    if not isinstance(raw, dict):
        raise ValueError(f"config field {context} must be a mapping")
    for key in raw:
        if key not in known:
            raise ValueError(f"config field {_path(context, key)} is not a known field")
    return raw


def _req(mapping, key, context):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ValueError(f"config field {_path(context, key)} is missing")
    return mapping[key]


def _num(mapping, key, context, default=None):
    """A numeric field (scalar or list) as float(s); required when no default
    is given. Non-finite values are refused with the field's path."""
    raw = _req(mapping, key, context) if default is None else mapping.get(key, default)
    value = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(value)):
        raise ValueError(f"config field {_path(context, key)} is not finite: {raw!r}")
    return float(value) if value.ndim == 0 else tuple(value.tolist())


_BEHAVIOR_FIELDS = {
    STRAIGHT: ("kind", "direction"),
    LANE_CHANGE: ("kind", "source_lane", "target_lane", "start_x", "transition_length"),
}


def _behavior_from_config(raw, context):
    kind = _req(raw, "kind", context)
    if kind not in _BEHAVIOR_FIELDS:
        raise ValueError(f"config field {context}.kind has unknown value {kind!r}")
    _fields(raw, context, _BEHAVIOR_FIELDS[kind])
    if kind == STRAIGHT:
        return BehaviorSpec(kind=STRAIGHT, direction=_num(raw, "direction", context, (1.0, 0.0)))
    return BehaviorSpec(
        kind=LANE_CHANGE,
        source_lane=int(_num(raw, "source_lane", context)),
        target_lane=int(_num(raw, "target_lane", context)),
        start_x=_num(raw, "start_x", context),
        transition_length=_num(raw, "transition_length", context, 30.0),
    )


def load_config(text):
    """Parse a YAML scenario document into a ScenarioConfig.

    Angles appear in degrees in the document (psi_deg, delta bounds) and are
    converted here; everything downstream is radians. A missing required
    field, an unknown field or a non-finite number fails here, naming the
    field.
    """
    raw = yaml.safe_load(text)
    if not isinstance(raw, dict):
        raise ValueError("config document must be a mapping")
    _fields(raw, "", ("vehicles", "road", "limits", "geometry", "solver", "horizon", "ts",
                      "stages", "noise_std", "kappa_offline", "kappa_online", "omega_dist"))
    road_raw = _fields(raw.get("road", {}), "road", ("lane_count", "lane_width", "x_extent"))
    road = LaneGeometry(
        lane_count=int(_num(road_raw, "lane_count", "road", 2)),
        lane_width=_num(road_raw, "lane_width", "road", 4.0),
        x_extent=_num(road_raw, "x_extent", "road", (-200.0, 2000.0)),
    )
    lim_raw = _fields(raw.get("limits", {}), "limits",
                      ("v_min", "v_max", "a_min", "a_max", "delta_min_deg", "delta_max_deg"))
    defaults = BoxLimits()
    limits = BoxLimits(
        v_min=_num(lim_raw, "v_min", "limits", defaults.v_min),
        v_max=_num(lim_raw, "v_max", "limits", defaults.v_max),
        a_min=_num(lim_raw, "a_min", "limits", defaults.a_min),
        a_max=_num(lim_raw, "a_max", "limits", defaults.a_max),
        delta_min=math.radians(
            _num(lim_raw, "delta_min_deg", "limits", math.degrees(defaults.delta_min))),
        delta_max=math.radians(
            _num(lim_raw, "delta_max_deg", "limits", math.degrees(defaults.delta_max))),
    )
    geo_raw = _fields(raw.get("geometry", {}), "geometry",
                      ("length", "width", "extended_length", "extended_width"))
    geometry = VehicleGeometry(
        length=_num(geo_raw, "length", "geometry", 3.63),
        width=_num(geo_raw, "width", "geometry", 1.85),
        extended_length=_num(geo_raw, "extended_length", "geometry", 3.73),
        extended_width=_num(geo_raw, "extended_width", "geometry", 1.95),
    )
    sol_raw = _fields(raw.get("solver", {}), "solver",
                      ("violation_eps", "step_eps", "max_iterations", "qp_tolerance"))
    sd = SolverSettings()
    solver = SolverSettings(
        violation_eps=_num(sol_raw, "violation_eps", "solver", sd.violation_eps),
        step_eps=_num(sol_raw, "step_eps", "solver", sd.step_eps),
        max_iterations=int(_num(sol_raw, "max_iterations", "solver", sd.max_iterations)),
        qp_tolerance=_num(sol_raw, "qp_tolerance", "solver", sd.qp_tolerance),
    )
    vehicles = []
    for idx, v_raw in enumerate(_req(raw, "vehicles", "")):
        ctx = f"vehicles[{idx}]"
        _fields(v_raw, ctx, ("id", "is_hv", "style", "behavior", "initial", "weights_true"))
        vid = int(_num(v_raw, "id", ctx))
        behavior = _behavior_from_config(_req(v_raw, "behavior", ctx), f"{ctx}.behavior")
        init_raw = _fields(_req(v_raw, "initial", ctx), f"{ctx}.initial",
                           ("x", "y", "v", "psi_deg"))
        initial = VehicleState(
            p_x=_num(init_raw, "x", f"{ctx}.initial"),
            p_y=_num(init_raw, "y", f"{ctx}.initial"),
            v=_num(init_raw, "v", f"{ctx}.initial"),
            psi=math.radians(_num(init_raw, "psi_deg", f"{ctx}.initial", 0.0)),
        )
        style = _req(v_raw, "style", ctx)
        if "weights_true" in v_raw:
            weights = StyleWeights(np.asarray(_num(v_raw, "weights_true", ctx))).normalized(
                behavior.kind
            )
        else:
            weights = true_style_weights(behavior.kind, style)
        vehicles.append(
            VehicleConfig(
                vid=vid,
                is_hv=bool(v_raw.get("is_hv", vid == 0)),
                style=style,
                behavior=behavior,
                initial=initial,
                weights_true=weights,
                geometry=geometry,
            )
        )
    return ScenarioConfig(
        vehicles=tuple(vehicles),
        road=road,
        horizon=int(_num(raw, "horizon", "", 36)),
        ts=_num(raw, "ts", "", 0.1),
        limits=limits,
        stages=_num(raw, "stages", "", ()),
        solver=solver,
        noise_std=_num(raw, "noise_std", "", 0.05),
        kappa_offline=_num(raw, "kappa_offline", "", 1.5),
        kappa_online=_num(raw, "kappa_online", "", 0.3),
        omega_dist=_num(raw, "omega_dist", "", 1.0),
    )


def load_config_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_config(fh.read())
