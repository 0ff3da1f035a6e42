"""Game-theoretic interaction modeling for mixed human and autonomous traffic.

The package is organized bottom up: vehicle dynamics and scenarios, linear
constraint assembly, a dense active-set QP solver, best-response game solving,
a simulated V2X transport, the cognition hierarchy with weight interpretation,
and experiment harnesses with a CLI on top.
"""

from .cognition import (
    CognitionModel,
    CognitionProfile,
    HneTolerance,
    HneVerdict,
    cav_perceived_hv_game,
    cognition_profile,
    hne_gap_sweep,
    hv_subjective_game,
    plan_cavs,
    predict_hv,
    verify_hne,
)
from .constraints import Segment, Strategy, assemble, profile_violation
from .dynamics import ControlInput, VehicleGeometry, VehicleState, linearize_discrete, rollout
from .game import (
    EquilibriumResult,
    GameSpec,
    WeightExpansion,
    best_response,
    make_game,
    objective_qp_data,
    pseudo_gradient,
    solve_games,
    ve_residual,
)
from .harness import (
    NoiseSpec,
    StagePlan,
    apply_noise,
    run_offline_experiment,
    run_online_experiment,
    run_success_rate,
    run_timing,
    write_csv,
)
from .inverse import (
    InverseResult,
    InverseSettings,
    Observation,
    interpret_offline,
    interpret_online,
    parameter_error,
)
from .netsim import ProtocolMessage, SessionTrace, run_centralized, run_distributed
from .qp import QpProblem, QpSolution, SolverSettings, kkt_residual, solve
from .scenario import (
    BehaviorSpec,
    BoxLimits,
    LaneGeometry,
    ReferenceTrajectory,
    ScenarioConfig,
    StyleWeights,
    VehicleConfig,
    build_reference,
    default_offline_scenario,
    default_online_scenario,
    success_study_scenario,
    load_config,
    load_config_file,
    style_weights_for,
    true_style_weights,
)

__version__ = "0.1.0"
