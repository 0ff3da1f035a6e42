"""Game-theoretic interaction modeling for mixed human and autonomous traffic.

The package is organized bottom up: vehicle dynamics and scenarios, linear
constraint assembly as sparse rows, a dual active-set QP solver that reads
those rows, best-response game solving, a simulated V2X transport, the
cognition hierarchy with weight interpretation, and experiment harnesses with
a CLI on top.
"""

from .cognition import (
    CognitionModel,
    HneVerdict,
    cognitive_threshold,
    hne_gap_sweep,
    hv_subjective_game,
    plan_cavs,
    predict_hv,
    verify_hne,
)
from .constraints import Segment, Strategy, profile_violation
from .dynamics import ControlInput, VehicleGeometry, VehicleState, linearize_discrete, rollout
from .game import (
    EquilibriumResult,
    GameSpec,
    make_game,
    objective_qp_data,
    solve_games,
    ve_residual,
    weight_diagonal,
)
from .harness import (
    apply_noise,
    run_offline_experiment,
    run_online_experiment,
    run_success_rate,
    run_timing,
    write_csv,
)
from .inverse import (
    InverseResult,
    Observation,
    interpret_offline,
    interpret_online,
    parameter_error,
)
from .netsim import ProtocolMessage, SessionTrace, run_distributed
from .qp import QpSolution, SolverSettings
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
