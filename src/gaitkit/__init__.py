"""gaitkit: multi-gait selection and transition toolkit for quadrupeds.

Gait scheduling, FSM-driven gait transitions, a desk-scale single-rigid-body
simulator with friction-cone force distribution, CoT/STB evaluation,
velocity-gait map construction, and a strategy comparison harness.
"""

__version__ = "0.1.0"

from .gaits import (
    GaitName,
    GaitPattern,
    LegId,
    flight_fraction,
    leg_contact,
    stance_count,
    stance_measure,
    standard_gait,
)
from .transitions import (
    TRANSITION_TABLE,
    FsmState,
    GaitEvent,
    GaitFsm,
    TransitionAction,
    advance,
    fsm_dispatch,
    initial_state,
    transition_action,
    transition_params,
)
from .robot import (
    OutOfWorkspaceError,
    RobotParams,
    Terrain,
    TerrainBoundsError,
    TerrainSegment,
    leg_fk,
    leg_ik,
    leg_jacobian,
    terrain_preset,
)
from .forces import ForceDistribution, distribute_forces
from .simulation import (
    SimConfig,
    StrideLog,
    TrialCheckpoint,
    TrialResult,
    TrunkState,
    run_trial,
    stance_torques,
    step,
    swing_acceleration,
    swing_torques,
    swing_trajectory,
)
from .metrics import (
    COT_BOUND,
    STB_BOUND,
    MetricsConfig,
    StrideMetrics,
    UndefinedDisplacementError,
    clamp_failed,
    cot,
    j_e,
    stb,
    stride_energy,
    stride_metrics,
)
from .mapping import (
    HysteresisState,
    MapCell,
    MapConfig,
    VelocityGaitMap,
    build_map,
    select_gait,
    select_gait_hysteretic,
)
from .strategy import (
    ComparisonRow,
    FixedGait,
    MultiGait,
    PerVelocityFixed,
    Strategy,
    StrategyError,
    compare,
    run_strategy,
)
from .config import ToolkitConfig, load_config
