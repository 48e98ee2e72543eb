"""Detectability analysis, stealthy-attack synthesis, and windowed detection
for discrete-time linear systems under attack, with side initial-state
information."""

from .analysis import (
    AttackClass,
    ExtensionVerdict,
    UndetectabilityCertificate,
    certify_undetectable,
    classify,
    extension_verdict,
    is_zero_state_inducing,
)
from .detector import (
    Decision,
    DetectionTrace,
    DetectorConfig,
    DetectorSession,
    EpochDecision,
    batch_decide,
    run_detector,
)
from .errors import (
    AssumptionViolated,
    DimensionMismatch,
    HorizonTooShort,
    LtisecError,
    NoModes,
    NonFinite,
    NotExtensible,
    NotSynthesizable,
    NotUndetectable,
    ParseError,
    RankDeficient,
    ThetaNotFeasible,
)
from .model import (
    AttackSequence,
    LtiSystem,
    SideInformation,
    Trajectory,
    ValidationReport,
    ctrl_matrix,
    io_matrix,
    markov_column,
    obs_matrix,
    propagate,
    simulate,
    validate,
)
from .numlin import (
    SubspaceBasis,
    Tol,
    feasible,
    intersect,
    null_space,
    numerical_rank,
    orth_columns,
    projector,
    solve_min_norm,
)
from .scenario import (
    Scenario,
    aircraft_path,
    load_attack,
    load_log,
    load_scenario,
    save_attack,
    save_log,
)
from .subspaces import (
    output_nulling_reachable,
    weakly_unobservable,
    weakly_unobservable_iterates,
    zero_state_attack_exists,
)
from .synthesis import (
    ZeroDynamicsMode,
    extend_attack,
    find_zero_dynamics_modes,
    undetectable_from_theta,
    zero_dynamics_attack,
    zero_state_synthesize,
)

__version__ = "0.1.0"
