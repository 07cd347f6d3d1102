"""Object-relative parking for differential-drive robots.

Closed-form planar pose estimation from matched camera features, chained
error coordinates, a switched parking controller with Riccati-synthesized
gains, and a deterministic closed-loop simulator around them.
"""

from .closed_loop_sim import (
    ConvergenceSpec,
    GoalUpdate,
    PerceptionMode,
    RunSummary,
    Scenario,
    TrajectorySample,
    case_scenarios,
    default_object_features,
    generate_observations,
    integrate_unicycle,
    pose_for_chained_state,
    run,
    summarize,
)
from .error_state import (
    AnchorDepth,
    BodyTwist,
    ChainedInput,
    ChainedState,
    ErrorState,
    error_from_features,
    error_from_transform,
    inputs_to_twist,
    to_chained,
    twist_to_inputs,
)
from .errors import (
    ConfigError,
    DegenerateFeature,
    DegenerateGeometry,
    EmptyLog,
    EstimatorStarvation,
    InsufficientFeatures,
    InvalidParams,
    NumericalFailure,
    ServoparkError,
    ZeroAnchorDepth,
)
from .geometry import (
    DEFAULT_INTRINSICS,
    CameraIntrinsics,
    FeaturePoint3,
    NormalizedFeature,
    PlanarTransform,
    Pose2,
    cbrt_signed,
    normalize,
    project,
    relative_transform,
    transform_point,
    wrap_angle,
)
from .parking_controller import (
    EPS_INPUT,
    EPS_STATE,
    PROPOSED_PARAMS,
    ControlDecision,
    ControllerGains,
    ControllerParams,
    TwistLimits,
    U0Branch,
    U1Branch,
    compute_gains,
    control_u0,
    control_u1,
    in_invariant_set,
    lyapunov_V,
    riccati_residual,
)
from .parking_controller import step as controller_step
from .pose_estimator import (
    MatchedPair,
    NormalAccumulators,
    PairCoeffs,
    PlanarTransformEstimate,
    RotationEstimate,
    accumulate,
    estimate_pose,
    estimate_rotation,
    estimate_translation,
    pair_coeffs,
    quartic_coeffs,
    rotation_candidates,
    solve_quartic,
    translation_terms,
)

__version__ = "0.1.0"
