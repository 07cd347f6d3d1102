"""Deterministic closed-loop parking simulation.

One run wires together the pieces: synthesize camera observations of an
object-fixed feature board (or read the relative pose directly in
ground-truth mode), estimate the goal-to-camera transform, convert to
chained error coordinates, evaluate the switched controller, and integrate
the unicycle under a zero-order-hold twist.

Everything is a pure function of the Scenario, including the pixel noise:
draws are keyed by (seed, step) and indexed by feature, so two runs of the
same scenario agree byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .error_state import (
    AnchorDepth,
    BodyTwist,
    ChainedInput,
    ChainedState,
    error_from_transform,
    to_chained,
)
from .errors import (
    DegenerateFeature,
    DegenerateGeometry,
    EmptyLog,
    EstimatorStarvation,
    InsufficientFeatures,
    InvalidParams,
    NumericalFailure,
)
from .geometry import (
    DEFAULT_INTRINSICS,
    CameraIntrinsics,
    FeaturePoint3,
    NormalizedFeature,
    PlanarTransform,
    Pose2,
    normalize,
    project,
    relative_transform,
    transform_point,
    wrap_angle,
)
from .parking_controller import (
    PROPOSED_PARAMS,
    ControllerParams,
    TwistLimits,
    compute_gains,
    in_invariant_set,  # noqa: F401 -- not called; bench/tracing.py WRAPS looks it up here
)
from .parking_controller import step as controller_step
from .pose_estimator import MatchedPair, estimate_pose

# Convergence requires the twist to be this quiet for a full second, so a
# fast crossing of the goal is not declared success.
TWIST_QUIET = 1e-3
QUIET_WINDOW_SECONDS = 1.0
STARVATION_LIMIT_SECONDS = 5.0

_HELD = "held"  # branch label for starved samples where no law was evaluated


class PerceptionMode(Enum):
    GROUND_TRUTH = "ground_truth"
    ESTIMATED = "estimated"


@dataclass(frozen=True)
class ConvergenceSpec:
    """Configuration, so a dataclass, like Scenario."""

    pos_tol: float = 0.05
    ang_tol: float = 0.02

    def __post_init__(self) -> None:
        if not (self.pos_tol > 0.0 and self.ang_tol > 0.0):
            raise InvalidParams("convergence tolerances must be positive")


@dataclass(frozen=True)
class GoalUpdate:
    """Timed re-placement of the object: the goal pose jumps at time t.

    Configuration, so a dataclass, like Scenario.
    """

    t: float
    goal_pose: Pose2

    def __post_init__(self) -> None:
        if not self.t >= 0.0:
            raise InvalidParams("goal update time must be nonnegative")


def default_object_features() -> tuple[FeaturePoint3, ...]:
    """Six corners of a 1 m-wide planar board 3 m ahead of the goal camera."""
    return (
        FeaturePoint3(3.0, -0.5, 0.6),
        FeaturePoint3(3.0, 0.0, 0.6),
        FeaturePoint3(3.0, 0.5, 0.6),
        FeaturePoint3(3.0, -0.5, -0.3),
        FeaturePoint3(3.0, 0.0, -0.3),
        FeaturePoint3(3.0, 0.5, -0.3),
    )


@dataclass(frozen=True)
class Scenario:
    """One run's configuration.

    Like the other configuration types, a dataclass: the scenario parser
    builds it from JSON through ``fields()``, ``__post_init__`` validates
    it, and the CLI applies overrides with ``replace``.
    """

    name: str = "unnamed"
    initial_pose: Pose2 = Pose2(0.0, 0.0, 0.0)
    goal_pose: Pose2 = Pose2(0.0, 0.0, 0.0)
    object_features: tuple[FeaturePoint3, ...] = field(default_factory=default_object_features)
    intrinsics: CameraIntrinsics = DEFAULT_INTRINSICS
    controller: ControllerParams = PROPOSED_PARAMS
    limits: TwistLimits | None = None
    dt: float = 0.01
    t_max: float = 200.0
    perception_mode: PerceptionMode = PerceptionMode.GROUND_TRUTH
    pixel_noise_sigma: float = 0.0
    rng_seed: int = 0
    convergence: ConvergenceSpec = ConvergenceSpec()
    anchor_index: int | None = None
    goal_updates: tuple[GoalUpdate, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "object_features", tuple(self.object_features))
        object.__setattr__(self, "goal_updates", tuple(self.goal_updates))
        if not self.dt > 0.0:
            raise InvalidParams("dt must be positive")
        if not self.t_max > self.dt:
            raise InvalidParams("t_max must exceed dt")
        if not math.isfinite(self.t_max):
            raise InvalidParams("t_max must be finite")
        if not self.pixel_noise_sigma >= 0.0:
            raise InvalidParams("pixel_noise_sigma must be nonnegative")
        if not math.isfinite(self.pixel_noise_sigma):
            raise InvalidParams("pixel_noise_sigma must be finite")
        if len(self.object_features) == 0:
            raise InvalidParams("at least one object feature is required")
        if self.perception_mode is PerceptionMode.ESTIMATED and len(self.object_features) < 2:
            raise InvalidParams("estimated perception needs at least two features")
        if self.anchor_index is not None and not (
            0 <= self.anchor_index < len(self.object_features)
        ):
            raise InvalidParams("anchor_index out of range")
        if not math.isfinite(self.t_max / self.dt):
            raise InvalidParams("t_max / dt must be a finite step count")

    def anchor(self) -> AnchorDepth:
        """Anchor height Z*; defaults to the feature of largest |Z_star|."""
        if self.anchor_index is not None:
            return AnchorDepth(self.object_features[self.anchor_index].Z_star)
        best = max(self.object_features, key=lambda f: abs(f.Z_star))
        return AnchorDepth(best.Z_star)


class TrajectorySample(NamedTuple):
    t: float
    pose: Pose2
    z: ChainedState  # true chained state, also in estimated mode
    twist: BodyTwist  # as commanded, after any clamp
    u: ChainedInput  # NaN pair on starved samples
    u0_branch: str
    u1_branch: str
    in_gamma: bool  # of the decision whose twist is carried; False before the first
    est_angle_err: float  # NaN when no estimate was formed
    est_trans_err: float
    visible_count: int


@dataclass(frozen=True)
class RunSummary:
    """A dataclass: ``asdict`` gives the summary JSON, in field order."""

    converged: bool
    t_converge: float | None
    final_pos_err: float
    final_ang_err: float
    path_length: float
    max_abs_v: float
    max_abs_omega: float
    peak_z0z1: float
    samples: int


def integrate_unicycle(pose: Pose2, twist: BodyTwist, dt: float) -> Pose2:
    """One Runge-Kutta-4 step of the unicycle under a held twist.

    The heading rate is constant, so both midpoint stages take the heading
    theta + dt*w/2 and k3 = k2.
    """
    if not dt > 0.0:
        raise InvalidParams("dt must be positive")
    v, w = twist.v, twist.omega
    mid = pose.theta + 0.5 * dt * w
    end = pose.theta + dt * w
    k1x, k1y = v * math.cos(pose.theta), v * math.sin(pose.theta)
    k2x, k2y = v * math.cos(mid), v * math.sin(mid)
    k4x, k4y = v * math.cos(end), v * math.sin(end)
    return Pose2(
        pose.x + dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k2x + k4x),
        pose.y + dt / 6.0 * (k1y + 2.0 * k2y + 2.0 * k2y + k4y),
        end,
    )


def pose_for_chained_state(z: ChainedState, anchor: AnchorDepth, goal: Pose2) -> Pose2:
    """World pose whose chained error relative to ``goal`` equals ``z``.

    Inverse of relative_transform followed by error_from_transform and
    to_chained; used to place robots at prescribed error states.
    """
    phi = -z.z0
    t_x = -z.z2 * anchor.Z_star
    t_y = z.z1 * anchor.Z_star
    c, s = math.cos(phi), math.sin(phi)
    # solve R(phi) p + T = 0 for the robot position p in the goal frame
    p_x = -(c * t_x + s * t_y)
    p_y = -(-s * t_x + c * t_y)
    return goal.compose(Pose2(p_x, p_y, -phi))


def generate_observations(
    g: PlanarTransform, scenario: Scenario, step: int = 0
) -> list[MatchedPair]:
    """Project the object features through the goal-to-camera map ``g``, with optional noise.

    Noise draws are keyed by (seed, step) and indexed by feature position in
    the scenario list, so a feature's perturbation does not depend on which
    other features happen to be visible.  A feature that MatchedPair refuses
    (its noisy vertical coordinate collapses below the estimator tolerance)
    is dropped as an unusable measurement.
    """
    K = scenario.intrinsics
    noise = None
    if scenario.pixel_noise_sigma > 0.0:
        rng = np.random.default_rng([scenario.rng_seed & 0xFFFFFFFFFFFFFFFF, step])
        noise = rng.normal(0.0, scenario.pixel_noise_sigma, size=(len(scenario.object_features), 2))
    pairs: list[MatchedPair] = []
    for i, f in enumerate(scenario.object_features):
        pixel = project(transform_point(g, f), K)
        if pixel is None:
            continue
        if noise is not None:
            pixel = (pixel[0] + noise[i, 0], pixel[1] + noise[i, 1])
        ref = NormalizedFeature(f.Y_star / f.X_star, f.Z_star / f.X_star)
        try:
            pairs.append(MatchedPair(normalize(pixel, K), ref, f.X_star))
        except DegenerateFeature:
            continue
    return pairs


def _sample_in_tolerance(s: TrajectorySample, spec: ConvergenceSpec, z_scale: float) -> bool:
    pos_err = z_scale * math.hypot(s.z.z1, s.z.z2)
    ang_err = abs(s.z.z0)
    quiet = abs(s.twist.v) < TWIST_QUIET and abs(s.twist.omega) < TWIST_QUIET
    return pos_err < spec.pos_tol and ang_err < spec.ang_tol and quiet


def _quiet_window(dt: float) -> int:
    return max(1, round(QUIET_WINDOW_SECONDS / dt))


def run(scenario: Scenario) -> tuple[list[TrajectorySample], RunSummary]:
    """Simulate until convergence or t_max; returns the full log and summary.

    Convergence is declared at the first sample completing one second of
    consecutive in-tolerance, quiet-twist samples, judged on the true state
    and the commanded (post-clamp) twist.  In estimated mode a sample with
    no usable estimate holds the previous twist, with that decision's
    in_gamma; a starvation streak longer than the limit aborts the run.
    """
    gains = compute_gains(scenario.controller)
    anchor = scenario.anchor()
    z_scale = abs(anchor.Z_star)
    window = _quiet_window(scenario.dt)
    n_steps = math.floor(scenario.t_max / scenario.dt + 1e-9)
    updates = sorted(scenario.goal_updates, key=lambda u: u.t)

    pose = scenario.initial_pose
    goal = scenario.goal_pose
    twist = BodyTwist(0.0, 0.0)  # held through starved steps, with its decision's in_gamma
    in_gamma = False
    estimated = scenario.perception_mode is PerceptionMode.ESTIMATED
    samples: list[TrajectorySample] = []
    next_update = 0
    starve_streak = 0
    streak = 0

    for k in range(n_steps + 1):
        t = k * scenario.dt
        while next_update < len(updates) and updates[next_update].t <= t + 1e-12:
            goal = updates[next_update].goal_pose
            next_update += 1

        g_true = relative_transform(pose, goal)
        z_true = to_chained(error_from_transform(g_true, anchor))

        visible = len(scenario.object_features)
        est_angle_err = est_trans_err = math.nan
        z_ctrl = z_true
        starved = False
        if estimated:
            obs = generate_observations(g_true, scenario, step=k)
            visible = len(obs)
            try:
                est = estimate_pose(obs)
            except (InsufficientFeatures, DegenerateGeometry, NumericalFailure):
                est = None  # too few features, or visible but uninformative
            starved = est is None
            if starved:
                starve_streak += 1
                if starve_streak * scenario.dt > STARVATION_LIMIT_SECONDS:
                    raise EstimatorStarvation(
                        f"no usable pose estimate for "
                        f"{starve_streak * scenario.dt:.2f} s at t = {t:.2f} s"
                    )
            else:
                starve_streak = 0
                z_ctrl = to_chained(error_from_transform(est.transform, anchor))
                est_angle_err = abs(wrap_angle(est.transform.phi - g_true.phi))
                est_trans_err = math.hypot(
                    est.transform.t_x - g_true.t_x, est.transform.t_y - g_true.t_y
                )

        if starved:  # keep the previous twist and its in_gamma; no law is evaluated
            u, u0_branch, u1_branch = ChainedInput(math.nan, math.nan), _HELD, _HELD
        else:
            twist, decision = controller_step(
                z_ctrl, gains, scenario.controller, scenario.limits, anchor, scenario.dt
            )
            u, in_gamma = decision.u, decision.in_gamma
            # _value_ is what Enum.value returns, without the descriptor call
            u0_branch, u1_branch = decision.u0_branch._value_, decision.u1_branch._value_
        sample = TrajectorySample(
            t,
            pose,
            z_true,
            twist,
            u,
            u0_branch,
            u1_branch,
            in_gamma,
            est_angle_err,
            est_trans_err,
            visible,
        )
        samples.append(sample)
        streak = streak + 1 if _sample_in_tolerance(sample, scenario.convergence, z_scale) else 0
        if streak >= window or k == n_steps:
            break
        pose = integrate_unicycle(pose, twist, scenario.dt)

    return samples, summarize(samples, scenario)


def summarize(samples: list[TrajectorySample], scenario: Scenario) -> RunSummary:
    """Recompute the run verdict and aggregates from a log.

    Applies the exact convergence rule of run(), so summarizing a log gives
    the same verdict the run itself reached.  The final sample's twist is
    never applied, so it is excluded from the path length.
    """
    if not samples:
        raise EmptyLog("cannot summarize an empty trajectory log")
    z_scale = abs(scenario.anchor().Z_star)
    window = _quiet_window(scenario.dt)
    streak = 0
    converged = False
    t_converge: float | None = None
    path_length = 0.0
    max_abs_v = 0.0
    max_abs_omega = 0.0
    peak_z0z1 = 0.0
    for i, s in enumerate(samples):
        if i + 1 < len(samples):
            path_length += abs(s.twist.v) * scenario.dt
        max_abs_v = max(max_abs_v, abs(s.twist.v))
        max_abs_omega = max(max_abs_omega, abs(s.twist.omega))
        peak_z0z1 = max(peak_z0z1, abs(s.z.z0) + abs(s.z.z1))
        streak = streak + 1 if _sample_in_tolerance(s, scenario.convergence, z_scale) else 0
        if not converged and streak >= window:
            converged = True
            t_converge = s.t
    last = samples[-1]
    return RunSummary(
        converged=converged,
        t_converge=t_converge,
        final_pos_err=z_scale * math.hypot(last.z.z1, last.z.z2),
        final_ang_err=abs(last.z.z0),
        path_length=path_length,
        max_abs_v=max_abs_v,
        max_abs_omega=max_abs_omega,
        peak_z0z1=peak_z0z1,
        samples=len(samples),
    )


def case_scenarios() -> dict[str, Scenario]:
    """The four built-in parking cases (ground-truth perception defaults)."""
    limited = TwistLimits(1.0, 1.0)
    return {
        "case1": Scenario(
            name="case1",
            initial_pose=Pose2(0.0, 0.0, math.pi / 6.0),
            goal_pose=Pose2(5.0, 5.0, 0.0),
        ),
        "case2": Scenario(
            name="case2",
            initial_pose=Pose2(0.0, 0.0, math.pi / 4.0),
            goal_pose=Pose2(5.0, 5.0, 0.0),
        ),
        "case3": Scenario(
            name="case3",
            initial_pose=Pose2(5.0, 5.0, math.pi / 6.0),
            goal_pose=Pose2(16.0, 6.0, math.pi / 6.0),
            limits=limited,
        ),
        "case4": Scenario(
            name="case4",
            initial_pose=Pose2(5.0, 5.0, 0.0),
            goal_pose=Pose2(16.0, 6.0, math.pi / 6.0),
            limits=limited,
        ),
    }
