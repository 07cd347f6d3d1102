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
from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
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
    require_finite,
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
    ControlDecision,
    ControllerParams,
    TwistLimits,
    compute_gains,
    in_invariant_set,  # noqa: F401 -- not called; bench/tracing.py WRAPS looks it up here
)
from .parking_controller import step as controller_step
from .pose_estimator import MAX_FEATURES, MatchedPair, estimate_pose

# Convergence requires the twist to be this quiet for a full second, so a
# fast crossing of the goal is not declared success.
TWIST_QUIET = 1e-3
QUIET_WINDOW_SECONDS = 1.0
STARVATION_LIMIT_SECONDS = 5.0

_HELD = "held"  # branch label for starved samples where no law was evaluated
_NO_INPUT = ChainedInput(math.nan, math.nan)
_NOT_DECIDED = ControlDecision(_NO_INPUT, _HELD, _HELD, False)  # held before any decision


class PerceptionMode(Enum):
    GROUND_TRUTH = "ground_truth"
    ESTIMATED = "estimated"


@dataclass(frozen=True, slots=True)
class ConvergenceSpec:
    """Configuration, so a dataclass, like Scenario."""

    pos_tol: float = 0.05
    ang_tol: float = 0.02

    def __post_init__(self) -> None:
        if not (self.pos_tol > 0.0 and self.ang_tol > 0.0):
            raise InvalidParams("convergence tolerances must be positive")
        require_finite("convergence tolerances must be finite", self.pos_tol, self.ang_tol)


@dataclass(frozen=True, slots=True)
class GoalUpdate:
    """Timed re-placement of the object: the goal pose jumps at time t.

    Configuration, so a dataclass, like Scenario.
    """

    t: float
    goal_pose: Pose2

    def __post_init__(self) -> None:
        if not self.t >= 0.0:
            raise InvalidParams("goal update time must be nonnegative")
        require_finite("goal update time must be finite", self.t)


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


@dataclass(frozen=True, slots=True)
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
        require_finite("t_max must be finite", self.t_max)
        if not self.pixel_noise_sigma >= 0.0:
            raise InvalidParams("pixel_noise_sigma must be nonnegative")
        require_finite("pixel_noise_sigma must be finite", self.pixel_noise_sigma)
        if len(self.object_features) == 0:
            raise InvalidParams("at least one object feature is required")
        if self.perception_mode is PerceptionMode.ESTIMATED:
            if len(self.object_features) < 2:
                raise InvalidParams("estimated perception needs at least two features")
            if len(self.object_features) > MAX_FEATURES:
                raise InvalidParams(f"estimated perception takes at most {MAX_FEATURES} features")
        if self.anchor_index is not None and not (
            0 <= self.anchor_index < len(self.object_features)
        ):
            raise InvalidParams("anchor_index out of range")
        # _step_count and _convergence divide t_max and the quiet window by dt
        steps = max(self.t_max, QUIET_WINDOW_SECONDS) / self.dt
        require_finite("t_max / dt must be a finite step count", steps)

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


_FLOATS = 15  # numbers a sample logs: its traj row without the two branch labels


def _shared_nan(x: float) -> float:
    """``x``, or the one ``math.nan`` object, so that equal samples compare equal."""
    return x if x == x else math.nan


class TrajectoryLog(Sequence[TrajectorySample]):
    """A run's log: a read-only sequence of TrajectorySample, stored flat.

    Each sample is kept as its traj CSV row: the row's 15 numbers in one
    ``array('d')``, in column order (``t, x, y, theta, z0, z1, z2, v, omega,
    u0, u1, in_gamma, est_angle_err, est_trans_err, visible_count``; a bool
    and a small int are exact as doubles), and the two branch labels, which
    sit between ``u1`` and ``in_gamma``, in two lists: about 145 B a
    sample, where a list of samples takes about 640 B.  Samples are built
    when they are read, by index, slice (a list) or iteration; ``rows()``
    gives the rows as flat tuples without building them.
    ``TrajectoryLog(samples)`` packs any iterable of samples.  Two logs are
    equal when they hold the same bits.
    """

    __slots__ = ("_floats", "_u0_branch", "_u1_branch")

    def __init__(self, samples: Iterable[TrajectorySample] = ()) -> None:
        self._floats = array("d")
        self._u0_branch: list[str] = []
        self._u1_branch: list[str] = []
        for s in samples:
            self._append(*s[:4], s[4:8], *s[8:])  # s[4:8] is the decision

    def _append(self, t, pose, z, twist, decision, est_angle_err, est_trans_err, visible_count):
        """Log one sample from its parts, without building it."""
        z0, z1, z2 = z
        v, omega = twist
        (u0, u1), u0_branch, u1_branch, in_gamma = decision
        self._floats.fromlist(
            [t, pose.x, pose.y, pose.theta, z0, z1, z2, v, omega, u0, u1, in_gamma,
             est_angle_err, est_trans_err, visible_count]
        )
        self._u0_branch.append(u0_branch)
        self._u1_branch.append(u1_branch)

    def _float_rows(self) -> Iterator[tuple[float, ...]]:
        """Each sample's 15 numbers as one tuple, in log order."""
        return zip(*[iter(self._floats)] * _FLOATS)

    def rows(self) -> Iterator[tuple]:
        """Each sample as one flat tuple, in the traj CSV's column order:
        TrajectorySample's fields with ``pose``, ``z``, ``twist`` and ``u``
        spread out, and ``in_gamma`` and ``visible_count`` as floats."""
        for (t, x, y, theta, z0, z1, z2, v, omega, u0, u1, g, ea, et, n), b0, b1 in zip(
            self._float_rows(), self._u0_branch, self._u1_branch
        ):
            yield t, x, y, theta, z0, z1, z2, v, omega, u0, u1, b0, b1, g, ea, et, n

    @staticmethod
    def _sample(row: tuple) -> TrajectorySample:
        t, x, y, theta, z0, z1, z2, v, omega, u0, u1, b0, b1, g, ea, et, n = row
        u = ChainedInput(_shared_nan(u0), _shared_nan(u1))
        return TrajectorySample(
            t, Pose2(x, y, theta), ChainedState(z0, z1, z2), BodyTwist(v, omega), u, b0, b1,
            bool(g), _shared_nan(ea), _shared_nan(et), int(n),
        )

    def __len__(self) -> int:
        return len(self._u0_branch)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        labels = self._u0_branch[index], self._u1_branch[index]  # a list checks and wraps index
        start = _FLOATS * index  # a negative index gives a negative start, counted from the end
        f = self._floats[start : start + _FLOATS or None]  # None: log[-1] runs to the end
        return self._sample((*f[:11], *labels, *f[11:]))

    def __iter__(self) -> Iterator[TrajectorySample]:
        return map(self._sample, self.rows())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrajectoryLog):
            return NotImplemented
        return (
            self._floats.tobytes() == other._floats.tobytes()
            and self._u0_branch == other._u0_branch
            and self._u1_branch == other._u1_branch
        )


@dataclass(frozen=True, slots=True)
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
        # as Python floats: numpy scalars would carry into every estimator float
        noise = rng.normal(
            0.0, scenario.pixel_noise_sigma, size=(len(scenario.object_features), 2)
        ).tolist()
    pairs: list[MatchedPair] = []
    for i, f in enumerate(scenario.object_features):
        pixel = project(transform_point(g, f), K)
        if pixel is None:
            continue
        if noise is not None:
            pixel = (pixel[0] + noise[i][0], pixel[1] + noise[i][1])
        ref = NormalizedFeature(f.Y_star / f.X_star, f.Z_star / f.X_star)
        try:
            pairs.append(MatchedPair(normalize(pixel, K), ref, f.X_star))
        except DegenerateFeature:
            continue
    return pairs


def perception(scenario: Scenario) -> Callable[..., tuple[ChainedState | None, int, float, float]]:
    """One run's perception, as ``see(g, z_true, step)``.

    ``see`` returns the state the controller acts on, the usable feature
    count, and the estimate's angle and translation errors against the true
    goal-to-camera map ``g``.  Ground truth gives ``z_true`` and NaN errors.
    In estimated mode, too few or uninformative features give None and NaN
    errors; any other error propagates.  ``see`` keeps no state: run()
    counts the blind steps and decides when the run has starved.
    """
    n_features = len(scenario.object_features)
    if scenario.perception_mode is PerceptionMode.GROUND_TRUTH:
        return lambda g, z_true, step: (z_true, n_features, math.nan, math.nan)
    anchor = scenario.anchor()

    def see(g, z_true, step):
        obs = generate_observations(g, scenario, step=step)
        try:
            est = estimate_pose(obs)
        except (InsufficientFeatures, DegenerateGeometry, NumericalFailure):
            return None, len(obs), math.nan, math.nan
        e = est.transform
        z = to_chained(error_from_transform(e, anchor))
        return z, len(obs), abs(wrap_angle(e.phi - g.phi)), math.hypot(e.t_x - g.t_x, e.t_y - g.t_y)

    return see


def _step_count(scenario: Scenario) -> int:
    return math.floor(scenario.t_max / scenario.dt + 1e-9)


def _convergence(scenario: Scenario) -> Callable[..., bool]:
    """The convergence rule, one sample at a time, as ``ends_window(t, z0, z1, z2, v, omega)``.

    ``ends_window`` is True at a sample that ends a quiet window: one second
    of samples in a row with the true state within tolerance and the
    commanded (post-clamp) twist quiet, counted from the last goal update
    that run() applies.
    """
    spec = scenario.convergence
    z_scale = abs(scenario.anchor().Z_star)
    window = max(1, round(QUIET_WINDOW_SECONDS / scenario.dt))
    t_end = _step_count(scenario) * scenario.dt
    t_settle = max((u.t for u in scenario.goal_updates if u.t <= t_end + 1e-12), default=0.0)
    streak = 0

    def ends_window(t: float, z0: float, z1: float, z2: float, v: float, omega: float) -> bool:
        nonlocal streak
        in_tol = (
            t + 1e-12 >= t_settle  # earlier samples were aimed at an old goal
            and z_scale * math.hypot(z1, z2) < spec.pos_tol
            and abs(z0) < spec.ang_tol
            and abs(v) < TWIST_QUIET
            and abs(omega) < TWIST_QUIET
        )
        streak = streak + 1 if in_tol else 0
        return streak >= window

    return ends_window


def run(scenario: Scenario) -> tuple[TrajectoryLog, RunSummary]:
    """Simulate until convergence or t_max; returns the full log and summary.

    Each step applies due goal updates, perceives (see ``perception``),
    evaluates the law, logs the sample, asks ``_convergence`` whether it
    ends a quiet window, and integrates.  A sample with no usable estimate
    holds the previous twist, with that decision's in_gamma.  A blind
    streak over STARVATION_LIMIT_SECONDS ends the run after its step is
    logged: EstimatorStarvation carries the log and its summary.
    """
    gains = compute_gains(scenario.controller)
    anchor = scenario.anchor()
    n_steps = _step_count(scenario)
    updates = sorted(scenario.goal_updates, key=lambda u: u.t)
    see = perception(scenario)
    ends_window = _convergence(scenario)

    pose = scenario.initial_pose
    goal = scenario.goal_pose
    twist = BodyTwist(0.0, 0.0)  # held through starved steps, with its decision's in_gamma
    decision = _NOT_DECIDED
    log = TrajectoryLog()
    next_update = 0
    blind = 0  # steps in a row without a usable estimate

    for k in range(n_steps + 1):
        t = k * scenario.dt
        while next_update < len(updates) and updates[next_update].t <= t + 1e-12:
            goal = updates[next_update].goal_pose
            next_update += 1

        g_true = relative_transform(pose, goal)
        z_true = to_chained(error_from_transform(g_true, anchor))
        z_ctrl, visible, est_angle_err, est_trans_err = see(g_true, z_true, k)

        if z_ctrl is None:  # keep the previous twist and its in_gamma; no law is evaluated
            blind += 1
            decision = decision._replace(u=_NO_INPUT, u0_branch=_HELD, u1_branch=_HELD)
        else:
            blind = 0
            twist, decision = controller_step(
                z_ctrl, gains, scenario.controller, scenario.limits, anchor, scenario.dt
            )
        log._append(t, pose, z_true, twist, decision, est_angle_err, est_trans_err, visible)
        # a step with an estimate stops at `blind`, without the product
        if blind and blind * scenario.dt > STARVATION_LIMIT_SECONDS:
            raise EstimatorStarvation(
                f"no usable pose estimate for {blind * scenario.dt:.2f} s at t = {t:.2f} s",
                log,
                summarize(log, scenario),
            )
        z0, z1, z2 = z_true
        v, omega = twist
        if ends_window(t, z0, z1, z2, v, omega) or k == n_steps:
            break
        pose = integrate_unicycle(pose, twist, scenario.dt)

    return log, summarize(log, scenario)


def summarize(samples: Sequence[TrajectorySample], scenario: Scenario) -> RunSummary:
    """Recompute the run verdict and aggregates from a log.

    Any other sequence of samples is packed into a TrajectoryLog first.
    The verdict comes from ``_convergence``, as in run().  The final
    sample's twist is never applied, so it is excluded from the path length.
    """
    log = samples if isinstance(samples, TrajectoryLog) else TrajectoryLog(samples)
    if not log:
        raise EmptyLog("cannot summarize an empty trajectory log")
    ends_window = _convergence(scenario)
    dt = scenario.dt
    last = len(log) - 1
    t_converge: float | None = None
    path_length = 0.0
    max_abs_v = 0.0
    max_abs_omega = 0.0
    peak_z0z1 = 0.0
    # each `if a > m: m = a` is max(m, a), which keeps m unless a > m
    for i, (t, _, _, _, z0, z1, z2, v, omega, _, _, _, _, _, _) in enumerate(log._float_rows()):
        if i < last:
            path_length += abs(v) * dt
        if abs(v) > max_abs_v:
            max_abs_v = abs(v)
        if abs(omega) > max_abs_omega:
            max_abs_omega = abs(omega)
        if abs(z0) + abs(z1) > peak_z0z1:
            peak_z0z1 = abs(z0) + abs(z1)
        if ends_window(t, z0, z1, z2, v, omega) and t_converge is None:
            t_converge = t
    z_scale = abs(scenario.anchor().Z_star)
    return RunSummary(  # z0..z2 are the last sample's
        converged=t_converge is not None,
        t_converge=t_converge,
        final_pos_err=z_scale * math.hypot(z1, z2),
        final_ang_err=abs(z0),
        path_length=path_length,
        max_abs_v=max_abs_v,
        max_abs_omega=max_abs_omega,
        peak_z0z1=peak_z0z1,
        samples=len(log),
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
