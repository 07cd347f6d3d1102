"""Planar rigid-body frames and a pinhole camera.

Conventions used throughout the package:

* A ``Pose2`` places one frame in another; composing poses chains frames.
* A ``PlanarTransform`` maps goal-frame coordinates into the current camera
  frame, P = R(phi) P* + T.  All estimator and error-state formulas assume
  exactly this direction; it is the one under which the error coordinates
  come out feature-independent.
* The camera looks along +x, with y lateral and z vertical.  Normalized
  feature coordinates are (Y/X, Z/X).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidParams, require_finite

Y_TOL = 1e-12  # below this the division by a vertical coordinate is meaningless


def cbrt_signed(x: float) -> float:
    """Real cube root, odd in x."""
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def wrap_angle(theta: float) -> float:
    """Wrap an angle to the half-open interval (-pi, pi]."""
    wrapped = math.remainder(theta, math.tau)
    # remainder() maps the branch cut to -pi; the convention here is +pi.
    if wrapped == -math.pi:
        return math.pi
    return wrapped


@dataclass(frozen=True, slots=True)
class Pose2:
    """Planar pose (x, y, theta) of a frame expressed in a parent frame.

    A dataclass, not a named tuple: ``__post_init__`` refuses a non-finite
    coordinate and wraps the angle, and the scenario parser builds it from
    JSON through ``fields()``.
    """

    x: float
    y: float
    theta: float

    def __post_init__(self) -> None:
        require_finite("pose must be finite", self.x, self.y, self.theta)
        object.__setattr__(self, "theta", wrap_angle(self.theta))

    def compose(self, other: "Pose2") -> "Pose2":
        """Pose of ``other``'s frame in this pose's parent frame."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        return Pose2(
            self.x + c * other.x - s * other.y,
            self.y + s * other.x + c * other.y,
            self.theta + other.theta,
        )

    def invert(self) -> "Pose2":
        c, s = math.cos(self.theta), math.sin(self.theta)
        return Pose2(
            -(c * self.x + s * self.y),
            -(c * self.y - s * self.x),
            -self.theta,
        )


class PlanarTransform(NamedTuple):
    """Rigid map from goal-frame to current-frame coordinates: P = R(phi) P* + T."""

    phi: float
    t_x: float
    t_y: float


@dataclass(frozen=True, slots=True)
class CameraIntrinsics:
    """Configuration, so a dataclass, like Scenario."""

    f_x: float
    f_y: float
    c_x: float
    c_y: float
    width: int
    height: int
    min_depth: float

    def __post_init__(self) -> None:
        require_finite(
            "intrinsics must be finite", self.f_x, self.f_y, self.c_x, self.c_y, self.min_depth
        )
        if not (self.f_x > 0.0 and self.f_y > 0.0):
            raise InvalidParams("focal lengths must be positive")
        if not self.min_depth > 0.0:
            raise InvalidParams("min_depth must be positive")
        if not (self.width > 0 and self.height > 0):
            raise InvalidParams("image size must be positive")


DEFAULT_INTRINSICS = CameraIntrinsics(
    f_x=460.0, f_y=460.0, c_x=320.0, c_y=240.0, width=640, height=480, min_depth=0.1
)


@dataclass(frozen=True, slots=True)
class FeaturePoint3:
    """An object feature in goal-frame coordinates.

    X_star is the depth along the goal camera's optical axis, Y_star the
    lateral offset, Z_star the height.  Height is preserved by planar motion
    and must be nonzero because the error coordinates divide by it.
    Configuration, so a dataclass, like Scenario.
    """

    X_star: float
    Y_star: float
    Z_star: float

    def __post_init__(self) -> None:
        require_finite("feature coordinates must be finite", self.X_star, self.Y_star, self.Z_star)
        if not self.X_star > 0.0:
            raise InvalidParams("feature depth X_star must be positive")
        if self.Z_star == 0.0:
            raise InvalidParams("feature height Z_star must be nonzero")


@dataclass(frozen=True, slots=True)
class NormalizedFeature:
    """Image coordinates after removing the intrinsics: x = Y/X, y = Z/X."""

    x: float
    y: float


def project(point: tuple[float, float, float], K: CameraIntrinsics):
    """Pinhole projection of a camera-frame point to a pixel pair.

    Returns None when the point is closer than the near plane or falls
    outside the image bounds.  Invisibility is a value, not an error.
    """
    X, Y, Z = point
    if X < K.min_depth:
        return None
    u = K.f_x * (Y / X) + K.c_x
    v = K.f_y * (Z / X) + K.c_y
    if not (0.0 <= u < K.width and 0.0 <= v < K.height):
        return None
    return (u, v)


def normalize(pixel: tuple[float, float], K: CameraIntrinsics) -> NormalizedFeature:
    u, v = pixel
    return NormalizedFeature((u - K.c_x) / K.f_x, (v - K.c_y) / K.f_y)


def transform_point(g: PlanarTransform, p: FeaturePoint3) -> tuple[float, float, float]:
    """Map a goal-frame feature into the current camera frame. Height is preserved."""
    c, s = math.cos(g.phi), math.sin(g.phi)
    return (
        c * p.X_star - s * p.Y_star + g.t_x,
        s * p.X_star + c * p.Y_star + g.t_y,
        p.Z_star,
    )


def relative_transform(robot: Pose2, goal: Pose2) -> PlanarTransform:
    """Goal-to-robot map for two world poses.

    With p_r the robot pose expressed in the goal frame, the map is
    phi = -theta_r, T = -R(phi) p_r, which satisfies R(phi) p_r + T = 0.
    p_r is goal.invert().compose(robot), computed here operation for
    operation on floats, without the two intermediate poses.
    """
    c, s = math.cos(goal.theta), math.sin(goal.theta)
    inv_x, inv_y = -(c * goal.x + s * goal.y), -(c * goal.y - s * goal.x)
    inv_theta = wrap_angle(-goal.theta)
    c, s = math.cos(inv_theta), math.sin(inv_theta)
    rel_x = inv_x + c * robot.x - s * robot.y
    rel_y = inv_y + s * robot.x + c * robot.y
    phi = -wrap_angle(inv_theta + robot.theta)
    c, s = math.cos(phi), math.sin(phi)
    return PlanarTransform(phi, -(c * rel_x - s * rel_y), -(s * rel_x + c * rel_y))
