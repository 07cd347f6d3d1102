"""Error coordinates, chained states, and twist conversions.

The parking problem is expressed in dimensionless error coordinates
(x_e, y_e, theta_e) built from the goal-to-current transform and the height
Z* of a designated anchor feature:

    x_e = t_x / Z*,   y_e = t_y / Z*,   theta_e = phi.

Their dynamics under a body twist (v, omega) are

    dx_e/dt = omega * y_e - v / Z*,
    dy_e/dt = -omega * x_e,
    dtheta_e/dt = -omega,

and the chained coordinates (z0, z1, z2) = (-theta_e, y_e, -x_e) turn them
into dz0 = u0, dz1 = u0 z2, dz2 = u1 with u0 = omega, u1 = v/Z* - z1 u0.
Both identities are pinned by a finite-difference test of the chained
dynamics under the unicycle flow, in tests/test_error_state.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import ZeroAnchorDepth, require_finite
from .geometry import PlanarTransform


# The per-step values are named tuples: run() builds several a step, and a
# tuple is built in a fraction of a frozen dataclass's time.
class ErrorState(NamedTuple):
    x_e: float
    y_e: float
    theta_e: float


class ChainedState(NamedTuple):
    z0: float
    z1: float
    z2: float


class ChainedInput(NamedTuple):
    u0: float
    u1: float


class BodyTwist(NamedTuple):
    """Forward velocity along the optical axis and yaw rate."""

    v: float
    omega: float


@dataclass(frozen=True, slots=True)
class AnchorDepth:
    """Height Z* of the anchor feature; constant under planar motion."""

    Z_star: float

    def __post_init__(self) -> None:
        require_finite("anchor height must be finite", self.Z_star)
        if self.Z_star == 0.0:
            raise ZeroAnchorDepth("anchor height must be nonzero")


def error_from_transform(g: PlanarTransform, anchor: AnchorDepth) -> ErrorState:
    """Error coordinates of a known goal-to-current transform."""
    return ErrorState(g.t_x / anchor.Z_star, g.t_y / anchor.Z_star, g.phi)


def to_chained(e: ErrorState) -> ChainedState:
    return ChainedState(-e.theta_e, e.y_e, -e.x_e)


def inputs_to_twist(u: ChainedInput, z: ChainedState, anchor: AnchorDepth) -> BodyTwist:
    """Invert the chained-input definition: omega = u0, v = Z* (u1 + z1 u0)."""
    return BodyTwist(anchor.Z_star * (u.u1 + z.z1 * u.u0), u.u0)

