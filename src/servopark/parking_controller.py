"""Switched state-feedback stabilizer for the chained parking system.

The control law has three regimes per input:

* a signed cube-root push used when the complementary states sit inside the
  switching deadband, giving finite-time decay of the remaining state in
  continuous time;
* a linear law -kappa0 z0 inside an invariant set Gamma around the z1 = 0
  manifold, where a Riccati-synthesized pair (P2, P3) steers (z1, z2);
* a ratio law -kappa1 z1 / psi(z2) outside Gamma that strictly decreases
  z1^2 / 2 while it is active.

Sampled-data cube root.  On the cube-root branches the input is the only
motion of its state (dz = u), so a zero-order hold of -cbrt(z) over a step
dt overshoots and settles into a two-step cycle of amplitude (dt/2)^(3/2).
The laws therefore take the backward-Euler (implicit) form of the cube
root: they command -y, where y is the unique real root of y^3 + dt y = z,
so that one held step lands exactly on y^3, and the state shrinks
monotonically to zero instead of cycling.  At dt = 0 this is the
continuous-time -cbrt(z); that is the default, and the simulator passes its
step size.

Gain synthesis is closed form.  The pair (P1, P2, P3) satisfies, entrywise,

    A'P + PA - 2 P B B' P + zeta P + kappa0 L P L = 0,

with A the chained drift, B = (0, 1)', L = diag(0, 1); the residual of that
identity is exposed as a diagnostic.  All functions here are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .error_state import AnchorDepth, BodyTwist, ChainedInput, ChainedState, inputs_to_twist
from .errors import InvalidParams, require_finite
from .geometry import cbrt_signed

# Switching tolerances. Exact zeros never occur in floating point, so the
# published zero-tests become deadbands of this width.
EPS_STATE = 1e-6
EPS_INPUT = 1e-9


@dataclass(frozen=True, slots=True)
class ControllerParams:
    """Configuration, so a dataclass, like Scenario."""

    kappa0: float
    kappa2: float
    epsilon: float
    xi: float
    delta: float

    def __post_init__(self) -> None:
        if not self.kappa0 > 0.0:
            raise InvalidParams("kappa0 must be positive")
        if not self.kappa2 > 0.0:
            raise InvalidParams("kappa2 must be positive")
        if not self.epsilon > 1.0:
            raise InvalidParams("epsilon must exceed 1")
        if not self.xi > 0.0:
            raise InvalidParams("xi must be positive")
        if not self.delta > 0.0:
            raise InvalidParams("delta must be positive")
        require_finite(
            "controller parameters must be finite",
            self.kappa0, self.kappa2, self.epsilon, self.xi, self.delta,
        )


#: Gain set used by all built-in scenarios.
PROPOSED_PARAMS = ControllerParams(
    kappa0=0.1, kappa2=0.25, epsilon=2.25, xi=1.0 / 1024.0, delta=25.0
)


@dataclass(frozen=True, slots=True)
class ControllerGains:
    gamma: float
    zeta: float
    kappa1: float
    P1: float
    P2: float
    P3: float


class ControlDecision(NamedTuple):
    u: ChainedInput
    u0_branch: str  # "cube_root", "in_gamma" or "ratio_law"
    u1_branch: str  # "cube_root", "kappa2" or "riccati_law"
    in_gamma: bool


@dataclass(frozen=True, slots=True)
class TwistLimits:
    """Configuration, so a dataclass, like Scenario."""

    v_max: float
    omega_max: float

    def __post_init__(self) -> None:
        if not (self.v_max > 0.0 and self.omega_max > 0.0):
            raise InvalidParams("twist limits must be positive")
        require_finite("twist limits must be finite", self.v_max, self.omega_max)


def implicit_cbrt(z: float, dt: float) -> float:
    """Unique real root y of y^3 + dt y = z, for dt >= 0; cbrt(z) at dt = 0.

    Cardano gives y = A + B with A B = -dt/3 and A^3 + B^3 = z, so
    y = z / (A^2 + dt/3 + B^2): a sum of positive terms, free of the
    cancellation in A + B when dt dominates.  One Newton step on the cubic
    then absorbs the rounding of the cube root.
    """
    if dt == 0.0 or z == 0.0:
        return cbrt_signed(z)
    half = 0.5 * z
    a = cbrt_signed(half + math.copysign(math.sqrt(half * half + (dt / 3.0) ** 3), z))
    b = dt / (3.0 * a)
    y = z / (a * a + dt / 3.0 + b * b)
    return y - ((y * y + dt) * y - z) / (3.0 * y * y + dt)


def _sign(x: float) -> float:
    # sign(0) is pinned to +1 so psi never vanishes
    return 1.0 if x >= 0.0 else -1.0


def compute_gains(p: ControllerParams) -> ControllerGains:
    gamma = p.kappa0 * p.epsilon + p.xi
    zeta = 2.0 * gamma + p.kappa0
    disc = math.sqrt(p.kappa0 * p.kappa0 + 6.0 * p.kappa0 * zeta + zeta * zeta)
    kappa1 = (2.0 * gamma + disc + 1.0) / 4.0
    P3 = (p.kappa0 + 3.0 * zeta + disc) / 4.0
    P2 = P3 * P3 - 0.5 * (p.kappa0 + zeta) * P3
    P1 = 2.0 * P2 * P2 / zeta
    return ControllerGains(gamma, zeta, kappa1, P1, P2, P3)


def riccati_residual(g: ControllerGains, p: ControllerParams) -> float:
    """Max-abs entry of the gain identity; zero in exact arithmetic."""
    r11 = g.zeta * g.P1 - 2.0 * g.P2 * g.P2
    r12 = g.P1 - 2.0 * g.P2 * g.P3 + g.zeta * g.P2
    r22 = 2.0 * g.P2 - 2.0 * g.P3 * g.P3 + (g.zeta + p.kappa0) * g.P3
    return max(abs(r11), abs(r12), abs(r22))


def lyapunov_V(z: ChainedState, g: ControllerGains, p: ControllerParams) -> float:
    """Quadratic form in (z1, kappa0 z0 z2); nonnegative for valid gains."""
    w = p.kappa0 * z.z0 * z.z2
    return g.P1 * z.z1 * z.z1 - 2.0 * g.P2 * z.z1 * w + g.P3 * w * w


def in_invariant_set(z: ChainedState, g: ControllerGains, p: ControllerParams) -> bool:
    """Membership in Gamma: V below a |kappa0 z0|^(2 epsilon) threshold.

    The published |z0| + |z1| = 0 clause is replaced by the deadband test,
    since at z0 = 0 the threshold itself is zero and strict inequality can
    never admit the origin.
    """
    if lyapunov_V(z, g, p) < p.delta * abs(p.kappa0 * z.z0) ** (2.0 * p.epsilon):
        return True
    return abs(z.z0) <= EPS_STATE and abs(z.z1) <= EPS_STATE


def control_u0(
    z: ChainedState, in_gamma: bool, g: ControllerGains, p: ControllerParams, dt: float = 0.0
):
    """First chained input and the branch that produced it.

    Branch order matters: the deadband cube-root test runs before the
    invariant-set test, which runs before the ratio law.  ``in_gamma`` is
    in_invariant_set(z, g, p), and ``dt`` is the hold time of the cube-root
    law (0 for the continuous-time law).
    """
    if abs(z.z1) <= EPS_STATE and abs(z.z2) <= EPS_STATE:
        return -implicit_cbrt(z.z0, dt), "cube_root"
    if in_gamma:
        return -p.kappa0 * z.z0, "in_gamma"
    psi = z.z2 if abs(z.z2) > EPS_STATE else _sign(z.z0 * z.z1)
    return -g.kappa1 * z.z1 / psi, "ratio_law"


def control_u1(
    z: ChainedState, u0: float, g: ControllerGains, p: ControllerParams, dt: float = 0.0
):
    """Second chained input, given the already-computed u0 and hold time dt."""
    if abs(z.z1) <= EPS_STATE and abs(z.z0) <= EPS_STATE:
        return -implicit_cbrt(z.z2, dt), "cube_root"
    if abs(u0) <= EPS_INPUT:
        return -p.kappa2 * z.z2, "kappa2"
    return -(g.P2 / u0) * z.z1 - g.P3 * z.z2, "riccati_law"


def step(
    z: ChainedState,
    g: ControllerGains,
    p: ControllerParams,
    limits: TwistLimits | None,
    anchor: AnchorDepth,
    dt: float = 0.0,
) -> tuple[BodyTwist, ControlDecision]:
    """Evaluate both laws, convert to a body twist, and clamp if limited.

    ``dt`` is the zero-order-hold time the twist will be applied for; it
    selects the sampled-data cube root (0 gives the continuous-time law).
    """
    in_gamma = in_invariant_set(z, g, p)
    u0, b0 = control_u0(z, in_gamma, g, p, dt)
    u1, b1 = control_u1(z, u0, g, p, dt)
    u = ChainedInput(u0, u1)
    twist = inputs_to_twist(u, z, anchor)
    if limits is not None:
        twist = BodyTwist(
            min(limits.v_max, max(-limits.v_max, twist.v)),
            min(limits.omega_max, max(-limits.omega_max, twist.omega)),
        )
    decision = ControlDecision(u, b0, b1, in_gamma)
    return twist, decision
