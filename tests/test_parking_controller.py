"""Switched parking controller: gains, branch laws, Lyapunov surface."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from servopark.error_state import AnchorDepth, ChainedState
from servopark.errors import InvalidParams
from servopark.parking_controller import (
    PROPOSED_PARAMS,
    ControllerParams,
    TwistLimits,
    compute_gains,
    control_u0,
    control_u1,
    cbrt_signed,
    in_invariant_set,
    lyapunov_V,
    riccati_residual,
    step,
)

GAINS = compute_gains(PROPOSED_PARAMS)


def _u0(z, dt=0.0):
    return control_u0(z, in_invariant_set(z, GAINS, PROPOSED_PARAMS), GAINS, PROPOSED_PARAMS, dt)


z_vals = st.floats(-5.0, 5.0, allow_nan=False)
states = st.builds(ChainedState, z_vals, z_vals, z_vals)

log_params = st.builds(
    lambda k0, eps, xi: ControllerParams(k0, 0.25, 1.0 + eps, xi, 25.0),
    st.floats(1e-3, 10.0),
    st.floats(1e-3, 9.0),
    st.floats(1e-3, 10.0),
)


class TestGains:
    def test_reference_parameters(self):
        # frozen synthesis chain for the shipped default parameters
        assert GAINS.gamma == pytest.approx(0.2259765625, rel=1e-15)
        assert GAINS.zeta == pytest.approx(0.551953125, rel=1e-15)
        assert GAINS.kappa1 == pytest.approx(0.5638962401511574, rel=1e-12)
        assert GAINS.P1 == pytest.approx(0.14617978843074855, rel=1e-12)
        assert GAINS.P2 == pytest.approx(0.20085366692718173, rel=1e-12)
        assert GAINS.P3 == pytest.approx(0.6398728026511573, rel=1e-12)

    def test_reference_residual_tiny(self):
        assert riccati_residual(GAINS, PROPOSED_PARAMS) < 1e-12

    def test_invalid_params_rejected(self):
        with pytest.raises(InvalidParams):
            ControllerParams(kappa0=-0.1, kappa2=0.25, epsilon=2.25, xi=0.001, delta=25.0)
        with pytest.raises(InvalidParams):
            ControllerParams(kappa0=0.1, kappa2=0.25, epsilon=1.0, xi=0.001, delta=25.0)
        with pytest.raises(InvalidParams):
            ControllerParams(kappa0=0.1, kappa2=0.25, epsilon=2.25, xi=0.0, delta=25.0)
        with pytest.raises(InvalidParams):
            ControllerParams(kappa0=0.1, kappa2=0.25, epsilon=2.25, xi=0.001, delta=0.0)
        with pytest.raises(InvalidParams):
            ControllerParams(kappa0=0.1, kappa2=-0.25, epsilon=2.25, xi=0.001, delta=25.0)

    @given(log_params)
    @settings(max_examples=200)
    def test_gain_matrix_positive_definite(self, params):
        g = compute_gains(params)
        assert g.P1 > 0.0
        assert g.P3 > 0.0
        assert g.P1 * g.P3 - g.P2 * g.P2 > 0.0
        assert g.kappa1 > 0.0

    @given(log_params)
    @settings(max_examples=200)
    def test_residual_small_relative(self, params):
        # the exact identity is not representable at 1e-12 for all parameter
        # magnitudes; 1e-6 relative to the gain scale always holds
        g = compute_gains(params)
        scale = max(1.0, g.P1, abs(g.P2), g.P3)
        assert riccati_residual(g, params) < 1e-6 * scale


class TestLyapunov:
    def test_reference_value(self):
        z = ChainedState(0.2, 1.0, -0.5)
        assert lyapunov_V(z, GAINS, PROPOSED_PARAMS) == pytest.approx(
            0.1502608490495573, rel=1e-12
        )

    def test_zero_at_origin(self):
        assert lyapunov_V(ChainedState(0, 0, 0), GAINS, PROPOSED_PARAMS) == 0.0

    @given(states)
    @settings(max_examples=300)
    def test_nonnegative(self, z):
        # quadratic form in (z1, k0 z0 z2) with positive determinant
        assert lyapunov_V(z, GAINS, PROPOSED_PARAMS) >= -1e-15

    def test_origin_in_invariant_set(self):
        assert in_invariant_set(ChainedState(0, 0, 0), GAINS, PROPOSED_PARAMS)
        assert in_invariant_set(ChainedState(0, 0, -5.0), GAINS, PROPOSED_PARAMS)

    def test_far_state_outside(self):
        assert not in_invariant_set(ChainedState(0.2, 1.0, -0.5), GAINS, PROPOSED_PARAMS)


class TestBranchLaws:
    def test_ratio_law_reference(self):
        u0, branch = _u0(ChainedState(0.2, 1.0, -0.5))
        assert branch == "ratio_law"
        assert u0 == pytest.approx(1.1277924803023147, rel=1e-12)

    def test_riccati_law_reference(self):
        u1, branch = control_u1(ChainedState(0.5, 0.0, 0.3), -0.05, GAINS, PROPOSED_PARAMS)
        assert branch == "riccati_law"
        assert u1 == pytest.approx(-0.1919618407953472, rel=1e-12)

    def test_zero_lateral_gives_zero_u0(self):
        # z1 = 0 on the ratio branch: no heading command
        u0, branch = _u0(ChainedState(0.5, 0.0, 0.3))
        assert branch == "ratio_law"
        assert u0 == 0.0

    def test_cube_root_line(self):
        tw, dec = step(
            ChainedState(0.0, 0.0, -5.0),
            GAINS,
            PROPOSED_PARAMS,
            TwistLimits(10.0, 10.0),  # exercises the clamp without binding
            AnchorDepth(0.6),
        )
        assert dec.u0_branch == "in_gamma"
        assert dec.u1_branch == "cube_root"
        assert tw.omega == 0.0
        assert tw.v == pytest.approx(0.6 * cbrt_signed(5.0), rel=1e-12)

    @given(
        st.floats(1e-12, 5.0).flatmap(lambda m: st.sampled_from([m, -m])),
        st.floats(1e-6, 0.5),
    )
    @settings(max_examples=300)
    def test_sampled_cube_root_solves_implicit_cubic(self, z_val, dt):
        # with hold time dt the cube-root branches command -y, y^3 + dt y = z,
        # so that one held step z + dt u of dz = u lands on y^3
        for z, u_of in (
            (ChainedState(z_val, 0.0, 0.0), lambda z: _u0(z, dt)),
            (ChainedState(0.0, 0.0, z_val), lambda z: control_u1(z, 0.0, GAINS, PROPOSED_PARAMS, dt)),
        ):
            u, branch = u_of(z)
            assert branch == "cube_root"
            y = -u
            # exact residual of the returned float: within a few ulps of z
            Y = Fraction(y)
            exact = abs(Y**3 + Fraction(dt) * Y - Fraction(z_val))
            assert exact <= Fraction(1e-15) * abs(Fraction(z_val))
            assert abs((z_val + dt * u) - y**3) <= 1e-15 * abs(z_val)

    def test_sampled_cube_root_held_step(self):
        # the old zero-order hold of -cbrt(z0) mapped z0 = (dt/2)^1.5 onto
        # -z0 (a two-step cycle); the sampled law shrinks it to y^3 in one step
        from servopark.closed_loop_sim import integrate_unicycle, pose_for_chained_state
        from servopark.error_state import error_from_transform, to_chained
        from servopark.geometry import Pose2, relative_transform

        dt = 0.01
        z0 = (dt / 2.0) ** 1.5
        goal, anchor = Pose2(5.0, 5.0, 0.0), AnchorDepth(0.6)
        pose = pose_for_chained_state(ChainedState(z0, 0.0, 0.0), anchor, goal)
        tw, dec = step(ChainedState(z0, 0.0, 0.0), GAINS, PROPOSED_PARAMS, None, anchor, dt)
        assert dec.u0_branch == "cube_root"
        nxt = integrate_unicycle(pose, tw, dt)
        z_next = to_chained(error_from_transform(relative_transform(nxt, goal), anchor))
        y = -dec.u.u0
        assert z_next.z0 == pytest.approx(y**3, abs=1e-15)
        assert 0.0 < z_next.z0 < 0.25 * z0

    def test_cbrt_signed(self):
        assert cbrt_signed(8.0) == pytest.approx(2.0)
        assert cbrt_signed(-8.0) == pytest.approx(-2.0)
        assert cbrt_signed(0.0) == 0.0

    @given(states)
    @settings(max_examples=500)
    def test_total_and_finite(self, z):
        tw, dec = step(z, GAINS, PROPOSED_PARAMS, TwistLimits(2.0, 2.0), AnchorDepth(0.6))
        assert math.isfinite(tw.v) and math.isfinite(tw.omega)
        assert abs(tw.v) <= 2.0 + 1e-12
        assert abs(tw.omega) <= 2.0 + 1e-12
        assert dec.u0_branch in ("cube_root", "in_gamma", "ratio_law")
        assert dec.u1_branch in ("cube_root", "kappa2", "riccati_law")
        assert math.isfinite(lyapunov_V(z, GAINS, PROPOSED_PARAMS))

    @given(states)
    @settings(max_examples=300)
    def test_ratio_law_drives_product_down(self, z):
        # on the ratio branch the product z1 u0 z2 is never positive:
        # the lateral error moves against the coupling term
        u0, branch = _u0(z)
        if branch != "ratio_law" or abs(z.z2) <= 1e-6:
            return
        assert z.z1 * u0 * z.z2 <= 1e-12

    def test_limits_clamp_and_report(self):
        z = ChainedState(1.5, 3.0, -2.0)
        unlimited, _ = step(z, GAINS, PROPOSED_PARAMS, None, AnchorDepth(0.6))
        limited, _ = step(z, GAINS, PROPOSED_PARAMS, TwistLimits(1.0, 1.0), AnchorDepth(0.6))
        assert abs(unlimited.v) > 1.0  # the clamp is actually exercised
        assert abs(limited.v) <= 1.0
        assert abs(limited.omega) <= 1.0
