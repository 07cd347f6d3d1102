"""Error coordinates, chained form, and the input/twist maps."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from servopark.closed_loop_sim import TrajectorySample
from servopark.error_state import (
    AnchorDepth,
    BodyTwist,
    ChainedInput,
    ChainedState,
    ErrorState,
    error_from_transform,
    inputs_to_twist,
    to_chained,
)
from servopark.errors import DegenerateFeature, ZeroAnchorDepth
from servopark.geometry import (
    Y_TOL,
    FeaturePoint3,
    NormalizedFeature,
    PlanarTransform,
    Pose2,
    transform_point,
)
from servopark.parking_controller import ControlDecision, U0Branch, U1Branch

small_angles = st.floats(-1.0, 1.0, allow_nan=False)
offsets = st.floats(-1.5, 1.5, allow_nan=False)


def error_from_features(current, reference, angle):
    """(x_e, y_e) from one matched feature and the rotation angle.

    ``angle`` is the angle of the feature-map rotation, which equals minus
    the transform angle phi under the package's frame convention.  The
    result is independent of which feature is used; the transform-based
    construction is the oracle for that claim.
    """
    if abs(current.y) < Y_TOL or abs(reference.y) < Y_TOL:
        raise DegenerateFeature("vertical normalized coordinate too close to zero")
    s, c = math.sin(angle), math.cos(angle)
    x_e = 1.0 / current.y - (s * reference.x + c) / reference.y
    y_e = current.x / current.y - (c * reference.x - s) / reference.y
    return (x_e, y_e)


def twist_to_inputs(t, z, anchor):
    """The chained-input definition: u0 = omega, u1 = v / Z* - z1 omega."""
    return ChainedInput(t.omega, t.v / anchor.Z_star - z.z1 * t.omega)


def _feature_pair(g, X, Y, Z):
    cur = transform_point(g, FeaturePoint3(X, Y, Z))
    return (
        NormalizedFeature(cur[1] / cur[0], cur[2] / cur[0]),
        NormalizedFeature(Y / X, Z / X),
    )


class TestErrorFromTransform:
    def test_identity_transform_zero_error(self):
        e = error_from_transform(PlanarTransform(0.0, 0.0, 0.0), AnchorDepth(0.6))
        assert (e.x_e, e.y_e, e.theta_e) == (0.0, 0.0, 0.0)

    def test_translation_scales_inversely_with_anchor(self):
        g = PlanarTransform(0.0, 0.3, -0.12)
        e1 = error_from_transform(g, AnchorDepth(0.6))
        e2 = error_from_transform(g, AnchorDepth(1.2))
        assert e1.x_e == pytest.approx(2.0 * e2.x_e)
        assert e1.y_e == pytest.approx(2.0 * e2.y_e)

    def test_zero_anchor_rejected(self):
        with pytest.raises(ZeroAnchorDepth):
            error_from_transform(PlanarTransform(0.0, 0.1, 0.1), AnchorDepth(0.0))


class TestErrorFromFeatures:
    @given(small_angles, offsets, offsets)
    @settings(max_examples=100)
    def test_matches_transform_path(self, phi, t_x, t_y):
        g = PlanarTransform(phi, t_x, t_y)
        X, Y, Z = 3.0, 0.4, 0.6
        cur_pt = transform_point(g, FeaturePoint3(X, Y, Z))
        if cur_pt[0] < 0.2 or abs(cur_pt[2] / cur_pt[0]) < 0.01:
            return
        cur, ref = _feature_pair(g, X, Y, Z)
        x_e, y_e = error_from_features(cur, ref, -phi)
        expected = error_from_transform(g, AnchorDepth(Z))
        assert x_e == pytest.approx(expected.x_e, abs=1e-9)
        assert y_e == pytest.approx(expected.y_e, abs=1e-9)

    @given(small_angles, offsets, offsets)
    @settings(max_examples=60)
    def test_feature_independent(self, phi, t_x, t_y):
        # any visible feature yields the same pair, scaled by its own height
        g = PlanarTransform(phi, t_x, t_y)
        results = []
        for X, Y, Z in [(3.0, 0.4, 0.6), (2.0, -0.8, 0.5), (5.0, 1.0, -0.9)]:
            cur_pt = transform_point(g, FeaturePoint3(X, Y, Z))
            if cur_pt[0] < 0.2 or abs(cur_pt[2] / cur_pt[0]) < 0.01:
                return
            cur, ref = _feature_pair(g, X, Y, Z)
            x_e, y_e = error_from_features(cur, ref, -phi)
            results.append((x_e * Z, y_e * Z))
        for got in results[1:]:
            assert got[0] == pytest.approx(results[0][0], abs=1e-9)
            assert got[1] == pytest.approx(results[0][1], abs=1e-9)

    def test_small_y_rejected(self):
        cur = NormalizedFeature(0.1, 1e-13)
        ref = NormalizedFeature(0.1, 0.2)
        with pytest.raises(DegenerateFeature):
            error_from_features(cur, ref, 0.0)


class TestChainedForm:
    def test_axis_mapping(self):
        z = to_chained(ErrorState(0.3, -0.7, 0.2))
        assert z.z0 == -0.2
        assert z.z1 == -0.7
        assert z.z2 == -0.3

    @given(
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
        st.floats(0.2, 3.0),
    )
    def test_input_twist_round_trip(self, u0, u1, z1, z2, depth):
        z = ChainedState(0.0, z1, z2)
        anchor = AnchorDepth(depth)
        tw = inputs_to_twist(ChainedInput(u0, u1), z, anchor)
        back = twist_to_inputs(tw, z, anchor)
        assert back.u0 == pytest.approx(u0, abs=1e-12)
        assert back.u1 == pytest.approx(u1, abs=1e-9)

    def test_twist_shape(self):
        tw = inputs_to_twist(ChainedInput(0.5, 0.2), ChainedState(0.0, 0.3, 0.0), AnchorDepth(2.0))
        assert tw.omega == 0.5
        # v = Z * (u1 + z1 u0)
        assert tw.v == pytest.approx(2.0 * (0.2 + 0.3 * 0.5))

    def test_zero_anchor_rejected(self):
        with pytest.raises(ZeroAnchorDepth):
            inputs_to_twist(ChainedInput(0.1, 0.1), ChainedState(0, 0, 0), AnchorDepth(0.0))


class TestChainedDynamics:
    """Finite-difference check that the chained coordinates obey
    dz0 = u0 dt, dz1 = u0 z2 dt, dz2 = u1 dt under the unicycle flow."""

    @pytest.mark.parametrize(
        "pose0, goal, v, omega",
        [
            ((0.3, -0.2, 0.25), (1.0, 2.0, 0.3), 0.4, 0.15),
            ((4.0, 4.5, 0.5), (5.0, 5.0, 0.0), -0.3, 0.2),
            ((0.0, 0.0, 0.0), (1.0, 0.5, -0.4), 0.2, -0.3),
        ],
    )
    def test_derivative_identity(self, pose0, goal, v, omega):
        from servopark.closed_loop_sim import integrate_unicycle
        from servopark.geometry import Pose2, relative_transform

        anchor = AnchorDepth(0.6)
        robot = Pose2(*pose0)
        goal_pose = Pose2(*goal)

        def chained_at(p):
            g = relative_transform(p, goal_pose)
            return to_chained(error_from_transform(g, anchor))

        z = chained_at(robot)
        u = twist_to_inputs(BodyTwist(v, omega), z, anchor)

        h = 1e-6
        z_next = chained_at(integrate_unicycle(robot, BodyTwist(v, omega), h))
        dz0 = (z_next.z0 - z.z0) / h
        dz1 = (z_next.z1 - z.z1) / h
        dz2 = (z_next.z2 - z.z2) / h
        assert dz0 == pytest.approx(u.u0, abs=1e-5)
        assert dz1 == pytest.approx(u.u0 * z.z2, abs=1e-5)
        assert dz2 == pytest.approx(u.u1, abs=1e-5)


# The per-step value types, one value each, with its repr.
_VALUES = [
    (ErrorState(1.0, 2.0, 3.0), "ErrorState(x_e=1.0, y_e=2.0, theta_e=3.0)"),
    (ChainedState(1.0, 2.0, 3.0), "ChainedState(z0=1.0, z1=2.0, z2=3.0)"),
    (ChainedInput(1.0, 2.0), "ChainedInput(u0=1.0, u1=2.0)"),
    (BodyTwist(1.0, 2.0), "BodyTwist(v=1.0, omega=2.0)"),
    (PlanarTransform(1.0, 2.0, 3.0), "PlanarTransform(phi=1.0, t_x=2.0, t_y=3.0)"),
    (
        ControlDecision(ChainedInput(1.0, 2.0), U0Branch.IN_GAMMA, U1Branch.KAPPA2, True),
        "ControlDecision(u=ChainedInput(u0=1.0, u1=2.0),"
        " u0_branch=<U0Branch.IN_GAMMA: 'in_gamma'>,"
        " u1_branch=<U1Branch.KAPPA2: 'kappa2'>, in_gamma=True)",
    ),
    (
        TrajectorySample(
            0.5, Pose2(1.0, 2.0, 3.0), ChainedState(1.0, 2.0, 3.0), BodyTwist(1.0, 2.0),
            ChainedInput(0.25, 0.5), "held", "held", False, 0.0, 0.0, 6,
        ),
        "TrajectorySample(t=0.5, pose=Pose2(x=1.0, y=2.0, theta=3.0),"
        " z=ChainedState(z0=1.0, z1=2.0, z2=3.0), twist=BodyTwist(v=1.0, omega=2.0),"
        " u=ChainedInput(u0=0.25, u1=0.5), u0_branch='held', u1_branch='held',"
        " in_gamma=False, est_angle_err=0.0, est_trans_err=0.0, visible_count=6)",
    ),
]


@pytest.mark.parametrize("value, text", _VALUES, ids=[type(v).__name__ for v, _ in _VALUES])
class TestValueTypes:
    """Immutable, hashable, equal field by field, and printed as Name(field=value, ...)."""

    def test_immutable(self, value, text):
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], 0.0)

    def test_hashable(self, value, text):
        twin = type(value)(*value)
        assert hash(twin) == hash(value)
        assert len({value, twin}) == 1

    def test_fieldwise_equality(self, value, text):
        assert type(value)(*value) == value
        for name in value._fields:
            assert value._replace(**{name: "other"}) != value

    def test_repr(self, value, text):
        assert repr(value) == text
