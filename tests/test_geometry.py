"""Planar poses, camera model, and relative-transform conventions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from servopark.errors import InvalidParams
from servopark.geometry import (
    DEFAULT_INTRINSICS,
    CameraIntrinsics,
    FeaturePoint3,
    PlanarTransform,
    Pose2,
    normalize,
    project,
    relative_transform,
    transform_point,
    wrap_angle,
)

angles = st.floats(-50.0, 50.0, allow_nan=False)
coords = st.floats(-100.0, 100.0, allow_nan=False)


def poses(draw):
    return Pose2(draw(coords), draw(coords), draw(angles))


pose_strategy = st.builds(Pose2, coords, coords, angles)


class TestWrapAngle:
    def test_zero(self):
        assert wrap_angle(0.0) == 0.0

    def test_pi_maps_to_pi(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)

    @given(angles)
    def test_range(self, theta):
        w = wrap_angle(theta)
        assert -math.pi <= w <= math.pi

    @given(angles, st.integers(-5, 5))
    def test_periodic(self, theta, k):
        assert wrap_angle(theta + 2.0 * math.pi * k) == pytest.approx(
            wrap_angle(theta), abs=1e-9
        )


class TestPose2:
    def test_theta_wrapped_on_construction(self):
        p = Pose2(1.0, 2.0, 3.0 * math.pi)
        assert abs(p.theta) <= math.pi

    @given(pose_strategy)
    def test_invert_round_trip(self, p):
        q = p.compose(p.invert())
        assert q.x == pytest.approx(0.0, abs=1e-9)
        assert q.y == pytest.approx(0.0, abs=1e-9)
        assert wrap_angle(q.theta) == pytest.approx(0.0, abs=1e-9)

    @given(pose_strategy)
    def test_invert_involution(self, p):
        q = p.invert().invert()
        assert q.x == pytest.approx(p.x, abs=1e-9)
        assert q.y == pytest.approx(p.y, abs=1e-9)
        assert wrap_angle(q.theta - p.theta) == pytest.approx(0.0, abs=1e-9)

    @given(pose_strategy, pose_strategy, pose_strategy)
    @settings(max_examples=50)
    def test_compose_associative(self, a, b, c):
        lhs = a.compose(b).compose(c)
        rhs = a.compose(b.compose(c))
        assert lhs.x == pytest.approx(rhs.x, abs=1e-6)
        assert lhs.y == pytest.approx(rhs.y, abs=1e-6)
        assert wrap_angle(lhs.theta - rhs.theta) == pytest.approx(0.0, abs=1e-9)

    def test_compose_identity(self):
        p = Pose2(3.0, -1.0, 0.7)
        e = Pose2(0.0, 0.0, 0.0)
        for q in (p.compose(e), e.compose(p)):
            assert (q.x, q.y, q.theta) == pytest.approx((p.x, p.y, p.theta))


class TestCamera:
    def test_project_normalize_round_trip(self):
        point = (3.0, 0.2, -0.1)
        px = project(point, DEFAULT_INTRINSICS)
        assert px is not None
        f = normalize(px, DEFAULT_INTRINSICS)
        assert f.x == pytest.approx(0.2 / 3.0, abs=1e-12)
        assert f.y == pytest.approx(-0.1 / 3.0, abs=1e-12)

    def test_project_rejects_near_plane(self):
        assert project((0.05, 0.0, 0.0), DEFAULT_INTRINSICS) is None
        assert project((-2.0, 0.0, 0.0), DEFAULT_INTRINSICS) is None

    def test_project_rejects_out_of_bounds(self):
        # far off-axis point lands outside the image
        assert project((1.0, 50.0, 0.0), DEFAULT_INTRINSICS) is None

    @given(
        st.floats(0.2, 20.0),
        st.floats(-0.5, 0.5),
        st.floats(-0.4, 0.4),
    )
    def test_in_frustum_round_trip(self, X, xr, yr):
        point = (X, xr * X, yr * X)
        px = project(point, DEFAULT_INTRINSICS)
        if px is None:
            return
        f = normalize(px, DEFAULT_INTRINSICS)
        assert f.x == pytest.approx(point[1] / point[0], abs=1e-12)
        assert f.y == pytest.approx(point[2] / point[0], abs=1e-12)

    def test_intrinsics_validation(self):
        with pytest.raises(InvalidParams):
            CameraIntrinsics(0.0, 460.0, 320.0, 240.0, 640, 480, 0.1)
        with pytest.raises(InvalidParams):
            CameraIntrinsics(460.0, 460.0, 320.0, 240.0, 0, 480, 0.1)
        with pytest.raises(InvalidParams):
            CameraIntrinsics(460.0, 460.0, 320.0, 240.0, 640, 480, -0.1)


class TestTransformPoint:
    def test_identity(self):
        g = PlanarTransform(0.0, 0.0, 0.0)
        out = transform_point(g, FeaturePoint3(3.0, -1.0, 0.5))
        assert out == pytest.approx((3.0, -1.0, 0.5))

    def test_quarter_turn(self):
        g = PlanarTransform(math.pi / 2.0, 0.0, 0.0)
        out = transform_point(g, FeaturePoint3(1.0, 0.0, 0.7))
        assert out == pytest.approx((0.0, 1.0, 0.7), abs=1e-12)

    def test_translation_only(self):
        g = PlanarTransform(0.0, 2.0, -3.0)
        out = transform_point(g, FeaturePoint3(1.0, 1.0, 0.2))
        assert out == pytest.approx((3.0, -2.0, 0.2))

    def test_height_passthrough(self):
        g = PlanarTransform(0.4, 1.0, 2.0)
        assert transform_point(g, FeaturePoint3(5.0, 2.0, -1.3))[2] == -1.3


class TestRelativeTransform:
    @given(pose_strategy)
    def test_self_relative_is_identity(self, p):
        rel = relative_transform(p, p)
        assert rel.phi == pytest.approx(0.0, abs=1e-9)
        assert rel.t_x == pytest.approx(0.0, abs=1e-7)
        assert rel.t_y == pytest.approx(0.0, abs=1e-7)

    @given(pose_strategy, pose_strategy, pose_strategy)
    @settings(max_examples=50)
    def test_world_frame_shift_invariance(self, shift, robot, goal):
        # the relative transform only depends on the two poses' offset,
        # not on where the world origin sits
        a = relative_transform(robot, goal)
        b = relative_transform(shift.compose(robot), shift.compose(goal))
        assert b.phi == pytest.approx(a.phi, abs=1e-9)
        assert b.t_x == pytest.approx(a.t_x, abs=1e-6)
        assert b.t_y == pytest.approx(a.t_y, abs=1e-6)

    def test_matches_direct_feature_transfer(self):
        # coordinates produced by the relative transform must equal the
        # feature's coordinates computed in each camera frame directly
        robot = Pose2(0.2, -0.4, 0.3)
        goal = Pose2(1.5, 0.8, -0.2)
        p_goal = (3.0, 0.5, 0.6)
        rel = relative_transform(robot, goal)
        via_rel = transform_point(rel, FeaturePoint3(*p_goal))

        # direct: goal-frame point -> world -> robot frame (planar part),
        # height coordinate rides along unchanged
        cg, sg = math.cos(goal.theta), math.sin(goal.theta)
        wx = goal.x + cg * p_goal[0] - sg * p_goal[1]
        wy = goal.y + sg * p_goal[0] + cg * p_goal[1]
        cr, sr = math.cos(robot.theta), math.sin(robot.theta)
        dx, dy = wx - robot.x, wy - robot.y
        direct = (cr * dx + sr * dy, -sr * dx + cr * dy, p_goal[2])
        assert via_rel == pytest.approx(direct, abs=1e-12)

    @given(pose_strategy, pose_strategy, st.sampled_from([None, math.pi, -math.pi, 0.0]))
    @settings(max_examples=200)
    def test_bits_match_pose_composition(self, robot, goal, goal_theta):
        # relative_transform inlines goal.invert().compose(robot); the pose
        # methods are the reference, bit for bit, also on the branch cut
        if goal_theta is not None:
            goal = Pose2(goal.x, goal.y, goal_theta)
        rel = goal.invert().compose(robot)
        phi = -rel.theta
        c, s = math.cos(phi), math.sin(phi)
        expected = (phi, -(c * rel.x - s * rel.y), -(s * rel.x + c * rel.y))
        assert [v.hex() for v in relative_transform(robot, goal)] == [v.hex() for v in expected]
