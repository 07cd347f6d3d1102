"""Closed-loop simulation: integration, observation, convergence bookkeeping."""

import dataclasses
import importlib
import itertools
import math
import pickle
import re
import sys
import tracemalloc
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest

from servopark.closed_loop_sim import (
    STARVATION_LIMIT_SECONDS,
    ConvergenceSpec,
    GoalUpdate,
    PerceptionMode,
    Scenario,
    TrajectoryLog,
    TrajectorySample,
    case_scenarios,
    default_object_features,
    generate_observations,
    integrate_unicycle,
    perception,
    pose_for_chained_state,
    run,
    summarize,
)
from servopark.error_state import (
    AnchorDepth,
    BodyTwist,
    ChainedInput,
    ChainedState,
    error_from_transform,
    to_chained,
)
from servopark.errors import (
    DegenerateGeometry,
    EmptyLog,
    EstimatorStarvation,
    InsufficientFeatures,
    InvalidParams,
    NumericalFailure,
)
from servopark.geometry import (
    Y_TOL,
    CameraIntrinsics,
    FeaturePoint3,
    NormalizedFeature,
    Pose2,
    relative_transform,
    wrap_angle,
)
from servopark.parking_controller import PROPOSED_PARAMS, ControlDecision, TwistLimits
from servopark.pose_estimator import MatchedPair, estimate_pose

BENCH = Path(__file__).resolve().parents[1] / "bench"
CORRIDOR_GOAL = Pose2(1.0, 2.0, 0.3)


def corridor_scenario(**overrides):
    """Starts inside the invariant set, very close to the goal; converges fast."""
    start = pose_for_chained_state(
        ChainedState(0.02, 5e-6, 5e-4), AnchorDepth(0.6), CORRIDOR_GOAL
    )
    kwargs = dict(
        name="corridor",
        initial_pose=start,
        goal_pose=CORRIDOR_GOAL,
        t_max=30.0,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestIntegrateUnicycle:
    def test_zero_twist(self):
        p = Pose2(1.0, 2.0, 0.5)
        q = integrate_unicycle(p, BodyTwist(0.0, 0.0), 0.1)
        assert (q.x, q.y, q.theta) == (p.x, p.y, p.theta)

    def test_pure_forward(self):
        q = integrate_unicycle(Pose2(0.0, 0.0, 0.0), BodyTwist(2.0, 0.0), 0.5)
        assert q.x == pytest.approx(1.0, abs=1e-12)
        assert q.y == pytest.approx(0.0, abs=1e-12)
        assert q.theta == 0.0

    def test_pure_rotation(self):
        q = integrate_unicycle(Pose2(1.0, -1.0, 0.1), BodyTwist(0.0, 0.5), 0.2)
        assert q.x == 1.0 and q.y == -1.0
        assert q.theta == pytest.approx(0.2, abs=1e-12)

    def test_arc_against_closed_form(self):
        # constant (v, w) rides a circle of radius v/w
        v, w, dt = 1.0, 0.8, 0.01
        p = Pose2(0.0, 0.0, 0.0)
        for _ in range(100):
            p = integrate_unicycle(p, BodyTwist(v, w), dt)
        T = 100 * dt
        R = v / w
        assert p.x == pytest.approx(R * math.sin(w * T), abs=1e-9)
        assert p.y == pytest.approx(R * (1.0 - math.cos(w * T)), abs=1e-9)
        assert p.theta == pytest.approx(wrap_angle(w * T), abs=1e-12)


class TestPoseForChainedState:
    @pytest.mark.parametrize(
        "z", [(0.0, 0.0, 0.0), (0.3, -0.4, 0.8), (0.02, 5e-6, 5e-4), (-1.0, 2.0, -3.0)]
    )
    def test_round_trip(self, z):
        goal = Pose2(1.0, 2.0, 0.3)
        anchor = AnchorDepth(0.6)
        zc = ChainedState(*z)
        pose = pose_for_chained_state(zc, anchor, goal)
        back = to_chained(error_from_transform(relative_transform(pose, goal), anchor))
        assert back.z0 == pytest.approx(zc.z0, abs=1e-12)
        assert back.z1 == pytest.approx(zc.z1, abs=1e-9)
        assert back.z2 == pytest.approx(zc.z2, abs=1e-9)


class TestGenerateObservations:
    def _scenario(self, **kw):
        base = dict(
            initial_pose=Pose2(4.2, 4.4, 0.1),
            goal_pose=Pose2(5.0, 5.0, 0.0),
            perception_mode=PerceptionMode.ESTIMATED,
        )
        base.update(kw)
        return Scenario(**base)

    def _observe(self, sc, step=0):
        return generate_observations(relative_transform(sc.initial_pose, sc.goal_pose), sc, step)

    def test_noise_free_pairs_recover_transform(self):
        sc = self._scenario()
        pairs = self._observe(sc)
        assert len(pairs) >= 4
        est = estimate_pose(pairs)
        truth = relative_transform(sc.initial_pose, sc.goal_pose)
        assert wrap_angle(est.transform.phi - truth.phi) == pytest.approx(0.0, abs=1e-7)
        assert est.transform.t_x == pytest.approx(truth.t_x, abs=1e-6)
        assert est.transform.t_y == pytest.approx(truth.t_y, abs=1e-6)

    def test_same_seed_same_pixels(self):
        sc = self._scenario(pixel_noise_sigma=0.5, rng_seed=42)
        a = self._observe(sc, step=7)
        b = self._observe(sc, step=7)
        assert a == b

    def test_step_decorrelates_noise(self):
        sc = self._scenario(pixel_noise_sigma=0.5, rng_seed=42)
        a = self._observe(sc, step=7)
        b = self._observe(sc, step=8)
        assert a != b

    def test_noisy_pairs_and_estimate_are_python_floats(self):
        sc = self._scenario(pixel_noise_sigma=0.5, rng_seed=7)
        pairs = self._observe(sc, step=3)
        assert len(pairs) >= 4
        for p in pairs:
            assert {type(v) for v in (p.cur.x, p.cur.y, p.ref.x, p.ref.y, p.X_star)} == {float}
        est = estimate_pose(pairs)
        values = (*est.transform, *dataclasses.astuple(est.rotation), est.translation_residual)
        assert {type(v) for v in values} == {float}

    def test_zero_noise_skips_rng(self):
        sc1 = self._scenario(pixel_noise_sigma=0.0, rng_seed=1)
        sc2 = self._scenario(pixel_noise_sigma=0.0, rng_seed=2)
        assert self._observe(sc1) == self._observe(sc2)

    def test_invisible_features_are_dropped(self):
        blind = CameraIntrinsics(460.0, 460.0, -5000.0, 240.0, 640, 480, 0.1)
        sc = self._scenario(intrinsics=blind)
        assert self._observe(sc) == []

    def test_feature_on_the_optical_plane_is_dropped(self):
        # |Z/X| below Y_TOL in both views: the pair constraint would divide by it
        flat = FeaturePoint3(3.0, 0.2, 1e-13)
        assert abs(flat.Z_star / flat.X_star) < Y_TOL
        board = default_object_features()
        sc = self._scenario(initial_pose=Pose2(5.0, 5.0, 0.0), object_features=board + (flat,))
        pairs = self._observe(sc)
        assert [p.X_star for p in pairs] == [f.X_star for f in board]
        assert [p.ref.x for p in pairs] == [f.Y_star / f.X_star for f in board]


class TestPerceive:
    """The per-run perception owner: ``perception(scenario)`` returns ``see``."""

    def _scenario(self):
        return corridor_scenario(perception_mode=PerceptionMode.ESTIMATED, pixel_noise_sigma=0.3)

    def test_errors_are_the_ones_a_run_logs(self):
        sc = self._scenario()
        samples, _ = run(dataclasses.replace(sc, t_max=0.5))
        see = perception(sc)
        for k in (0, 50):
            g = relative_transform(samples[k].pose, sc.goal_pose)
            z, used, ang_err, trans_err = see(g, samples[k].z, k)
            assert z is not None
            assert (used, ang_err, trans_err) == (
                samples[k].visible_count,
                samples[k].est_angle_err,
                samples[k].est_trans_err,
            )
            est = estimate_pose(generate_observations(g, sc, k))
            assert z == to_chained(error_from_transform(est.transform, sc.anchor()))

    @pytest.mark.parametrize("error", [InsufficientFeatures, DegenerateGeometry, NumericalFailure])
    def test_no_estimate(self, monkeypatch, error):
        import servopark.closed_loop_sim as sim

        def failing(pairs):
            raise error("no estimate")

        monkeypatch.setattr(sim, "estimate_pose", failing)
        sc = self._scenario()
        g = relative_transform(sc.initial_pose, sc.goal_pose)
        z, used, ang_err, trans_err = perception(sc)(g, None, 3)
        assert z is None
        assert used == len(generate_observations(g, sc, 3)) == 6
        assert math.isnan(ang_err) and math.isnan(trans_err)

    def test_programming_errors_propagate(self, monkeypatch):
        import servopark.closed_loop_sim as sim

        def broken(pairs):
            raise TypeError("broken estimator")

        monkeypatch.setattr(sim, "estimate_pose", broken)
        sc = self._scenario()
        with pytest.raises(TypeError, match="broken estimator"):
            perception(sc)(relative_transform(sc.initial_pose, sc.goal_pose), None, 0)

    def test_ground_truth_hands_back_the_true_state(self, monkeypatch):
        import servopark.closed_loop_sim as sim

        def unused(*args):
            raise AssertionError("ground truth observes nothing")

        monkeypatch.setattr(sim, "generate_observations", unused)
        monkeypatch.setattr(sim, "estimate_pose", unused)
        sc = corridor_scenario()
        z_true = ChainedState(0.1, -0.2, 0.3)
        g = relative_transform(sc.initial_pose, sc.goal_pose)
        z, used, ang_err, trans_err = perception(sc)(g, z_true, 7)
        assert z is z_true
        assert used == len(sc.object_features) == 6
        assert math.isnan(ang_err) and math.isnan(trans_err)

    def test_see_keeps_no_count(self, monkeypatch):
        import servopark.closed_loop_sim as sim

        def failing(pairs):
            raise DegenerateGeometry("no estimate")

        monkeypatch.setattr(sim, "estimate_pose", failing)
        sc = dataclasses.replace(self._scenario(), dt=0.5)
        g = relative_transform(sc.initial_pose, sc.goal_pose)
        see = perception(sc)
        blind_steps = 3 * round(STARVATION_LIMIT_SECONDS / sc.dt)  # run() would abort long before
        assert all(see(g, None, step)[0] is None for step in range(blind_steps))

    def test_blind_count_resets_after_an_estimate(self, monkeypatch):
        # run() counts the blind steps; see only reports each one
        import servopark.closed_loop_sim as sim

        real = sim.estimate_pose
        estimated = set(range(0, 89, 11))  # streaks of 10 blind steps (5 s) between estimates
        calls = itertools.count()  # one estimate_pose call a step

        def flaky(pairs):
            if next(calls) not in estimated:
                raise DegenerateGeometry("no estimate")
            return real(pairs)

        monkeypatch.setattr(sim, "estimate_pose", flaky)
        # the tight limits keep the board in view through the held twists
        sc = dataclasses.replace(
            self._scenario(), dt=0.5, t_max=60.0, limits=TwistLimits(1e-3, 1e-3)
        )
        assert round(STARVATION_LIMIT_SECONDS / sc.dt) == 10  # blind steps allowed in a row
        with pytest.raises(EstimatorStarvation, match=r"for 5\.50 s at t = 49\.50 s") as info:
            run(sc)
        log = info.value.log
        assert len(log) == 100  # 11 blind steps after the estimate at step 88
        assert [k for k, s in enumerate(log) if s.u0_branch != "held"] == sorted(estimated)


# Holds six samples near t = 34 s, after decisions outside Gamma.
_NOISY_CASE1 = dataclasses.replace(
    case_scenarios()["case1"],
    perception_mode=PerceptionMode.ESTIMATED,
    pixel_noise_sigma=0.5,
    rng_seed=7,
    t_max=35.0,
)


class TestRunBasics:
    def test_deterministic_exact(self):
        sc = corridor_scenario(
            perception_mode=PerceptionMode.ESTIMATED,
            pixel_noise_sigma=0.3,
            rng_seed=11,
            t_max=5.0,
        )
        s1, r1 = run(sc)
        s2, r2 = run(sc)
        assert len(s1) == len(s2)
        for a, b in zip(s1, s2):
            assert a == b
        assert r1 == r2

    def test_corridor_converges(self):
        samples, summary = run(corridor_scenario())
        assert summary.converged
        assert 7.0 < summary.t_converge < 9.0
        assert summary.final_pos_err < 5e-3
        assert summary.final_ang_err < 2e-2

    def test_case1_reaches_tolerance_without_quiet_twist(self, case_runs):
        # a run that ends inside the tolerance ball but whose last second
        # chatters at the yaw rate of the zero-order-hold cube-root cycle,
        # +-(dt/2)^0.5, must not be declared converged
        samples, _ = case_runs["case1"]
        sc = case_scenarios()["case1"]
        window = round(1.0 / sc.dt)
        rate = (sc.dt / 2.0) ** 0.5
        loud = samples[:-window] + [
            s._replace(twist=BodyTwist(s.twist.v, rate if k % 2 else -rate))
            for k, s in enumerate(samples[-window:])
        ]
        summary = summarize(loud, sc)
        assert not summary.converged
        assert summary.final_pos_err < 1e-6
        assert summary.final_ang_err < 1e-3

    def test_cases_respect_twist_limits(self, case_runs):
        for name in ("case3", "case4"):
            samples, summary = case_runs[name]
            assert summary.max_abs_v <= 1.0 + 1e-12
            assert summary.max_abs_omega <= 1.0 + 1e-12

    def test_sample_grid(self, case_runs):
        # samples sit on t_k = k dt and the log stops at the convergence sample
        samples, summary = case_runs["case1"]
        dt = case_scenarios()["case1"].dt
        assert all(s.t == k * dt for k, s in enumerate(samples))
        assert summary.t_converge is not None
        assert len(samples) == round(summary.t_converge / dt) + 1

    def test_starvation_aborts(self):
        blind = CameraIntrinsics(460.0, 460.0, -5000.0, 240.0, 640, 480, 0.1)
        sc = corridor_scenario(
            perception_mode=PerceptionMode.ESTIMATED, intrinsics=blind, t_max=30.0
        )
        with pytest.raises(EstimatorStarvation):
            run(sc)

    @pytest.mark.parametrize(
        "scenario",
        [
            # never sees the board: every sample is held
            corridor_scenario(
                perception_mode=PerceptionMode.ESTIMATED,
                intrinsics=CameraIntrinsics(460.0, 460.0, -5000.0, 240.0, 640, 480, 0.1),
            ),
            # loses the board near the goal, at t = 13.12 s
            dataclasses.replace(
                case_scenarios()["case2"], perception_mode=PerceptionMode.ESTIMATED
            ),
        ],
        ids=["blind", "case2_estimated"],
    )
    def test_starved_run_keeps_its_log(self, scenario):
        with pytest.raises(EstimatorStarvation) as info:
            run(scenario)
        exc = info.value
        blind_for, t_abort = re.fullmatch(
            r"no usable pose estimate for (\d+\.\d\d) s at t = (\d+\.\d\d) s", str(exc)
        ).groups()
        log = exc.log
        assert isinstance(log, TrajectoryLog)
        assert f"{log[-1].t:.2f}" == t_abort
        tail = list(itertools.takewhile(lambda s: s.u0_branch == "held", reversed(log)))
        assert f"{len(tail) * scenario.dt:.2f}" == blind_for
        assert all(s.u1_branch == "held" for s in tail)
        if len(tail) < len(log):
            assert log[-len(tail) - 1].u0_branch != "held"  # the streak starts after an estimate
        assert exc.summary == summarize(log, scenario)
        assert exc.summary.samples == len(log)
        back = pickle.loads(pickle.dumps(exc))  # as a process pool would hand it back
        assert (str(back), back.log, back.summary) == (str(exc), log, exc.summary)
        # up to the abort, the log is the one of a run that stops a step earlier
        shorter, _ = run(dataclasses.replace(scenario, t_max=log[-2].t + 0.5 * scenario.dt))
        assert shorter == TrajectoryLog(log[:-1])

    @pytest.mark.parametrize(
        "scenario",
        [
            # never sees the board: every sample is held, none after a decision
            corridor_scenario(
                perception_mode=PerceptionMode.ESTIMATED,
                intrinsics=CameraIntrinsics(460.0, 460.0, -5000.0, 240.0, 640, 480, 0.1),
                t_max=3.0,
            ),
            _NOISY_CASE1,
        ],
        ids=["blind", "case1_noisy"],
    )
    def test_held_sample_carries_its_decisions_in_gamma(self, scenario):
        # run() splats a ControlDecision into these four fields
        assert TrajectorySample._fields[4:8] == ControlDecision._fields
        samples, _ = run(scenario)
        decided = False  # in_gamma of the last controlled sample
        twist = BodyTwist(0.0, 0.0)  # the twist in force before the first decision
        held = 0
        for s in samples:
            if s.u0_branch == "held":
                held += 1
                assert s.u1_branch == "held", s.t
                assert math.isnan(s.u.u0) and math.isnan(s.u.u1), s.t
                assert s.twist == twist, s.t
                assert s.in_gamma is decided, s.t
            else:
                decided = s.in_gamma
            twist = s.twist
        assert held > 0

    def test_log_holds_only_the_documented_labels(self, case_runs):
        logs = [samples for samples, _ in case_runs.values()] + [run(_NOISY_CASE1)[0]]
        pairs = {(s.u0_branch, s.u1_branch) for samples in logs for s in samples}
        u0_labels = {u0 for u0, _ in pairs}
        u1_labels = {u1 for _, u1 in pairs}
        assert u0_labels <= {"cube_root", "in_gamma", "ratio_law", "held"}
        assert u1_labels <= {"cube_root", "kappa2", "riccati_law", "held"}
        # a held sample evaluates neither law
        assert ("held", "held") in pairs
        assert all((u0 == "held") == (u1 == "held") for u0, u1 in pairs)


class TestStepSize:
    # The sampled-data cube root leaves no terminal cycle at any step size:
    # a held -cbrt(z) would chatter at amplitude (dt/2)^1.5 instead.
    @pytest.mark.parametrize("dt", [0.005, 0.01, 0.02, 0.05, 0.1, 0.2])
    def test_ground_truth_cases_settle(self, dt):
        for name, sc in case_scenarios().items():
            _, summary = run(dataclasses.replace(sc, dt=dt))
            assert summary.converged, name
            assert summary.final_pos_err <= 1e-6, name
            assert summary.final_ang_err <= 1e-9, name


class TestCallShapes:
    # The per-layer timings wrap the closed_loop_sim names in bench/tracing.py's
    # WRAPS; a run that reaches a layer by another route would drop its metric.
    # run is the entry point itself; in_invariant_set is imported only for WRAPS.
    UNTRACED = ("run", "in_invariant_set")

    def test_estimated_run_reaches_every_traced_layer(self, monkeypatch):
        import servopark.closed_loop_sim as sim

        monkeypatch.syspath_prepend(str(BENCH))
        wraps = importlib.import_module("tracing").WRAPS
        traced = [attr for m, attr, _, _ in wraps if m is sim and attr not in self.UNTRACED]
        calls = dict.fromkeys(traced, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in traced:
            monkeypatch.setattr(sim, name, counting(name, getattr(sim, name)))
        sc = corridor_scenario(perception_mode=PerceptionMode.ESTIMATED, t_max=0.5)
        samples, _ = run(sc)
        n = len(samples)
        assert n == 51
        assert all(count > 0 for count in calls.values()), calls
        assert calls["generate_observations"] == n
        assert calls["relative_transform"] == n
        assert calls["estimate_pose"] == n
        assert calls["controller_step"] == n
        assert calls["integrate_unicycle"] == n - 1
        assert calls["summarize"] == 1


class TestFrameShiftInvariance:
    def test_chained_trajectory_unchanged(self):
        shift = Pose2(3.0, -2.0, 0.7)
        base = Scenario(
            initial_pose=Pose2(0.0, 0.0, math.pi / 6.0),
            goal_pose=Pose2(5.0, 5.0, 0.0),
            t_max=20.0,
        )
        moved = Scenario(
            initial_pose=shift.compose(base.initial_pose),
            goal_pose=shift.compose(base.goal_pose),
            t_max=20.0,
        )
        s1, r1 = run(base)
        s2, r2 = run(moved)
        assert len(s1) == len(s2)
        worst = 0.0
        for a, b in zip(s1, s2):
            worst = max(
                worst,
                abs(a.z.z0 - b.z.z0),
                abs(a.z.z1 - b.z.z1),
                abs(a.z.z2 - b.z.z2),
                abs(a.twist.v - b.twist.v),
                abs(a.twist.omega - b.twist.omega),
            )
        assert worst < 1e-9


class TestGoalUpdates:
    def test_mid_run_jump_retargets(self):
        # jump before the corridor run can converge and stop (about t = 8)
        sc = corridor_scenario(
            t_max=40.0,
            goal_updates=(GoalUpdate(3.0, Pose2(1.3, 2.1, 0.25)),),
        )
        samples, summary = run(sc)
        k = round(3.0 / sc.dt)
        before = samples[k - 1].z
        after = samples[k].z
        jump = abs(after.z1 - before.z1) + abs(after.z2 - before.z2)
        assert jump > 0.01  # goal moved 0.3 m; error state must jump
        # final errors are measured against the updated goal
        final = samples[-1]
        rel = relative_transform(final.pose, Pose2(1.3, 2.1, 0.25))
        assert math.hypot(rel.t_x, rel.t_y) == pytest.approx(
            summary.final_pos_err, abs=1e-9
        )

    def test_jump_after_convergence_is_reparked(self):
        # case1 alone converges at t = 52.5 s; the object then moves 1 m along its axis
        new_goal = Pose2(6.0, 5.0, 0.0)
        sc = dataclasses.replace(
            case_scenarios()["case1"], goal_updates=(GoalUpdate(70.0, new_goal),)
        )
        samples, summary = run(sc)
        assert samples[-1].t > 70.0
        assert summary.converged and summary.t_converge > 70.0
        rel = relative_transform(samples[-1].pose, new_goal)
        assert math.hypot(rel.t_x, rel.t_y) < 1e-6
        assert abs(rel.phi) < 1e-6
        assert summarize(samples, sc) == summary


class TestInvariantSetStaysInvariant:
    def test_random_states_remain_in_gamma(self):
        from servopark.parking_controller import compute_gains, in_invariant_set

        gains = compute_gains(PROPOSED_PARAMS)
        rng = np.random.default_rng(7)
        goal = Pose2(1.0, 2.0, 0.3)
        anchor = AnchorDepth(0.6)
        stayed = total = 0
        while total < 100:
            z = ChainedState(
                float(rng.uniform(-0.5, 0.5)),
                float(rng.uniform(-0.2, 0.2)),
                float(rng.uniform(-1.0, 1.0)),
            )
            if not in_invariant_set(z, gains, PROPOSED_PARAMS):
                continue
            total += 1
            sc = Scenario(
                initial_pose=pose_for_chained_state(z, anchor, goal),
                goal_pose=goal,
                t_max=10.0,
            )
            samples, _ = run(sc)
            if all(s.in_gamma for s in samples):
                stayed += 1
        assert stayed >= 99


class TestSummarize:
    def _sample(self, t, v):
        return TrajectorySample(
            t=t,
            pose=Pose2(t * v, 0.0, 0.0),
            z=ChainedState(0.0, 0.0, 0.0),
            twist=BodyTwist(v, 0.0),
            u=ChainedInput(0.0, 0.0),
            u0_branch="in_gamma",
            u1_branch="cube_root",
            in_gamma=True,
            est_angle_err=float("nan"),
            est_trans_err=float("nan"),
            visible_count=6,
        )

    def test_path_length_excludes_final_sample(self):
        # each sample's twist is held for dt, except the last which is
        # recorded at the horizon and never applied
        sc = Scenario(goal_pose=Pose2(0.0, 0.0, 0.0), dt=0.01, t_max=5.0)
        samples = [self._sample(k * 0.01, 1.0) for k in range(501)]
        summary = summarize(samples, sc)
        assert summary.path_length == pytest.approx(5.0, abs=1e-9)
        assert summary.max_abs_v == 1.0

    def test_verdict_at_the_sample_closing_the_first_quiet_window(self):
        sc = Scenario(goal_pose=Pose2(0.0, 0.0, 0.0), dt=0.01, t_max=5.0)
        samples = [self._sample(k * 0.01, 1.0 if k < 50 else 0.0) for k in range(300)]
        summary = summarize(samples, sc)
        assert summary.converged
        assert summary.t_converge == samples[50 + 99].t  # one second of quiet samples

    def test_empty_log_rejected(self):
        sc = Scenario(goal_pose=Pose2(0.0, 0.0, 0.0))
        with pytest.raises(EmptyLog):
            summarize([], sc)


def _sample_floats(s):
    """The 13 floats of a sample, in log order."""
    return (s.t, s.pose.x, s.pose.y, s.pose.theta, *s.z, *s.twist, *s.u,
            s.est_angle_err, s.est_trans_err)


@pytest.fixture(scope="module")
def noisy_case1_run():
    return run(_NOISY_CASE1)


class TestTrajectoryLog:
    def test_sequence_contract(self, case_runs):
        log, _ = case_runs["case1"]
        samples = list(log)
        n = len(samples)
        assert isinstance(log, TrajectoryLog) and isinstance(log, Sequence)
        assert len(log) == n == 5251
        assert log[-1] == samples[-1] == log[n - 1]
        assert log[-n] == samples[0] == log[0]
        assert log[0] == log[0]  # ground-truth NaN errors read back as one shared NaN
        assert log[17].pose == samples[17].pose and log[17].t == 17 * 0.01
        for cut in (slice(None), slice(2, 40, 3), slice(-5, None), slice(None, None, -7),
                    slice(10, 3), slice(n, n + 4)):
            assert isinstance(log[cut], list)
            assert log[cut] == samples[cut], cut
        for bad in (n, -n - 1, 10**9):
            with pytest.raises(IndexError):
                log[bad]
        with pytest.raises(TypeError):
            log[0] = samples[0]

    def test_packing_a_list_keeps_every_bit(self, noisy_case1_run):
        log, _ = noisy_case1_run
        assert "held" in log._u0_branch  # the round trip covers held samples
        copy = TrajectoryLog(list(log))
        assert copy._floats.tobytes() == log._floats.tobytes()
        assert copy._u0_branch == log._u0_branch
        assert copy._u1_branch == log._u1_branch
        assert copy == log and not copy != log

    def test_negative_zero_and_nan_read_back_bit_for_bit(self):
        nan, neg = math.nan, -0.0
        written = [
            TrajectorySample(neg, Pose2(neg, neg, neg), ChainedState(neg, neg, neg),
                             BodyTwist(neg, neg), ChainedInput(neg, neg), "in_gamma",
                             "kappa2", True, neg, neg, 6),
            TrajectorySample(nan, Pose2(neg, 1.0, neg), ChainedState(nan, nan, nan),
                             BodyTwist(nan, nan), ChainedInput(nan, nan), "held", "held",
                             False, nan, nan, 0),
        ]
        log = TrajectoryLog(written)
        for w, r in zip(written, log):
            hexes = [list(map(float.hex, _sample_floats(x))) for x in (r, w)]
            assert hexes[0] == hexes[1]
            assert (r.u0_branch, r.u1_branch, r.in_gamma, r.visible_count) == (
                w.u0_branch, w.u1_branch, w.in_gamma, w.visible_count)
            assert type(r.in_gamma) is bool and type(r.visible_count) is int
        # equality is bitwise: NaN rows equal themselves, and -0.0 is not 0.0
        assert log == TrajectoryLog(written)
        assert log != TrajectoryLog([written[0]._replace(t=0.0), written[1]])

    def test_a_log_never_equals_a_list(self, case_runs):
        log, _ = case_runs["case1"]
        samples = list(log)
        assert not log == samples and log != samples
        assert not samples == log and samples != log

    @pytest.mark.parametrize("held", [False, True], ids=["estimated", "blind"])
    def test_run_builds_no_sample(self, monkeypatch, held):
        import servopark.closed_loop_sim as sim

        def refuse(*args, **kwargs):
            raise AssertionError("run() built a TrajectorySample")

        camera = CameraIntrinsics(460.0, 460.0, -5000.0, 240.0, 640, 480, 0.1)  # sees nothing
        sc = corridor_scenario(perception_mode=PerceptionMode.ESTIMATED, t_max=0.5,
                               **({"intrinsics": camera} if held else {}))
        monkeypatch.setattr(sim, "TrajectorySample", refuse)
        log, summary = run(sc)
        assert summary.samples == len(log) == 51
        assert (log._u0_branch[-1] == "held") == held
        with pytest.raises(AssertionError):
            log[0]  # a read builds one

    def test_one_summary_path(self, case_runs, noisy_case1_run):
        runs = {name: (sc, case_runs[name]) for name, sc in case_scenarios().items()}
        runs["case1_noisy"] = (_NOISY_CASE1, noisy_case1_run)
        for name, (sc, (log, summary)) in runs.items():
            assert summarize(list(log), sc) == summarize(log, sc) == summary, name

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="object sizes of CPython 3.11")
    def test_at_most_160_bytes_a_sample(self):
        sc = case_scenarios()["case1"]
        run(sc)  # anything a first run caches is allocated before tracing starts
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            log, _ = run(sc)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held / len(log) <= 160


class TestScenarioValidation:
    def test_bad_dt(self):
        with pytest.raises(InvalidParams):
            Scenario(goal_pose=Pose2(1, 1, 0), dt=0.0)

    def test_bad_t_max(self):
        with pytest.raises(InvalidParams):
            Scenario(goal_pose=Pose2(1, 1, 0), t_max=-1.0)

    def test_bad_anchor_index(self):
        with pytest.raises(InvalidParams):
            Scenario(goal_pose=Pose2(1, 1, 0), anchor_index=99)

    def test_anchor_index_selects_the_feature(self):
        # without an index the anchor is the feature of largest |Z_star| (0.6)
        sc = Scenario(initial_pose=Pose2(-1.0, 0.3, 0.1), anchor_index=3, t_max=0.02)
        assert Scenario().anchor() == AnchorDepth(0.6)
        assert sc.anchor() == AnchorDepth(default_object_features()[3].Z_star)
        samples, _ = run(sc)
        g = relative_transform(sc.initial_pose, sc.goal_pose)
        assert samples[0].z == to_chained(error_from_transform(g, AnchorDepth(-0.3)))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ConvergenceSpec(pos_tol=0.0), "convergence tolerances must be positive"),
            (lambda: GoalUpdate(-0.5, Pose2(0.0, 0.0, 0.0)), "goal update time must be nonnegative"),
            (lambda: Scenario(object_features=()), "at least one object feature is required"),
            (
                lambda: Scenario(
                    perception_mode=PerceptionMode.ESTIMATED,
                    object_features=default_object_features()[:1],
                ),
                "estimated perception needs at least two features",
            ),
            (
                lambda: Scenario(
                    perception_mode=PerceptionMode.ESTIMATED,
                    object_features=(default_object_features() * 11)[:65],
                ),
                "estimated perception takes at most 64 features",
            ),
            (
                lambda: integrate_unicycle(Pose2(0.0, 0.0, 0.0), BodyTwist(1.0, 0.0), 0.0),
                "dt must be positive",
            ),
            (lambda: FeaturePoint3(0.0, 0.0, 0.6), "feature depth X_star must be positive"),
            (lambda: FeaturePoint3(3.0, 0.0, 0.0), "feature height Z_star must be nonzero"),
            (lambda: TwistLimits(1.0, 0.0), "twist limits must be positive"),
            (
                lambda: MatchedPair(NormalizedFeature(0.1, 0.2), NormalizedFeature(0.1, 0.2), 0.0),
                "reference depth must be positive",
            ),
            # library-built configuration: the JSON path refuses these in the parser
            (
                lambda: CameraIntrinsics(460.0, 460.0, math.nan, 240.0, 640, 480, 0.1),
                "intrinsics must be finite",
            ),
            (
                lambda: CameraIntrinsics(math.inf, 460.0, 320.0, 240.0, 640, 480, 0.1),
                "intrinsics must be finite",
            ),
            (lambda: FeaturePoint3(3.0, 0.0, math.nan), "feature coordinates must be finite"),
            (lambda: FeaturePoint3(math.inf, 0.0, 0.5), "feature coordinates must be finite"),
            (lambda: FeaturePoint3(3.0, math.nan, 0.5), "feature coordinates must be finite"),
            (
                lambda: Scenario(initial_pose=Pose2(math.nan, 0.0, 0.0)),
                "pose must be finite",
            ),
            (lambda: Scenario(goal_pose=Pose2(0.0, math.inf, 0.0)), "pose must be finite"),
            (
                lambda: GoalUpdate(1.0, Pose2(0.0, 0.0, math.nan)),
                "pose must be finite",
            ),
            (lambda: Pose2(0.0, 0.0, math.inf), "pose must be finite"),
            (
                lambda: dataclasses.replace(PROPOSED_PARAMS, kappa0=math.inf),
                "controller parameters must be finite",
            ),
            (lambda: TwistLimits(math.inf, 1.0), "twist limits must be finite"),
            (lambda: ConvergenceSpec(pos_tol=math.inf), "convergence tolerances must be finite"),
            (lambda: GoalUpdate(math.inf, Pose2(0.0, 0.0, 0.0)), "goal update time must be finite"),
            (lambda: AnchorDepth(math.nan), "anchor height must be finite"),
        ],
        ids=[
            "convergence_spec", "goal_update_time", "no_features", "estimated_one_feature",
            "estimated_too_many_features",
            "integrate_dt", "feature_depth", "feature_height", "twist_limits", "pair_depth",
            "intrinsics_c_x_nan", "intrinsics_f_x_inf", "feature_height_nan",
            "feature_depth_inf", "feature_lateral_nan", "initial_pose_nan", "goal_pose_inf",
            "goal_update_pose_nan", "pose_theta_inf", "controller_kappa0_inf",
            "twist_limits_inf", "convergence_pos_tol_inf", "goal_update_time_inf",
            "anchor_nan",
        ],
    )
    def test_invalid_params_refused(self, build, message):
        with pytest.raises(InvalidParams, match=message):
            build()

    def test_case_list(self):
        cases = case_scenarios()
        assert list(cases) == ["case1", "case2", "case3", "case4"]
        assert cases["case3"].limits is not None
        assert cases["case4"].limits is not None

    def test_default_features_have_depth_spread(self):
        feats = default_object_features()
        assert len(feats) == 6
        assert len({f.Z_star for f in feats}) >= 2
