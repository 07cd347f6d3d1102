"""Acceptance suite: each test checks one shipping criterion end to end.

Every test prints exactly one line, `acceptance criterion NN: PASS/FAIL`,
with the measured numbers, and then asserts at the stated tolerance.
Known genuine failures are asserted at the stated tolerance anyway; see
README for the analysis of each.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import grid_cost_min, random_scene, rotation_cost_of
from servopark.cli import main as cli_main
from servopark.closed_loop_sim import (
    GoalUpdate,
    PerceptionMode,
    Scenario,
    case_scenarios,
    pose_for_chained_state,
    run,
)
from servopark.error_state import AnchorDepth, ChainedState
from servopark.errors import InvalidParams
from servopark.geometry import CameraIntrinsics, Pose2, wrap_angle
from servopark.parking_controller import (
    ControllerParams,
    compute_gains,
    riccati_residual,
)
from servopark.pose_estimator import accumulate, estimate_pose, rotation_candidates

WIDE_CAMERA = CameraIntrinsics(160.0, 160.0, 400.0, 160.0, 800, 320, 0.1)


def _report(num, ok, detail):
    line = f"acceptance criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def test_criterion_01_gain_identity_residual():
    rng = np.random.default_rng(101)
    worst = 0.0
    pd_ok = True
    n = 0
    t0 = time.perf_counter()
    while n < 1000:
        k0 = _log_uniform(rng, 1e-3, 10.0)
        eps = _log_uniform(rng, 1e-3, 10.0)
        xi = _log_uniform(rng, 1e-3, 10.0)
        if eps <= 1.0:
            continue
        n += 1
        gains = compute_gains(ControllerParams(k0, 0.25, eps, xi, 25.0))
        pd_ok = pd_ok and gains.P1 > 0.0 and gains.P1 * gains.P3 - gains.P2**2 > 0.0
        worst = max(worst, riccati_residual(gains, ControllerParams(k0, 0.25, eps, xi, 25.0)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and pd_ok and elapsed < 1.0
    line = _report(1, ok, f"worst residual {worst:.3e} over 1000 draws, "
                          f"P pos-def {pd_ok}, {elapsed:.2f}s")
    assert ok, line


def test_criterion_02_estimator_round_trip(rng):
    worst_ang = worst_trans = 0.0
    t0 = time.perf_counter()
    for _ in range(1000):
        g, pairs = random_scene(rng)
        est = estimate_pose(pairs)
        worst_ang = max(worst_ang, abs(wrap_angle(est.transform.phi - g.phi)))
        worst_trans = max(
            worst_trans,
            math.hypot(est.transform.t_x - g.t_x, est.transform.t_y - g.t_y),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_ang < 1e-9 and worst_trans < 1e-9 and elapsed < 5.0
    line = _report(2, ok, f"worst angle {worst_ang:.3e} rad, "
                          f"worst translation {worst_trans:.3e} m, {elapsed:.2f}s")
    assert ok, line


def test_criterion_03_rotation_grid_optimality(rng):
    fails = 0
    worst_gap = -math.inf
    t0 = time.perf_counter()
    for _ in range(100):
        g, pairs = random_scene(rng)
        r = rotation_candidates(accumulate(pairs))[0]
        mine = rotation_cost_of(pairs, r.sin_theta, r.cos_theta)
        best, _ = grid_cost_min(pairs)
        worst_gap = max(worst_gap, mine - best)
        if mine > best + 1e-12:
            fails += 1
    elapsed = time.perf_counter() - t0
    ok = fails == 0
    line = _report(3, ok, f"{fails}/100 above grid minimum, "
                          f"worst gap {worst_gap:.3e}, {elapsed:.2f}s")
    assert ok, line


def test_criterion_04_reference_cases_converge():
    t0 = time.perf_counter()
    results = {name: run(sc) for name, sc in case_scenarios().items()}
    elapsed = time.perf_counter() - t0
    parts = []
    ok = elapsed < 10.0
    for name, (samples, summary) in results.items():
        case_ok = (
            summary.converged
            and summary.final_pos_err < 0.05
            and summary.final_ang_err < 0.02
        )
        if name in ("case3", "case4"):
            case_ok = case_ok and summary.max_abs_v <= 1.0 + 1e-12
            case_ok = case_ok and summary.max_abs_omega <= 1.0 + 1e-12
        ok = ok and case_ok
        parts.append(
            f"{name}: converged={summary.converged} "
            f"pos={summary.final_pos_err:.2e} ang={summary.final_ang_err:.2e}"
        )
    line = _report(4, ok, "; ".join(parts) + f"; {elapsed:.2f}s")
    assert ok, line


def test_criterion_05_error_sum_stays_bounded(case_runs):
    ok = True
    parts = []
    for name in ("case1", "case2"):
        samples, _ = case_runs[name]
        series = [abs(s.z.z0) + abs(s.z.z1) for s in samples]
        peak, initial, final = max(series), series[0], series[-1]
        case_ok = peak <= 1.05 * initial and final < 1e-2
        ok = ok and case_ok
        parts.append(f"{name}: peak/initial {peak / initial:.4f}, final {final:.2e}")
    line = _report(5, ok, "; ".join(parts))
    assert ok, line


def test_criterion_06_straight_line_approach():
    goal = Pose2(5.0, 5.0, 0.0)
    start = pose_for_chained_state(ChainedState(0.0, 0.0, -5.0), AnchorDepth(0.6), goal)
    samples, summary = run(Scenario(initial_pose=start, goal_pose=goal))
    max_omega = max(abs(s.twist.omega) for s in samples)
    nx, ny = -math.sin(start.theta), math.cos(start.theta)
    lateral = max(
        abs((s.pose.x - start.x) * nx + (s.pose.y - start.y) * ny) for s in samples
    )
    ok = max_omega < 1e-12 and lateral < 1e-9 and summary.converged
    line = _report(6, ok, f"max |omega| {max_omega:.1e}, lateral {lateral:.1e}, "
                          f"converged={summary.converged} "
                          f"(final_pos_err={summary.final_pos_err:.2e})")
    assert ok, line


def test_criterion_07_ratio_branch_product(case_runs):
    worst = -math.inf
    count = 0
    for name in ("case1", "case2"):
        samples, _ = case_runs[name]
        for s in samples:
            if s.u0_branch == "ratio_law" and abs(s.z.z2) > 1e-6:
                count += 1
                worst = max(worst, s.z.z1 * s.u.u0 * s.z.z2)
    ok = count > 0 and worst <= 1e-12
    line = _report(7, ok, f"max z1*u0*z2 = {worst:.3e} over {count} ratio-branch samples")
    assert ok, line


def test_criterion_08_estimated_tracks_ground_truth():
    base = case_scenarios()["case1"]
    gt_sc = Scenario(
        name="case1_gt",
        initial_pose=base.initial_pose,
        goal_pose=base.goal_pose,
        intrinsics=WIDE_CAMERA,
    )
    est_sc = Scenario(
        name="case1_est",
        initial_pose=base.initial_pose,
        goal_pose=base.goal_pose,
        intrinsics=WIDE_CAMERA,
        perception_mode=PerceptionMode.ESTIMATED,
    )
    gt_samples, _ = run(gt_sc)
    est_samples, _ = run(est_sc)
    min_visible = min(s.visible_count for s in est_samples)
    worst_pos = worst_ang = 0.0
    for a, b in zip(gt_samples, est_samples):
        worst_pos = max(worst_pos, math.hypot(a.pose.x - b.pose.x, a.pose.y - b.pose.y))
        worst_ang = max(worst_ang, abs(wrap_angle(a.pose.theta - b.pose.theta)))
    ok = min_visible >= 4 and worst_pos < 1e-3 and worst_ang < 1e-3
    line = _report(8, ok, f"min visible {min_visible}, per-sample deviation "
                          f"pos {worst_pos:.3e} m, ang {worst_ang:.3e} rad")
    assert ok, line


def test_criterion_09_goal_jump_reconverges():
    base = case_scenarios()["case1"]
    new_goal = Pose2(base.goal_pose.x + 1.0, base.goal_pose.y - 0.5, base.goal_pose.theta + 0.2)
    sc = Scenario(
        name="case1_jump",
        initial_pose=base.initial_pose,
        goal_pose=base.goal_pose,
        goal_updates=(GoalUpdate(10.0, new_goal),),
    )
    samples, summary = run(sc)
    ok = summary.converged and summary.final_pos_err < 0.05 and summary.final_ang_err < 0.02
    line = _report(9, ok, f"converged={summary.converged}, "
                          f"final_pos_err={summary.final_pos_err:.2e}, "
                          f"final_ang_err={summary.final_ang_err:.2e} vs moved goal")
    assert ok, line


def test_criterion_10_byte_identical_reruns(tmp_path):
    argv = [
        "run", "--case", "case1", "--perception", "estimated",
        "--noise-px", "0.5", "--seed", "7", "--t-max", "8",
    ]
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        rc = cli_main(argv + ["--out", str(d)])
        assert rc in (0, 2)
        outs.append(
            (d / "case1_traj.csv").read_bytes() + (d / "case1_summary.json").read_bytes()
        )
    ok = outs[0] == outs[1]
    line = _report(10, ok, f"{len(outs[0])} bytes compared across two seeded reruns")
    assert ok, line
