"""Tests of the benchmark itself: small workloads pass, corrupted outputs fail.

Run from the repository root with ``python -m pytest bench/tests -q``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from servopark import cli, pose_estimator  # noqa: E402
from servopark.errors import NumericalFailure  # noqa: E402
from servopark.geometry import PlanarTransform  # noqa: E402


def _fmt(x: float) -> str:
    return "%.17g" % x


@pytest.fixture(scope="module")
def gt_case3(tmp_path_factory):
    """case3's CLI outputs and its input description."""
    out = tmp_path_factory.mktemp("gt")
    wl = workloads.GtCasesCli(0, str(out), cases=("case3",))
    res, kept = wl.run_pass(str(out / "pass"))
    case, code, stdout, traj, summary, z0z1 = kept[0]
    return wl, res, case, traj.decode(), json.loads(summary), z0z1.decode()


@pytest.fixture(scope="module")
def scenes():
    return sorted(workloads.make_scenes(3, per_cell=1), key=lambda s: s.index)


def _edit_cell(text: str, row: int, column: str, delta: float) -> str:
    lines = text.split("\n")
    header = lines[0].split(",")
    fields = lines[row + 1].split(",")
    k = header.index(column)
    fields[k] = _fmt(float(fields[k]) + delta)
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines)


# -- each workload passes at a small size ---------------------------------


def test_gt_cases_cli_small_passes(gt_case3):
    wl, res, *_ = gt_case3
    assert res.attempted == 1 and res.failed == 0 and res.steps > 4000
    _, problems = wl.checked_pass(res.digest)
    assert problems == []


def test_estimated_cases_small_passes(tmp_path):
    wl = workloads.EstimatedCases(0, str(tmp_path), cases=("case3",))
    res, _ = wl.run_pass()
    assert res.attempted == 1 and res.failed == 0
    _, problems = wl.checked_pass(res.digest)
    assert problems == []


def test_estimate_scenes_small_passes(tmp_path):
    wl = workloads.EstimateScenes(3, str(tmp_path), per_cell=1)
    res, _ = wl.run_pass()
    assert res.attempted == 2 * len(workloads.FEATURE_COUNTS) and res.failed == 0
    _, problems = wl.checked_pass(res.digest)
    assert problems == []


def test_the_seed_orders_a_fixed_pool(monkeypatch):
    def no_estimator(pairs):
        raise AssertionError("building the scenes called the program")

    monkeypatch.setattr(pose_estimator, "estimate_pose", no_estimator)
    a = workloads.make_scenes(5, per_cell=1)
    b = workloads.make_scenes(5, per_cell=1)
    c = workloads.make_scenes(6, per_cell=1)
    assert [(s.index, s.truth) for s in a] == [(s.index, s.truth) for s in b]
    assert [s.index for s in a] != [s.index for s in c]
    by_index = lambda scenes: sorted((s.index, s.truth) for s in scenes)  # noqa: E731
    assert by_index(a) == by_index(c)
    assert [p.X_star for p in a[0].permuted] == [p.X_star for p in b[0].permuted]
    assert sorted(p.X_star for p in a[0].permuted) == sorted(p.X_star for p in a[0].pairs)


def test_the_known_failure_is_counted_and_any_other_fails_the_checks(monkeypatch, tmp_path):
    wl = workloads.EstimateScenes(5, str(tmp_path), per_cell=1)
    real = pose_estimator.estimate_pose
    bad = {id(wl.scenes[3].pairs), id(wl.scenes[7].pairs)}

    def fails_on_two(pairs):
        if id(pairs) in bad:
            raise NumericalFailure("injected")
        return real(pairs)

    monkeypatch.setattr(pose_estimator, "estimate_pose", fails_on_two)
    res, _ = wl.run_pass()
    assert (res.attempted, res.failed) == (len(wl.scenes), 2)
    _, problems = wl.checked_pass(res.digest)
    assert len(problems) == 2 and all("raised NumericalFailure" in p for p in problems)
    wl.known_failures = {f"scene {wl.scenes[i].index}": "NumericalFailure" for i in (3, 7)}
    assert wl.checked_pass(res.digest)[1] == []
    wl.known_failures = {f"scene {wl.scenes[3].index}": "ValueError"}
    assert len(wl.checked_pass(res.digest)[1]) == 2


def test_the_full_pool_holds_the_known_failure():
    scene = next(s for s in workloads.make_scenes(0) if s.index in workloads.KNOWN_FAILURES)
    assert (len(scene.pairs), scene.noisy) == (24, True)
    with pytest.raises(NumericalFailure):
        pose_estimator.estimate_pose(scene.pairs)


def test_a_failed_case_run_fails_the_checks(monkeypatch, gt_case3):
    wl, res, *_ = gt_case3

    def crashes(argv):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "main", crashes)
    bad, problems = wl.checked_pass(res.digest)
    assert (bad.attempted, bad.failed) == (1, 1)
    assert any("raised RuntimeError" in p for p in problems)


def test_a_changed_output_fails_the_digest(gt_case3):
    wl, res, *_ = gt_case3
    _, problems = wl.checked_pass(b"not the digest")
    assert any("other bytes" in p for p in problems)


# -- gt_cases_cli checks reject corrupted output ---------------------------


def test_cli_row_shifted_by_a_micrometre_is_rejected(gt_case3):
    _, _, case, traj, summary, z0z1 = gt_case3
    assert checks.check_cli_run(case, traj, summary, z0z1) == []
    for row in (1, 1000, summary["samples"] - 2):
        bad = _edit_cell(traj, row, "x", 1e-6)
        assert any("off the arc" in p for p in checks.check_cli_run(case, bad, summary, z0z1))


def test_cli_wrong_time_grid_is_rejected(gt_case3):
    _, _, case, traj, summary, z0z1 = gt_case3
    bad = _edit_cell(traj, 7, "t", 1e-12)
    assert any("has t =" in p for p in checks.check_cli_run(case, bad, summary, z0z1))


def test_cli_wrong_chained_state_is_rejected(gt_case3):
    _, _, case, traj, summary, z0z1 = gt_case3
    bad = _edit_cell(traj, 300, "z2", 1e-8)
    assert any("chained state" in p for p in checks.check_cli_run(case, bad, summary, z0z1))


def test_cli_z0z1_mismatch_is_rejected(gt_case3):
    _, _, case, traj, summary, z0z1 = gt_case3
    lines = z0z1.split("\n")
    t, v = lines[50].split(",")
    lines[50] = f"{t},{_fmt(float(v) * (1 + 1e-15) + 1e-300)}"
    bad = "\n".join(lines)
    assert any("z0z1 row" in p for p in checks.check_cli_run(case, traj, summary, bad))


def test_cli_run_forced_not_to_converge_is_rejected(tmp_path, gt_case3):
    _, _, case, *_ = gt_case3
    argv = ["run", "--case", "case3", "--plot", "--t-max", "10", "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 2
    read = lambda suffix: (tmp_path / f"case3{suffix}").read_text()  # noqa: E731
    problems = checks.check_cli_run(
        case, read("_traj.csv"), json.loads(read("_summary.json")), read("_z0z1.csv")
    )
    assert any("not converged" in p for p in problems)
    assert any("from the goal" in p for p in problems)


# -- estimated_cases checks -----------------------------------------------


def test_estimated_run_forced_not_to_converge_is_rejected(tmp_path):
    wl = workloads.EstimatedCases(0, str(tmp_path), cases=("case3",))
    wl.scenarios = [replace(sc, t_max=5.0) for sc in wl.scenarios]
    res, _ = wl.run_pass()
    _, problems = wl.checked_pass(res.digest)
    assert any("did not converge" in p for p in problems)


def test_estimate_tracking_checks_reject_deviation():
    gt = [(0.01 * k, 0.0, 0.0) for k in range(100)]
    assert checks.check_tracks_ground_truth("c", gt, gt, [6] * 100) == []
    off = gt[:50] + [(gt[50][0], 2e-3, 0.0)] + gt[51:]
    assert checks.check_tracks_ground_truth("c", off, gt, [6] * 100)
    turned = gt[:50] + [(gt[50][0], 0.0, 2e-3)] + gt[51:]
    assert checks.check_tracks_ground_truth("c", turned, gt, [6] * 100)
    assert checks.check_tracks_ground_truth("c", gt, gt, [6] * 99 + [3])
    assert checks.check_tracks_ground_truth("c", gt[:-1], gt, [6] * 99)


# -- estimate_scenes checks -----------------------------------------------


def _with_phi(est, phi):
    g = est.transform
    return replace(est, transform=PlanarTransform(phi, g.t_x, g.t_y))


def test_nudged_angle_is_rejected(scenes):
    for scene in scenes[:2] + scenes[-2:]:
        est = pose_estimator.estimate_pose(scene.pairs)
        assert checks.check_estimate(scene, est, est) == []
        bad = _with_phi(est, est.transform.phi + 1e-7)
        assert checks.check_estimate(scene, bad, bad), scene.index


def test_permuted_result_must_be_bit_identical(scenes):
    scene = scenes[1]
    est = pose_estimator.estimate_pose(scene.pairs)
    other = _with_phi(est, math.nextafter(est.transform.phi, 1.0))
    assert any("permuted" in p for p in checks.check_estimate(scene, est, other))


def test_seed_must_win_among_stationary_points(scenes):
    noisy = [s for s in scenes if s.noisy]
    rejected = 0
    for scene in noisy:
        est = pose_estimator.estimate_pose(scene.pairs)
        for cand in pose_estimator.rotation_candidates(pose_estimator.accumulate(scene.pairs)):
            if (cand.sin_theta, cand.cos_theta) == (est.rotation.sin_theta, est.rotation.cos_theta):
                continue
            bad = replace(est, rotation=cand)
            problems = checks.check_estimate(scene, bad, bad)
            assert any("stationary point" in p for p in problems), scene.index
            rejected += 1
    assert rejected >= len(noisy)


def test_seed_off_a_stationary_point_is_rejected(scenes):
    scene = next(s for s in scenes if s.noisy)
    est = pose_estimator.estimate_pose(scene.pairs)
    r = est.rotation
    phi = math.atan2(r.sin_theta, r.cos_theta) + 1e-4
    bad = replace(est, rotation=replace(r, sin_theta=math.sin(phi), cos_theta=math.cos(phi)))
    problems = checks.check_estimate(scene, bad, bad)
    assert any("not a stationary point" in p for p in problems)


def test_wrong_translation_residual_is_rejected(scenes):
    scene = next(s for s in scenes if s.noisy)
    est = pose_estimator.estimate_pose(scene.pairs)
    bad = replace(est, translation_residual=est.translation_residual * (1 + 1e-6))
    assert any("translation_residual" in p for p in checks.check_estimate(scene, bad, bad))


def test_arc_tolerance_is_below_a_micrometre():
    # a 1e-6 m shift must stay detectable at the largest twists the cases command
    assert checks.rk4_arc_tolerance(2.0, 1.0, 0.01) < 1e-9


# -- tracing and the command ----------------------------------------------


def test_tracer_counts_layers_and_restores_the_program(tmp_path):
    wl = workloads.GtCasesCli(0, str(tmp_path), cases=("case3",))
    main_before = cli.main
    tracer = tracing.Tracer()
    with tracer.installed():
        res, _ = wl.run_pass()
    assert cli.main is main_before
    layers = tracing.layer_metrics(tracer, 1)
    assert layers["closed_loop_sim.steps"] == (res.steps, 1)
    assert 2.0 <= layers["parking_controller.lyapunov_V_calls_per_step"][0] <= 3.0
    assert layers["cli.traj_bytes_per_row"][0] > 100
    assert layers["pose_estimator.estimate_pose_us"][1] == 0  # never reached here
    assert set(layers) | {"closed_loop_sim.log_bytes_per_step"} == set(tracing.UNITS)


def _small(monkeypatch):
    small = {
        "gt_cases_cli": functools.partial(workloads.GtCasesCli, cases=("case3",)),
        "estimated_cases": functools.partial(workloads.EstimatedCases, cases=("case3",)),
        "estimate_scenes": functools.partial(workloads.EstimateScenes, per_cell=1),
    }
    for name, make in small.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, make)


def test_traced_run_reports_every_layer_metric(monkeypatch, capsys):
    _small(monkeypatch)
    argv = ["--workload", "estimate_scenes", "--seed", "4", "--seconds", "0.2", "--trace", "1"]
    assert bench_run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert all(v["value"] > 0 for k, v in result["metrics"].items() if k != "trace.overhead_us_per_op")


def test_untraced_run_reports_every_end_to_end_metric(monkeypatch, capsys):
    _small(monkeypatch)
    argv = ["--workload", "gt_cases_cli", "--seed", "4", "--seconds", "0.2", "--trace", "0"]
    assert bench_run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gt_cases_cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
