"""The three servopark workloads: their inputs, one timed pass, and a checked pass.

A workload is built once from the seed (its set-up), then run in whole
passes over the same inputs.  ``run_pass`` times each operation and hands
back a digest of every output, so the checked pass, which runs the same
inputs again untimed and checks them with ``checks``, proves the timed
passes correct too.

The program is reached only through module attributes looked up at call
time (``cli.main``, ``closed_loop_sim.run``, ``pose_estimator.estimate_pose``),
so the traced run can swap in its wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import statistics
import struct
import sys
import time
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from servopark import cli, closed_loop_sim, pose_estimator
from servopark.geometry import CameraIntrinsics, NormalizedFeature

import checks

CASES = ("case1", "case2", "case3", "case4")

# The 160 px-focal camera of acceptance criterion 8: the board stays in view
# for the whole of every built-in case, so every estimated run converges.
WIDE_CAMERA = CameraIntrinsics(160.0, 160.0, 400.0, 160.0, 800, 320, 0.1)

# estimate_scenes: PER_CELL scenes for every feature count and noise level.
# 21 counts x 2 levels x 48 = 2016 calls a pass, so the 99th percentile of
# one pass has twenty calls beyond it.
FEATURE_COUNTS = tuple(range(4, 25))
PER_CELL = 48
NOISE_PX = 0.5
SCENE_CAMERA = (460.0, 320.0, 240.0, 640, 480)  # focal, c_x, c_y, width, height

# The scenes' geometry is drawn from this fixed seed; --seed orders the calls
# and draws the permuted copies.  A failure of estimate_pose that depended on
# --seed would make the failed share differ from run to run, so the geometry
# must not.
POOL_SEED = 0

# Operations of the full pool that fail in every pass through a known fault
# of the program: pool index -> exception.  Scene 1982 (24 features, noisy)
# makes solve_quartic's root refinement stall (NumericalFailure; a FOUND:
# line in CHANGES.md).  It is counted in `failed`; any other failure fails
# the run's checks.
KNOWN_FAILURES = {1982: "NumericalFailure"}


@dataclass
class PassResult:
    wall_s: float = 0.0  # summed time of the pass's operations
    op_us: float = 0.0  # median cost of one operation in the pass
    op_p99_us: float = 0.0  # 99th percentile of that cost
    steps: int = 0  # simulated samples (loop workloads)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # (operation, exception name)
    digest: bytes = b""


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@contextlib.contextmanager
def step_clock():
    """Timestamps each simulated step, for the loop workloads' step tail.

    run() calls integrate_unicycle once a step, so the gap between two of
    its calls is one step of the loop.  This is the only hook in an untraced
    run: one clock read and one append a step.
    """
    stamps = array("q")
    real = closed_loop_sim.integrate_unicycle
    clock = time.perf_counter_ns

    def stamped(*args, **kwargs):
        stamps.append(clock())
        return real(*args, **kwargs)

    closed_loop_sim.integrate_unicycle = stamped
    try:
        yield stamps
    finally:
        closed_loop_sim.integrate_unicycle = real


def _step_gaps_us(stamps, first: int) -> list[float]:
    """Times of the steps stamped from index ``first`` on, one run's, in µs."""
    return [(stamps[j + 1] - stamps[j]) * 1e-3 for j in range(first, len(stamps) - 1)]


def _loop_figures(res: PassResult, steps_us: list[float]) -> None:
    """For a loop workload an operation is one simulated step."""
    if res.steps:
        res.op_us = res.wall_s * 1e6 / res.steps
        res.op_p99_us = percentile(steps_us, 0.99)


def _fail(result: PassResult, what: str, exc: BaseException) -> None:
    result.failed += 1
    result.failures.append((what, type(exc).__name__))
    print(f"failed: {what}: {type(exc).__name__}: {exc}", file=sys.stderr)


def unexpected_failures(res: PassResult, known=None) -> list[str]:
    """A problem for every failed operation that is not a known failure."""
    known = known or {}
    return [
        f"{what}: raised {name}" for what, name in res.failures if known.get(what) != name
    ]


class GtCasesCli:
    """The four built-in cases in ground-truth perception, through the CLI."""

    name = "gt_cases_cli"

    def __init__(self, seed: int, work_dir: str, cases=CASES):
        scenarios = closed_loop_sim.case_scenarios()
        self.cases = []
        for name in cases:
            sc = scenarios[name]
            self.cases.append(
                dict(
                    name=name,
                    dt=sc.dt,
                    goal=(sc.goal_pose.x, sc.goal_pose.y, sc.goal_pose.theta),
                    pos_tol=sc.convergence.pos_tol,
                    ang_tol=sc.convergence.ang_tol,
                    z_star=sc.anchor().Z_star,
                )
            )
        self.work_dir = work_dir
        # run() itself, for the traced run's log-size measurement
        self.log_scenario = scenarios[cases[0]]

    def _outputs(self, out_dir: str, name: str) -> tuple[bytes, bytes, bytes]:
        base = os.path.join(out_dir, name)
        files = []
        for suffix in ("_traj.csv", "_summary.json", "_z0z1.csv"):
            with open(base + suffix, "rb") as f:
                files.append(f.read())
        return tuple(files)

    def run_pass(self, out_dir: str | None = None) -> tuple[PassResult, list]:
        out_dir = out_dir or os.path.join(self.work_dir, "pass")
        res = PassResult()
        h = hashlib.sha256()
        kept = []
        steps_us: list[float] = []
        with step_clock() as stamps:
            for case in self.cases:
                argv = ["run", "--case", case["name"], "--plot", "--out", out_dir]
                res.attempted += 1
                stdout = io.StringIO()
                first = len(stamps)
                try:
                    t0 = time.perf_counter()
                    with contextlib.redirect_stdout(stdout):
                        code = cli.main(argv)
                    dt = time.perf_counter() - t0
                    traj, summary, z0z1 = self._outputs(out_dir, case["name"])
                except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
                    _fail(res, f"servopark {' '.join(argv[:3])}", exc)
                    continue
                if code not in (0, 2):
                    _fail(res, f"servopark {' '.join(argv[:3])}", RuntimeError(f"exit code {code}"))
                    continue
                res.wall_s += dt
                res.steps += json.loads(summary)["samples"]
                steps_us += _step_gaps_us(stamps, first)
                for blob in (str(code).encode(), traj, summary, z0z1):
                    h.update(blob)
                kept.append((case, code, stdout.getvalue(), traj, summary, z0z1))
        _loop_figures(res, steps_us)
        res.digest = h.digest()
        return res, kept

    def checked_pass(self, digest: bytes) -> tuple[PassResult, list[str]]:
        out_dir = os.path.join(self.work_dir, "checked")
        res, kept = self.run_pass(out_dir)
        problems = unexpected_failures(res)
        for case, code, stdout, traj, summary, z0z1 in kept:
            if code != 0 or "converged" not in stdout or "not converged" in stdout:
                problems.append(f"{case['name']}: exit code {code}, output {stdout.strip()!r}")
            problems += checks.check_cli_run(
                case, traj.decode(), json.loads(summary), z0z1.decode()
            )
        if res.digest != digest:
            problems.append("the checked pass wrote other bytes than the timed passes")
        shutil.rmtree(out_dir, ignore_errors=True)
        return res, problems


def _sample_digest(h, samples) -> None:
    for s in samples:
        h.update(struct.pack(
            "<6di", s.t, s.pose.x, s.pose.y, s.pose.theta, s.twist.v, s.twist.omega,
            s.visible_count,
        ))


class EstimatedCases:
    """The four built-in cases in estimated, noise-free perception, through run()."""

    name = "estimated_cases"

    def __init__(self, seed: int, work_dir: str, cases=CASES):
        scenarios = closed_loop_sim.case_scenarios()
        self.scenarios = [
            replace(
                scenarios[name],
                intrinsics=WIDE_CAMERA,
                perception_mode=closed_loop_sim.PerceptionMode.ESTIMATED,
            )
            for name in cases
        ]
        self.log_scenario = self.scenarios[0]

    def run_pass(self, keep: bool = False) -> tuple[PassResult, list]:
        res = PassResult()
        h = hashlib.sha256()
        kept = []
        steps_us: list[float] = []
        with step_clock() as stamps:
            for sc in self.scenarios:
                res.attempted += 1
                first = len(stamps)
                try:
                    t0 = time.perf_counter()
                    samples, summary = closed_loop_sim.run(sc)
                    dt = time.perf_counter() - t0
                except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
                    _fail(res, f"run({sc.name}, estimated)", exc)
                    continue
                res.wall_s += dt
                res.steps += summary.samples
                steps_us += _step_gaps_us(stamps, first)
                h.update(struct.pack("<?", summary.converged))
                _sample_digest(h, samples)
                if keep:
                    kept.append((sc, samples, summary))
        _loop_figures(res, steps_us)
        res.digest = h.digest()
        return res, kept

    def checked_pass(self, digest: bytes) -> tuple[PassResult, list[str]]:
        res, kept = self.run_pass(keep=True)
        problems = unexpected_failures(res)
        for sc, samples, summary in kept:
            if not summary.converged:
                problems.append(f"{sc.name}: estimated run did not converge")
            gt_samples, _ = closed_loop_sim.run(
                replace(sc, perception_mode=closed_loop_sim.PerceptionMode.GROUND_TRUTH)
            )
            problems += checks.check_tracks_ground_truth(
                sc.name,
                [(s.pose.x, s.pose.y, s.pose.theta) for s in samples],
                [(s.pose.x, s.pose.y, s.pose.theta) for s in gt_samples],
                [s.visible_count for s in samples],
            )
        if res.digest != digest:
            problems.append("the checked pass gave other samples than the timed passes")
        return res, problems


@dataclass
class Scene:
    index: int
    noisy: bool
    truth: tuple[float, float, float]  # (phi, t_x, t_y) that generated the view
    cur: np.ndarray  # (n, 2) normalized current-view coordinates
    ref: np.ndarray  # (n, 2) normalized goal-view coordinates
    depth: np.ndarray  # (n,) goal-view depths X*
    pairs: list
    permuted: list


def make_scene(rng: random.Random, index: int, n: int, noisy: bool) -> Scene:
    """A random rigid view of n features at spread depths, all in the image.

    P = R(phi) P* + T maps goal-frame features into the current camera
    (x forward, y lateral, z up); a feature is redrawn until it lies at least
    0.5 m ahead and projects inside the image.
    """
    f, cx, cy, width, height = SCENE_CAMERA
    phi = rng.uniform(-0.6, 0.6)
    t_x, t_y = rng.uniform(-1.0, 1.0), rng.uniform(-0.8, 0.8)
    c, s = math.cos(phi), math.sin(phi)
    cur, ref, depth = [], [], []
    while len(cur) < n:
        X, Y = rng.uniform(2.5, 6.0), rng.uniform(-1.2, 1.2)
        Z = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 0.9)
        px, py = c * X - s * Y + t_x, s * X + c * Y + t_y
        if px < 0.5:
            continue
        u, v = f * py / px + cx, f * Z / px + cy
        if not (0.0 <= u < width and 0.0 <= v < height):
            continue
        if noisy:
            u, v = u + rng.gauss(0.0, NOISE_PX), v + rng.gauss(0.0, NOISE_PX)
            cur.append(((u - cx) / f, (v - cy) / f))
        else:
            cur.append((py / px, Z / px))
        ref.append((Y / X, Z / X))
        depth.append(X)
    pairs = [
        pose_estimator.MatchedPair(NormalizedFeature(*p), NormalizedFeature(*q), d)
        for p, q, d in zip(cur, ref, depth)
    ]
    permuted = pairs[:]
    rng.shuffle(permuted)
    return Scene(index, noisy, (phi, t_x, t_y), np.array(cur), np.array(ref),
                 np.array(depth), pairs, permuted)


def make_scenes(seed: int, per_cell: int = PER_CELL) -> list[Scene]:
    """The scene set of a run, in the order a pass visits it.

    The geometry is the pool drawn from POOL_SEED, the same in every run;
    ``seed`` shuffles the visiting order and each scene's permuted copy.
    """
    pool_rng = random.Random(POOL_SEED)
    scenes: list[Scene] = []
    for n in FEATURE_COUNTS:
        for noisy in (False, True):
            for _ in range(per_cell):
                scenes.append(make_scene(pool_rng, len(scenes), n, noisy))
    rng = random.Random(seed)
    for scene in scenes:
        rng.shuffle(scene.permuted)
    rng.shuffle(scenes)
    return scenes


class EstimateScenes:
    """estimate_pose on a fixed pool of general scenes of 4 to 24 features, in seeded order."""

    name = "estimate_scenes"

    def __init__(self, seed: int, work_dir: str, per_cell: int = PER_CELL):
        self.scenes = make_scenes(seed, per_cell)
        # pool indices stand for the same scenes only in the full pool
        known = KNOWN_FAILURES if per_cell == PER_CELL else {}
        self.known_failures = {f"scene {i}": name for i, name in known.items()}

    def run_pass(self, keep: bool = False) -> tuple[PassResult, list]:
        res = PassResult()
        h = hashlib.sha256()
        kept = []
        calls_us = []
        clock = time.perf_counter_ns
        for scene in self.scenes:
            res.attempted += 1
            try:
                t0 = clock()
                est = pose_estimator.estimate_pose(scene.pairs)
                dt = clock() - t0
            except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
                _fail(res, f"scene {scene.index}", exc)
                continue
            res.wall_s += dt * 1e-9
            calls_us.append(dt * 1e-3)
            h.update(checks.bits(est))
            if keep:
                kept.append((scene, est))
        if calls_us:
            res.op_us = statistics.median(calls_us)
            res.op_p99_us = percentile(calls_us, 0.99)
        res.digest = h.digest()
        return res, kept

    def checked_pass(self, digest: bytes) -> tuple[PassResult, list[str]]:
        res, kept = self.run_pass(keep=True)
        problems = unexpected_failures(res, self.known_failures)
        for scene, est in kept:
            try:
                permuted = pose_estimator.estimate_pose(scene.permuted)
            except Exception as exc:
                problems.append(f"scene {scene.index}: permuted copy raised {type(exc).__name__}")
                continue
            problems += checks.check_estimate(scene, est, permuted)
        if res.digest != digest:
            problems.append("the checked pass gave other estimates than the timed passes")
        return res, problems


WORKLOADS = {w.name: w for w in (GtCasesCli, EstimatedCases, EstimateScenes)}
