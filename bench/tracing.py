"""Spans around the calls into each servopark module, for the traced run.

The layers are the package's modules.  ``Tracer.installed`` replaces, for
the length of a ``with`` block, the public functions that each caller looks
up in a module's namespace (``closed_loop_sim.estimate_pose`` is the
estimator as the simulator sees it) with wrappers that record one span per
call: name, start, end and the span open around it.  Spans live in flat
arrays until the run ends.  A few wrappers also count what the call
returned (pairs, candidates, roots, rows); the time that counting takes is
kept out of the enclosing span's self time.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import math
import os
import time
import tracemalloc
from array import array
from collections import defaultdict

from servopark import cli, closed_loop_sim, parking_controller, pose_estimator

import workloads


def _count_run(counts, result, args):
    counts["closed_loop_sim.samples"] += result[1].samples


def _count_summarize(counts, result, args):
    counts["closed_loop_sim.summarized"] += len(args[0])


def _count_traj(counts, result, args):
    counts["cli.traj_rows"] += len(args[1])
    counts["cli.traj_bytes"] += os.path.getsize(args[0])


def _count_z0z1(counts, result, args):
    counts["cli.z0z1_rows"] += len(args[1])


def _count_polish(counts, result, args):
    # The unpolished result carries the seed angle and the seed's own
    # least-squares translation; anything else means the step was kept.
    rot, g = result.rotation, result.transform
    kept = g.phi != math.atan2(rot.sin_theta, rot.cos_theta)
    if not kept:
        kept = (g.t_x, g.t_y) != pose_estimator.estimate_translation(args[0], rot)
    counts["pose_estimator.polished"] += kept


def _count_pairs(counts, result, args):
    counts["pose_estimator.pairs"] += result.pairs


def _count_candidates(counts, result, args):
    counts["pose_estimator.candidates"] += len(result)


def _count_roots(counts, result, args):
    counts["pose_estimator.quartic_roots"] += len(result)


# (module, attribute the caller looks up, span name, counter)
WRAPS = (
    (cli, "main", "cli.main", None),
    (cli, "run", "closed_loop_sim.run", _count_run),
    (cli, "write_traj_csv", "cli.write_traj_csv", _count_traj),
    (cli, "write_z0z1_csv", "cli.write_z0z1_csv", _count_z0z1),
    (closed_loop_sim, "run", "closed_loop_sim.run", _count_run),
    (closed_loop_sim, "summarize", "closed_loop_sim.summarize", _count_summarize),
    (closed_loop_sim, "integrate_unicycle", "closed_loop_sim.integrate_unicycle", None),
    (closed_loop_sim, "generate_observations", "closed_loop_sim.generate_observations", None),
    (closed_loop_sim, "estimate_pose", "pose_estimator.estimate_pose", _count_polish),
    (closed_loop_sim, "controller_step", "parking_controller.step", None),
    (closed_loop_sim, "compute_gains", "parking_controller.compute_gains", None),
    (closed_loop_sim, "in_invariant_set", "parking_controller.in_invariant_set", None),
    (closed_loop_sim, "relative_transform", "geometry.relative_transform", None),
    (closed_loop_sim, "wrap_angle", "geometry.wrap_angle", None),
    (closed_loop_sim, "project", "geometry.project", None),
    (closed_loop_sim, "transform_point", "geometry.transform_point", None),
    (closed_loop_sim, "normalize", "geometry.normalize", None),
    (closed_loop_sim, "error_from_transform", "error_state.error_from_transform", None),
    (closed_loop_sim, "to_chained", "error_state.to_chained", None),
    (parking_controller, "in_invariant_set", "parking_controller.in_invariant_set", None),
    (parking_controller, "lyapunov_V", "parking_controller.lyapunov_V", None),
    (parking_controller, "inputs_to_twist", "error_state.inputs_to_twist", None),
    (pose_estimator, "estimate_pose", "pose_estimator.estimate_pose", _count_polish),
    (pose_estimator, "accumulate", "pose_estimator.accumulate", _count_pairs),
    (pose_estimator, "rotation_candidates", "pose_estimator.rotation_candidates",
     _count_candidates),
    (pose_estimator, "solve_quartic", "pose_estimator.solve_quartic", _count_roots),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")  # index of the enclosing span, -1 at top level
        self.start = array("q")  # perf_counter_ns
        self.end = array("q")
        self.counts: dict[str, float] = defaultdict(float)
        self.deduct: dict[int, int] = defaultdict(int)  # counting time inside span i
        self._stack = [-1]

    def _wrap(self, fn, span, count):
        nid = self.ids.setdefault(span, len(self.ids))
        if nid == len(self.names):
            self.names.append(span)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counts, deduct, clock = self._stack, self.counts, self.deduct, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                t0 = clock()
                count(counts, result, args)
                deduct[stack[-1]] += clock() - t0
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, span, count in WRAPS:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, span, count))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write(self, path: str) -> None:
        """Write every span as CSV: id, parent, name, start and end in ns from the first."""
        t0 = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as f:
            f.write("id,parent,name,start_ns,end_ns\n")
            names = self.names
            for i in range(len(self.start)):
                f.write(f"{i},{self.parent[i]},{names[self.name[i]]},"
                        f"{self.start[i] - t0},{self.end[i] - t0}\n")


def log_bytes_per_step(scenario) -> float:
    """Bytes the trajectory log of one run() holds, per sample, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        samples, _ = closed_loop_sim.run(scenario)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held / len(samples)


UNITS = {
    "closed_loop_sim.run_self_us_per_step": "us",
    "closed_loop_sim.integrate_unicycle_us": "us",
    "closed_loop_sim.step_p99_us": "us",
    "closed_loop_sim.generate_observations_us": "us",
    "closed_loop_sim.summarize_us_per_sample": "us",
    "closed_loop_sim.steps": "count",
    "closed_loop_sim.log_bytes_per_step": "B",
    "pose_estimator.estimate_pose_us": "us",
    "pose_estimator.self_us": "us",
    "pose_estimator.accumulate_us": "us",
    "pose_estimator.pairs_per_call": "count",
    "pose_estimator.rotation_candidates_us": "us",
    "pose_estimator.candidates_per_call": "count",
    "pose_estimator.solve_quartic_us": "us",
    "pose_estimator.quartic_roots_per_call": "count",
    "pose_estimator.polish_kept_ratio": "ratio",
    "parking_controller.step_us": "us",
    "parking_controller.lyapunov_V_calls_per_step": "count",
    "parking_controller.in_invariant_set_calls_per_step": "count",
    "error_state.us_per_step": "us",
    "geometry.us_per_step": "us",
    "cli.write_traj_csv_us_per_row": "us",
    "cli.traj_bytes_per_row": "B",
    "cli.write_z0z1_csv_us_per_row": "us",
    "cli.self_ms_per_invocation": "ms",
}


def layer_metrics(tr: Tracer, passes: int) -> dict[str, tuple[float, float]]:
    """Per-layer metrics from the spans of ``passes`` traced passes.

    Each value is paired with the count it rests on; a zero count means the
    workload never reached that layer.
    """
    n = len(tr.start)
    child = array("q", bytes(8 * n))
    for i in range(n):
        p = tr.parent[i]
        if p >= 0:
            child[p] += tr.end[i] - tr.start[i]
    calls = defaultdict(int)
    total = defaultdict(int)
    self_ns = defaultdict(int)
    step_id = tr.ids.get("parking_controller.step", -1)
    intervals: list[int] = []
    prev_parent, prev_start = None, 0
    for i in range(n):
        name = tr.names[tr.name[i]]
        d = tr.end[i] - tr.start[i]
        calls[name] += 1
        total[name] += d
        self_ns[name] += d - child[i] - tr.deduct.get(i, 0)
        if tr.name[i] == step_id:
            if tr.parent[i] == prev_parent:
                intervals.append(tr.start[i] - prev_start)
            prev_parent, prev_start = tr.parent[i], tr.start[i]

    c = tr.counts
    samples = c["closed_loop_sim.samples"]
    steps = calls["parking_controller.step"]

    def ratio(num: float, den: float, scale: float = 1.0) -> tuple[float, float]:
        return (num * scale / den if den else 0.0, den)

    def per_call(name: str) -> tuple[float, float]:
        return ratio(total[name], calls[name], 1e-3)

    def layer_total(prefix: str) -> int:
        return sum(t for name, t in total.items() if name.startswith(prefix))

    return {
        "closed_loop_sim.run_self_us_per_step": ratio(self_ns["closed_loop_sim.run"], samples, 1e-3),
        "closed_loop_sim.integrate_unicycle_us": per_call("closed_loop_sim.integrate_unicycle"),
        "closed_loop_sim.step_p99_us": (
            workloads.percentile(intervals, 0.99) * 1e-3 if intervals else 0.0, len(intervals)
        ),
        "closed_loop_sim.generate_observations_us": per_call("closed_loop_sim.generate_observations"),
        "closed_loop_sim.summarize_us_per_sample": ratio(
            total["closed_loop_sim.summarize"], c["closed_loop_sim.summarized"], 1e-3
        ),
        "closed_loop_sim.steps": ratio(samples, passes) if samples else (0.0, 0),
        "pose_estimator.estimate_pose_us": per_call("pose_estimator.estimate_pose"),
        "pose_estimator.self_us": ratio(
            self_ns["pose_estimator.estimate_pose"], calls["pose_estimator.estimate_pose"], 1e-3
        ),
        "pose_estimator.accumulate_us": per_call("pose_estimator.accumulate"),
        "pose_estimator.pairs_per_call": ratio(
            c["pose_estimator.pairs"], calls["pose_estimator.accumulate"]
        ),
        "pose_estimator.rotation_candidates_us": per_call("pose_estimator.rotation_candidates"),
        "pose_estimator.candidates_per_call": ratio(
            c["pose_estimator.candidates"], calls["pose_estimator.rotation_candidates"]
        ),
        "pose_estimator.solve_quartic_us": per_call("pose_estimator.solve_quartic"),
        "pose_estimator.quartic_roots_per_call": ratio(
            c["pose_estimator.quartic_roots"], calls["pose_estimator.solve_quartic"]
        ),
        "pose_estimator.polish_kept_ratio": ratio(
            c["pose_estimator.polished"], calls["pose_estimator.estimate_pose"]
        ),
        "parking_controller.step_us": per_call("parking_controller.step"),
        "parking_controller.lyapunov_V_calls_per_step": ratio(
            calls["parking_controller.lyapunov_V"], steps
        ),
        "parking_controller.in_invariant_set_calls_per_step": ratio(
            calls["parking_controller.in_invariant_set"], steps
        ),
        "error_state.us_per_step": ratio(layer_total("error_state."), samples, 1e-3),
        "geometry.us_per_step": ratio(layer_total("geometry."), samples, 1e-3),
        "cli.write_traj_csv_us_per_row": ratio(
            total["cli.write_traj_csv"], c["cli.traj_rows"], 1e-3
        ),
        "cli.traj_bytes_per_row": ratio(c["cli.traj_bytes"], c["cli.traj_rows"]),
        "cli.write_z0z1_csv_us_per_row": ratio(
            total["cli.write_z0z1_csv"], c["cli.z0z1_rows"], 1e-3
        ),
        "cli.self_ms_per_invocation": ratio(self_ns["cli.main"], calls["cli.main"], 1e-6),
    }
