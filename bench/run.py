"""Benchmark of servopark, run from the repository root:

    python3 bench/run.py --workload gt_cases_cli --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of one workload; with
``--trace 1`` the per-layer metrics of a traced run (see README.md).  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; a copy with more detail goes to
bench/results/.
"""

from __future__ import annotations

import os

# One thread: numpy is imported by servopark, and its BLAS pool is never used.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

RESULTS = HERE / "results"
SETUP_PROBES = 11  # fresh interpreters timed per run; setup_s is their median

# Where a per-layer metric is measured when the traced workload never
# reaches its layer: one traced pass of the workload that does.
HOME = {
    "pose_estimator.": "estimate_scenes",
    "closed_loop_sim.generate_observations_us": "estimated_cases",
    "": "gt_cases_cli",
}


def home_of(metric: str) -> str:
    return next(w for prefix, w in HOME.items() if metric.startswith(prefix))


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the workload's first operation."""
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, __file__, "--probe-setup", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1]) - t0


def timed_passes(wl, seconds: float) -> list[workloads.PassResult]:
    """Whole passes until ``seconds`` have gone by (at least one)."""
    results = []
    deadline = time.perf_counter() + seconds
    while not results or time.perf_counter() < deadline:
        results.append(wl.run_pass()[0])
    return results


def median_op_us(passes) -> float:
    return statistics.median(p.op_us for p in passes)


def traced_layers(wl, passes_run, log_bytes: bool = True):
    tracer = tracing.Tracer()
    with tracer.installed():
        passes = passes_run()
    metrics = tracing.layer_metrics(tracer, len(passes))
    scenario = getattr(wl, "log_scenario", None) if log_bytes else None
    metrics["closed_loop_sim.log_bytes_per_step"] = (
        (tracing.log_bytes_per_step(scenario), 1) if scenario else (0.0, 0)
    )
    return metrics, tracer, passes


def run_traced(args, wl, work_dir):
    """Untraced passes for half the time, traced passes for the other half.

    A metric whose layer the workload never reaches is taken from one
    traced pass of its HOME workload.  Those passes only fill in layer
    metrics: the run's attempted and failed count the workload's own
    passes, so that every run of it fails the same share.  A failure in
    them other than a known one is a problem of the run.
    """
    plain = timed_passes(wl, args.seconds / 2)
    layers, tracer, traced = traced_layers(wl, lambda: timed_passes(wl, args.seconds / 2))
    missing = [m for m, (_, base) in layers.items() if base == 0]
    problems = []
    for home in sorted({home_of(m) for m in missing}):
        wanted = [m for m in missing if home_of(m) == home]
        other = workloads.WORKLOADS[home](args.seed, work_dir)
        home_layers, _, home_passes = traced_layers(
            other, lambda: [other.run_pass()[0]],
            log_bytes="closed_loop_sim.log_bytes_per_step" in wanted,
        )
        for p in home_passes:
            problems += workloads.unexpected_failures(p, getattr(other, "known_failures", None))
        for m in wanted:
            layers[m] = home_layers[m]
    metrics = {m: {"value": v, "unit": tracing.UNITS[m]} for m, (v, _) in sorted(layers.items())}
    metrics["trace.overhead_us_per_op"] = {
        "value": median_op_us(traced) - median_op_us(plain), "unit": "us"
    }
    return metrics, plain + traced, problems, tracer


def run_untraced(args, wl) -> tuple[dict, list]:
    setup = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    passes = timed_passes(wl, args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(p.wall_s for p in passes), "unit": "s"},
        "op_us": {"value": median_op_us(passes), "unit": "us"},
        "op_p99_us": {"value": statistics.median(p.op_p99_us for p in passes), "unit": "us"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    return metrics, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        workloads.WORKLOADS[args.workload](args.seed, str(RESULTS / "unused"))
        print(time.monotonic())
        return 0

    RESULTS.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=RESULTS)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics, own, home_problems, tracer = run_traced(args, wl, work_dir)
            tracer.write(str(RESULTS / f"{tag}-spans.csv.gz"))
        else:
            metrics, own = run_untraced(args, wl)
            home_problems = []
        _, problems = wl.checked_pass(own[0].digest)
        problems += home_problems
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if len({p.digest for p in own}) > 1:
        problems.append("the timed passes did not all give the same outputs")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in own),
        "failed": sum(p.failed for p in own),
        "metrics": metrics,
    }
    detail = dict(
        result,
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        passes=len(own), problems=problems,
        pass_wall_s=[p.wall_s for p in own], pass_op_us=[p.op_us for p in own],
        python=platform.python_version(), numpy=np.__version__, cpus=os.cpu_count(),
    )
    (RESULTS / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
