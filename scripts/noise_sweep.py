"""Monte-Carlo sweep of pose-estimation error against pixel noise.

Draws robot poses around a fixed goal, renders the default object through
the camera model with Gaussian pixel noise, and reports the median and
90th-percentile estimation errors at each noise level.
"""

import argparse
import math
import sys

import numpy as np

from servopark.closed_loop_sim import PerceptionMode, Scenario, generate_observations
from servopark.errors import DegenerateGeometry, InsufficientFeatures, NumericalFailure
from servopark.geometry import CameraIntrinsics, Pose2, relative_transform, wrap_angle
from servopark.pose_estimator import estimate_pose

WIDE_CAMERA = CameraIntrinsics(160.0, 160.0, 400.0, 160.0, 800, 320, 0.1)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _percentile(values, q):
    # a level at which no trial gave an estimate has no percentiles
    return np.percentile(values, q) if len(values) else math.nan


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--sigmas",
        type=float,
        nargs="+",
        default=[0.0, 0.25, 0.5, 1.0, 2.0],
        help="pixel noise standard deviations to sweep",
    )
    ap.add_argument("--trials", type=_positive_int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    goal = Pose2(5.0, 5.0, 0.0)
    rng = np.random.default_rng(args.seed)
    header = (
        f"{'sigma_px':>9s} {'used':>5s} {'ang p50':>10s} {'ang p90':>10s} "
        f"{'trans p50':>10s} {'trans p90':>10s}"
    )
    print(header)
    print("-" * len(header))
    for sigma in args.sigmas:
        ang_errs, trans_errs = [], []
        trial = 0
        while len(ang_errs) < args.trials and trial < 20 * args.trials:
            trial += 1
            pose = Pose2(
                goal.x - float(rng.uniform(1.0, 3.0)),
                goal.y + float(rng.uniform(-1.0, 1.0)),
                float(rng.uniform(-0.5, 0.5)),
            )
            sc = Scenario(
                initial_pose=pose,
                goal_pose=goal,
                intrinsics=WIDE_CAMERA,
                perception_mode=PerceptionMode.ESTIMATED,
                pixel_noise_sigma=sigma,
                rng_seed=trial,
            )
            truth = relative_transform(pose, goal)
            pairs = generate_observations(truth, sc, step=trial)
            if len(pairs) < 4:
                continue
            try:
                est = estimate_pose(pairs)
            except (InsufficientFeatures, DegenerateGeometry, NumericalFailure):
                continue  # no estimate, as a starved sample of the closed loop
            ang_errs.append(abs(wrap_angle(est.transform.phi - truth.phi)))
            trans_errs.append(
                math.hypot(est.transform.t_x - truth.t_x, est.transform.t_y - truth.t_y)
            )
        a = np.asarray(ang_errs)
        t = np.asarray(trans_errs)
        print(
            f"{sigma:9.2f} {len(a):5d} {_percentile(a, 50):10.3e} "
            f"{_percentile(a, 90):10.3e} {_percentile(t, 50):10.3e} "
            f"{_percentile(t, 90):10.3e}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
