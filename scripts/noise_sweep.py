"""Monte-Carlo sweep of pose-estimation error against pixel noise.

Draws robot poses around a fixed goal, renders the default object through
the camera model with Gaussian pixel noise, and reports the median and
90th-percentile estimation errors at each noise level.
"""

import argparse
import dataclasses
import math
import sys

import numpy as np

from servopark.closed_loop_sim import PerceptionMode, Scenario, perception
from servopark.errors import InvalidParams
from servopark.geometry import CameraIntrinsics, Pose2, relative_transform

WIDE_CAMERA = CameraIntrinsics(160.0, 160.0, 400.0, 160.0, 800, 320, 0.1)


def _int_at_least(low):
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value

    return parse


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
    ap.add_argument("--trials", type=_int_at_least(1), default=200)
    ap.add_argument("--seed", type=_int_at_least(0), default=0)
    args = ap.parse_args(argv)

    goal = Pose2(5.0, 5.0, 0.0)
    try:  # every level is checked before the table starts
        base = Scenario(intrinsics=WIDE_CAMERA, perception_mode=PerceptionMode.ESTIMATED)
        levels = [dataclasses.replace(base, pixel_noise_sigma=s) for s in args.sigmas]
    except InvalidParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rng = np.random.default_rng(args.seed)
    header = (
        f"{'sigma_px':>9s} {'used':>5s} {'ang p50':>10s} {'ang p90':>10s} "
        f"{'trans p50':>10s} {'trans p90':>10s}"
    )
    print(header)
    print("-" * len(header))
    for level in levels:
        ang_errs, trans_errs = [], []
        trial = 0
        while len(ang_errs) < args.trials and trial < 20 * args.trials:
            trial += 1
            pose = Pose2(
                goal.x - float(rng.uniform(1.0, 3.0)),
                goal.y + float(rng.uniform(-1.0, 1.0)),
                float(rng.uniform(-0.5, 0.5)),
            )
            see = perception(dataclasses.replace(level, rng_seed=trial))
            # estimated perception reads no true chained state
            z, used, ang_err, trans_err = see(relative_transform(pose, goal), None, trial)
            if z is None or used < 4:
                continue  # no estimate, as a starved sample of the closed loop
            ang_errs.append(ang_err)
            trans_errs.append(trans_err)
        a = np.asarray(ang_errs)
        t = np.asarray(trans_errs)
        print(
            f"{level.pixel_noise_sigma:9.2f} {len(a):5d} {_percentile(a, 50):10.3e} "
            f"{_percentile(a, 90):10.3e} {_percentile(t, 50):10.3e} "
            f"{_percentile(t, 90):10.3e}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
