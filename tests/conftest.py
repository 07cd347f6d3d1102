"""Shared fixtures and scene builders for the test suite."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from servopark.closed_loop_sim import case_scenarios, run
from servopark.geometry import (
    FeaturePoint3,
    NormalizedFeature,
    PlanarTransform,
    transform_point,
)
from servopark.pose_estimator import MatchedPair


@dataclass(frozen=True)
class PairCoeffs:
    a: float
    b: float
    c: float


def pair_coeffs(p_i, p_j):
    """Rotation constraint coefficients for one unordered feature pair.

    The per-pair reference for ``pose_estimator.accumulate``, whose inlined
    loop evaluates these expressions in this order, so the sums agree bit
    for bit.
    """
    xi, yi = p_i.cur.x, p_i.cur.y
    xj, yj = p_j.cur.x, p_j.cur.y
    xi_r, yi_r = p_i.ref.x, p_i.ref.y
    xj_r, yj_r = p_j.ref.x, p_j.ref.y
    ri = yi_r / yi
    rj = yj_r / yj
    a = ri * (xi * xj_r + 1.0) - rj * (xi_r * xj + 1.0)
    b = ri * (xj_r - xi) - rj * (xi_r - xj)
    c = (yi_r * yj_r) / (yi * yj) * (xi - xj) + (xi_r - xj_r)
    return PairCoeffs(a, b, c)


def random_scene(rng, n_min=5, n_max=20, max_angle=math.pi / 3, max_trans=2.0, depth=None):
    """Draw one synthetic scene: a planar transform plus matched feature pairs.

    Feature heights are kept away from the optical plane (|Z/X| >= 0.01 in
    both frames) because the projective pair construction divides by the
    vertical normalized coordinate.  ``depth`` puts every feature at that
    one depth, a board.
    """
    n = int(rng.integers(n_min, n_max + 1))
    phi = float(rng.uniform(-max_angle, max_angle))
    t_x = float(rng.uniform(-max_trans, max_trans))
    t_y = float(rng.uniform(-max_trans, max_trans))
    g = PlanarTransform(phi, t_x, t_y)
    pairs = []
    while len(pairs) < n:
        X = float(rng.uniform(1.5, 8.0)) if depth is None else depth
        Y = float(rng.uniform(-3.0, 3.0))
        Z = float(rng.uniform(0.2, 2.0)) * (1.0 if rng.integers(0, 2) else -1.0)
        cur = transform_point(g, FeaturePoint3(X, Y, Z))
        if cur[0] < 0.1 or abs(cur[2] / cur[0]) < 0.01:
            continue
        pairs.append(
            MatchedPair(
                NormalizedFeature(cur[1] / cur[0], cur[2] / cur[0]),
                NormalizedFeature(Y / X, Z / X),
                X,
            )
        )
    return g, pairs


def board_scene(phi, t_x, t_y, depth=3.0):
    """Matched pairs for a flat board: every feature at the same depth.

    This is the rank-deficient geometry of the default simulated object;
    the rotation normal matrix drops to rank one and the translation
    residual must disambiguate the two zero-cost rotations.
    """
    g = PlanarTransform(phi, t_x, t_y)
    board = [(depth, -0.5, 0.6), (depth, -0.5, -0.3), (depth, 0.0, 0.6),
             (depth, 0.0, -0.3), (depth, 0.5, 0.6), (depth, 0.5, -0.3)]
    pairs = []
    for X, Y, Z in board:
        cur = transform_point(g, FeaturePoint3(X, Y, Z))
        if cur[0] < 1e-6:
            raise ValueError("board behind camera; pick a smaller transform")
        pairs.append(
            MatchedPair(
                NormalizedFeature(cur[1] / cur[0], cur[2] / cur[0]),
                NormalizedFeature(Y / X, Z / X),
                X,
            )
        )
    return g, pairs


def grid_cost_min(pairs, n_grid=3600):
    """Brute-force minimum of the rotation cost over a uniform angle grid.

    Independent of the estimator internals: coefficients come straight from
    pair_coeffs and the cost is summed explicitly.
    """
    coeffs = []
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            c = pair_coeffs(pairs[i], pairs[j])
            coeffs.append((c.a, c.b, c.c))
    arr = np.asarray(coeffs)
    theta = np.linspace(-math.pi, math.pi, n_grid, endpoint=False)
    vals = (
        np.outer(np.sin(theta), arr[:, 0])
        + np.outer(np.cos(theta), arr[:, 1])
        + arr[:, 2]
    )
    costs = np.sum(vals * vals, axis=1)
    k = int(np.argmin(costs))
    return float(costs[k]), float(theta[k])


def rotation_cost_of(pairs, sin_theta, cos_theta):
    """Explicit rotation cost at one candidate, summed from pair_coeffs."""
    total = 0.0
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            c = pair_coeffs(pairs[i], pairs[j])
            r = c.a * sin_theta + c.b * cos_theta + c.c
            total += r * r
    return total


@pytest.fixture(scope="session")
def case_runs():
    """Ground-truth closed-loop logs for the four built-in cases."""
    return {name: run(sc) for name, sc in case_scenarios().items()}


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)
