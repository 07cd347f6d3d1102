"""Closed-form planar pose estimation from matched feature pairs."""

import copy
import dataclasses
import gc
import math
import pickle
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from servopark import pose_estimator
from servopark.closed_loop_sim import case_scenarios, generate_observations
from servopark.errors import (
    DegenerateGeometry,
    InsufficientFeatures,
    InvalidParams,
    NumericalFailure,
)
from servopark.geometry import (
    CameraIntrinsics,
    NormalizedFeature,
    relative_transform,
    wrap_angle,
)
from servopark.pose_estimator import (
    MAX_FEATURES,
    MatchedPair,
    NormalAccumulators,
    RotationEstimate,
    accumulate,
    estimate_pose,
    estimate_translation,
    quartic_coeffs,
    rotation_candidates,
    solve_quartic,
)

from conftest import board_scene, grid_cost_min, pair_coeffs, random_scene, rotation_cost_of

# The 160 px-focal camera of acceptance criterion 8: the default six-point
# board stays in view along the whole of every built-in case.
WIDE_CAMERA = CameraIntrinsics(160.0, 160.0, 400.0, 160.0, 800, 320, 0.1)
CASE1_STEPS = (0, 1000, 2000, 3000, 4000, 5250)


def _identity_pairs():
    return [
        MatchedPair(NormalizedFeature(0.1, 0.2), NormalizedFeature(0.1, 0.2), 3.0),
        MatchedPair(NormalizedFeature(-0.3, 0.25), NormalizedFeature(-0.3, 0.25), 2.0),
    ]


def _translation_terms(p, r):
    """Per-feature right-hand sides (d, e) of the translation least squares.

    The per-feature reference for the d_i and e_i that ``pose_estimator``'s
    ``_translation``, ``_residual`` and ``_gauss_newton_step`` evaluate: the
    same expressions, so the terms agree bit for bit.
    """
    x, xr, X, ratio = p.cur.x, p.ref.x, p.X_star, p.ref.y / p.cur.y
    s, c = r.sin_theta, r.cos_theta
    return (X * (ratio - (c - xr * s)), X * ((x - xr) * c - (x * xr + 1.0) * s))


def _pose_bits(est):
    """float.hex of (phi, t_x, t_y), (sin, cos, lam, residual) and the translation residual."""
    g, r = est.transform, est.rotation
    return (
        tuple(v.hex() for v in (g.phi, g.t_x, g.t_y)),
        tuple(v.hex() for v in (r.sin_theta, r.cos_theta, r.lam, r.residual)),
        est.translation_residual.hex(),
    )


def _case1_board_views(case_runs, noise_px=0.0):
    """Views of the default board along case1's ground-truth path, on the wide camera."""
    samples, _ = case_runs["case1"]
    sc = dataclasses.replace(
        case_scenarios()["case1"], intrinsics=WIDE_CAMERA, pixel_noise_sigma=noise_px, rng_seed=7
    )
    views = {}
    for k in CASE1_STEPS:
        g = relative_transform(samples[k].pose, sc.goal_pose)
        views[k] = generate_observations(g, sc, step=k)
    return views


def _sum_bits(acc):
    """float.hex of the six sums of an accumulate result."""
    return tuple(v.hex() for v in (acc.a1, acc.a2, acc.a3, acc.b1, acc.b2, acc.c_sq))


def _noisy(rng, pairs, sigma=1e-3):
    return [
        MatchedPair(
            NormalizedFeature(
                p.cur.x + float(rng.normal(0.0, sigma)), p.cur.y + float(rng.normal(0.0, sigma))
            ),
            p.ref,
            p.X_star,
        )
        for p in pairs
    ]


def _identity(rng, n):
    feats = [
        NormalizedFeature(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.05, 0.3)))
        for _ in range(n)
    ]
    return [MatchedPair(f, f, float(rng.uniform(2.0, 6.0))) for f in feats]


def _column(rng, n):
    """Features on one vertical line through the optical axis, under a forward move.

    Every feature keeps x = 0 in both views, so c vanishes for every pair
    and the a c and b c products are all zeros: the sums b1 and b2 must
    come out as +0.0, the loop's 0.0 - 0.0.
    """
    pairs = []
    t_x = float(rng.uniform(-1.0, 1.0))
    for _ in range(n):
        X = float(rng.uniform(2.5, 6.0))
        Z = float(rng.uniform(0.2, 0.9)) * (1.0 if rng.integers(0, 2) else -1.0)
        pairs.append(
            MatchedPair(NormalizedFeature(0.0, Z / (X + t_x)), NormalizedFeature(0.0, Z / X), X)
        )
    return pairs


def _shared_ref_x(rng, n):
    """Features that share one ref.x, each seen at its own cur.x."""
    return [
        MatchedPair(
            NormalizedFeature(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.05, 0.3))),
            NormalizedFeature(0.1, float(rng.uniform(0.05, 0.3))),
            float(rng.uniform(2.0, 6.0)),
        )
        for _ in range(n)
    ]


def _overflowing(rng, n):
    """Finite features seen near x = +-1e200: the pair products overflow to inf and nan."""
    return [
        MatchedPair(
            NormalizedFeature(
                float(rng.uniform(0.5, 1.5)) * (1e200 if k % 2 else -1e200),
                float(rng.uniform(0.05, 0.3)),
            ),
            NormalizedFeature(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.05, 0.3))),
            float(rng.uniform(2.0, 6.0)),
        )
        for k in range(n)
    ]


class TestMatchedPair:
    """Non-finite input is refused at the door, not mis-estimated later.

    Before the check, on a board view under PlanarTransform(0.1, 0.3, -0.2),
    an infinite cur.y gave phi = 0.0445, an infinite X_star gave t = inf,
    and a non-finite cur.x stalled the quartic.
    """

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cur.y", math.inf),
            ("cur.y", math.nan),
            ("X_star", math.inf),
            ("cur.x", math.nan),
            ("cur.x", math.inf),
            ("ref.x", -math.inf),
            ("ref.y", math.nan),
            ("cur.x", 10**400),  # an int beyond the float range
            ("X_star", 10**400),
        ],
        ids=["cur_y_inf", "cur_y_nan", "X_star_inf", "cur_x_nan", "cur_x_inf", "ref_x_minus_inf",
             "ref_y_nan", "cur_x_huge_int", "X_star_huge_int"],
    )
    def test_non_finite_refused(self, field, value):
        _, pairs = board_scene(0.1, 0.3, -0.2)
        p = pairs[0]
        parts = {"cur": p.cur, "ref": p.ref, "X_star": p.X_star}
        if field == "X_star":
            parts["X_star"] = value
        else:
            view, coord = field.split(".")
            parts[view] = dataclasses.replace(parts[view], **{coord: value})
        with pytest.raises(InvalidParams, match="finite"):
            MatchedPair(**parts)

    def test_keyword_construction(self):
        cur, ref = NormalizedFeature(0.1, 0.2), NormalizedFeature(0.15, 0.22)
        assert MatchedPair(cur=cur, ref=ref, X_star=3.0) == MatchedPair(cur, ref, 3.0)

    def test_views_are_derived(self):
        p = MatchedPair(NormalizedFeature(0.1, 0.2), NormalizedFeature(0.15, 0.22), 3.0)
        assert (p.x_cur, p.y_cur, p.x_ref, p.y_ref, p.X_star) == (0.1, 0.2, 0.15, 0.22, 3.0)
        assert p.cur == NormalizedFeature(0.1, 0.2)
        assert p.ref == NormalizedFeature(0.15, 0.22)

    def test_equality_and_hash_by_value(self):
        def build():
            return MatchedPair(NormalizedFeature(0.1, 0.2), NormalizedFeature(0.15, 0.22), 3.0)

        p, q = build(), build()
        assert p == q and hash(p) == hash(q)
        assert p != MatchedPair(NormalizedFeature(0.1, 0.2), NormalizedFeature(0.15, 0.22), 3.5)

    def test_equal_exactly_when_same_bits(self):
        def build(x_cur):
            return MatchedPair(NormalizedFeature(x_cur, 0.2), NormalizedFeature(0.15, 0.22), 3.0)

        assert build(0.0) == build(0.0) and hash(build(0.0)) == hash(build(0.0))
        # equal floats with different bits: the pairs differ
        assert build(0.0) != build(-0.0)
        assert math.copysign(1.0, build(-0.0).x_cur) == -1.0

    def test_int_values_read_back_as_float(self):
        p = MatchedPair(NormalizedFeature(1, 2), NormalizedFeature(1, 3), 3)
        values = (p.x_cur, p.y_cur, p.x_ref, p.y_ref, p.X_star)
        assert values == (1.0, 2.0, 1.0, 3.0, 3.0)
        assert {type(v) for v in values} == {float}

    def test_bytes_are_not_a_pair(self):
        p = MatchedPair(NormalizedFeature(0.1, 0.2), NormalizedFeature(0.15, 0.22), 3.0)
        with pytest.raises(TypeError):
            MatchedPair(bytes(p))
        with pytest.raises(TypeError):
            MatchedPair(b"\xff" * 40)

    def test_repr(self):
        p = MatchedPair(NormalizedFeature(0.1, 0.2), NormalizedFeature(0.15, 0.22), 3.0)
        text = "MatchedPair(x_cur=0.1, y_cur=0.2, x_ref=0.15, y_ref=0.22, X_star=3.0)"
        assert repr(p) == str(p) == text

    def test_pickle_and_copy_round_trip(self):
        p = MatchedPair(NormalizedFeature(0.1, -0.2), NormalizedFeature(0.15, 0.22), 3.0)
        copies = [pickle.loads(pickle.dumps(p, k)) for k in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(p), copy.deepcopy(p)]
        for q in copies:
            assert type(q) is MatchedPair and q == p

    def test_holds_no_float_object(self):
        p = MatchedPair(NormalizedFeature(0.1, 0.2), NormalizedFeature(0.15, 0.22), 3.0)
        assert not [r for r in gc.get_referents(p) if isinstance(r, float)]

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="object sizes of CPython 3.11")
    def test_at_most_96_bytes_a_pair(self):
        # fresh views and fresh values per pair, as generate_observations builds
        # them, so that the growth counts whatever the pair keeps of its values
        n = 100_000
        pairs = [None] * n
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(n):
                d = i * 1e-7
                pairs[i] = MatchedPair(
                    NormalizedFeature(0.1 + d, 0.2 + d), NormalizedFeature(0.15 + d, 0.22 + d), 3.0 + d
                )
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown // n <= 96  # the remainder is a few hundred bytes the trace itself holds


class TestPairCoeffs:
    def test_identity_example(self):
        p1, p2 = _identity_pairs()
        c = pair_coeffs(p1, p2)
        assert c.a == pytest.approx(0.0, abs=1e-15)
        assert c.b == pytest.approx(-0.8, abs=1e-15)
        assert c.c == pytest.approx(0.8, abs=1e-15)
        # consistent with zero rotation: a sin0 + b cos0 + c = 0
        assert c.b + c.c == pytest.approx(0.0, abs=1e-15)

    def test_coincident_features_vanish(self):
        p = MatchedPair(NormalizedFeature(0.1, 0.2), NormalizedFeature(0.15, 0.22), 3.0)
        c = pair_coeffs(p, p)
        assert (c.a, c.b, c.c) == (0.0, 0.0, 0.0)

    def test_constraint_at_true_angle(self, rng):
        for _ in range(50):
            g, pairs = random_scene(rng)
            s, c_ = math.sin(g.phi), math.cos(g.phi)
            for i in range(len(pairs)):
                for j in range(i + 1, len(pairs)):
                    coeff = pair_coeffs(pairs[i], pairs[j])
                    val = coeff.a * s + coeff.b * c_ + coeff.c
                    assert abs(val) < 1e-9


class TestAccumulate:
    def test_pair_counts(self):
        g, pairs = board_scene(0.1, 0.2, -0.1)
        assert accumulate(pairs[:2]).pairs == 1
        assert accumulate(pairs[:5]).pairs == 10

    def test_insufficient(self):
        p = _identity_pairs()[0]
        with pytest.raises(InsufficientFeatures):
            accumulate([p])

    def test_feature_cap(self):
        p = [
            MatchedPair(
                NormalizedFeature(0.01 * i, 0.2 + 0.001 * i),
                NormalizedFeature(0.01 * i, 0.2 + 0.001 * i),
                3.0,
            )
            for i in range(65)
        ]
        with pytest.raises(InvalidParams):
            accumulate(p)

    def test_matches_brute_force_bitwise(self, rng):
        scenes = [random_scene(rng)[1] for _ in range(20)]
        scenes.append(random_scene(rng, n_min=MAX_FEATURES, n_max=MAX_FEATURES)[1])
        for pairs in scenes:
            acc = accumulate(pairs)
            # same canonical enumeration order the implementation promises
            ordered = sorted(pairs, key=lambda p: (p.ref.x, p.ref.y, p.cur.x, p.cur.y, p.X_star))
            a1 = a2 = a3 = b1 = b2 = c_sq = 0.0
            n = 0
            for i in range(len(ordered)):
                for j in range(i + 1, len(ordered)):
                    c = pair_coeffs(ordered[i], ordered[j])
                    a1 += c.a * c.a
                    a2 += c.a * c.b
                    a3 += c.b * c.b
                    b1 += -c.a * c.c
                    b2 += -c.b * c.c
                    c_sq += c.c * c.c
                    n += 1
            # float.hex, so that 0.0 and -0.0 count as different
            assert _sum_bits(acc) == tuple(v.hex() for v in (a1, a2, a3, b1, b2, c_sq))
            assert acc.pairs == n

    def test_order_invariant_bitwise(self, rng):
        # one feature count on each side of the switch to the numpy sums
        for n in (pose_estimator._VECTOR_MIN - 1, MAX_FEATURES):
            g, pairs = random_scene(rng, n_min=n, n_max=n)
            base = accumulate(pairs)
            for seed in range(5):
                order = np.random.default_rng(seed).permutation(len(pairs))
                shuffled = [pairs[k] for k in order]
                again = accumulate(shuffled)
                assert again == base
                assert _sum_bits(again) == _sum_bits(base)


class TestVectorSums:
    """The numpy pair sums of ``accumulate`` against its loop, bit for bit."""

    SCENES = {
        "random": lambda rng, n: random_scene(rng, n, n)[1],
        "noisy": lambda rng, n: _noisy(rng, random_scene(rng, n, n)[1]),
        "one_depth_board": lambda rng, n: random_scene(rng, n, n, 0.5, 1.0, depth=3.0)[1],
        "identity": _identity,
        "column": _column,
        "shared_ref_x": _shared_ref_x,
        "overflowing": _overflowing,
    }

    @pytest.mark.parametrize("kind", sorted(SCENES))
    def test_paths_agree_bitwise(self, rng, monkeypatch, kind):
        for n in range(2, MAX_FEATURES + 1):
            pairs = self.SCENES[kind](rng, n)
            monkeypatch.setattr(pose_estimator, "_VECTOR_MIN", MAX_FEATURES + 1)
            loop = accumulate(pairs)
            monkeypatch.setattr(pose_estimator, "_VECTOR_MIN", 2)
            vector = accumulate(pairs)
            assert _sum_bits(vector) == _sum_bits(loop), n
            assert (vector.pairs, vector.rows) == (loop.pairs, loop.rows)
            sums = (vector.a1, vector.a2, vector.a3, vector.b1, vector.b2, vector.c_sq)
            assert all(type(v) is float for v in sums)


    def test_overflowing_scene_fails_alike_on_both_paths(self, rng, monkeypatch):
        # numpy must stay as silent as the loop, and the estimate fail the same way
        pairs = _overflowing(rng, 14)
        outcomes = []
        for vector_min in (MAX_FEATURES + 1, 2):
            monkeypatch.setattr(pose_estimator, "_VECTOR_MIN", vector_min)
            with pytest.raises(NumericalFailure) as failure:
                estimate_pose(pairs)
            outcomes.append((_sum_bits(accumulate(pairs)), str(failure.value)))
        assert outcomes[0] == outcomes[1]
        assert {"inf", "nan"} <= set(outcomes[0][0])


class TestQuarticCoeffs:
    def test_all_zero(self):
        acc = NormalAccumulators(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1)
        assert quartic_coeffs(acc) == (0.0, 0.0, 0.0, 0.0)

    def test_substitution_example(self):
        acc = NormalAccumulators(1.0, 0.0, 1.0, 1.0, 0.0, 2.0, 1)
        assert quartic_coeffs(acc) == (2.0, 5.0, 1.0, 0.0)

    def test_true_angle_yields_root(self, rng):
        # the multiplier solved jointly with the true rotation must be a
        # root of the quartic built from the same accumulators
        for _ in range(20):
            g, pairs = random_scene(rng)
            acc = accumulate(pairs)
            s, c_ = math.sin(g.phi), math.cos(g.phi)
            # stationarity: (M + lam I)(s, c) = b with M the normal matrix
            lam_s = (acc.b1 - acc.a1 * s - acc.a2 * c_) / s if abs(s) > 1e-6 else None
            lam_c = (acc.b2 - acc.a2 * s - acc.a3 * c_) / c_ if abs(c_) > 1e-6 else None
            lam = lam_s if lam_s is not None else lam_c
            roots = solve_quartic(*quartic_coeffs(acc))
            assert roots, "no real root for a realizable scene"
            assert min(abs(r - lam) for r in roots) < 1e-6 * max(1.0, abs(lam))


class TestSolveQuartic:
    def test_zero_polynomial_has_origin_root(self):
        assert solve_quartic(0.0, 0.0, 0.0, 0.0) == [0.0]

    def test_four_distinct_roots(self):
        # (x+2)(x+1)(x-1)(x-3) = x^4 - x^3 - 7x^2 + x + 6
        roots = solve_quartic(-0.5, -7.0, 0.5, 6.0)
        assert roots == pytest.approx([-2.0, -1.0, 1.0, 3.0], abs=1e-9)

    def test_no_real_roots(self):
        assert solve_quartic(0.0, 0.0, 0.0, 1.0) == []

    def test_biquadratic(self):
        roots = solve_quartic(0.0, -5.0, 0.0, 4.0)
        assert roots == pytest.approx([-2.0, -1.0, 1.0, 2.0], abs=1e-9)

    def test_double_roots(self):
        roots = solve_quartic(0.0, -2.0, 0.0, 1.0)
        assert roots == pytest.approx([-1.0, 1.0], abs=1e-7)

    def test_ascending_order(self, rng):
        for _ in range(50):
            c = rng.uniform(-10.0, 10.0, size=4)
            roots = solve_quartic(*c)
            assert roots == sorted(roots)

    def test_against_companion_matrix(self, rng):
        # cross-check real roots against numpy's eigenvalue solver on
        # well-separated cases (clustered roots are ill-posed for both)
        checked = 0
        for _ in range(300):
            c1, c2, c3, c4 = rng.uniform(-10.0, 10.0, size=4)
            ref = np.roots([1.0, 2.0 * c1, c2, 2.0 * c3, c4])
            if len(ref) and np.min(
                [abs(a - b) for k, a in enumerate(ref) for b in ref[k + 1:]] or [1.0]
            ) < 1e-3:
                continue
            real_ref = sorted(r.real for r in ref if abs(r.imag) < 1e-9 * max(1.0, abs(r)))
            got = solve_quartic(c1, c2, c3, c4)
            assert len(got) == len(real_ref)
            for a, b in zip(got, real_ref):
                assert a == pytest.approx(b, abs=1e-6, rel=1e-6)
            checked += 1
        assert checked > 200

    @pytest.mark.parametrize(
        "c",
        [
            # a noisy 24-feature scene's multiplier quartic: real roots -255.49
            # and -0.00976, and the pair -0.15590 +- 9.8e-6 i, which the shift
            # of ~64 makes look real to the factorization
            (127.90749816537783, 82.18686630876164, 3.4940586379379965, 0.06063427313881675),
            # the pair -1.52144 +- 1.6e-4 i: Newton from its vertex ends short
            # of the real root 0.10316, which another seed finds
            (1.452869698247281, 1.9009744035549847, -0.15339766610818764, 0.008115846069172343),
        ],
        ids=["shifted_pair", "stall_near_found_root"],
    )
    def test_near_real_complex_pair_dropped(self, c):
        ref = np.roots([1.0, 2.0 * c[0], c[1], 2.0 * c[2], c[3]])
        real_ref = sorted(r.real for r in ref if r.imag == 0.0)
        assert len(real_ref) == 2
        assert solve_quartic(*c) == pytest.approx(real_ref, rel=1e-12)

    def test_biquadratic_large_constant(self):
        # z = l^2 scales like sqrt|c4|, so the roots of z must not be clamped to 0
        assert solve_quartic(0.0, 0.0, 0.0, -1e30) == pytest.approx(
            [-(10.0 ** 7.5), 10.0 ** 7.5], rel=1e-15
        )

    @pytest.mark.parametrize("k", range(4))
    def test_nan_coefficient_raises(self, k):
        c = [-0.5, -7.0, 0.5, 6.0]
        c[k] = math.nan
        with pytest.raises(NumericalFailure):
            solve_quartic(*c)


class TestEstimateRotation:
    def test_identity_scene(self):
        acc = accumulate(_identity_pairs())
        r = rotation_candidates(acc)[0]
        assert r.sin_theta == pytest.approx(0.0, abs=1e-9)
        assert r.cos_theta == pytest.approx(1.0, abs=1e-9)

    def test_unit_circle_invariant(self, rng):
        for _ in range(50):
            g, pairs = random_scene(rng)
            r = rotation_candidates(accumulate(pairs))[0]
            assert r.sin_theta**2 + r.cos_theta**2 == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("phi", [0.3, -math.pi / 4.0, 0.0, 1.0])
    def test_synthetic_angle(self, phi):
        from servopark.geometry import FeaturePoint3, PlanarTransform, transform_point

        gt = PlanarTransform(phi, 0.4, -0.2)
        pts = [(3.0, 0.5, 0.6), (2.5, -0.8, -0.4), (4.0, 1.2, 0.9),
               (5.0, -1.5, 0.5), (3.5, 0.0, -0.7)]
        built = []
        for X, Y, Z in pts:
            cur = transform_point(gt, FeaturePoint3(X, Y, Z))
            built.append(
                MatchedPair(
                    NormalizedFeature(cur[1] / cur[0], cur[2] / cur[0]),
                    NormalizedFeature(Y / X, Z / X),
                    X,
                )
            )
        r = rotation_candidates(accumulate(built))[0]
        assert r.sin_theta == pytest.approx(math.sin(phi), abs=1e-9)
        assert r.cos_theta == pytest.approx(math.cos(phi), abs=1e-9)

    def test_grid_optimality(self, rng):
        for _ in range(30):
            g, pairs = random_scene(rng)
            r = rotation_candidates(accumulate(pairs))[0]
            mine = rotation_cost_of(pairs, r.sin_theta, r.cos_theta)
            best, _ = grid_cost_min(pairs)
            assert mine <= best + 1e-12

    def test_tangent_well_regression(self):
        # near-goal flat-board accumulators whose two zero-cost rotations
        # sit 7e-6 apart; the eigen-path must keep both, not the saddle
        acc = NormalAccumulators(
            0.1367468143974216,
            -0.5882731734922616,
            2.5307011953119525,
            -0.603957794794938,
            2.5981751031277076,
            2.6674480096732855,
            15,
        )
        true_phi = -0.22839474653787772
        cands = rotation_candidates(acc)
        err = min(
            abs(wrap_angle(math.atan2(c.sin_theta, c.cos_theta) - true_phi))
            for c in cands
        )
        assert err < 1e-6


    @pytest.mark.parametrize(
        "b, best", [((0.0, 0.0), (0.0, 1.0)), ((6e-13, 8e-13), (0.6, 0.8))], ids=["zero", "along_b"]
    )
    def test_every_direction_stationary(self, b, best):
        # M = 1e3 I with lam = -1e3 leaves the system 0 = b: the cost is
        # linear in the rotation there, least along b (any unit vector if b = 0)
        r = rotation_candidates(NormalAccumulators(1e3, 0.0, 1e3, *b, 0.0, 3))[0]
        assert (r.sin_theta, r.cos_theta) == best

    def test_polish_keeps_its_input_on_a_non_finite_step(self):
        # the gradient overflows to -inf while the curvature stays finite and
        # above its floor, so the first Newton step is -inf: the guard stops
        acc = NormalAccumulators(0.0, 0.0, 0.0, 1e308, -1e308, 0.0, 1)
        assert pose_estimator._polish_on_circle(acc, 0.6, 0.8) == (0.6, 0.8)


class TestTranslation:
    def test_no_features(self):
        with pytest.raises(InsufficientFeatures):
            estimate_translation([], RotationEstimate(0.0, 1.0, 0.0, 0.0))

    def test_terms_identity(self):
        p = _identity_pairs()[0]
        r = RotationEstimate(0.0, 1.0, 0.0, 0.0)
        assert _translation_terms(p, r) == (0.0, 0.0)

    def test_terms_scale_with_depth(self):
        r = RotationEstimate(math.sin(0.2), math.cos(0.2), 0.0, 0.0)
        p1 = MatchedPair(NormalizedFeature(0.15, 0.25), NormalizedFeature(0.1, 0.2), 3.0)
        p2 = MatchedPair(NormalizedFeature(0.15, 0.25), NormalizedFeature(0.1, 0.2), 6.0)
        d1, e1 = _translation_terms(p1, r)
        d2, e2 = _translation_terms(p2, r)
        assert d2 == pytest.approx(2.0 * d1, rel=1e-12)
        assert e2 == pytest.approx(2.0 * e1, rel=1e-12)

    def test_synthetic_translation(self, rng):
        for _ in range(30):
            g, pairs = random_scene(rng)
            r = rotation_candidates(accumulate(pairs))[0]
            t_x, t_y = estimate_translation(pairs, r)
            assert t_x == pytest.approx(g.t_x, abs=1e-8)
            assert t_y == pytest.approx(g.t_y, abs=1e-8)


class TestEstimatePose:
    def test_identity(self):
        est = estimate_pose(_identity_pairs())
        assert est.transform.phi == pytest.approx(0.0, abs=1e-9)
        assert est.transform.t_x == pytest.approx(0.0, abs=1e-9)
        assert est.transform.t_y == pytest.approx(0.0, abs=1e-9)

    def test_round_trip(self, rng):
        worst_ang = worst_trans = 0.0
        for _ in range(200):
            g, pairs = random_scene(rng)
            est = estimate_pose(pairs)
            worst_ang = max(worst_ang, abs(wrap_angle(est.transform.phi - g.phi)))
            worst_trans = max(
                worst_trans,
                math.hypot(est.transform.t_x - g.t_x, est.transform.t_y - g.t_y),
            )
        assert worst_ang < 1e-9
        assert worst_trans < 1e-9

    def test_flat_board_disambiguation(self):
        # rank-one rotation system: two rotations fit the pair constraints
        # exactly and only the translation residual separates them
        g, pairs = board_scene(0.35, 0.4, -0.3)
        cands = rotation_candidates(accumulate(pairs))
        zero_cost = [c for c in cands if c.residual < 1e-9]
        assert len(zero_cost) >= 2
        spread = max(
            abs(wrap_angle(math.atan2(a.sin_theta, a.cos_theta)
                           - math.atan2(b.sin_theta, b.cos_theta)))
            for a in zero_cost
            for b in zero_cost
        )
        assert spread > 0.1  # genuinely distinct rotations
        est = estimate_pose(pairs)
        assert wrap_angle(est.transform.phi - g.phi) == pytest.approx(0.0, abs=1e-9)
        assert est.transform.t_x == pytest.approx(g.t_x, abs=1e-8)
        assert est.transform.t_y == pytest.approx(g.t_y, abs=1e-8)

    def test_flat_board_near_identity_exact(self):
        # near the goal the two zero-cost board rotations merge tangentially
        # and the closed-form angle alone carries ~1e-8 rad of rounding
        # jitter; the joint Gauss-Newton step must bring it to rounding level
        worst = 0.0
        for phi in np.linspace(-2e-3, 1e-2, 61):
            for t_x, t_y in ((0.0, 0.0), (1e-4, -1e-4), (-3e-3, 2e-3), (2e-2, 1e-2)):
                g, pairs = board_scene(float(phi), t_x, t_y)
                est = estimate_pose(pairs)
                worst = max(worst, abs(wrap_angle(est.transform.phi - g.phi)))
        assert worst <= 1e-12

    def test_noisy_board_polish_keeps_rotation_fit(self, rng):
        # under pixel noise the per-feature least-squares optimum is a worse
        # estimate than the closed-form one; the polish may not trade the
        # rotation-constraint fit of the seed for per-feature fit
        for _ in range(50):
            g, pairs = board_scene(
                float(rng.uniform(-0.3, 0.3)), float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
            )
            noisy = [
                MatchedPair(
                    NormalizedFeature(p.cur.x + float(rng.normal(0, 2e-3)),
                                      p.cur.y + float(rng.normal(0, 2e-3))),
                    p.ref,
                    p.X_star,
                )
                for p in pairs
            ]
            est = estimate_pose(noisy)
            seed_cost = rotation_cost_of(noisy, est.rotation.sin_theta, est.rotation.cos_theta)
            phi = est.transform.phi
            assert rotation_cost_of(noisy, math.sin(phi), math.cos(phi)) <= seed_cost + 1e-12

    def test_stacked_features_rejected(self):
        same = [MatchedPair(NormalizedFeature(0.1, 0.2), NormalizedFeature(0.1, 0.2), 3.0)] * 4
        with pytest.raises(DegenerateGeometry):
            estimate_pose(same)

    def test_singular_translation_reported_as_itself(self):
        # den = n * sum(1 + x^2) - (sum x)^2 rounds to 0 at |x| = 1e8, for
        # every rotation candidate alike, since it depends on the features only
        refs = [(0.1, 0.2, 3.0), (-0.2, -0.3, 2.0), (0.3, 0.25, 4.0)]
        pairs = [
            MatchedPair(NormalizedFeature(1e8, y), NormalizedFeature(x, y), X) for x, y, X in refs
        ]
        with pytest.raises(DegenerateGeometry, match="translation normal equations are singular"):
            estimate_pose(pairs)

    def test_pair_order_invariant_bitwise(self, rng):
        g, pairs = random_scene(rng, n_min=10, n_max=10)
        base = estimate_pose(pairs)
        for seed in range(4):
            order = np.random.default_rng(seed).permutation(len(pairs))
            est = estimate_pose([pairs[k] for k in order])
            assert est.transform.phi == base.transform.phi
            assert est.transform.t_x == base.transform.t_x
            assert est.transform.t_y == base.transform.t_y

    # float.hex of (phi, t_x, t_y), (sin, cos, lam, residual) and the
    # translation residual, recorded before the pair loops were flattened;
    # the scenes come from the conftest builders with fixed seeds
    GOLDEN = {
        "board_near_identity": (
            ("0x1.0624dd2f1ab7dp-9", "0x1.a36e2eb1c4dc2p-14", "-0x1.a36e2eb1ccb72p-14"),
            ("0x1.0624d1c83cdd7p-9", "0x1.ffffbce422edbp-1", "-0x1.893b2ddcc9af7p-32",
             "-0x1.0000000000000p-49"),
            "0x1.978c9be800000p-102",
        ),
        "generic_4": (
            ("-0x1.8e4ba0d8d2ff7p-1", "-0x1.7a9ba99f93e6cp-9", "0x1.9fbcbde970c67p-2"),
            ("-0x1.67524b60a13dfp-1", "0x1.6cbc52d8e77bap-1", "0x1.75847c10416d0p-44",
             "0x0.0p+0"),
            "0x1.91e8100000000p-101",
        ),
        "generic_24": (
            ("-0x1.0b32cfb2621d0p-1", "0x1.c9799a7be4564p+0", "-0x1.3e22cc0fbe091p+0"),
            ("-0x1.fe77cb5300b0ep-2", "0x1.bbd8ad17b93bap-1", "-0x1.466e47a0bc228p-43",
             "0x1.0000000000000p-39"),
            "0x1.6a00000000000p-96",
        ),
        "noisy_12": (
            ("0x1.842313d1af2e7p-1", "0x1.6759a571f2b9ap+0", "0x1.44fefbb7d9a13p+0"),
            ("0x1.6003bee90a973p-1", "0x1.73cae47278f03p-1", "-0x1.a9d96399ff93bp-3",
             "0x1.29d741ca60000p-9"),
            "0x1.8e7c55850b227p-5",
        ),
    }

    @staticmethod
    def _golden_scenes():
        noise = np.random.default_rng(14)
        sigma = 0.5 / 460.0  # 0.5 px on a 460 px focal length
        _, base = random_scene(np.random.default_rng(13), n_min=12, n_max=12)
        noisy = [
            MatchedPair(
                NormalizedFeature(p.cur.x + float(noise.normal(0.0, sigma)),
                                  p.cur.y + float(noise.normal(0.0, sigma))),
                p.ref,
                p.X_star,
            )
            for p in base
        ]
        return {
            "board_near_identity": board_scene(2e-3, 1e-4, -1e-4)[1],
            "generic_4": random_scene(np.random.default_rng(11), n_min=4, n_max=4)[1],
            "generic_24": random_scene(np.random.default_rng(12), n_min=24, n_max=24)[1],
            "noisy_12": noisy,
        }

    def test_recorded_bits(self):
        refused = 0
        for name, pairs in self._golden_scenes().items():
            est = estimate_pose(pairs)
            g, r = est.transform, est.rotation
            assert _pose_bits(est) == self.GOLDEN[name], name
            if g.phi == math.atan2(r.sin_theta, r.cos_theta):
                # a refused polish returns the seed's own least-squares translation
                assert estimate_translation(pairs, r) == (g.t_x, g.t_y), name
                refused += 1
        assert refused >= 1  # the noisy scene exercises the refusal

    # The same bits on the one-depth board seen at range, where the estimated
    # closed loop spends its time: views of the default board along case1's
    # ground-truth path through the wide camera, noise-free and at 0.5 px
    # (rng_seed 7), plus a 2-feature and a MAX_FEATURES scene.
    BOARD_GOLDEN = {
        "case1_0": (
            ("-0x1.0c152382d72eap-1", "0x1.b520cd1372fd1p+2", "0x1.d483344dcbf0dp+0"),
            ("-0x1.fffffffffff7fp-2", "0x1.bb67ae8584cd0p-1", "-0x1.20ee4b71ecfdap-51",
             "0x1.8000000000000p-48"),
            "0x1.6be0000000000p-91",
        ),
        "case1_1000": (
            ("-0x1.07c1aa623f055p+0", "0x1.9831a78c56d7dp-2", "0x1.a7352a0484764p-8"),
            ("-0x1.b7040ddb24df2p-1", "0x1.0774c053470cbp-1", "0x1.2dc262f226e6bp-51",
             "0x1.0000000000000p-49"),
            "0x1.6ad3000000000p-99",
        ),
        "case1_2000": (
            ("-0x1.e7ec8e35eedb2p-2", "-0x1.7eb2519d9fadfp-5", "0x1.2a1014d7e527bp-8"),
            ("-0x1.d5ab5c04ad0d4p-2", "0x1.c6f807ad0fd21p-1", "0x1.098d60adaed0fp-35",
             "0x0.0p+0"),
            "0x1.5c38c00000000p-101",
        ),
        "case1_3000": (
            ("-0x1.66d09bd729e49p-3", "0x1.2aaf701f0fd3ep-9", "-0x1.ff5ff1363f2f4p-14"),
            ("-0x1.64fb6456784f2p-3", "0x1.f8297388dc54ap-1", "-0x1.7ffffffb6a126p-57",
             "0x1.0000000000000p-51"),
            "0x1.12423f1120000p-96",
        ),
        "case1_4000": (
            ("-0x1.07de82719cc76p-4", "-0x1.5a9bfda91c0f4p-15", "0x1.23daa242e78b1p-19"),
            ("-0x1.07afcb0592bc5p-4", "0x1.fef01d239d714p-1", "0x1.f9fffffff79fdp-50",
             "0x1.0000000000000p-51"),
            "0x1.a622129425c00p-98",
        ),
        "case1_5250": (
            ("-0x1.97fdbd1000000p-52", "-0x1.5982f3a991cf1p-52", "-0x1.2c1152ca91ee3p-25"),
            ("-0x1.901858d78094cp-28", "0x1.0000000000000p+0", "-0x1.a0ab1e4f17cb0p-36",
             "0x0.0p+0"),
            "0x1.cc73cd9c443fep-101",
        ),
        "case1_noisy_0": (
            ("0x1.34bd94bedb01ep-3", "0x1.b2cf505f06e54p+2", "-0x1.f4a9b117f1e50p-4"),
            ("0x1.33928cca14de7p-3", "0x1.fa316ea2bf6f0p-1", "-0x1.df64444f271abp-2",
             "0x1.feeee087b1000p-6"),
            "0x1.217204086cff6p+1",
        ),
        "case1_noisy_1000": (
            ("-0x1.d7f97240efb24p-1", "0x1.d805bd5211bacp-4", "-0x1.4f64e7ec573b2p-3"),
            ("-0x1.97e9d67a1b64fp-1", "0x1.356f9d511dca5p-1", "-0x1.927ae73fa4012p-13",
             "0x1.417301f400000p-20"),
            "0x1.2926dcb49f488p-8",
        ),
        "case1_noisy_2000": (
            ("-0x1.eb0fa140fd71ap-2", "-0x1.a94ed9242799ep-5", "0x1.532b508c76414p-6"),
            ("-0x1.d8746a37d5cdfp-2", "0x1.c63f5067ae813p-1", "0x1.dc18d0fafdcb6p-14",
             "0x1.4c4cea7000000p-23"),
            "0x1.a8a35f9b9dce0p-7",
        ),
        "case1_noisy_3000": (
            ("-0x1.67a304be42314p-3", "-0x1.0494a372bf127p-4", "0x1.beb60c69bad5bp-7"),
            ("-0x1.65ca92c03be6cp-3", "0x1.f820459bafff7p-1", "0x1.f6492c9200667p-12",
             "0x1.75ee004800000p-21"),
            "0x1.9b90474792162p-6",
        ),
        "case1_noisy_4000": (
            ("-0x1.fb7a66d0326c8p-5", "0x1.26e08ad154944p-6", "-0x1.f7ddfe366c4cfp-7"),
            ("-0x1.fb27534377064p-5", "0x1.ff049512d3a3bp-1", "0x1.f7b084ec782b0p-16",
             "0x1.89f01eb200000p-20"),
            "0x1.2ef6ac8846ba9p-4",
        ),
        "case1_noisy_5250": (
            ("-0x1.f83842c028ff6p-14", "-0x1.46f5787458366p-6", "-0x1.0e9cf6ec57383p-11"),
            ("-0x1.f83842abc8de2p-14", "0x1.ffffffc1ee26dp-1", "0x1.52858acab572fp-14",
             "0x1.460b5e8000000p-26"),
            "0x1.6c1bb7685c1f0p-7",
        ),
        "generic_2": (
            ("0x1.9d5e7d9e003f4p-2", "0x1.43658f92d27dbp+0", "-0x1.3ea7ab7610f91p-1"),
            ("0x1.923bb62a551b5p-2", "0x1.d6d89dbd3aed6p-1", "0x1.5cfd6bc0306cap-57",
             "-0x1.0000000000000p-54"),
            "0x1.6000000000000p-102",
        ),
        "generic_64": (
            ("0x1.1f071ecb05bafp-3", "-0x1.1bac06e2d1a95p-2", "-0x1.9fab1c70eebc4p+0"),
            ("0x1.1e16cf1876b92p-3", "0x1.fafad7304561bp-1", "-0x1.239248dcc82b8p-38",
             "-0x1.0000000000000p-38"),
            "0x1.8dd8000000000p-95",
        ),
    }

    def test_recorded_board_bits(self, case_runs):
        scenes = {}
        for tag, noise_px in (("case1", 0.0), ("case1_noisy", 0.5)):
            for k, pairs in _case1_board_views(case_runs, noise_px).items():
                assert len(pairs) == 6
                scenes[f"{tag}_{k}"] = pairs
        scenes["generic_2"] = random_scene(np.random.default_rng(15), n_min=2, n_max=2)[1]
        scenes[f"generic_{MAX_FEATURES}"] = random_scene(
            np.random.default_rng(16), n_min=MAX_FEATURES, n_max=MAX_FEATURES
        )[1]
        assert scenes.keys() == self.BOARD_GOLDEN.keys()
        refused = 0
        for name, pairs in scenes.items():
            est = estimate_pose(pairs)
            assert _pose_bits(est) == self.BOARD_GOLDEN[name], name
            g, r = est.transform, est.rotation
            if g.phi == math.atan2(r.sin_theta, r.cos_theta):
                assert estimate_translation(pairs, r) == (g.t_x, g.t_y), name
                refused += 1
        assert refused == 6  # every noisy view refuses the polish, no noise-free one does

    def test_residuals_reported(self, rng):
        g, pairs = random_scene(rng)
        est = estimate_pose(pairs)
        assert est.rotation.residual >= 0.0
        assert est.translation_residual >= 0.0
        assert est.rotation.residual < 1e-12


def _key_every_candidate(pairs):
    """Reference seed selection: every rotation candidate through the translation stage.

    Returns (rotation, (t_x, t_y), translation residual) of the candidate
    with the least (rotation cost + translation residual, angle) key,
    summed in the estimator's canonical feature order.
    """
    ordered = sorted(pairs, key=lambda p: (p.ref.x, p.ref.y, p.cur.x, p.cur.y, p.X_star))
    best = best_key = None
    for rot in rotation_candidates(accumulate(pairs)):
        try:
            t_x, t_y = estimate_translation(pairs, rot)
        except DegenerateGeometry:
            continue
        resid = 0.0
        for p in ordered:
            d, e = _translation_terms(p, rot)
            resid += (d - t_x) ** 2 + (e + p.cur.x * t_x - t_y) ** 2
        key = (rot.residual + resid, math.atan2(rot.sin_theta, rot.cos_theta))
        if best_key is None or key < best_key:
            best_key, best = key, (rot, (t_x, t_y), resid)
    return best


class TestSeedSelection:
    """estimate_pose keys only the candidates that can win; the winner must not change."""

    @staticmethod
    def _assert_same_seed(pairs):
        est = estimate_pose(pairs)
        rot, t, resid = _key_every_candidate(pairs)
        assert est.rotation == rot
        g = est.transform
        if g.phi == math.atan2(rot.sin_theta, rot.cos_theta):  # the polish was refused
            assert (g.t_x, g.t_y) == t
            assert est.translation_residual == resid
        return est

    def test_random_scenes(self, rng):
        for _ in range(60):
            self._assert_same_seed(random_scene(rng, n_min=3, n_max=24)[1])

    def test_board_views(self, case_runs, rng):
        for noise_px in (0.0, 0.5):
            for pairs in _case1_board_views(case_runs, noise_px).values():
                self._assert_same_seed(pairs)
        for _ in range(30):
            pairs = board_scene(
                float(rng.uniform(-0.4, 0.4)), float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
            )[1]
            self._assert_same_seed(pairs)

    def test_zero_cost_tie_on_one_depth_board(self):
        # two rotations fit every pair constraint exactly; only the
        # translation residual can tell them apart
        g, pairs = board_scene(0.35, 0.4, -0.3)
        cands = rotation_candidates(accumulate(pairs))
        assert sum(c.residual < 1e-9 for c in cands) >= 2
        est = self._assert_same_seed(pairs)
        assert wrap_angle(est.transform.phi - g.phi) == pytest.approx(0.0, abs=1e-9)


class TestCallShapes:
    # bench/tracing.py wraps these names in the pose_estimator namespace; an
    # estimate that reaches a stage by another route would drop its metric
    # (accumulate_us, pairs_per_call, candidates_per_call, ...).
    TRACED = ("estimate_pose", "accumulate", "rotation_candidates", "solve_quartic")

    def test_one_call_per_stage(self, monkeypatch, rng):
        calls = dict.fromkeys(self.TRACED, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in self.TRACED:
            monkeypatch.setattr(pose_estimator, name, counting(name, getattr(pose_estimator, name)))
        scenes = [random_scene(rng)[1] for _ in range(10)]
        scenes += [board_scene(phi, 0.3, -0.2)[1] for phi in (0.0, 0.2, 0.35)]
        for pairs in scenes:
            pose_estimator.estimate_pose(pairs)
        assert calls["estimate_pose"] == len(scenes)
        assert calls["accumulate"] == calls["estimate_pose"]
        assert calls["rotation_candidates"] == calls["estimate_pose"]
        assert calls["solve_quartic"] == calls["rotation_candidates"]
