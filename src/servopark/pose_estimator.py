"""Closed-form planar pose recovery from matched normalized features.

Every unordered pair of matched features with known reference depths yields
one linear constraint a sin(theta) + b cos(theta) + c = 0 on the rotation.
Stacking the constraints and minimizing the squared residual subject to
sin^2 + cos^2 = 1 gives a Lagrange stationarity system

    (M + lambda I) w = b,    M = [[a1, a2], [a2, a3]],  w = (sin, cos),

whose multiplier lambda solves a quartic.  The translation then follows from
an unconstrained linear least squares with a closed-form solution.

The whole pipeline is deterministic: pairs are put into a canonical order
before any summation, so permuting the input list cannot change a single
bit of the output.  Each call unpacks every pair once, in that order, into
a plain tuple (x, y, x_ref, y_ref, X_star, y_ref / y): ``accumulate`` sums
over those tuples and hands them on with its sums, so the translation
stage of ``estimate_pose`` runs over the same tuples.  ``accumulate`` sums
with an inlined loop below ``_VECTOR_MIN`` features and with numpy from
there on; both reproduce, bit for bit, the per-pair coefficient reference
kept in tests/conftest.py.  ``_translation`` inlines the per-feature
expressions of ``_terms``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache
from itertools import chain

import numpy as np

from .errors import (
    DegenerateFeature,
    DegenerateGeometry,
    InsufficientFeatures,
    InvalidParams,
    NumericalFailure,
)
from .geometry import Y_TOL, NormalizedFeature, PlanarTransform, cbrt_signed

MAX_FEATURES = 64  # reject rather than silently subsample
# from this many features accumulate sums with numpy; below it numpy's fixed
# cost of 20-30 us a call loses to the loop (per-n timings in CHANGES.md)
_VECTOR_MIN = 14


@dataclass(frozen=True, slots=True)
class MatchedPair:
    """One feature correspondence: current view, reference view, reference depth.

    A dataclass: its ``__post_init__`` is the one admission check for a feature.
    """

    cur: NormalizedFeature
    ref: NormalizedFeature
    X_star: float

    def __post_init__(self) -> None:
        cur, ref = self.cur, self.ref
        if not (
            math.isfinite(cur.x)
            and math.isfinite(cur.y)
            and math.isfinite(ref.x)
            and math.isfinite(ref.y)
        ):
            raise InvalidParams("normalized coordinates must be finite")
        if abs(cur.y) < Y_TOL or abs(ref.y) < Y_TOL:
            raise DegenerateFeature("vertical normalized coordinate too close to zero")
        if not 0.0 < self.X_star < math.inf:
            raise InvalidParams("reference depth must be positive and finite")


# One matched pair, unpacked: (x, y, x_ref, y_ref, X_star, y_ref / y).
_Row = tuple[float, float, float, float, float, float]


@dataclass(frozen=True, slots=True)
class NormalAccumulators:
    """Sums of pair-constraint products over all unordered pairs.

    a1 = sum a^2, a2 = sum ab, a3 = sum b^2, b1 = -sum ac, b2 = -sum bc.
    c_sq = sum c^2 is carried so the rotation cost can be evaluated from the
    accumulators alone.  ``rows`` are the features the sums ran over, in
    canonical order, for the translation stage.  A dataclass, so that
    ``rows`` can stay out of equality and repr.
    """

    a1: float
    a2: float
    a3: float
    b1: float
    b2: float
    c_sq: float
    pairs: int
    rows: Sequence[_Row] = field(default=(), compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class RotationEstimate:
    """A dataclass: bench/tests builds variants with ``dataclasses.replace``."""

    sin_theta: float
    cos_theta: float
    lam: float
    residual: float


@dataclass(frozen=True, slots=True)
class PlanarTransformEstimate:
    """A dataclass: bench/tests builds variants with ``dataclasses.replace``."""

    transform: PlanarTransform
    rotation: RotationEstimate
    translation_residual: float


def _rows(pairs: list[MatchedPair]) -> list[_Row]:
    # fixed summation order makes the estimate permutation-invariant bit for bit
    ordered = sorted(pairs, key=lambda p: (p.ref.x, p.ref.y, p.cur.x, p.cur.y, p.X_star))
    return [(p.cur.x, p.cur.y, p.ref.x, p.ref.y, p.X_star, p.ref.y / p.cur.y) for p in ordered]


def accumulate(pairs: list[MatchedPair]) -> NormalAccumulators:
    """Accumulate the normal sums over all unordered pairs in canonical order."""
    if len(pairs) > MAX_FEATURES:
        raise InvalidParams(f"more than {MAX_FEATURES} features; refusing to subsample")
    if len(pairs) < 2:
        raise InsufficientFeatures("at least two matched features are required")
    rows = _rows(pairs)
    n_pairs = len(rows) * (len(rows) - 1) // 2
    if len(rows) >= _VECTOR_MIN:
        return NormalAccumulators(*_vector_sums(rows), n_pairs, rows)
    a1 = a2 = a3 = b1 = b2 = c_sq = 0.0
    for i, (xi, yi, xi_r, yi_r, _, ri) in enumerate(rows):
        for xj, yj, xj_r, yj_r, _, rj in rows[i + 1:]:
            # the per-pair reference of tests/conftest.py, inlined: same expressions, same order
            a = ri * (xi * xj_r + 1.0) - rj * (xi_r * xj + 1.0)
            b = ri * (xj_r - xi) - rj * (xi_r - xj)
            c = (yi_r * yj_r) / (yi * yj) * (xi - xj) + (xi_r - xj_r)
            a1 += a * a
            a2 += a * b
            a3 += b * b
            b1 -= a * c
            b2 -= b * c
            c_sq += c * c
    return NormalAccumulators(a1, a2, a3, b1, b2, c_sq, n_pairs, rows)


@cache
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row indices (i, j) of every pair i < j of n rows, in the loop's order."""
    return np.triu_indices(n, 1)


def _vector_sums(rows: list[_Row]) -> list[float]:
    """The six sums of the loop in ``accumulate``, from numpy, bit for bit.

    a, b and c are the loop's expressions, evaluated for all pairs at once.
    Each sum is the last entry of a cumulative sum along one row that starts
    at 0.0, and the a c and b c rows hold negated products: these are the
    loop's additions, in its order and from its start, so signed zeros agree
    too.  np.sum sums pairwise and would change bits.
    """
    n = len(rows)
    m = np.fromiter(chain.from_iterable(rows), float, 6 * n).reshape(n, 6).T
    i, j = _pair_index(n)
    xi, yi, xi_r, yi_r, _, ri = m.take(i, axis=1)
    xj, yj, xj_r, yj_r, _, rj = m.take(j, axis=1)
    a = ri * (xi * xj_r + 1.0) - rj * (xi_r * xj + 1.0)
    b = ri * (xj_r - xi) - rj * (xi_r - xj)
    c = (yi_r * yj_r) / (yi * yj) * (xi - xj) + (xi_r - xj_r)
    terms = np.zeros((6, len(i) + 1))
    terms[:, 1:] = (a * a, a * b, b * b, -a * c, -b * c, c * c)
    return np.cumsum(terms, axis=1)[:, -1].tolist()


def quartic_coeffs(acc: NormalAccumulators) -> tuple[float, float, float, float]:
    """Coefficients (c1..c4) of the multiplier quartic l^4 + 2 c1 l^3 + c2 l^2 + 2 c3 l + c4."""
    tr = acc.a1 + acc.a3
    det = acc.a1 * acc.a3 - acc.a2 * acc.a2
    c1 = tr
    c2 = tr * tr - acc.b1 * acc.b1 - acc.b2 * acc.b2 + 2.0 * det
    c3 = (
        tr * det
        + 2.0 * acc.a2 * acc.b1 * acc.b2
        - acc.a3 * acc.b1 * acc.b1
        - acc.a1 * acc.b2 * acc.b2
    )
    c4 = (
        det * det
        - (acc.a3 * acc.b1 - acc.a2 * acc.b2) ** 2
        - (acc.a1 * acc.b2 - acc.a2 * acc.b1) ** 2
    )
    return (c1, c2, c3, c4)


def _real_cubic_roots(b: float, c: float, d: float) -> list[float]:
    """Real roots of m^3 + b m^2 + c m + d."""
    # depress: m = t - b/3
    p = c - b * b / 3.0
    q = d - b * c / 3.0 + 2.0 * b ** 3 / 27.0
    shift = -b / 3.0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc > 0.0:
        s = math.sqrt(disc)
        t = cbrt_signed(-q / 2.0 + s) + cbrt_signed(-q / 2.0 - s)
        return [t + shift]
    if p == 0.0 and q == 0.0:
        return [shift]
    # three real roots: trigonometric form
    r = math.sqrt(-p / 3.0)
    arg = max(-1.0, min(1.0, 3.0 * q / (2.0 * p * r)))
    ang = math.acos(arg) / 3.0
    return [2.0 * r * math.cos(ang - 2.0 * math.pi * k / 3.0) + shift for k in range(3)]


def _quadratic_roots(b: float, c: float) -> list[float]:
    """Real roots of y^2 + b y + c, clamping marginally negative discriminants.

    A double root computed through upstream cancellation can surface with a
    discriminant several orders below zero.  Down to -1e-7 relative, the
    vertex -b/2 is returned alone; callers must be able to reject a vertex
    that turns out not to be a root.
    """
    disc = b * b - 4.0 * c
    scale = max(1.0, b * b, abs(c))
    if disc < -1e-12 * scale:
        return [-b / 2.0] if disc >= -1e-7 * scale else []
    if disc < 0.0:
        disc = 0.0
    s = math.sqrt(disc)
    # subtract-free form to avoid cancellation on the small root
    if b >= 0.0:
        r1 = (-b - s) / 2.0
    else:
        r1 = (-b + s) / 2.0
    if r1 == 0.0:
        return [0.0]  # r1 == 0 only when s == 0, that is disc == 0
    r2 = c / r1
    return [r1] if disc == 0.0 else [r1, r2]


def solve_quartic(c1: float, c2: float, c3: float, c4: float) -> list[float]:
    """All real roots of l^4 + 2 c1 l^3 + c2 l^2 + 2 c3 l + c4, ascending.

    Resolvent-cubic factorization into two quadratics, then a guarded Newton
    polish on the original quartic.  Each returned root satisfies
    |p(l)| < 1e-9 * max(1, |c4|, terms of p at l).  The per-root terms enter
    the bar because evaluating a quartic at a root of magnitude L carries a
    rounding floor near eps * L^4, which exceeds any fixed absolute tolerance
    once L is large; a root is accepted when its residual is small relative
    to that floor (backward stability), which reduces to the absolute bar
    for small roots.

    Seeds come from the factorization, including the vertex of a quadratic
    factor whose discriminant is marginally negative, and a seed from a
    non-negative discriminant need not be a real root: under a large shift
    a near-real complex pair can surface with a small positive one.  So a
    polished point that misses the bar is judged by the sign of p at
    l -+ h, h = 1e-5 * max(1, |l|).  A sign change (or a NaN) with no
    accepted root within h means a real root was missed, and
    NumericalFailure is raised.  Otherwise the point is dropped: it is the
    near-real vertex of a complex pair, or a Newton run from such a vertex
    that was still closing on a root another seed found.
    """
    a3, a2, a1, a0 = 2.0 * c1, c2, 2.0 * c3, c4

    def poly(x: float) -> float:
        return (((x + a3) * x + a2) * x + a1) * x + a0

    # depressed form y^4 + p y^2 + q y + r with l = y - a3/4
    p = a2 - 3.0 * a3 * a3 / 8.0
    q = a1 - a3 * a2 / 2.0 + a3 ** 3 / 8.0
    r = a0 - a3 * a1 / 4.0 + a3 * a3 * a2 / 16.0 - 3.0 * a3 ** 4 / 256.0
    scale = max(1.0, abs(p), abs(q), abs(r))

    seeds: list[float] = []
    if abs(q) <= 1e-14 * scale:
        # biquadratic: z^2 + p z + r with z = y^2; z scales like sqrt|r|
        ztol = 1e-12 * max(1.0, abs(p), math.sqrt(abs(r)))
        for z in _quadratic_roots(p, r):
            if z > ztol:
                s = math.sqrt(z)
                seeds.extend([s, -s])
            elif z >= -ztol:
                seeds.append(0.0)
    else:
        # any positive root of the resolvent works; take the largest real one
        ms = _real_cubic_roots(p, p * p / 4.0 - r, -q * q / 8.0)
        m = max(ms)
        if m <= 0.0:
            raise NumericalFailure("resolvent cubic produced no positive root")
        s = math.sqrt(2.0 * m)
        half = p / 2.0 + m
        seeds.extend(_quadratic_roots(s, half - q / (2.0 * s)))
        seeds.extend(_quadratic_roots(-s, half + q / (2.0 * s)))

    shift = -a3 / 4.0

    def tol_at(x: float) -> float:
        x2 = x * x
        return 1e-9 * max(
            1.0, abs(a0), x2 * x2, abs(a3 * x2 * x), abs(a2 * x2), abs(a1 * x)
        )

    # Newton with p and p' written out (the Horner forms of poly and its
    # derivative); p is carried across iterations: each point is evaluated once
    a3_3, a2_2 = 3.0 * a3, 2.0 * a2
    polished: list[tuple[float, float]] = []
    for y in seeds:
        x = y + shift
        px = (((x + a3) * x + a2) * x + a1) * x + a0
        best, best_val = x, abs(px)
        for _ in range(30):
            d = ((4.0 * x + a3_3) * x + a2_2) * x + a1
            if d == 0.0:
                break
            x_next = x - px / d
            if not math.isfinite(x_next):
                break
            px = (((x_next + a3) * x_next + a2) * x_next + a1) * x_next + a0
            val = abs(px)
            if val < best_val:
                best, best_val = x_next, val
            if x_next == x:
                break
            x = x_next
        polished.append((best, best_val))

    # a double root yields two polish copies of uneven quality: cluster first,
    # keep each cluster's best, and only then judge it
    polished.sort()
    roots: list[float] = []
    stalls: list[tuple[float, float]] = []
    idx = 0
    while idx < len(polished):
        x, val = polished[idx]
        end = idx + 1
        while (
            end < len(polished)
            and abs(polished[end][0] - x) <= 1e-8 * max(1.0, abs(polished[end][0]))
        ):
            if polished[end][1] < val:
                x, val = polished[end]
            end = end + 1
        if val < tol_at(x):
            roots.append(x)
        else:
            stalls.append((x, val))
        idx = end
    for x, val in stalls:
        h = 1e-5 * max(1.0, abs(x))
        if not poly(x - h) * poly(x + h) > 0.0 and not any(abs(x - y) <= h for y in roots):
            raise NumericalFailure(f"root refinement stalled at |p| = {val:.3e}")
    return roots


def _polish_on_circle(acc: NormalAccumulators, s: float, c: float) -> tuple[float, float]:
    """Newton-polish a candidate along the circle, keeping the best gradient.

    Quadratic convergence wherever the restricted cost has curvature; near a
    tangency (double-well) the curvature vanishes and the guard leaves the
    candidate untouched rather than divide by noise.
    """
    a1, a2, a3, b1, b2 = acc.a1, acc.a2, acc.a3, acc.b1, acc.b2
    curv_floor = 1e-7 * max(1.0, abs(a1) + abs(a3), math.hypot(b1, b2))
    phi = math.atan2(s, c)
    # sin and cos are taken once per angle, and the gradient at the current
    # angle is the one the previous iteration computed at its next angle
    st, ct = math.sin(phi), math.cos(phi)
    g = 2.0 * (st * ct * (a1 - a3) + a2 * (ct * ct - st * st) - b1 * ct + b2 * st)
    best, best_g = (st, ct), abs(g)
    for _ in range(3):
        h = 2.0 * ((ct * ct - st * st) * (a1 - a3) - 4.0 * a2 * st * ct + b1 * st + b2 * ct)
        if abs(h) <= curv_floor:
            break
        phi_next = phi - g / h
        if not math.isfinite(phi_next):
            break
        st, ct = math.sin(phi_next), math.cos(phi_next)
        g = 2.0 * (st * ct * (a1 - a3) + a2 * (ct * ct - st * st) - b1 * ct + b2 * st)
        if abs(g) < best_g:
            best, best_g = (st, ct), abs(g)
        if phi_next == phi:
            break
        phi = phi_next
    return best


def _rotation_cost(acc: NormalAccumulators, s: float, c: float) -> float:
    """Sum of squared pair residuals at (sin, cos) = (s, c)."""
    return (
        acc.a1 * s * s
        + 2.0 * acc.a2 * s * c
        + acc.a3 * c * c
        - 2.0 * acc.b1 * s
        - 2.0 * acc.b2 * c
        + acc.c_sq
    )


def _rotation_cost_change(
    acc: NormalAccumulators, s0: float, c0: float, s1: float, c1: float
) -> float:
    """_rotation_cost(s1, c1) - _rotation_cost(s0, c0), without c_sq cancelling."""
    ds, dc = s1 - s0, c1 - c0
    ss, cs = s1 + s0, c1 + c0
    return (
        ds * (acc.a1 * ss + acc.a2 * cs)
        + dc * (acc.a2 * ss + acc.a3 * cs)
        - 2.0 * (acc.b1 * ds + acc.b2 * dc)
    )


def _singular_candidates(acc: NormalAccumulators, lam: float) -> list[tuple[float, float]]:
    """Stationary points when (M + lam I) is singular.

    The solution set of the rank-deficient system is a line (or the whole
    plane); its intersection with the unit circle supplies the candidates
    the plain-division formula misses.  This path is what makes scenes with
    a zero rotation angle solvable at all.

    lam carries its own refinement error, which shifts the eigenvalue that
    should vanish away from zero by more than working precision.  The
    smallest eigenvalue is therefore treated as null over a loose band; a
    wrongly nulled direction only adds candidates the cost ordering
    discards, while a missed null line loses the true solution outright.
    """
    m11, m12, m22 = acc.a1 + lam, acc.a2, acc.a3 + lam
    scale = max(abs(m11), abs(m12), abs(m22))
    if scale <= 1e-14 * max(1.0, acc.a1 + acc.a3):
        # the system is 0 = b: every direction is stationary; the cost is
        # linear in w there, minimized along b (any unit vector if b = 0)
        norm_b = math.hypot(acc.b1, acc.b2)
        if norm_b == 0.0:
            return [(0.0, 1.0)]
        return [(acc.b1 / norm_b, acc.b2 / norm_b)]
    # eigen-decomposition of the symmetric 2x2
    half_tr = 0.5 * (m11 + m22)
    radius = math.hypot(0.5 * (m11 - m22), m12)
    eigs = (half_tr + radius, half_tr - radius)
    if abs(m12) > 1e-300:
        v1 = (eigs[0] - m22, m12)
    else:
        v1 = (1.0, 0.0) if m11 >= m22 else (0.0, 1.0)
    n1 = math.hypot(*v1)
    v1 = (v1[0] / n1, v1[1] / n1)
    v2 = (-v1[1], v1[0])
    cands: list[tuple[float, float]] = []
    etol = 1e-10 * max(1.0, scale)
    loose = 1e-6 * max(1.0, scale)
    smallest = min(abs(eigs[0]), abs(eigs[1]))
    nulled: list[tuple[float, float]] = []
    kept: list[tuple[float, tuple[float, float]]] = []
    for eig, v in ((eigs[0], v1), (eigs[1], v2)):
        near_null = abs(eig) <= etol or (abs(eig) == smallest and smallest <= loose)
        if near_null:
            nulled.append((eig, v))
        else:
            kept.append((eig, v))
    # shift lam so the nulled eigenvalue is exactly zero; the kept divisor
    # moves with it, pinning the solution line independently of lam's error
    shift = nulled[0][0] if len(nulled) == 1 else 0.0
    w0 = [0.0, 0.0]
    null_dirs = [v for _, v in nulled]
    for eig, v in kept:
        proj = acc.b1 * v[0] + acc.b2 * v[1]
        w0[0] += proj / (eig - shift) * v[0]
        w0[1] += proj / (eig - shift) * v[1]
    for v in null_dirs:
        # intersect {w0 + t v} with the unit circle: t^2 + 2 t (w0.v) + |w0|^2 - 1 = 0;
        # near tangency the discriminant sits at the noise floor, so rescue the
        # vertex and let the caller's circle-distance filter judge it
        dot = w0[0] * v[0] + w0[1] * v[1]
        for t in _quadratic_roots(2.0 * dot, w0[0] ** 2 + w0[1] ** 2 - 1.0):
            cands.append((w0[0] + t * v[0], w0[1] + t * v[1]))
    if not null_dirs:
        cands.append((w0[0], w0[1]))
    return cands


def rotation_candidates(acc: NormalAccumulators) -> list[RotationEstimate]:
    """All unit-circle stationary points, cheapest first.

    For each real multiplier root the stationarity system is solved by
    plain division when well conditioned.  Whenever the system is close
    to rank deficient, or the divided point lands off the unit circle,
    the singular path is solved as well and its points are added; near
    the deficiency boundary division loses most of its digits, so both
    answers are kept and cost selection arbitrates.  Candidates further
    than 1e-6 from the unit circle are discarded; survivors are
    renormalized and sorted by the accumulated squared residual (ties by
    angle, for determinism).

    More than one candidate can tie at zero cost: when all features share
    one depth, every pair yields the same constraint line, which cuts the
    unit circle twice.  Rotation cost alone cannot split that tie; the
    pose-level selection in estimate_pose does.
    """
    c1, c2, c3, c4 = quartic_coeffs(acc)
    lams = solve_quartic(c1, c2, c3, c4)
    scale = max(1.0, acc.a1 + acc.a3)
    found: list[RotationEstimate] = []

    def admit(s: float, c: float) -> bool:
        if abs(s * s + c * c - 1.0) >= 1e-6:
            return False
        norm = math.hypot(s, c)
        s, c = _polish_on_circle(acc, s / norm, c / norm)
        if any(math.hypot(s - r.sin_theta, c - r.cos_theta) < 1e-7 for r in found):
            return True
        found.append(RotationEstimate(s, c, lam, _rotation_cost(acc, s, c)))
        return True

    for lam in lams:
        den = (acc.a1 + lam) * (acc.a3 + lam) - acc.a2 * acc.a2
        divided_ok = False
        if abs(den) > 1e-12 * scale * scale:
            divided_ok = admit(
                ((acc.a3 + lam) * acc.b1 - acc.a2 * acc.b2) / den,
                ((acc.a1 + lam) * acc.b2 - acc.a2 * acc.b1) / den,
            )
        if not divided_ok or abs(den) <= 1e-6 * scale * scale:
            for s, c in _singular_candidates(acc, lam):
                admit(s, c)
    found.sort(key=lambda r: (r.residual, math.atan2(r.sin_theta, r.cos_theta)))
    return found


def _terms(rows: Sequence[_Row], s: float, c: float) -> list[tuple[float, float]]:
    # MatchedPair already guarantees the vertical coordinates are usable
    return [
        (X * (r - (c - xr * s)), X * ((x - xr) * c - (x * xr + 1.0) * s))
        for x, _, xr, _, X, r in rows
    ]


def _translation(
    rows: Sequence[_Row], s: float, c: float
) -> tuple[list[tuple[float, float]], float, float]:
    """Per-feature terms at (sin, cos) = (s, c) and the translation least squares.

    One loop builds the terms (the expressions of ``_terms``) and the four
    normal sums, in canonical order.
    """
    terms: list[tuple[float, float]] = []
    sum_x = sum_e = sum_dxe = sum_xx = 0.0
    for x, _, xr, _, X, r in rows:
        d = X * (r - (c - xr * s))
        e = X * ((x - xr) * c - (x * xr + 1.0) * s)
        terms.append((d, e))
        sum_x += x
        sum_e += e
        sum_dxe += d - x * e
        sum_xx += 1.0 + x * x
    n = float(len(rows))
    den = n * sum_xx - sum_x * sum_x
    if den < 1e-12:
        raise DegenerateGeometry("translation normal equations are singular")
    t_x = (n * sum_dxe + sum_x * sum_e) / den
    t_y = (sum_x * t_x + sum_e) / n
    return terms, t_x, t_y


def estimate_translation(pairs: list[MatchedPair], r: RotationEstimate) -> tuple[float, float]:
    """Closed-form minimizer of sum (d_i - t_x)^2 + (e_i + x_i t_x - t_y)^2."""
    if not pairs:
        raise InsufficientFeatures("at least one matched feature is required")
    _, t_x, t_y = _translation(_rows(pairs), r.sin_theta, r.cos_theta)
    return (t_x, t_y)


def _translation_residual(
    rows: Sequence[_Row], terms: list[tuple[float, float]], t_x: float, t_y: float
) -> float:
    resid = 0.0
    for row, (d, e) in zip(rows, terms):
        resid += (d - t_x) ** 2 + (e + row[0] * t_x - t_y) ** 2
    return resid


def _gauss_newton_step(
    rows: Sequence[_Row],
    terms: list[tuple[float, float]],
    s: float,
    c: float,
    t_x: float,
    t_y: float,
) -> tuple[float, float, float] | None:
    """One Gauss-Newton step on (theta, t_x, t_y) of the per-feature equations.

    The equations are the ones _translation_residual sums, with the rotation
    free as well: d_i(theta) - t_x = 0 and e_i(theta) + x_i t_x - t_y = 0,
    with (d_i, e_i) = ``terms`` evaluated at (sin, cos) = (s, c).  The 3x3
    normal system is solved by cofactors.  Returns the step, or None when
    the system is singular.
    """
    h00 = h01 = h02 = h11 = h12 = g0 = g1 = g2 = 0.0
    for (x, _, xr, _, X, _), (d, e) in zip(rows, terms):
        dd = X * (s + xr * c)  # d(d_i)/d(theta)
        de = -X * ((x - xr) * s + (x * xr + 1.0) * c)  # d(e_i)/d(theta)
        rd = d - t_x
        re = e + x * t_x - t_y
        # Jacobian rows: (dd, -1, 0) for rd and (de, x, -1) for re
        h00 += dd * dd + de * de
        h01 += de * x - dd
        h02 -= de
        h11 += 1.0 + x * x
        h12 -= x
        g0 += dd * rd + de * re
        g1 += x * re - rd
        g2 -= re
    h22 = float(len(rows))
    m00 = h11 * h22 - h12 * h12
    m01 = h02 * h12 - h01 * h22
    m02 = h01 * h12 - h02 * h11
    det = h00 * m00 + h01 * m01 + h02 * m02
    if not det > 1e-12 * h00 * h11 * h22:
        return None
    m11 = h00 * h22 - h02 * h02
    m12 = h01 * h02 - h00 * h12
    m22 = h00 * h11 - h01 * h01
    return (
        -(m00 * g0 + m01 * g1 + m02 * g2) / det,
        -(m01 * g0 + m11 * g1 + m12 * g2) / det,
        -(m02 * g0 + m12 * g1 + m22 * g2) / det,
    )


def estimate_pose(pairs: list[MatchedPair]) -> PlanarTransformEstimate:
    """Full rotation-then-translation recovery from matched features.

    Admissible rotation candidates are carried through the translation
    stage, and the winner minimizes the combined residual.  The combination
    is what resolves the one-depth-plane ambiguity: the two rotations that
    fit the pairwise constraints equally well differ grossly in how
    consistent a single translation can make the per-feature equations.
    The translation residual is a sum of squares, so a candidate whose
    rotation cost alone exceeds the best combined key so far cannot win,
    and it is not carried through the translation solve.

    The winner then seeds one Gauss-Newton step on (theta, t_x, t_y)
    against the per-feature equations.  On a one-depth board the two
    zero-cost rotations merge tangentially near the identity, and the
    closed-form angle carries up to ~1e-7 rad of rounding jitter there;
    the joint step removes it.  The step is a polish, not a re-estimate:
    it is kept only if it does not raise the translation residual and
    raises the rotation cost by no more than its rounding floor.  Under
    pixel noise the per-feature least-squares optimum is a worse estimate
    than the closed-form one, so trading rotation-constraint fit for
    per-feature fit is refused.  The returned ``rotation`` is the
    closed-form seed; ``transform`` and ``translation_residual`` describe
    the final pose.
    """
    acc = accumulate(pairs)
    if acc.a1 == 0.0 and acc.a3 == 0.0:
        raise DegenerateGeometry("feature pairs carry no rotation information")
    rows = acc.rows
    best: PlanarTransformEstimate | None = None
    best_key: tuple[float, float] | None = None
    best_terms: list[tuple[float, float]] = []
    for rot in rotation_candidates(acc):
        # resid >= 0 and rounding is monotone, so the key's first entry is
        # at least rot.residual; continue, not break, so that a NaN cost in
        # the sort cannot hide a cheaper candidate later in the list
        if best_key is not None and rot.residual > best_key[0]:
            continue
        terms, t_x, t_y = _translation(rows, rot.sin_theta, rot.cos_theta)
        resid = _translation_residual(rows, terms, t_x, t_y)
        phi = math.atan2(rot.sin_theta, rot.cos_theta)
        key = (rot.residual + resid, phi)
        if best_key is None or key < best_key:
            best_key = key
            best_terms = terms
            best = PlanarTransformEstimate(PlanarTransform(phi, t_x, t_y), rot, resid)
    if best is None:
        raise DegenerateGeometry("no multiplier root admits a unit-circle solution")

    rot, g = best.rotation, best.transform
    delta = _gauss_newton_step(rows, best_terms, rot.sin_theta, rot.cos_theta, g.t_x, g.t_y)
    if delta is None:
        return best
    phi, t_x, t_y = g.phi + delta[0], g.t_x + delta[1], g.t_y + delta[2]
    s, c = math.sin(phi), math.cos(phi)
    resid = _translation_residual(rows, _terms(rows, s, c), t_x, t_y)
    rot_rise = _rotation_cost_change(acc, rot.sin_theta, rot.cos_theta, s, c)
    if not (resid <= best.translation_residual and rot_rise <= 1e-12 * max(1.0, acc.a1 + acc.a3)):
        return best
    return PlanarTransformEstimate(PlanarTransform(phi, t_x, t_y), rot, resid)
