"""Output checks that use the benchmark's own arithmetic, not the program's.

Each function returns a list of problems; an empty list means the output
passed.  Nothing here calls servopark: the checks restate the planar
kinematics, the chained coordinates and the pairwise rotation cost from
their definitions, so a fault in the program cannot hide in a check that
shares its code.
"""

from __future__ import annotations

import math
import struct

import numpy as np

# Dense angle grid on which the stationary points of the pairwise rotation
# cost are bracketed by sign changes of its slope.
GRID_POINTS = 7200
_GRID = np.linspace(-math.pi, math.pi, GRID_POINTS, endpoint=False)


def wrap(angle: float) -> float:
    """Angle difference wrapped to [-pi, pi]."""
    return math.atan2(math.sin(angle), math.cos(angle))


def arc_step(x: float, y: float, theta: float, v: float, omega: float, dt: float):
    """Exact pose after holding the twist (v, omega) for dt.

    The path is a circular arc; its chord has length v dt sin(h)/h with
    h = omega dt / 2, and points along the mid-arc heading.
    """
    half = 0.5 * omega * dt
    chord = v * dt * (math.sin(half) / half if half != 0.0 else 1.0)
    heading = theta + half
    return x + chord * math.cos(heading), y + chord * math.sin(heading), theta + omega * dt


def rk4_arc_tolerance(v: float, omega: float, dt: float) -> float:
    """Bound on one RK4 step's distance from the exact arc, plus rounding.

    RK4 on this system is Simpson's rule applied to v cos(theta0 + omega s)
    and v sin(...), whose error is at most |v| dt^5 omega^4 / 2880 per
    coordinate; the bound doubles that and adds a rounding floor.
    """
    return abs(v) * dt * (omega * dt) ** 4 / 1440.0 + 1e-12


def chained_from_pose(x, y, theta, goal, z_star):
    """(z0, z1, z2) of a robot pose relative to ``goal`` = (gx, gy, gtheta).

    The robot position in the goal frame is p = R(-gtheta) (x - gx, y - gy);
    the goal-to-camera map has phi = -(theta - gtheta) and T = -R(phi) p; and
    z = (-theta_e, y_e, -x_e) = (-phi, T_y / Z*, -T_x / Z*).
    """
    gx, gy, gth = goal
    dx, dy = x - gx, y - gy
    cg, sg = math.cos(gth), math.sin(gth)
    px, py = cg * dx + sg * dy, -sg * dx + cg * dy
    phi = -wrap(theta - gth)
    c, s = math.cos(phi), math.sin(phi)
    t_x = -(c * px - s * py)
    t_y = -(s * px + c * py)
    return -phi, t_y / z_star, -t_x / z_star


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.rstrip("\n").split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_cli_run(case: dict, traj_text: str, summary: dict, z0z1_text: str) -> list[str]:
    """Properties of one `servopark run --plot` output set.

    ``case`` holds the run's inputs: name, dt, goal (x, y, theta), pos_tol,
    ang_tol and z_star (the anchor height).
    """
    name, dt, goal = case["name"], case["dt"], case["goal"]
    problems: list[str] = []
    header, rows = parse_csv(traj_text)
    col = {h: i for i, h in enumerate(header)}
    if summary.get("converged") is not True:
        problems.append(f"{name}: summary says not converged")
    if len(rows) != summary.get("samples"):
        problems.append(f"{name}: {len(rows)} CSV rows but summary has {summary.get('samples')}")
    if not rows:
        return problems + [f"{name}: empty trajectory"]
    num = [[float(r[col[k]]) for k in ("t", "x", "y", "theta", "v", "omega", "z0", "z1", "z2")]
           for r in rows]
    for k, (t, *_rest) in enumerate(num):
        if t != k * dt:
            problems.append(f"{name}: row {k} has t = {t!r}, expected {k * dt!r}")
            break
    for k in range(len(num) - 1):
        _, x, y, th, v, w, *_z = num[k]
        _, x1, y1, th1, *_more = num[k + 1]
        ax, ay, ath = arc_step(x, y, th, v, w, dt)
        tol = rk4_arc_tolerance(v, w, dt)
        if math.hypot(x1 - ax, y1 - ay) > tol or abs(wrap(th1 - ath)) > 1e-12:
            problems.append(
                f"{name}: row {k + 1} is {math.hypot(x1 - ax, y1 - ay):.3e} m / "
                f"{abs(wrap(th1 - ath)):.3e} rad off the arc from row {k} (tol {tol:.1e} m)"
            )
            break
    for k, (_, x, y, th, _v, _w, z0, z1, z2) in enumerate(num):
        e0, e1, e2 = chained_from_pose(x, y, th, goal, case["z_star"])
        if max(abs(wrap(z0 - e0)), abs(z1 - e1), abs(z2 - e2)) > 1e-9:
            problems.append(f"{name}: row {k} chained state does not match its pose")
            break
    _, x, y, th, *_ = num[-1]
    pos_err = math.hypot(x - goal[0], y - goal[1])
    ang_err = abs(wrap(th - goal[2]))
    if not (pos_err < case["pos_tol"] and ang_err < case["ang_tol"]):
        problems.append(f"{name}: last pose is {pos_err:.3e} m / {ang_err:.3e} rad from the goal")
    if abs(summary.get("final_pos_err", math.inf) - pos_err) > 1e-9:
        problems.append(f"{name}: summary final_pos_err disagrees with the last pose")
    zh, zrows = parse_csv(z0z1_text)
    if zh != ["t", "z0z1"] or len(zrows) != len(rows):
        problems.append(f"{name}: z0z1 CSV has {len(zrows)} rows, expected {len(rows)}")
    else:
        for k, (zr, n) in enumerate(zip(zrows, num)):
            if float(zr[0]) != n[0] or float(zr[1]) != abs(n[6]) + abs(n[7]):
                problems.append(f"{name}: z0z1 row {k} does not match the trajectory")
                break
    return problems


def check_tracks_ground_truth(name: str, est_poses, gt_poses, visible) -> list[str]:
    """Estimated-perception run against the ground-truth run of the same case.

    ``*_poses`` are (x, y, theta) per sample; ``visible`` the visible
    feature count per sample.
    """
    problems: list[str] = []
    if len(est_poses) != len(gt_poses):
        problems.append(f"{name}: {len(est_poses)} samples, ground truth has {len(gt_poses)}")
    if min(visible) < 4:
        problems.append(f"{name}: only {min(visible)} features visible at some sample")
    worst_pos = worst_ang = 0.0
    for (x, y, th), (gx, gy, gth) in zip(est_poses, gt_poses):
        worst_pos = max(worst_pos, math.hypot(x - gx, y - gy))
        worst_ang = max(worst_ang, abs(wrap(th - gth)))
    if not (worst_pos <= 1e-3 and worst_ang <= 1e-3):
        problems.append(
            f"{name}: deviates from ground truth by {worst_pos:.3e} m / {worst_ang:.3e} rad"
        )
    return problems


def pair_cost_sums(cur, ref) -> tuple[float, ...]:
    """Normal sums of the pairwise rotation constraints a s + b c + c0 = 0.

    ``cur`` and ``ref`` are (n, 2) arrays of normalized (x, y).  For features
    i, j the constraint comes from eliminating the translation between their
    two per-feature equations; with r = yr / y its coefficients are
    a = r_i (x_i xr_j + 1) - r_j (xr_i x_j + 1), b = r_i (xr_j - x_i) -
    r_j (xr_i - x_j) and c0 = r_i r_j (x_i - x_j) + (xr_i - xr_j).
    Returns (sum a^2, sum ab, sum b^2, -sum a c0, -sum b c0, sum c0^2).
    """
    x, y = cur[:, 0], cur[:, 1]
    xr, yr = ref[:, 0], ref[:, 1]
    r = yr / y
    i, j = np.triu_indices(len(x), k=1)
    a = r[i] * (x[i] * xr[j] + 1.0) - r[j] * (xr[i] * x[j] + 1.0)
    b = r[i] * (xr[j] - x[i]) - r[j] * (xr[i] - x[j])
    c0 = r[i] * r[j] * (x[i] - x[j]) + (xr[i] - xr[j])
    return (
        float(a @ a), float(a @ b), float(b @ b),
        -float(a @ c0), -float(b @ c0), float(c0 @ c0),
    )


def pair_cost(sums, s, c):
    a1, a2, a3, b1, b2, csq = sums
    return a1 * s * s + 2.0 * a2 * s * c + a3 * c * c - 2.0 * b1 * s - 2.0 * b2 * c + csq


def pair_cost_slope(sums, phi):
    """d/dphi of pair_cost at (sin phi, cos phi); phi may be an array."""
    a1, a2, a3, b1, b2, _ = sums
    s, c = np.sin(phi), np.cos(phi)
    return 2.0 * ((a1 - a3) * s * c + a2 * (c * c - s * s) - b1 * c + b2 * s)


def stationary_points(sums) -> list[float]:
    """Every stationary angle of the pairwise cost that the grid brackets.

    A sign change of the slope between neighbouring grid angles is refined
    by bisection to the last bit.
    """
    g = pair_cost_slope(sums, _GRID)
    found = []
    step = _GRID[1] - _GRID[0]
    for k in np.nonzero(np.sign(g) != np.sign(np.roll(g, -1)))[0]:
        lo, hi = float(_GRID[k]), float(_GRID[k]) + step
        g_lo = float(g[k])
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            g_mid = float(pair_cost_slope(sums, mid))
            if (g_mid > 0.0) == (g_lo > 0.0):
                lo, g_lo = mid, g_mid
            else:
                hi = mid
        found.append(0.5 * (lo + hi))
    return found


def _translation_terms(cur, ref, depth, phi):
    """Per-feature right-hand sides (d, e) of the translation equations.

    From P = R(phi) P* + T with P = X (1, x, y) and P* = X* (1, xr, yr),
    height preservation gives X = X* yr / y, and the two planar rows give
    d - t_x = 0 and e + x t_x - t_y = 0 with
    d = X* (yr / y - (cos - xr sin)) and e = X* ((x - xr) cos - (x xr + 1) sin).
    """
    s, c = math.sin(phi), math.cos(phi)
    x, y = cur[:, 0], cur[:, 1]
    xr, yr = ref[:, 0], ref[:, 1]
    return depth * (yr / y - (c - xr * s)), depth * ((x - xr) * c - (x * xr + 1.0) * s)


def translation_residual(cur, ref, depth, phi, t_x, t_y) -> float:
    """Sum of squared per-feature translation equations at (phi, t_x, t_y)."""
    d, e = _translation_terms(cur, ref, depth, phi)
    x = cur[:, 0]
    return float(np.sum((d - t_x) ** 2) + np.sum((e + x * t_x - t_y) ** 2))


def combined_cost(scene, sums, phi) -> float:
    """Pairwise cost plus the least-squares translation residual at phi.

    This is the key by which the method picks one rotation among the
    stationary points of the pairwise cost.
    """
    d, e = _translation_terms(scene.cur, scene.ref, scene.depth, phi)
    x = scene.cur[:, 0]
    normal = np.array([[np.sum(1.0 + x * x), -np.sum(x)], [-np.sum(x), float(len(x))]])
    t_x, t_y = np.linalg.solve(normal, [np.sum(d - x * e), np.sum(e)])
    return pair_cost(sums, math.sin(phi), math.cos(phi)) + translation_residual(
        scene.cur, scene.ref, scene.depth, phi, t_x, t_y
    )


def check_estimate(scene, est, permuted_est) -> list[str]:
    """Properties of one estimate_pose result on a generated scene.

    Every result must keep its bits when the input is permuted.  Noise-free
    scenes must return the generating transform.  Noisy scenes must return
    a seed rotation that is a stationary point of the pairwise cost and,
    among all stationary points the grid brackets, the cheapest by pairwise
    cost plus translation residual (the method's selection rule), and a
    translation residual that is the sum of the per-feature equations at
    the returned pose.
    """
    problems: list[str] = []
    g = est.transform
    tag = f"scene {scene.index} (n={len(scene.depth)}, noise={scene.noisy})"
    if bits(est) != bits(permuted_est):
        problems.append(f"{tag}: a permuted input gives a different result")
    sums = pair_cost_sums(scene.cur, scene.ref)
    if not scene.noisy:
        phi, t_x, t_y = scene.truth
        err = max(abs(wrap(g.phi - phi)), abs(g.t_x - t_x), abs(g.t_y - t_y))
        if err > 1e-9:
            problems.append(f"{tag}: transform is {err:.3e} from the generating one")
        # the cost's own formula must vanish at the truth, or the checks below test nothing
        scale = sums[0] + sums[2] + sums[5]
        if pair_cost(sums, math.sin(phi), math.cos(phi)) > 1e-12 * max(1.0, scale):
            problems.append(f"{tag}: pairwise cost is not zero at the generating rotation")
        return problems
    rot = est.rotation
    seed = math.atan2(rot.sin_theta, rot.cos_theta)
    scale = sums[0] + sums[2] + math.hypot(sums[3], sums[4])
    if abs(pair_cost_slope(sums, seed)) > 1e-9 * max(1.0, scale):
        problems.append(f"{tag}: seed rotation is not a stationary point of the pairwise cost")
    # where the cost is flat the grid's copy of the seed's own stationary
    # point is ill-determined, so only the other stationary points compete
    seed_key = combined_cost(scene, sums, seed)
    for p in stationary_points(sums):
        key = combined_cost(scene, sums, p)
        if abs(wrap(p - seed)) > 1e-6 and seed_key > key + 1e-9 * max(key, 1e-12):
            problems.append(
                f"{tag}: seed {seed:.9f} rad costs {seed_key:.9e}, but the stationary "
                f"point {p:.9f} rad costs {key:.9e}"
            )
    resid = translation_residual(scene.cur, scene.ref, scene.depth, g.phi, g.t_x, g.t_y)
    if abs(resid - est.translation_residual) > 1e-9 * max(resid, 1e-12):
        problems.append(
            f"{tag}: translation_residual {est.translation_residual:.12e} but the "
            f"equations sum to {resid:.12e} at the returned pose"
        )
    return problems


def bits(est) -> bytes:
    """The exact bits of every float in an estimate."""
    g, r = est.transform, est.rotation
    return struct.pack(
        "<8d", g.phi, g.t_x, g.t_y, est.translation_residual,
        r.sin_theta, r.cos_theta, r.lam, r.residual,
    )
