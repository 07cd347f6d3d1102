"""Command-line surface: scenario runs, the four built-in cases, one-shot
pose estimation from a pairs file, and synthetic pairs-file generation.

Exit codes: 0 converged (or success for non-run verbs), 2 not converged,
3 estimator starvation, 1 configuration or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields, is_dataclass, replace
from itertools import chain
from operator import attrgetter
from typing import get_args, get_origin, get_type_hints

from .closed_loop_sim import (
    PerceptionMode,
    Scenario,
    TrajectoryLog,
    TrajectorySample,
    case_scenarios,
    generate_observations,
    run,
)
from .errors import ConfigError, EstimatorStarvation, ServoparkError
from .geometry import NormalizedFeature, PlanarTransform
from .parking_controller import TwistLimits
from .pose_estimator import MatchedPair, estimate_pose

SEED_ENV_VAR = "SERVOPARK_SEED"

# The printf format of one CSV value, by its kind.
_FORMAT = {float: "%.17g", bool: "%d", int: "%d", str: "%s"}


def _columns(record) -> list[tuple[str, str]]:
    """``record``'s fields in order as (name, format), each field that is
    itself a record spread into its own fields."""
    return [
        column
        for name, kind in get_type_hints(record).items()
        for column in ([(name, _FORMAT[kind])] if kind in _FORMAT else _columns(kind))
    ]


# One row per column of <name>_traj.csv, in file order: header name and
# printf format, TrajectorySample's fields spread out.  TrajectoryLog.rows()
# gives a sample's values in this order.
TRAJ_COLUMNS = tuple(_columns(TrajectorySample))

# The columns of a pairs file, one MatchedPair per row: header name, which
# is also the attribute the column reads, and printf format.
PAIRS_COLUMNS = tuple(
    (name, _FORMAT[float]) for name in ("x_cur", "y_cur", "x_ref", "y_ref", "X_star")
)

TRAJ_HEADER = ",".join(name for name, _ in TRAJ_COLUMNS)
_TRAJ_ROW = ",".join(fmt for _, fmt in TRAJ_COLUMNS)
PAIRS_HEADER = ",".join(name for name, _ in PAIRS_COLUMNS)
_PAIRS_ROW = ",".join(fmt for _, fmt in PAIRS_COLUMNS)
_pairs_values = attrgetter(*(name for name, _ in PAIRS_COLUMNS))


def _write_lines(path: str, lines) -> None:
    """Stream ``lines`` (a JSON document is one) to ``path`` as UTF-8, each ended by LF."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        for line in lines:
            f.write(line)
            f.write("\n")


def write_traj_csv(path: str, log: TrajectoryLog) -> None:
    _write_lines(path, chain((TRAJ_HEADER,), map(_TRAJ_ROW.__mod__, log.rows())))


def write_z0z1_csv(path: str, log: TrajectoryLog) -> None:
    t, z0, z1 = map(TRAJ_HEADER.split(",").index, ("t", "z0", "z1"))
    row = f"{_FORMAT[float]},{_FORMAT[float]}"
    rows = (row % (r[t], abs(r[z0]) + abs(r[z1])) for r in log.rows())
    _write_lines(path, chain(("t,z0z1",), rows))


# ---------------------------------------------------------------------------
# scenario files (fail-closed JSON)


def _num(obj, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    try:
        x = float(obj)
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{path}: expected a finite number")
    return x


def _intval(obj, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"{path}: expected an integer")
    return obj


def _value(tp, obj, path: str):
    """Parse one field value of type ``tp``."""
    args = get_args(tp)
    if type(None) in args:  # `X | None` accepts null
        if obj is None:
            return None
        tp = args[0]
    if tp is float:
        return _num(obj, path)
    if tp is int:
        return _intval(obj, path)
    if tp is str:
        if not isinstance(obj, str):
            raise ConfigError(f"{path}: expected a string")
        return obj
    if tp is PerceptionMode:
        try:
            return PerceptionMode(obj)
        except ValueError:
            values = sorted(m.value for m in PerceptionMode)
            raise ConfigError(f"{path}: expected one of {values}, got {obj!r}") from None
    if get_origin(tp) is tuple:
        if not isinstance(obj, list):
            raise ConfigError(f"{path}: expected a list")
        return tuple(_record(args[0], item, f"{path}[{i}]") for i, item in enumerate(obj))
    return _record(tp, obj, path)


def _record(cls, obj, path: str, defaults: dict | None = None):
    """Build the dataclass ``cls`` from a JSON object, field by field in declaration order.

    Unknown keys are rejected. Without ``defaults`` every field is required;
    with it, an absent field takes its value from ``defaults`` or the class.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(obj) - set(names))
    if unknown:
        raise ConfigError(f"{path}: unknown key '{unknown[0]}'")
    if defaults is None:
        for name in names:
            if name not in obj:
                raise ConfigError(f"{path}: missing key '{name}'")
    types = get_type_hints(cls)
    kwargs = dict(defaults or {})
    kwargs.update((k, _value(types[k], obj[k], f"{path}.{k}")) for k in names if k in obj)
    return cls(**kwargs)


def _plain(obj):
    """The JSON value of ``obj``, the inverse of ``_value``: a dataclass
    becomes its fields in order, a tuple a list, a PerceptionMode its value."""
    if is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, tuple):
        return [_plain(item) for item in obj]
    if isinstance(obj, PerceptionMode):
        return obj.value
    return obj


def scenario_from_dict(obj: dict, default_name: str = "unnamed") -> Scenario:
    """Build a Scenario from parsed JSON; unknown keys are rejected."""
    return _record(Scenario, obj, "scenario", defaults={"name": default_name})


def _read_text(path: str, kind: str) -> str:
    """The file's UTF-8 text; a file that cannot be read or decoded is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as exc:  # the message already names the file
        raise ConfigError(f"cannot read {kind} file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {kind} file: {path}: {exc}") from exc


def load_scenario(path: str) -> Scenario:
    try:
        obj = json.loads(_read_text(path, "scenario"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    stem = os.path.splitext(os.path.basename(path))[0]
    return scenario_from_dict(obj, default_name=stem)


# ---------------------------------------------------------------------------
# pairs files


def load_pairs_csv(path: str) -> list[MatchedPair]:
    lines = _read_text(path, "pairs").splitlines()
    if not lines:
        raise ConfigError(f"{path}:1: empty file, expected header '{PAIRS_HEADER}'")
    if lines[0].strip() != PAIRS_HEADER:
        raise ConfigError(f"{path}:1: expected header '{PAIRS_HEADER}'")
    pairs = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != len(PAIRS_COLUMNS):
            raise ConfigError(
                f"{path}:{lineno}: expected {len(PAIRS_COLUMNS)} comma-separated fields,"
                f" got {len(fields)}"
            )
        try:
            vals = [float(f) for f in fields]
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        for (name, _), v in zip(PAIRS_COLUMNS, vals):
            if not math.isfinite(v):
                raise ConfigError(f"{path}:{lineno}: {name} is not finite")
        try:
            pairs.append(
                MatchedPair(
                    NormalizedFeature(vals[0], vals[1]),
                    NormalizedFeature(vals[2], vals[3]),
                    vals[4],
                )
            )
        except ServoparkError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return pairs


def write_pairs_csv(path: str, pairs: list[MatchedPair]) -> None:
    _write_lines(path, chain((PAIRS_HEADER,), (_PAIRS_ROW % _pairs_values(p) for p in pairs)))


# ---------------------------------------------------------------------------
# subcommands


def _resolve_seed(args, scenario: Scenario) -> Scenario:
    """Seed precedence: --seed, then SERVOPARK_SEED, then the scenario value."""
    if args.seed is not None:
        return replace(scenario, rng_seed=args.seed)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return replace(scenario, rng_seed=int(env))
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR}: expected an integer, got {env!r}")
    return scenario


def _apply_overrides(args, scenario: Scenario) -> Scenario:
    """The scenario with every flag given applied in one step, then the seed."""
    v_max, omega_max = getattr(args, "v_max", None), getattr(args, "omega_max", None)
    if (v_max is None) != (omega_max is None):
        raise ConfigError("--v-max and --omega-max must be given together")
    perception = getattr(args, "perception", None)
    changes = {
        "dt": args.dt,
        "t_max": args.t_max,
        "perception_mode": None if perception is None else PerceptionMode(perception),
        "pixel_noise_sigma": args.noise_px,
        "limits": None if v_max is None else TwistLimits(v_max, omega_max),
    }
    scenario = replace(scenario, **{k: v for k, v in changes.items() if v is not None})
    return _resolve_seed(args, scenario)


def _run_outcome(out_dir: str, scenario: Scenario, plot: bool) -> tuple[int, dict]:
    """Write ``scenario`` as ``<name>_scenario.json``, which ``run --config``
    reruns, then run it and write its files, also for a starved run.

    Returns the exit code (0 converged, 2 not converged, 3 starved) and the
    run's cases_summary.json entry: its status (and a starved run's error),
    then its summary fields.
    """
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, scenario.name)
    _write_lines(base + "_scenario.json", [json.dumps(_plain(scenario), indent=2)])
    try:
        log, summary = run(scenario)
    except EstimatorStarvation as exc:
        log, summary = exc.log, exc.summary
        code, entry = 3, {"status": "starved", "error": str(exc)}
    else:
        code, status = (0, "converged") if summary.converged else (2, "not_converged")
        entry = {"status": status}
    write_traj_csv(base + "_traj.csv", log)
    _write_lines(base + "_summary.json", [json.dumps(asdict(summary), indent=2)])
    if plot:
        write_z0z1_csv(base + "_z0z1.csv", log)
    return code, {**entry, **asdict(summary)}


def cmd_run(args) -> int:
    if (args.case is None) == (args.config is None):
        print("run: exactly one of --case or --config is required", file=sys.stderr)
        return 1
    if args.case is not None:
        cases = case_scenarios()
        if args.case not in cases:
            print(f"run: unknown case '{args.case}'; choose from {sorted(cases)}", file=sys.stderr)
            return 1
        scenario = cases[args.case]
    else:
        scenario = load_scenario(args.config)
    code, entry = _run_outcome(args.out, _apply_overrides(args, scenario), args.plot)
    if code == 3:
        print(f"run: estimator starvation: {entry['error']}", file=sys.stderr)
    else:
        status = entry["status"].replace("_", " ")
        print(f"{scenario.name}: {status} (final_pos_err={entry['final_pos_err']:.17g} m)")
    return code


def cmd_cases(args) -> int:
    # every override is applied before the first run makes the output
    # directory, so a refused flag leaves nothing behind
    runs = {
        (name, mode.value): _apply_overrides(
            args, replace(base, name=f"{name}_{mode.value}", perception_mode=mode)
        )
        for name, base in case_scenarios().items()
        for mode in PerceptionMode
    }
    report: dict[str, dict] = {}
    code = 0
    for (name, mode), scenario in runs.items():
        mode_code, report.setdefault(name, {})[mode] = _run_outcome(args.out, scenario, args.plot)
        code = max(code, mode_code)  # 3 if any run starved, else 2 if any did not converge
    _write_lines(os.path.join(args.out, "cases_summary.json"), [json.dumps(report, indent=2)])
    print(f"cases: all_converged={str(code == 0).lower()} (details in cases_summary.json)")
    return code


def cmd_estimate(args) -> int:
    pairs = load_pairs_csv(args.pairs)
    est = estimate_pose(pairs)
    out = {
        "theta": est.transform.phi,
        "t_x": est.transform.t_x,
        "t_y": est.transform.t_y,
        "rotation_residual": est.rotation.residual,
        "translation_residual": est.translation_residual,
        "lambda": est.rotation.lam,
        "pairs_used": len(pairs),
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_gen_pairs(args) -> int:
    scenario = _resolve_seed(args, Scenario(pixel_noise_sigma=args.noise_px))
    if not all(map(math.isfinite, (args.theta, args.tx, args.ty))):
        raise ConfigError("--theta, --tx and --ty must be finite")
    pairs = generate_observations(PlanarTransform(args.theta, args.tx, args.ty), scenario)
    if len(pairs) < 2:
        print("gen-pairs: fewer than 2 features visible for this pose", file=sys.stderr)
        return 1
    write_pairs_csv(args.out, pairs)
    print(f"wrote {len(pairs)} pairs to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="servopark",
        description="Closed-loop object-relative parking simulator and pose estimator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)  # the flags of both run and cases
    shared.add_argument("--out", default="out", help="output directory (default: out)")
    shared.add_argument("--dt", type=float, help="integration step override [s]")
    shared.add_argument("--t-max", type=float, help="time budget override [s]")
    shared.add_argument("--noise-px", type=float, help="pixel noise sigma override")
    shared.add_argument("--seed", type=int, help="RNG seed override")
    shared.add_argument("--plot", action="store_true", help="also write <name>_z0z1.csv")

    p_run = sub.add_parser("run", parents=[shared], help="simulate one scenario")
    p_run.add_argument("--case", help="built-in case name (case1..case4)")
    p_run.add_argument("--config", help="scenario JSON file")
    p_run.add_argument("--perception", choices=[m.value for m in PerceptionMode])
    p_run.add_argument("--v-max", type=float, help="linear velocity bound [m/s]")
    p_run.add_argument("--omega-max", type=float, help="yaw rate bound [rad/s]")
    p_run.set_defaults(func=cmd_run)

    p_cases = sub.add_parser(
        "cases", parents=[shared], help="run the four built-in cases in both perception modes"
    )
    p_cases.set_defaults(func=cmd_cases)

    p_est = sub.add_parser("estimate", help="estimate a pose from a matched-pairs CSV")
    p_est.add_argument("--pairs", required=True, help="CSV file with header " + PAIRS_HEADER)
    p_est.set_defaults(func=cmd_estimate)

    p_gen = sub.add_parser("gen-pairs", help="generate a synthetic matched-pairs CSV")
    p_gen.add_argument("--theta", type=float, default=0.0, help="rotation angle [rad]")
    p_gen.add_argument("--tx", type=float, default=0.0, help="translation x [m]")
    p_gen.add_argument("--ty", type=float, default=0.0, help="translation y [m]")
    p_gen.add_argument("--noise-px", type=float, default=0.0)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", required=True, help="output CSV path")
    p_gen.set_defaults(func=cmd_gen_pairs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ServoparkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
