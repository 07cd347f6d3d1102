"""Scenario files: the fail-closed JSON parser and its path-qualified messages."""

import json
import os
import re
import subprocess
import sys

import pytest

from servopark.cli import scenario_from_dict
from servopark.closed_loop_sim import ConvergenceSpec, GoalUpdate, PerceptionMode, Scenario
from servopark.errors import ConfigError
from servopark.geometry import CameraIntrinsics, FeaturePoint3, Pose2
from servopark.parking_controller import ControllerParams, TwistLimits

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

POSE = {"x": 0.0, "y": 0.0, "theta": 0.0}
INTR = {
    "f_x": 460.0, "f_y": 460.0, "c_x": 320.0, "c_y": 240.0,
    "width": 640, "height": 480, "min_depth": 0.1,
}
CTRL = {"kappa0": 0.1, "kappa2": 0.25, "epsilon": 2.25, "xi": 0.001}

# One malformed input per field kind, with the message it must produce.
DIAGNOSTICS = [
    ([], "scenario: expected an object"),
    ("scenario", "scenario: expected an object"),
    ({"bogus": 1}, "scenario: unknown key 'bogus'"),
    ({"zeta": 1, "alpha": 2}, "scenario: unknown key 'alpha'"),
    ({"name": 3}, "scenario.name: expected a string"),
    ({"initial_pose": 3}, "scenario.initial_pose: expected an object"),
    ({"initial_pose": dict(POSE, x="0")}, "scenario.initial_pose.x: expected a number"),
    ({"goal_pose": dict(POSE, y=True)}, "scenario.goal_pose.y: expected a number"),
    ({"goal_pose": {"x": 0.0, "y": 0.0}}, "scenario.goal_pose: missing key 'theta'"),
    ({"goal_pose": dict(POSE, phi=0.0)}, "scenario.goal_pose: unknown key 'phi'"),
    ({"object_features": {"X_star": 3.0}}, "scenario.object_features: expected a list"),
    (
        {"object_features": [{"X_star": 3.0, "Y_star": 0.0, "Z_star": 0.6}, 5]},
        "scenario.object_features[1]: expected an object",
    ),
    (
        {"object_features": [{"X_star": 3.0, "Y_star": None, "Z_star": 0.6}]},
        "scenario.object_features[0].Y_star: expected a number",
    ),
    (
        {"object_features": [{"X_star": 3.0, "Y_star": 0.0, "Z_star": 0.6, "W": 1}]},
        "scenario.object_features[0]: unknown key 'W'",
    ),
    ({"intrinsics": "wide"}, "scenario.intrinsics: expected an object"),
    (
        {"intrinsics": {k: v for k, v in INTR.items() if k != "min_depth"}},
        "scenario.intrinsics: missing key 'min_depth'",
    ),
    ({"intrinsics": dict(INTR, f_x="460")}, "scenario.intrinsics.f_x: expected a number"),
    ({"intrinsics": dict(INTR, skew=0.0)}, "scenario.intrinsics: unknown key 'skew'"),
    ({"controller": CTRL}, "scenario.controller: missing key 'delta'"),
    (
        {"controller": dict(CTRL, delta=25.0, kappa1=1.0)},
        "scenario.controller: unknown key 'kappa1'",
    ),
    ({"limits": {"v_max": 1.0}}, "scenario.limits: missing key 'omega_max'"),
    (
        {"limits": {"v_max": 1.0, "omega_max": "fast"}},
        "scenario.limits.omega_max: expected a number",
    ),
    ({"limits": 1.0}, "scenario.limits: expected an object"),
    ({"dt": "0.01"}, "scenario.dt: expected a number"),
    ({"dt": None}, "scenario.dt: expected a number"),
    ({"t_max": False}, "scenario.t_max: expected a number"),
    (
        {"perception_mode": "lidar"},
        "scenario.perception_mode: expected one of ['estimated', 'ground_truth'], got 'lidar'",
    ),
    (
        {"perception_mode": 3},
        "scenario.perception_mode: expected one of ['estimated', 'ground_truth'], got 3",
    ),
    ({"pixel_noise_sigma": [0.5]}, "scenario.pixel_noise_sigma: expected a number"),
    ({"rng_seed": 1.5}, "scenario.rng_seed: expected an integer"),
    ({"rng_seed": True}, "scenario.rng_seed: expected an integer"),
    ({"rng_seed": "7"}, "scenario.rng_seed: expected an integer"),
    ({"convergence": {"pos_tol": 0.05}}, "scenario.convergence: missing key 'ang_tol'"),
    (
        {"convergence": {"pos_tol": 0.05, "ang_tol": "0.02"}},
        "scenario.convergence.ang_tol: expected a number",
    ),
    ({"anchor_index": 0.0}, "scenario.anchor_index: expected an integer"),
    ({"anchor_index": "0"}, "scenario.anchor_index: expected an integer"),
    ({"goal_updates": {"t": 1.0, "goal_pose": POSE}}, "scenario.goal_updates: expected a list"),
    ({"goal_updates": [3]}, "scenario.goal_updates[0]: expected an object"),
    ({"goal_updates": [{"t": 1.0}]}, "scenario.goal_updates[0]: missing key 'goal_pose'"),
    ({"goal_updates": [{"goal_pose": POSE}]}, "scenario.goal_updates[0]: missing key 't'"),
    (
        {"goal_updates": [{"t": 1.0, "goal_pose": POSE, "x": 1}]},
        "scenario.goal_updates[0]: unknown key 'x'",
    ),
    (
        {"goal_updates": [{"t": "1", "goal_pose": POSE}]},
        "scenario.goal_updates[0].t: expected a number",
    ),
    (
        {"goal_updates": [{"t": 1.0, "goal_pose": dict(POSE, theta=None)}]},
        "scenario.goal_updates[0].goal_pose.theta: expected a number",
    ),
    (
        {"goal_updates": [
            {"t": 1.0, "goal_pose": POSE},
            {"t": 2.0, "goal_pose": {"x": 0.0, "y": 0.0}},
        ]},
        "scenario.goal_updates[1].goal_pose: missing key 'theta'",
    ),
]


@pytest.mark.parametrize("obj,message", DIAGNOSTICS, ids=[m for _, m in DIAGNOSTICS])
def test_diagnostic(obj, message):
    with pytest.raises(ConfigError) as info:
        scenario_from_dict(obj)
    assert str(info.value) == message


def test_nulls_accepted_for_optional_fields():
    sc = scenario_from_dict({"limits": None, "anchor_index": None}, default_name="nulls")
    assert sc == Scenario(name="nulls")


def test_empty_object_takes_defaults_and_default_name():
    assert scenario_from_dict({}) == Scenario()
    assert scenario_from_dict({}, default_name="stem").name == "stem"


def test_readme_example_parses():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    section = readme.split("### Scenario JSON", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    sc = scenario_from_dict(json.loads(block))
    assert sc == Scenario(
        name="my_scenario",
        initial_pose=Pose2(0.0, 0.0, 0.5236),
        goal_pose=Pose2(5.0, 5.0, 0.0),
        object_features=(FeaturePoint3(3.0, -0.5, 0.6),),
        intrinsics=CameraIntrinsics(460.0, 460.0, 320.0, 240.0, 640, 480, 0.1),
        controller=ControllerParams(0.1, 0.25, 2.25, 0.0009765625, 25.0),
        limits=TwistLimits(1.0, 1.0),
        dt=0.01,
        t_max=200.0,
        perception_mode=PerceptionMode.GROUND_TRUTH,
        pixel_noise_sigma=0.0,
        rng_seed=0,
        convergence=ConvergenceSpec(0.05, 0.02),
        anchor_index=None,
        goal_updates=(GoalUpdate(10.0, Pose2(6.0, 4.5, 0.2)),),
    )


@pytest.mark.parametrize("hash_seed", ["1", "3"])
def test_missing_key_is_first_in_declaration_order(hash_seed):
    code = (
        "from servopark.cli import scenario_from_dict\n"
        "try:\n"
        "    scenario_from_dict({'object_features': [{'X_star': 3.0}]})\n"
        "except Exception as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "scenario.object_features[0]: missing key 'Y_star'"


@pytest.mark.parametrize("key", ["width", "height"])
@pytest.mark.parametrize("value", [640.7, 640.0, "640", True])
def test_image_size_must_be_an_integer(key, value):
    with pytest.raises(ConfigError) as info:
        scenario_from_dict({"intrinsics": dict(INTR, **{key: value})})
    assert str(info.value) == f"scenario.intrinsics.{key}: expected an integer"


def test_unhashable_perception_mode_is_a_config_error():
    with pytest.raises(ConfigError) as info:
        scenario_from_dict({"perception_mode": ["estimated"]})
    assert str(info.value).startswith("scenario.perception_mode: expected one of")
