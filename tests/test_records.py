"""Every record type of the package is slotted and frozen.

Each is a frozen dataclass with ``__slots__``, except ``MatchedPair``, which
is its five doubles packed into a ``bytes`` subclass.
"""

import dataclasses
import importlib
import inspect
import math
import pkgutil

import pytest

import servopark
from servopark.closed_loop_sim import ConvergenceSpec, GoalUpdate, Scenario
from servopark.error_state import AnchorDepth
from servopark.errors import InvalidParams
from servopark.geometry import (
    DEFAULT_INTRINSICS,
    CameraIntrinsics,
    FeaturePoint3,
    NormalizedFeature,
    Pose2,
)
from servopark.parking_controller import PROPOSED_PARAMS, ControllerParams, TwistLimits
from servopark.pose_estimator import MatchedPair


def _records():
    found = []
    for info in pkgutil.iter_modules(servopark.__path__):
        module = importlib.import_module(f"servopark.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                found.append(cls)
    return found


def test_every_record_is_slotted_and_frozen():
    records = _records()
    names = {cls.__name__ for cls in records}
    assert {"NormalizedFeature", "Pose2", "Scenario", "RunSummary"} <= names
    for cls in records:
        name = f"{cls.__module__}.{cls.__name__}"
        assert "__slots__" in vars(cls), name
        # a bare instance: the layout is the class's, whatever its __post_init__ checks
        instance = object.__new__(cls)
        assert not hasattr(instance, "__dict__"), name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instance, dataclasses.fields(cls)[0].name, 0.0)
        # a name that is no field is refused too; CPython 3.11 raises TypeError
        # (the frozen __setattr__ calls super() with the class before slotting)
        with pytest.raises((AttributeError, TypeError)):
            setattr(instance, "extra", 0.0)
        assert not hasattr(instance, "extra"), name
    # packed bytes, not a dataclass: the same three properties, on a built pair
    assert "__slots__" in vars(MatchedPair)
    pair = MatchedPair(NormalizedFeature(0.1, 0.2), NormalizedFeature(0.15, 0.22), 3.0)
    assert not hasattr(pair, "__dict__")
    for name in ("x_cur", "cur", "extra"):
        with pytest.raises(AttributeError):
            setattr(pair, name, 0.0)


# One valid instance of each record that __post_init__ validates.  MatchedPair
# validates in its own __new__ and is covered by TestMatchedPair.
_VALID = {
    Pose2: Pose2(1.0, 2.0, 0.3),
    CameraIntrinsics: DEFAULT_INTRINSICS,
    FeaturePoint3: FeaturePoint3(3.0, -0.5, 0.6),
    ControllerParams: PROPOSED_PARAMS,
    TwistLimits: TwistLimits(1.0, 1.0),
    AnchorDepth: AnchorDepth(0.6),
    ConvergenceSpec: ConvergenceSpec(),
    GoalUpdate: GoalUpdate(1.0, Pose2(0.0, 0.0, 0.0)),
    Scenario: Scenario(),
}


def test_every_validated_record_refuses_non_finite_numbers():
    validated = {cls for cls in _records() if "__post_init__" in vars(cls)}
    assert validated == set(_VALID), sorted(c.__name__ for c in validated ^ set(_VALID))
    for cls, instance in _VALID.items():
        names = [f.name for f in dataclasses.fields(cls) if f.type in ("float", float)]
        assert names, cls.__name__
        for name in names:
            for value in (math.inf, -math.inf, math.nan, 10**400, -10**400):  # ints beyond float
                try:
                    dataclasses.replace(instance, **{name: value})
                except InvalidParams:
                    continue
                pytest.fail(f"{cls.__name__}({name}={value}) was admitted")
