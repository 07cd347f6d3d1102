"""Every record type of the package is a frozen dataclass with ``__slots__``."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import servopark


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
    assert {"MatchedPair", "NormalizedFeature", "Pose2", "Scenario", "RunSummary"} <= names
    for cls in records:
        name = f"{cls.__module__}.{cls.__name__}"
        assert "__slots__" in vars(cls), name
        # a bare instance: the layout is the class's, whatever its __post_init__ checks
        instance = object.__new__(cls)
        assert not hasattr(instance, "__dict__"), name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instance, dataclasses.fields(cls)[0].name, 0.0)
