"""The benchmark's per-layer timings wrap functions by module attribute.

``bench/tracing.py`` replaces each ``(module, attribute)`` of its ``WRAPS``
table for the length of a traced run.  A name that a refactor deletes or
renames would make that run fail, so every one must still resolve.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_wrapped_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.WRAPS
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in tracing.WRAPS
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
