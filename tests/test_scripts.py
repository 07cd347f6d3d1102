"""Smoke tests of the command-line scripts under scripts/."""

import importlib.util
import os

import pytest

import servopark.closed_loop_sim as sim
from servopark.errors import DegenerateGeometry

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")

# one row per script: name, arguments of a short run, first header column
SMOKE_ROWS = [
    ("noise_sweep", ["--sigmas", "0", "--trials", "5"], "sigma_px"),
]

# stdout of `noise_sweep.py --sigmas 0 0.5 --trials 5 --seed 3`, byte for byte
NOISE_SWEEP_TABLE = """\
 sigma_px  used    ang p50    ang p90  trans p50  trans p90
-----------------------------------------------------------
     0.00     5  3.414e-15  4.990e-15  1.053e-14  1.547e-14
     0.50     5  8.046e-02  1.416e-01  2.648e-01  4.367e-01
"""


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_script_has_a_smoke_row():
    names = sorted(f[: -len(".py")] for f in os.listdir(SCRIPTS) if f.endswith(".py"))
    assert names == sorted(name for name, _, _ in SMOKE_ROWS)


@pytest.mark.parametrize("name,argv,first_column", SMOKE_ROWS)
def test_script_runs(capsys, name, argv, first_column):
    assert _load(name).main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[0] == first_column
    assert set(lines[1]) == {"-"}
    assert len(lines) == 3


def test_noise_sweep_table_is_pinned(capsys):
    assert _load("noise_sweep").main(["--sigmas", "0", "0.5", "--trials", "5", "--seed", "3"]) == 0
    assert capsys.readouterr().out == NOISE_SWEEP_TABLE


def test_noise_sweep_propagates_programming_errors(monkeypatch):
    # only "no estimate" errors shrink the sample; anything else is a bug
    module = _load("noise_sweep")

    def broken(pairs):
        raise TypeError("broken estimator")

    monkeypatch.setattr(sim, "estimate_pose", broken)
    with pytest.raises(TypeError, match="broken estimator"):
        module.main(["--sigmas", "0", "--trials", "5"])


def test_noise_sweep_refuses_an_empty_trial_count():
    with pytest.raises(SystemExit) as exc:
        _load("noise_sweep").main(["--sigmas", "0", "--trials", "0"])
    assert exc.value.code == 2


def test_noise_sweep_refuses_a_negative_seed():
    with pytest.raises(SystemExit) as exc:
        _load("noise_sweep").main(["--sigmas", "0", "--seed", "-1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "sigmas",
    [["-1"], ["0.25", "-1"]],
    ids=["only_level", "after_a_good_level"],
)
def test_noise_sweep_refuses_a_negative_level(capsys, sigmas):
    # every level is checked before the header, so no partial table is left
    assert _load("noise_sweep").main(["--sigmas", *sigmas, "--trials", "2"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: pixel_noise_sigma must be nonnegative\n")


def test_noise_sweep_reports_a_level_without_estimates(monkeypatch, capsys):
    module = _load("noise_sweep")

    def degenerate(pairs):
        raise DegenerateGeometry("no estimate")

    monkeypatch.setattr(sim, "estimate_pose", degenerate)
    assert module.main(["--sigmas", "0", "--trials", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == 1
    assert rows[0].split() == ["0.00", "0", "nan", "nan", "nan", "nan"]
