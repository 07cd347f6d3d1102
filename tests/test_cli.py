"""Command-line interface: exit codes, file formats, determinism."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os

import pytest

from servopark import cli
from servopark.cli import main
from servopark.closed_loop_sim import (
    PerceptionMode,
    RunSummary,
    Scenario,
    TrajectorySample,
    pose_for_chained_state,
    run,
)
from servopark.error_state import AnchorDepth, BodyTwist, ChainedInput, ChainedState
from servopark.errors import EstimatorStarvation
from servopark.geometry import CameraIntrinsics, Pose2

TRAJ_HEADER = (
    "t,x,y,theta,z0,z1,z2,v,omega,u0,u1,u0_branch,u1_branch,in_gamma,"
    "est_angle_err,est_trans_err,visible_count"
)


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _features_json(n, mode):
    features = [{"X_star": 3.0, "Y_star": i / n - 0.5, "Z_star": 0.6} for i in range(n)]
    return json.dumps({"perception_mode": mode, "object_features": features})


def _corridor_config(tmp_path, **extra):
    goal = {"x": 1.0, "y": 2.0, "theta": 0.3}
    start = pose_for_chained_state(
        ChainedState(0.02, 5e-6, 5e-4), AnchorDepth(0.6), Pose2(1.0, 2.0, 0.3)
    )
    cfg = {
        "name": "corridor",
        "initial_pose": {"x": start.x, "y": start.y, "theta": start.theta},
        "goal_pose": goal,
        "t_max": 30.0,
    }
    cfg.update(extra)
    path = tmp_path / "corridor.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# estimated perception through a camera whose principal point lies far off
# the image, so the board is never seen and the run starves
_BLIND_ESTIMATED = {
    "perception_mode": "estimated",
    "intrinsics": {
        "f_x": 460.0, "f_y": 460.0, "c_x": -5000.0, "c_y": 240.0,
        "width": 640, "height": 480, "min_depth": 0.1,
    },
}

# two usable rows of a pairs file, header included
_PAIRS_OK = "x_cur,y_cur,x_ref,y_ref,X_star\n0.1,0.2,0.1,0.2,3\n-0.3,0.25,-0.3,0.25,2\n"


class TestRunCommand:
    def test_requires_exactly_one_source(self, tmp_path):
        rc, _, err = _call(["run", "--out", str(tmp_path)])
        assert rc == 1
        assert "exactly one of --case or --config" in err
        rc, _, err = _call(
            ["run", "--case", "case1", "--config", "x.json", "--out", str(tmp_path)]
        )
        assert rc == 1

    def test_unknown_case(self, tmp_path):
        rc, _, err = _call(["run", "--case", "case9", "--out", str(tmp_path)])
        assert rc == 1
        assert "unknown case" in err

    def test_case_run_writes_outputs(self, tmp_path):
        rc, out, _ = _call(
            ["run", "--case", "case1", "--t-max", "2", "--out", str(tmp_path), "--plot"]
        )
        assert rc == 2  # not converged in two seconds
        assert "not converged" in out
        traj = (tmp_path / "case1_traj.csv").read_text().splitlines()
        assert traj[0] == TRAJ_HEADER
        assert len(traj) == 202  # header + 201 samples at dt 0.01
        summary = json.loads((tmp_path / "case1_summary.json").read_text())
        assert summary["converged"] is False
        assert set(summary) == {
            "converged", "t_converge", "final_pos_err", "final_ang_err",
            "path_length", "max_abs_v", "max_abs_omega", "peak_z0z1", "samples",
        }
        plot = (tmp_path / "case1_z0z1.csv").read_text().splitlines()
        assert plot[0] == "t,z0z1"
        assert len(plot) == 202

    def test_config_run_converges_exit_zero(self, tmp_path):
        cfg = _corridor_config(tmp_path)
        rc, out, _ = _call(["run", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        assert "converged" in out
        summary = json.loads((tmp_path / "corridor_summary.json").read_text())
        assert summary["converged"] is True
        assert 7.0 < summary["t_converge"] < 9.0

    def test_starvation_exit_three(self, tmp_path):
        cfg = _corridor_config(tmp_path, **_BLIND_ESTIMATED)
        rc, _, err = _call(["run", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 3
        assert "starvation" in err

    def test_starved_run_writes_its_files(self, tmp_path):
        cfg = _corridor_config(tmp_path, **_BLIND_ESTIMATED)
        assert _call(["run", "--config", cfg, "--plot", "--out", str(tmp_path / "out")]) == (
            3, "", "run: estimator starvation: no usable pose estimate for 5.01 s at t = 5.00 s\n"
        )
        traj = (tmp_path / "out" / "corridor_traj.csv").read_text().splitlines()
        assert traj[0] == TRAJ_HEADER
        assert len(traj) == 502  # header + 501 samples, t = 0 to 5.00 s at dt 0.01
        rows = [line.split(",") for line in traj[1:]]
        assert f"{float(rows[-1][0]):.2f}" == "5.00"
        assert all(row[11:13] == ["held", "held"] for row in rows)  # never sees the board
        summary = json.loads((tmp_path / "out" / "corridor_summary.json").read_text())
        assert list(summary) == [f.name for f in dataclasses.fields(RunSummary)]
        assert summary["samples"] == 501 and summary["converged"] is False
        plot = (tmp_path / "out" / "corridor_z0z1.csv").read_text().splitlines()
        assert plot[0] == "t,z0z1"
        assert len(plot) == 502

    @pytest.mark.parametrize(
        "case, samples, t_abort", [("case1", 1021, "10.20"), ("case2", 1313, "13.12")]
    )
    def test_starved_cases_leave_their_rows(self, tmp_path, case, samples, t_abort):
        # on the default camera, estimated case1 and case2 lose the board near the goal
        argv = ["run", "--case", case, "--perception", "estimated", "--out", str(tmp_path)]
        rc, out, err = _call(argv)
        assert (rc, out) == (3, "")
        assert err.endswith(f" at t = {t_abort} s\n")
        traj = (tmp_path / f"{case}_traj.csv").read_text().splitlines()
        assert len(traj) == samples + 1
        assert f"{float(traj[-1].split(',')[0]):.2f}" == t_abort
        assert traj[-1].split(",")[11:13] == ["held", "held"]
        summary = json.loads((tmp_path / f"{case}_summary.json").read_text())
        assert summary["samples"] == samples

    def test_missing_config(self, tmp_path):
        rc, _, err = _call(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == 1
        assert "cannot read scenario file" in err

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  \"name\": \n}")
        rc, _, err = _call(["run", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 1
        assert "invalid JSON" in err

    def test_unknown_key_rejected(self, tmp_path):
        cfg = _corridor_config(tmp_path, speling_mistake=1.0)
        rc, _, err = _call(["run", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 1
        assert "unknown key 'speling_mistake'" in err

    def test_nested_unknown_key_path(self, tmp_path):
        cfg = _corridor_config(tmp_path, goal_updates=[{"t": 1.0, "goal": {"x": 0, "y": 0, "theta": 0}}])
        rc, _, err = _call(["run", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 1
        assert "goal_updates[0]" in err

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("converged",
             (0, "corridor: converged (final_pos_err=6.5281473279527006e-05 m)\n", "")),
            ("not_converged",
             (2, "case1: not converged (final_pos_err=3.9140988667707775 m)\n", "")),
            ("starved",
             (3, "", "run: estimator starvation: no usable pose estimate for 5.01 s at t = 5.00 s\n")),
        ],
    )
    def test_outcome_report(self, tmp_path, source, expected):
        if source == "not_converged":
            argv = ["--case", "case1", "--t-max", "2"]
        else:
            extra = _BLIND_ESTIMATED if source == "starved" else {}
            argv = ["--config", _corridor_config(tmp_path, **extra)]
        assert _call(["run", *argv, "--out", str(tmp_path / "out")]) == expected

    # SHA-256 of `run --case caseN --plot` outputs (traj, summary, z0z1),
    # recorded before the per-step values became named tuples
    _RECORDED_BYTES = {
        "case1": (
            "39ab86f7b2077c4143fbe7ad2b12b4c5d5e0481ec146bb2f5e72d87556bfe4c2",
            "2cf6c4b5d6f376b8d6bc928e1a4eff4abc9060d1348e27a8c69896c332473e6c",
            "92eec2ccd9c3e253f1387d746263480cb90239b954806dcafffe66c997d44cef",
        ),
        "case2": (
            "99b9fb2f6ae12aae6e4519990120fb9fb6034ad8c0dcfcaf09e8838e7981f7fc",
            "e957b9fc8a62dd6f529972e55048035f81e6864737ce73c25a6468561c937b7a",
            "251c631f50658c14f775b83ed1ef1534aec828cfc76d7bf85d6312e60127e0e4",
        ),
        "case3": (
            "e95a07622698a1dfe1b84d85f92a9c61cffbad978bc7de7b67fb4eba512d92cc",
            "815a4d66c5d975123bad3e73301516208b470e41bcb2ef218e8067881f0ee412",
            "6027fc4d1467fce30f587813a98c040836d0ed2edd38724b37f361396f6432db",
        ),
        "case4": (
            "7c37a5382f352ae588f9ab3a321bdcd351ce845f57d5e25a00a8009d23359f7e",
            "6183a8ca8e4975f4abd310314320c9caf7d983a67f8787857da2ad13c6a4d1b8",
            "cd49d16b9211d4cde59460e29fa9da66ea8b1125e341be36cbcc53ecb2a51449",
        ),
    }

    @pytest.mark.parametrize("case", sorted(_RECORDED_BYTES))
    def test_recorded_case_bytes(self, tmp_path, case):
        rc, _, _ = _call(["run", "--case", case, "--plot", "--out", str(tmp_path)])
        assert rc == 0
        digests = tuple(
            hashlib.sha256((tmp_path / f"{case}{suffix}").read_bytes()).hexdigest()
            for suffix in ("_traj.csv", "_summary.json", "_z0z1.csv")
        )
        assert digests == self._RECORDED_BYTES[case]

    def test_recorded_held_run_bytes(self, tmp_path):
        # a noisy estimated run with 6 held rows: NaN inputs, "held" labels and
        # the carried in_gamma, which no ground-truth case writes
        argv = ["run", "--case", "case1", "--perception", "estimated", "--noise-px", "0.5",
                "--seed", "7", "--t-max", "40", "--plot", "--out", str(tmp_path)]
        rc, _, _ = _call(argv)
        assert rc == 2
        traj = (tmp_path / "case1_traj.csv").read_text()
        assert traj.count(",held,held,") == 6
        digests = tuple(
            hashlib.sha256((tmp_path / f"case1{suffix}").read_bytes()).hexdigest()
            for suffix in ("_traj.csv", "_z0z1.csv")
        )
        assert digests == (
            "d00f39e7be4f1d6dadc45334aa709d62f16a531d5bf7d8f5c26c5283bea6443e",
            "ed5606a8fbcc399f3a6636865bd442f8df3fed3ce58fcc2f89f982064e6ef25b",
        )

    def test_header_spreads_the_sample_fields(self, case_runs):
        # one layout: the traj CSV's columns are TrajectorySample's fields with
        # its four value types spread out, and rows() gives that many values
        spread = {
            "pose": tuple(f.name for f in dataclasses.fields(Pose2)),
            "z": ChainedState._fields,
            "twist": BodyTwist._fields,
            "u": ChainedInput._fields,
        }
        names = [n for field in TrajectorySample._fields for n in spread.get(field, (field,))]
        assert names == cli.TRAJ_HEADER.split(",") == TRAJ_HEADER.split(",")
        assert len(names) == 17
        log, _ = case_runs["case1"]
        assert {len(row) for row in log.rows()} == {17}

    def test_summary_keeps_float_types(self, tmp_path):
        rc, _, _ = _call(["run", "--case", "case3", "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "case3_summary.json").read_text())
        assert summary["final_ang_err"] == 0.0
        assert summary["max_abs_v"] == 1.0
        assert type(summary["final_ang_err"]) is float
        assert type(summary["max_abs_v"]) is float
        assert type(summary["samples"]) is int


class TestDeterminism:
    def _run_once(self, tmp_path, sub, seed_args, env=None):
        out = tmp_path / sub
        out.mkdir()
        argv = [
            "run", "--case", "case1", "--perception", "estimated",
            "--noise-px", "0.5", "--t-max", "3", "--out", str(out),
        ] + seed_args
        old = {}
        env = env or {}
        for k, v in env.items():
            old[k] = os.environ.get(k)
            os.environ[k] = v
        try:
            rc, _, _ = _call(argv)
        finally:
            for k, v in old.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        assert rc in (0, 2)
        return (out / "case1_traj.csv").read_bytes(), (out / "case1_summary.json").read_bytes()

    def test_same_seed_byte_identical(self, tmp_path):
        a = self._run_once(tmp_path, "a", ["--seed", "7"])
        b = self._run_once(tmp_path, "b", ["--seed", "7"])
        assert a == b

    def test_different_seed_differs(self, tmp_path):
        a = self._run_once(tmp_path, "a", ["--seed", "7"])
        b = self._run_once(tmp_path, "b", ["--seed", "8"])
        assert a[0] != b[0]

    def test_env_seed_matches_flag(self, tmp_path):
        a = self._run_once(tmp_path, "a", [], env={"SERVOPARK_SEED": "7"})
        b = self._run_once(tmp_path, "b", ["--seed", "7"])
        assert a == b

    def test_flag_beats_env(self, tmp_path):
        a = self._run_once(tmp_path, "a", ["--seed", "7"], env={"SERVOPARK_SEED": "8"})
        b = self._run_once(tmp_path, "b", ["--seed", "7"])
        assert a == b


class TestEstimateRoundTrip:
    def test_gen_then_estimate(self, tmp_path):
        pairs = tmp_path / "pairs.csv"
        rc, _, _ = _call([
            "gen-pairs", "--theta", "0.3", "--tx", "0.5", "--ty", "-0.2",
            "--out", str(pairs),
        ])
        assert rc == 0
        assert pairs.read_text().splitlines()[0] == "x_cur,y_cur,x_ref,y_ref,X_star"
        rc, out, _ = _call(["estimate", "--pairs", str(pairs)])
        assert rc == 0
        result = json.loads(out)
        assert result["theta"] == pytest.approx(0.3, abs=1e-9)
        assert result["t_x"] == pytest.approx(0.5, abs=1e-9)
        assert result["t_y"] == pytest.approx(-0.2, abs=1e-9)
        assert result["pairs_used"] == 6

    def test_identity_pairs(self, tmp_path):
        pairs = tmp_path / "id.csv"
        pairs.write_text(
            "x_cur,y_cur,x_ref,y_ref,X_star\n"
            "0.1,0.2,0.1,0.2,3\n"
            "-0.3,0.25,-0.3,0.25,2\n"
            "0.05,-0.4,0.05,-0.4,4\n"
        )
        rc, out, _ = _call(["estimate", "--pairs", str(pairs)])
        assert rc == 0
        result = json.loads(out)
        assert abs(result["theta"]) < 1e-9
        assert math.hypot(result["t_x"], result["t_y"]) < 1e-9

    def test_malformed_row_diagnostic(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "x_cur,y_cur,x_ref,y_ref,X_star\n"
            "0.1,0.2,0.1,0.2,3\n"
            "0.1,oops,0.1,0.2,3\n"
        )
        rc, _, err = _call(["estimate", "--pairs", str(bad)])
        assert rc == 1
        assert ":3:" in err

    @pytest.mark.parametrize(
        "text, where, message",
        [
            ("", "1", "empty file"),
            ("x,y,z\n0.1,0.2,0.1,0.2,3\n", "1", "expected header"),
            ("x_cur,y_cur,x_ref,y_ref,X_star\n0.1,0.2,0.1,0.2\n", "2",
             "expected 5 comma-separated fields, got 4"),
            (_PAIRS_OK + "0.05,-0.4,0.05,-0.4,inf\n", "4", "X_star is not finite"),
            (_PAIRS_OK + "nan,-0.4,0.05,-0.4,4\n", "4", "x_cur is not finite"),
            (_PAIRS_OK + "0.05,-0.4,0.05,-inf,4\n", "4", "y_ref is not finite"),
            (_PAIRS_OK + "0.05,0,0.05,-0.4,4\n", "4",
             "vertical normalized coordinate too close to zero"),
            (_PAIRS_OK + "0.05,-0.4,0.05,-0.4,0\n", "4", "reference depth must be positive"),
        ],
        ids=["empty", "header", "field_count", "inf", "nan", "minus_inf", "y_cur_zero",
             "X_star_zero"],
    )
    def test_pairs_file_diagnostic(self, tmp_path, text, where, message):
        path = tmp_path / "pairs.csv"
        path.write_text(text)
        rc, out, err = _call(["estimate", "--pairs", str(path)])
        assert (rc, out) == (1, "")
        assert err.startswith(f"error: {path}:{where}: {message}")

    def test_blank_lines_skipped(self, tmp_path):
        dense, sparse = tmp_path / "dense.csv", tmp_path / "sparse.csv"
        row = "0.05,-0.4,0.05,-0.4,4\n"
        dense.write_text(_PAIRS_OK + row)
        sparse.write_text(_PAIRS_OK.replace("X_star\n", "X_star\n\n") + "  \n" + row + "\n")
        rc, out, err = _call(["estimate", "--pairs", str(sparse)])
        assert (rc, out, err) == _call(["estimate", "--pairs", str(dense)])
        assert rc == 0
        assert json.loads(out)["pairs_used"] == 3

    def test_gen_pairs_too_few_visible(self, tmp_path):
        # turned away from the board, the camera sees none of its features
        out = tmp_path / "pairs.csv"
        rc, stdout, err = _call(["gen-pairs", "--theta", "3", "--out", str(out)])
        assert (rc, stdout) == (1, "")
        assert err == "gen-pairs: fewer than 2 features visible for this pose\n"
        assert not out.exists()

    def test_degenerate_pairs_reported(self, tmp_path):
        stacked = tmp_path / "stacked.csv"
        stacked.write_text(
            "x_cur,y_cur,x_ref,y_ref,X_star\n"
            + "0.1,0.2,0.1,0.2,3\n" * 4
        )
        rc, _, err = _call(["estimate", "--pairs", str(stacked)])
        assert rc == 1
        assert "rotation information" in err

    def test_noisy_gen_is_seeded(self, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        base = ["gen-pairs", "--theta", "0.2", "--noise-px", "0.5"]
        _call(base + ["--seed", "3", "--out", str(a)])
        _call(base + ["--seed", "3", "--out", str(b)])
        _call(base + ["--seed", "4", "--out", str(c)])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_noisy_gen_recorded_bytes(self, tmp_path):
        out = tmp_path / "pairs.csv"
        rc, _, _ = _call([
            "gen-pairs", "--theta", "0.2", "--tx", "0.1", "--ty", "-0.3",
            "--noise-px", "0.5", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "67e13bc3f3e24eb4e580dd76e825d957a62e3a5b8c8250382ee5525878c3e071"
        )

    def test_negative_noise_rejected(self, tmp_path):
        out = tmp_path / "pairs.csv"
        rc, _, err = _call(["gen-pairs", "--noise-px", "-1", "--out", str(out)])
        assert rc == 1
        assert "pixel_noise_sigma must be nonnegative" in err
        assert not out.exists()


class TestBoundaryRefusals:
    """Bad numbers and unusable paths end in one `error:` line and exit 1."""

    @pytest.mark.parametrize(
        "scenario, argv, message",
        [
            ('{"t_max": Infinity}', ["run"], "scenario.t_max: expected a finite number"),
            ('{"dt": -Infinity}', ["run"], "scenario.dt: expected a finite number"),
            ('{"pixel_noise_sigma": 1e400}', ["run"],
             "scenario.pixel_noise_sigma: expected a finite number"),
            ('{"t_max": 1' + "0" * 400 + "}", ["run"], "scenario.t_max: expected a finite number"),
            ('{"initial_pose": {"x": NaN, "y": 0, "theta": 0}}', ["run"],
             "scenario.initial_pose.x: expected a finite number"),
            (None, ["run", "--case", "case1", "--t-max", "inf"], "t_max must be finite"),
            (None, ["run", "--case", "case1", "--noise-px", "inf"],
             "pixel_noise_sigma must be finite"),
            (None, ["cases", "--t-max", "inf"], "t_max must be finite"),
            (None, ["gen-pairs", "--noise-px", "inf"], "pixel_noise_sigma must be finite"),
            (None, ["gen-pairs", "--theta", "inf"], "--theta, --tx and --ty must be finite"),
            (None, ["gen-pairs", "--ty", "nan"], "--theta, --tx and --ty must be finite"),
            ('{"dt": 1e-320}', ["run"], "t_max / dt must be a finite step count"),
            (None, ["run", "--case", "case1", "--dt", "1e-300", "--t-max", "1e10"],
             "t_max / dt must be a finite step count"),
            (None, ["cases", "--dt", "1e-300", "--t-max", "1e10"],
             "t_max / dt must be a finite step count"),
            (None, ["run", "--case", "case1", "--dt", "1e-320", "--t-max", "1e-310"],
             "t_max / dt must be a finite step count"),
            # the estimator takes at most 64 features
            (_features_json(65, "estimated"), ["run"],
             "estimated perception takes at most 64 features"),
            (_features_json(65, "ground_truth"), ["run", "--perception", "estimated"],
             "estimated perception takes at most 64 features"),
        ],
        ids=[
            "json_inf", "json_minus_inf", "json_overflow", "json_huge_int", "json_nan",
            "run_t_max", "run_noise", "cases_t_max", "gen_noise", "gen_theta", "gen_ty",
            "json_step_count", "run_step_count", "cases_step_count", "run_quiet_window",
            "json_too_many_features", "run_too_many_features",
        ],
    )
    def test_non_finite_number_refused(self, tmp_path, scenario, argv, message):
        out = tmp_path / "out"
        if scenario is not None:
            cfg = tmp_path / "s.json"
            cfg.write_text(scenario)
            argv = argv + ["--config", str(cfg)]
        rc, stdout, err = _call(argv + ["--out", str(out)])
        assert (rc, stdout, err) == (1, "", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--config", "{bytes}", "--out", "{dir}/out"], "cannot read scenario file: "),
            (["estimate", "--pairs", "{bytes}"], "cannot read pairs file: "),
            (["run", "--case", "case1", "--out", "{file}"], "[Errno 17] File exists"),
            (["cases", "--out", "{file}"], "[Errno 17] File exists"),
            (["gen-pairs", "--out", "{dir}/missing/pairs.csv"], "[Errno 2] No such file"),
        ],
        ids=["scenario_not_utf8", "pairs_not_utf8", "run_out_is_file", "cases_out_is_file",
             "gen_pairs_no_dir"],
    )
    def test_io_failure_reported(self, tmp_path, argv, message):
        (tmp_path / "latin1").write_bytes("x_cur,\u00e9\n".encode("latin-1"))
        (tmp_path / "file").write_text("")
        names = {"bytes": tmp_path / "latin1", "file": tmp_path / "file", "dir": tmp_path}
        rc, stdout, err = _call([arg.format(**names) for arg in argv])
        assert (rc, stdout) == (1, "")
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1


    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["run", "--config", "{path}", "--out", "{out}"], "scenario"),
            (["estimate", "--pairs", "{path}"], "pairs"),
        ],
        ids=["scenario", "pairs"],
    )
    def test_not_utf8_names_the_file(self, tmp_path, argv, kind):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe{}")
        rc, stdout, err = _call([arg.format(path=path, out=tmp_path / "out") for arg in argv])
        assert (rc, stdout) == (1, "")
        assert err.startswith(f"error: cannot read {kind} file: {path}: 'utf-8' codec can't decode")
        assert not (tmp_path / "out").exists()


class TestOverrides:
    """Flags and the seed variable that change the scenario a run uses."""

    def _rows(self, path):
        return [row.split(",") for row in path.read_text().splitlines()[1:]]

    def test_dt_override(self, tmp_path):
        rc, _, _ = _call(
            ["run", "--case", "case1", "--dt", "0.02", "--t-max", "2", "--out", str(tmp_path)]
        )
        assert rc == 2
        rows = self._rows(tmp_path / "case1_traj.csv")
        assert len(rows) == 101  # 2 s at dt 0.02
        assert [float(r[0]) for r in rows[:2]] == [0.0, 0.02]

    def test_overrides_apply_together(self, tmp_path):
        # --dt 250 exceeds case1's t_max of 200 s; only with --t-max 1000 is it valid
        rc, out, err = _call(
            ["run", "--case", "case1", "--dt", "250", "--t-max", "1000", "--out", str(tmp_path)]
        )
        assert (rc, err) == (2, "")
        assert out.startswith("case1: not converged")
        rows = self._rows(tmp_path / "case1_traj.csv")
        assert [float(r[0]) for r in rows] == [0.0, 250.0, 500.0, 750.0, 1000.0]

    def test_twist_limits_override(self, tmp_path):
        rc, _, _ = _call([
            "run", "--case", "case1", "--v-max", "0.3", "--omega-max", "0.05",
            "--t-max", "2", "--out", str(tmp_path),
        ])
        assert rc == 2
        rows = self._rows(tmp_path / "case1_traj.csv")
        assert max(abs(float(r[7])) for r in rows) == 0.3
        assert max(abs(float(r[8])) for r in rows) == 0.05

    @pytest.mark.parametrize("flag", ["--v-max", "--omega-max"])
    def test_one_twist_limit_alone_refused(self, tmp_path, flag):
        out = tmp_path / "out"
        rc, stdout, err = _call(["run", "--case", "case1", flag, "1", "--out", str(out)])
        assert (rc, stdout, err) == (1, "", "error: --v-max and --omega-max must be given together\n")
        assert not out.exists()

    def test_non_integer_seed_variable_refused(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SERVOPARK_SEED", "7.5")
        out = tmp_path / "out"
        rc, stdout, err = _call(["run", "--case", "case1", "--out", str(out)])
        assert (rc, stdout, err) == (1, "", "error: SERVOPARK_SEED: expected an integer, got '7.5'\n")
        assert not out.exists()


class TestSharedFlags:
    """`run` and `cases` take the same scenario flags; the source and perception flags are run's."""

    @pytest.mark.parametrize("verb", ["run", "cases"])
    def test_shared_flags_parse(self, verb):
        parse = cli.build_parser().parse_args
        args = parse([verb])
        assert (args.out, args.dt, args.t_max, args.noise_px, args.seed, args.plot) == (
            "out", None, None, None, None, False
        )
        args = parse([
            verb, "--out", "o", "--dt", "0.5", "--t-max", "3", "--noise-px", "0.25",
            "--seed", "4", "--plot",
        ])
        assert (args.out, args.dt, args.t_max, args.noise_px, args.seed, args.plot) == (
            "o", 0.5, 3.0, 0.25, 4, True
        )

    @pytest.mark.parametrize(
        "flag, value",
        [("--case", "case1"), ("--config", "s.json"), ("--perception", "estimated"),
         ("--v-max", "1"), ("--omega-max", "1")],
    )
    def test_run_only_flags(self, capsys, flag, value):
        parse = cli.build_parser().parse_args
        assert getattr(parse(["run", flag, value]), flag[2:].replace("-", "_")) is not None
        with pytest.raises(SystemExit) as exc:
            parse(["cases", flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


class TestCasesCommand:
    def test_writes_all_modes(self, tmp_path):
        rc, out, _ = _call(["cases", "--out", str(tmp_path), "--t-max", "6"])
        assert rc == 2  # nothing converges in six seconds
        names = sorted(os.listdir(tmp_path))
        assert "cases_summary.json" in names
        for case in ("case1", "case2", "case3", "case4"):
            for mode in ("ground_truth", "estimated"):
                assert f"{case}_{mode}_traj.csv" in names
                assert f"{case}_{mode}_summary.json" in names
        summary = json.loads((tmp_path / "cases_summary.json").read_text())
        assert set(summary) == {"case1", "case2", "case3", "case4"}
        for case in summary.values():
            assert set(case) == {"ground_truth", "estimated"}
            for entry in case.values():
                assert entry["status"] in {"converged", "not_converged", "starved"}

    @pytest.mark.parametrize("with_blind, code", [(True, 3), (False, 0)])
    def test_starved_case_exit_codes(self, tmp_path, monkeypatch, with_blind, code):
        # a camera whose principal point lies far off the image never sees the board
        blind = Scenario(
            name="blind",
            initial_pose=Pose2(-1.0, 0.3, 0.0),
            t_max=8.0,
            intrinsics=CameraIntrinsics(460.0, 460.0, -5000.0, 240.0, 640, 480, 0.1),
        )
        cases = {"home": Scenario(name="home")}  # starts at the goal
        if with_blind:
            cases["blind"] = blind
        monkeypatch.setattr(cli, "case_scenarios", lambda: cases)
        rc, out, _ = _call(["cases", "--out", str(tmp_path)])
        assert rc == code
        converged = str(code == 0).lower()
        assert out == f"cases: all_converged={converged} (details in cases_summary.json)\n"
        summary = json.loads((tmp_path / "cases_summary.json").read_text())
        assert [e["status"] for e in summary["home"].values()] == ["converged", "converged"]
        if with_blind:
            assert summary["blind"]["ground_truth"]["status"] == "not_converged"
            # the starved entry is its status and error, then the partial summary
            with pytest.raises(EstimatorStarvation) as starved:
                run(dataclasses.replace(blind, perception_mode=PerceptionMode.ESTIMATED))
            entry = summary["blind"]["estimated"]
            assert entry == {
                "status": "starved",
                "error": "no usable pose estimate for 5.01 s at t = 5.00 s",
                **dataclasses.asdict(starved.value.summary),
            }
            fields = [f.name for f in dataclasses.fields(RunSummary)]
            assert list(entry) == ["status", "error", *fields]
            assert (tmp_path / "blind_estimated_traj.csv").is_file()
