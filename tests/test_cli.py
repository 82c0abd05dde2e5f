"""End-to-end checks of the command-line interface: config parsing with
line/key diagnostics, artifact and manifest layout, headline metrics, exit
codes, preset resolution and deterministic re-runs."""

import csv
import dataclasses
import hashlib
import json
import math
import os
import random
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import wavemotil.cli as cli
import wavemotil.pde as pde
from wavemotil.analysis import b_star, c_star, kappa
from wavemotil.certificates import CertificateReport, CheckRecord
from wavemotil.cli import PRESETS, main, read_config, resolve_config
from wavemotil.errors import ConfigError, NegativeDensity, NoCrossing, NoRing
from wavemotil.frontmetrics import classify_profile, front_position
from wavemotil.waveode import WaveProfile, frame_step


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


#: Seconds each fuzzed command may take; a passing gate-speed wave takes
#: about 0.3 s and a two-row scan a few seconds on a 2-vCPU VM.
_CASE_BUDGET_S = 20.0

#: Elements of the largest array a guarded test may ask numpy for: a few
#: arrays per node of a grid at the MAX_RUN_COUNT bound (1.28 GB of float64).
_ELEMENT_LIMIT = 16 * pde.MAX_RUN_COUNT


@contextmanager
def _time_budget(seconds: float, case):
    """Fails the test if the block runs longer than ``seconds``."""

    def expired(signum, frame):
        pytest.fail(f"{case!r} ran past its {seconds} s budget")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _elements(name: str, args, kwargs) -> float:
    """Elements a numpy constructor call asks for."""
    if name == "arange":
        start, stop, step = (0.0, args[0], 1.0) if len(args) == 1 else (*args, 1.0)[:3]
        return max(0.0, (stop - start) / step)
    shape = args[0] if args else kwargs["shape"]
    return float(math.prod(shape)) if isinstance(shape, tuple) else float(shape)


@pytest.fixture
def allocation_guard(monkeypatch):
    """Fails the test before numpy makes an array of more than
    ``_ELEMENT_LIMIT`` elements, so a missing size bound shows as a failure
    and never as an allocation."""

    def guarded(name, build):
        def call(*args, **kwargs):
            if _elements(name, args, kwargs) > _ELEMENT_LIMIT:
                pytest.fail(f"np.{name} asked for more than {_ELEMENT_LIMIT:,} elements")
            return build(*args, **kwargs)

        return call

    for name in ("arange", "empty", "zeros", "ones", "full"):
        monkeypatch.setattr(np, name, guarded(name, getattr(np, name)))


# Configs whose ceiling quadratic has no positive finite root: with
# lin >= 0 both roots are negative (b is below b*, so outside the window),
# and at b = 1e300 lin^2 overflows and the root rounds to 0 (in the window).
ETA_UNDEFINED = {
    "negative-roots": "a=1e-300\nb=1e-300\nm=0.1\nc=60\n",
    "root-underflows": "a=1e-8\nb=1e300\nm=1e-300\nc=60\n",
}


class TestConfigParsing:
    def test_comments_blanks_and_values(self, tmp_path):
        path = _write(
            tmp_path,
            "c.cfg",
            "# full-line comment\n\na = 0.1  # trailing comment\nb=60\nm=6\n",
        )
        assert read_config(path) == {"a": "0.1", "b": "60", "m": "6"}

    def test_missing_equals_names_line(self, tmp_path):
        path = _write(tmp_path, "c.cfg", "a = 0.1\nnonsense\n")
        with pytest.raises(ConfigError, match=":2"):
            read_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = _write(tmp_path, "c.cfg", "a=1\na=2\n")
        with pytest.raises(ConfigError, match="duplicate key 'a'"):
            read_config(path)

    def test_empty_value_rejected(self, tmp_path):
        path = _write(tmp_path, "c.cfg", "a=\n")
        with pytest.raises(ConfigError, match="no value"):
            read_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            read_config("/nonexistent/path.cfg")

    def test_missing_required_key_named(self):
        with pytest.raises(ConfigError, match="'a'"):
            resolve_config("analyze", {"b": "1", "m": "6"})

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="bogus"):
            resolve_config("analyze", {"a": "1", "b": "1", "m": "6", "bogus": "2"})

    def test_bad_number_names_key(self):
        with pytest.raises(ConfigError, match="'a'"):
            resolve_config("analyze", {"a": "zebra", "b": "1", "m": "6"})

    def test_presets_are_well_formed(self):
        for name, preset in PRESETS.items():
            resolved = resolve_config("simulate", preset)
            assert resolved["t_end"] > 0, name


def test_keys_of_a_value_not_chosen_are_rejected():
    # Each motility law and initial condition owns its fields, as dim=2
    # owns y_min, y_max, bc_bottom and bc_top.
    raw = dict(PRESETS["fig2"], chi="3", ic_path="nowhere.npz")
    with pytest.raises(ConfigError, match="chi do not apply to motility=power"):
        resolve_config("simulate", raw)
    del raw["chi"]
    with pytest.raises(ConfigError, match="ic_path do not apply to ic=front"):
        resolve_config("simulate", raw)


class TestAnalyze:
    def test_stable_parameters_report(self, tmp_path):
        cfg = _write(tmp_path, "a.cfg", "a=0.1\nb=0.1\nm=6\n")
        out = tmp_path / "out"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "analysis.json").read_text())
        assert report["kappa"] == pytest.approx(kappa(6.0, 0.1), rel=1e-15)
        assert abs(report["kappa"] - 0.4143) < 1e-4
        assert report["oscillation"]["holds"] is False
        assert report["b_star"] == pytest.approx(b_star(6.0, 0.1), rel=1e-15)
        assert report["window"]["b_above_threshold"] is False
        eigs = report["linearization"]["origin"]["eigenvalues"]
        assert len(eigs) == 4

    def test_oscillatory_parameters_report(self, tmp_path):
        cfg = _write(tmp_path, "a.cfg", "a=1\nb=1\nm=4\n")
        out = tmp_path / "out"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "analysis.json").read_text())
        assert report["oscillation"]["holds"] is True
        assert abs(report["oscillation"]["rhs"] - 4.2426) < 5e-4

    @pytest.mark.parametrize("m", [700, 1100])
    def test_large_exponent_writes_strict_json(self, tmp_path, m):
        # gamma(a/b) = 2^-m: at m = 700 the coexistence entries are near
        # 1e210 and (1+t)^m near 1e210, at m = 1100 gamma underflows to 0.
        # The suite turns any RuntimeWarning into an error.
        cfg = _write(tmp_path, "a.cfg", f"a=0.1\nb=0.1\nm={m}\n")
        out = tmp_path / "out"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0

        def reject(name):
            raise ValueError(f"analysis.json holds {name}")

        report = json.loads((out / "analysis.json").read_text(), parse_constant=reject)
        osc = report["oscillation"]
        assert osc["holds"] is True and osc["lhs"] == pytest.approx(math.sqrt(m))
        # rhs ~ sqrt(2) sqrt(0.1 * 2^m), formed in log space
        assert math.log2(osc["rhs"]) == pytest.approx(0.5 * (m + 1 + math.log2(0.1)))
        coexistence = report["linearization"]["coexistence"]
        if m == 700:
            # omega^2 is the large root of w^2 - p w + q, p ~ 0.1 * 2^700
            assert coexistence["hopf_omega"] == pytest.approx(math.sqrt(0.1 * 2.0**700))
        else:
            assert coexistence is None
        assert len(report["linearization"]["origin"]["eigenvalues"]) == 4

    @pytest.mark.parametrize("config", list(ETA_UNDEFINED), ids=list(ETA_UNDEFINED))
    def test_undefined_ceiling_writes_a_null_eta(self, tmp_path, config):
        # The ceiling quadratic has no positive finite root: the report
        # still holds the rest of the analysis, with eta null.
        cfg = _write(tmp_path, "a.cfg", ETA_UNDEFINED[config])
        out = tmp_path / "out"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "analysis.json").read_text())
        assert report["eta"] is None and report["lambda"] > 0.0

    def test_kappa_beyond_every_float_writes_null(self, tmp_path):
        # (1 + r)^m overflows at r ~ 1.7e6, m = 60: kappa is infinite
        assert kappa(60.0, 1e8) == math.inf
        cfg = _write(tmp_path, "a.cfg", "a=1e8\nb=1\nm=60\n")
        out = tmp_path / "out"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "analysis.json").read_text())
        assert report["kappa"] is None
        assert json.loads((out / "run.json").read_text())["metrics"]["kappa"] is None

    def test_out_naming_a_file_exits_1(self, tmp_path, capsys):
        cfg = _write(tmp_path, "a.cfg", "a=0.1\nb=60\nm=6\n")
        out = tmp_path / "out"
        out.write_text("kept")
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("OSError:") and "Traceback" not in err
        assert out.read_text() == "kept"

    def test_missing_key_is_usage_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, "a.cfg", "b=1\nm=6\n")
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 64
        assert "'a'" in capsys.readouterr().err


class TestCertify:
    def test_in_window_passes(self, tmp_path):
        c = 2.0 * math.sqrt(0.1)
        cfg = _write(tmp_path, "c.cfg", f"a=0.1\nb=60\nm=6\nc={c!r}\n")
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "certificate.json").read_text())
        assert report["passed"] is True
        # the report and each check are written field by field, in order
        assert list(report) == [f.name for f in dataclasses.fields(CertificateReport)]
        check_keys = [f.name for f in dataclasses.fields(CheckRecord)]
        assert report["checks"] and all(list(ch) == check_keys for ch in report["checks"])
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["metrics"]["certificate_passed"] is True

    def test_below_threshold_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.cfg", "a=0.1\nb=0.1\nm=6\nc=0.7\n")
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "WindowViolation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        ["a=3\nb=3\nm=1e-300\nc=1e300\n", "a=1e-300\nb=1e8\nm=0.1\nc=1e8\n"],
        ids=["lambda-0", "lambda-1e-308"],
    )
    def test_decay_rate_too_small_exits_2(self, tmp_path, capsys, text):
        # c lies in the window, but c^2 overflows, so 2a / (c + sqrt(c^2 -
        # 4a)) rounds to 0, or lambda ~ a/c is so small that the
        # certificate's lengths, which scale as 1/lambda, overflow
        cfg = _write(tmp_path, "c.cfg", text)
        for command in ("certify", "wave"):
            out = tmp_path / command
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("WindowViolation: decay rate lambda") and "too small" in err

    def test_kernel_overflow_exits_1_without_traceback(self, tmp_path, capsys):
        # the chemical-field grid of this certificate has h |lambda_1| > 709
        cfg = _write(tmp_path, "c.cfg", "a=0.1\nb=2057.3\nm=6\nc=117.5\n")
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("NonFiniteTail:") and "too coarse" in err
        assert "Traceback" not in err


class TestWave:
    @pytest.mark.parametrize(
        "config, error",
        [("negative-roots", "WindowViolation"), ("root-underflows", "EtaUndefined")],
    )
    def test_undefined_ceiling_exits_2(self, tmp_path, capsys, config, error):
        cfg = _write(tmp_path, "w.cfg", ETA_UNDEFINED[config])
        assert main(["wave", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{error}:") and "Traceback" not in err

    def test_profile_artifacts_and_manifest(self, tmp_path):
        c = 2.0 * math.sqrt(0.1)
        cfg = _write(tmp_path, "w.cfg", f"a=0.1\nb=60\nm=6\nc={c!r}\n")
        out = tmp_path / "out"
        assert main(["wave", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "wave.json").read_text())
        assert payload["verification"]["passed"] is True
        # the grid's extent, then the profile's other scalar fields in order
        listed = {"grid", "U", "V", "Uprime", "Vprime", "c", "lam"}
        scalars = [f.name for f in dataclasses.fields(WaveProfile) if f.name not in listed]
        # and the layout of wave.bin, as a snapshot header gives it
        assert list(payload) == [
            "c", "lam", "z_min", "z_max", "n_points", "h", *scalars, "verification",
            "dtype", "order", "arrays",
        ]
        assert (payload["dtype"], payload["order"]) == ("<f8", "C")
        assert payload["arrays"] == ["z", "U", "V", "Uprime", "Vprime"]
        assert list(payload["verification"]) == ["passed", "checks"]
        check_keys = [f.name for f in dataclasses.fields(CheckRecord)]
        assert all(list(ch) == check_keys for ch in payload["verification"]["checks"])
        profile = np.fromfile(out / "wave.bin", "<f8").reshape(5, payload["n_points"])
        assert profile[0, 0] == payload["z_min"] and profile[0, -1] == payload["z_max"]
        manifest = json.loads((out / "run.json").read_text())
        assert [entry["path"] for entry in manifest["outputs"]] == ["wave.bin", "wave.json"]
        for entry in manifest["outputs"]:
            data = (out / entry["path"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == entry["sha256"]

    def test_a3_wave_takes_newton_and_verifies(self, tmp_path):
        # b = 1.5 b*(6, 3), c a quarter into the window: above the minimal
        # speed every profile map is a Newton solve, so no map marches
        b = 1.5 * b_star(6.0, 3.0)
        cfg = _write(tmp_path, "w.cfg", f"a=3\nb={b!r}\nm=6\nc=5.0478\n")
        out = tmp_path / "out"
        assert main(["wave", "--config", cfg, "--out", str(out)]) == 0
        metrics = json.loads((out / "run.json").read_text())["metrics"]
        assert metrics["verification_passed"] is True
        assert metrics["march_steps_per_checkpoint"] == 0
        assert metrics["checkpoints"] == 0
        assert metrics["newton_iterations"] >= metrics["picard_iterations"] > 0

    @pytest.mark.parametrize("c", ["0.6324555320336759", "0.88", "1.13"])
    def test_default_frame_step_is_0_05_at_the_gate_speeds(self, c):
        raw = {"a": "0.1", "b": "60", "m": "6", "c": c}
        assert resolve_config("wave", raw)["h"] == 0.05
        assert resolve_config("wave", {**raw, "h": "0.025"})["h"] == 0.025

    def test_default_frame_step_is_the_library_step(self, tmp_path, capsys):
        # (20, 5 b*, 2) a quarter into the window, where h = 0.05 gives
        # h |A1| / 2 >= 1: the library's step returns a profile, which
        # fails verification
        a, m = 20.0, 2.0
        b = 5.0 * b_star(m, a)
        c_min = 2.0 * math.sqrt(a)
        c = c_min + 0.25 * (c_star(a, b, m) - c_min)
        cfg = _write(tmp_path, "w.cfg", f"a=20\nb={b!r}\nm=2\nc={c!r}\n")
        out = tmp_path / "out"
        assert main(["wave", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""  # no NonFiniteState
        manifest = json.loads((out / "run.json").read_text())
        assert float(manifest["config"]["h"]) == frame_step(c)
        assert frame_step(c) == pytest.approx(0.00330, abs=1e-5)
        assert [entry["path"] for entry in manifest["outputs"]] == ["wave.bin", "wave.json"]
        assert manifest["metrics"]["verification_passed"] is False
        checks = json.loads((out / "wave.json").read_text())["verification"]["checks"]
        failed = [ch["name"] for ch in checks if not ch["passed"]]
        assert failed == ["residual_v_equation", "flat_ends_u", "flat_ends_v"]

    def test_speed_below_minimal_refused(self, tmp_path, capsys):
        cfg = _write(tmp_path, "w.cfg", "a=0.1\nb=60\nm=6\nc=0.5\n")
        assert main(["wave", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "SpeedBelowMinimal" in capsys.readouterr().err

    @pytest.mark.parametrize("c, h", [("0.8", "2"), ("0.8", "2.6"), ("1.0", "3")])
    def test_grid_too_coarse_exits_1_without_traceback(self, tmp_path, capsys, c, h):
        cfg = _write(tmp_path, "w.cfg", f"a=0.1\nb=60\nm=6\nc={c}\nh={h}\n")
        assert main(["wave", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("NonFiniteState:") and f"h = {h}" in err
        assert "Traceback" not in err

    def test_speed_above_window_refused(self, tmp_path, capsys):
        cfg = _write(tmp_path, "w.cfg", "a=0.1\nb=60\nm=6\nc=1.2\n")
        assert main(["wave", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "window" in capsys.readouterr().err


_SIM_CFG = (
    "motility=power\nm=6\na=0.1\nb=0.1\ndim=1\nx_min=0\nx_max=40\nh=0.1\n"
    "ic=front\nic_steepness=2\nic_offset=10\nt_end=10\ncadence=0.5\n"
)


_SIM_2D_CFG = (
    "motility=power\nm=6\na=0.1\nb=0.1\ndim=2\nx_min=-3\nx_max=3\n"
    "y_min=-3\ny_max=3\nh=0.25\nic=bump2d\nic_base=0\nic_amplitude=4\n"
    "t_end=2\ncadence=1\n"
)


class TestSimulate:
    def test_snapshots_metrics_manifest(self, tmp_path):
        cfg = _write(tmp_path, "s.cfg", _SIM_CFG)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert len(sorted(out.glob("snap_*.json"))) == 21
        assert len(sorted(out.glob("snap_*.bin"))) == 21
        rows = (out / "metrics.csv").read_text().splitlines()
        assert rows[0] == "time,mass_u,mass_v,front,label,crossing_count,overshoot"
        assert len(rows) == 22
        manifest = json.loads((out / "run.json").read_text())
        listed = {entry["path"] for entry in manifest["outputs"]}
        assert {"metrics.csv", "snap_0000.json", "snap_0000.bin"} <= listed
        for entry in manifest["outputs"]:
            target = out / entry["path"]
            assert target.exists()
            assert hashlib.sha256(target.read_bytes()).hexdigest() == entry["sha256"]
        assert manifest["metrics"]["c_est"] is not None
        assert manifest["metrics"]["solver_iterations"] == 0
        assert manifest["config"]["t_end"] == "10.0"

    @pytest.mark.parametrize(
        "text", [_SIM_CFG, _SIM_2D_CFG + "disk_mask=true\n"], ids=["1d-front", "2d-disk"]
    )
    def test_metrics_rows_match_the_snapshots(self, tmp_path, text):
        # The run keeps only its final snapshot, so the CLI takes each
        # row's profile columns as the snapshot arrives; recompute them from
        # snapshots collected the same way.
        cfg = _write(tmp_path, "s.cfg", text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        config = cli._sim_config(resolve_config("simulate", read_config(cfg)))
        params = config.params
        snaps = []
        traj = pde.simulate(config, on_snapshot=lambda k, f: snaps.append(f))
        assert len(rows) == len(snaps) == len(traj.times) > 1
        for row, t, mu, mv, snap in zip(
            rows, traj.times, traj.mass_u, traj.mass_v, snaps
        ):
            assert (row["time"], row["mass_u"], row["mass_v"]) == (
                repr(t), repr(mu), repr(mv)
            )
            if config.dim == 1:
                cls = classify_profile(snap.u, params.equilibrium)
                assert (row["label"], row["crossing_count"], row["overshoot"]) == (
                    cls.label, str(cls.crossing_count), repr(cls.overshoot)
                )
            else:
                radii = pde.ring_radii(snap, params.a / (2.0 * params.b))
                assert [row[k] for k in ("r_inner", "r_peak", "r_outer")] == [
                    repr(r) for r in radii
                ]

    def test_each_ring_is_measured_once(self, tmp_path, monkeypatch):
        calls = []
        measure = pde.ring_metrics

        def counted(*args, **kwargs):
            calls.append(args)
            return measure(*args, **kwargs)

        monkeypatch.setattr(pde, "ring_metrics", counted)
        cfg = _write(tmp_path, "s.cfg", _SIM_2D_CFG)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert len(calls) == len(rows) == 3

    @pytest.mark.parametrize(
        "text, tail",
        [
            (_SIM_CFG.replace("ic_offset=10", "ic_offset=-100"), ",nan,NoFront,,"),
            (_SIM_2D_CFG.replace("ic_amplitude=4", "ic_amplitude=0.01"), ",nan,nan,nan"),
        ],
        ids=["1d-no-front", "2d-no-ring"],
    )
    def test_unmeasured_snapshots_write_placeholders(self, tmp_path, text, tail):
        # Far below a/(2b) everywhere: no front and no ring to measure, as
        # recomputing from the saved snapshots confirms.
        cfg = _write(tmp_path, "s.cfg", text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()[1:]
        config = cli._sim_config(resolve_config("simulate", read_config(cfg)))
        params = config.params
        level = params.a / (2.0 * params.b)
        snaps = sorted(out.glob("snap_*.json"))
        assert len(lines) == len(snaps) > 1
        for line, path in zip(lines, snaps):
            assert line.endswith(tail)
            snap = pde.load_field(str(path.with_suffix("")))
            if config.dim == 1:
                with pytest.raises(NoCrossing):
                    classify_profile(snap.u, params.equilibrium)
                with pytest.raises(NoCrossing):
                    front_position(snap.x, snap.u, level)
            else:
                with pytest.raises(NoRing):
                    pde.ring_radii(snap, level)
        metrics = json.loads((out / "run.json").read_text())["metrics"]
        assert metrics["front_final"] is None and metrics["c_est"] is None
        assert metrics["classification"] == ("NoFront" if config.dim == 1 else None)

    @pytest.mark.parametrize(
        "preset, text, recorded",
        [
            (
                "fig3",
                "motility=power\nm=6\n",
                {"motility": "power", "m": "6.0", "eps": "", "v0": ""},
            ),
            (
                "fig2",
                "ic=custom\nic_path={npz}\n",
                {"ic": "custom", "ic_path": "{npz}", "ic_steepness": "", "ic_offset": ""},
            ),
        ],
        ids=["fig3-power", "fig2-custom"],
    )
    def test_config_replaces_a_preset_value(self, tmp_path, preset, text, recorded):
        # The preset's keys of the value replaced are dropped, not rejected.
        x = np.linspace(0.0, 200.0, 4001)
        profile = 1.0 / (1.0 + np.exp(2.0 * (x - 20.0)))
        npz = tmp_path / "ic.npz"
        np.savez(npz, u=profile, v=profile)
        cfg = _write(tmp_path, "s.cfg", text.format(npz=npz) + "t_end=5\n")
        out = tmp_path / "out"
        argv = ["simulate", "--preset", preset, "--config", cfg, "--out", str(out)]
        assert main(argv) == 0
        config = json.loads((out / "run.json").read_text())["config"]
        assert {key: config[key] for key in recorded} == {
            key: value.format(npz=npz) for key, value in recorded.items()
        }

    @pytest.mark.parametrize(
        "text, snaps",
        [
            pytest.param(
                _SIM_CFG,
                [f"snap_{k:04d}.{ext}" for k in range(21) for ext in ("json", "bin")],
                id="1d",
            ),
            pytest.param(
                _SIM_2D_CFG,
                [f"snap_{k:04d}.{ext}" for k in range(3) for ext in ("json", "bin")],
                id="2d",
            ),
        ],
    )
    def test_rerun_is_byte_identical(self, tmp_path, text, snaps):
        # Each run builds its own stepper, so a v system kept by the first
        # run cannot reach the second.
        cfg = _write(tmp_path, "s.cfg", text)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        for name in ["metrics.csv"] + snaps:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_config_overrides_preset(self, tmp_path):
        cfg = _write(tmp_path, "s.cfg", "t_end=10\ncadence=5\n")
        out = tmp_path / "out"
        code = main(
            ["simulate", "--preset", "fig2", "--config", cfg, "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["config"]["t_end"] == "10.0"
        assert manifest["config"]["m"] == "6.0"
        assert len(sorted(out.glob("snap_*.json"))) == 3

    @pytest.mark.parametrize(
        "preset, t_end, expected",
        [
            ("fig2", "20", (200, 2, 0.1)),
            ("fig3", "10", (100, 2, 0.1)),
        ],
    )
    def test_step_counts_of_shortened_presets(self, tmp_path, preset, t_end, expected):
        # Every step has one size, so a run builds two v systems: one for
        # its first-order first step and one for the second-order rest.
        # The full runs: fig2 takes 3,000 steps and fig3 1,400, each at
        # dt = 0.1 with two v systems.
        cfg = _write(tmp_path, "s.cfg", f"t_end={t_end}\n")
        out = tmp_path / "out"
        argv = ["simulate", "--preset", preset, "--config", cfg, "--out", str(out)]
        assert main(argv) == 0
        metrics = json.loads((out / "run.json").read_text())["metrics"]
        names = ["steps", "v_builds", "dt"]
        assert tuple(metrics[name] for name in names) == expected
        assert not any(name.startswith("steps_at") for name in metrics)
        assert "steps" not in (out / "metrics.csv").read_text()

    def test_2d_snapshot_pairs(self, tmp_path):
        cfg = _write(tmp_path, "s.cfg", _SIM_2D_CFG)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert len(sorted(out.glob("snap_*.json"))) == 3
        assert len(sorted(out.glob("snap_*.bin"))) == 3
        rows = (out / "metrics.csv").read_text().splitlines()
        assert rows[0] == "time,mass_u,mass_v,r_inner,r_peak,r_outer"
        # Solver telemetry goes to the manifest only, never into the CSVs.
        metrics = json.loads((out / "run.json").read_text())["metrics"]
        steps, total = metrics["steps"], metrics["solver_iterations"]
        peak = metrics["solver_iterations_step_max"]
        assert 2 * steps <= total <= steps * peak
        assert metrics["clipped_values"] >= 0
        assert -1e-12 <= metrics["worst_undershoot"] <= 0.0
        assert (metrics["clipped_values"] == 0) == (metrics["worst_undershoot"] == 0.0)
        csv_text = (out / "metrics.csv").read_text()
        assert "iteration" not in csv_text
        assert "clipped" not in csv_text and "undershoot" not in csv_text

    def test_solver_iteration_cap_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pde, "_CG_MAX_ITER", 1)
        cfg = _write(tmp_path, "s.cfg", _SIM_2D_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "NoConvergence" in err and "t=" in err

    def test_solver_error_exits_1(self, tmp_path, capsys):
        # A spike far above the carrying capacity, where dt (b u - a) > 1,
        # triggers the negative-density guard during the run.
        n = 41
        u = np.zeros(n)
        u[1] = 1e3
        v = np.full(n, 0.01)
        np.savez(tmp_path / "ic.npz", u=u, v=v)
        cfg = _write(
            tmp_path,
            "s.cfg",
            "motility=power\nm=6\na=0.1\nb=0.1\ndim=1\nx_min=0\nx_max=4\nh=0.1\n"
            f"ic=custom\nic_path={tmp_path / 'ic.npz'}\nt_end=1\ncadence=1\n",
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "NegativeDensity" in err and "t=" in err
        # The run saved snapshot 0 before the step failed; it is removed.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ic.npz", "s.cfg"]

    @pytest.mark.parametrize("error", [NegativeDensity, KeyboardInterrupt])
    def test_failed_run_removes_the_snapshots_it_saved(self, tmp_path, monkeypatch, error):
        # The run fails on its 11th step, after saving snapshots 0 to 2;
        # they go, and what the directory held before stays.
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("")
        steps, saved = [], []
        step, save_field = pde.step, pde.save_field

        def failing_step(f, params, dt):
            steps.append(dt)
            if len(steps) == 11:
                raise error("stop here")
            return step(f, params, dt)

        def recorded_save(f, base):
            paths = save_field(f, base)
            saved.extend(paths)
            return paths

        monkeypatch.setattr(pde, "step", failing_step)
        monkeypatch.setattr(cli, "save_field", recorded_save)
        resolved = resolve_config("simulate", read_config(_write(tmp_path, "s.cfg", _SIM_CFG)))
        with pytest.raises(error):
            cli.cmd_simulate(resolved, out)
        assert [Path(p).name for p in saved] == [
            f"snap_{k:04d}.{ext}" for k in range(3) for ext in ("json", "bin")
        ]
        assert [p.name for p in out.iterdir()] == ["keep.txt"]

    def test_unwritable_snapshot_exits_1_and_leaves_no_snapshot(self, tmp_path, capsys):
        # A directory stands where snapshot 1's binary should go: the run
        # stops at that save with exit 1 and no traceback, and removes what
        # it saved, snapshot 1's header included; the directory stays.
        out = tmp_path / "out"
        (out / "snap_0001.bin").mkdir(parents=True)
        cfg = _write(tmp_path, "s.cfg", _SIM_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("OSError:") and "snap_0001.bin" in err
        assert "Traceback" not in err
        assert [p.name for p in out.iterdir()] == ["snap_0001.bin"]
        assert (out / "snap_0001.bin").is_dir()

    def test_run_starts_no_child_process(self, tmp_path):
        # Snapshots are saved in the run's own process: a run loads no
        # multiprocessing, so it can start no writer process.
        cfg = _write(tmp_path, "s.cfg", _SIM_SHORT)
        probe = (
            "import sys, wavemotil.cli as cli; "
            f"code = cli.main(['simulate', '--config', {cfg!r}, '--out', {str(tmp_path)!r}]); "
            "print(code, 'multiprocessing' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert out.stdout.split() == ["0", "False"]
        assert sorted(p.name for p in tmp_path.glob("snap_*")) == [
            "snap_0000.bin", "snap_0000.json", "snap_0001.bin", "snap_0001.json"
        ]

    def test_write_error_reaches_the_caller(self, tmp_path):
        out = tmp_path / "out"
        out.write_text("")  # a file where the snapshots should go
        resolved = resolve_config("simulate", {**PRESETS["fig2"], "t_end": "10"})
        with pytest.raises(OSError) as direct:
            pde.save_field(pde.build_initial(cli._sim_config(resolved)), str(out / "x"))
        with pytest.raises(type(direct.value)):
            cli.cmd_simulate(resolved, out)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_step_exits_1(self, tmp_path, capsys):
        # Densities this large overflow the logistic term on the first step.
        np.savez(tmp_path / "ic.npz", u=np.full(41, 1e200), v=np.full(41, 0.5))
        cfg = _write(
            tmp_path,
            "s.cfg",
            "motility=power\nm=6\na=0.1\nb=0.1\ndim=1\nx_min=0\nx_max=4\nh=0.1\n"
            f"ic=custom\nic_path={tmp_path / 'ic.npz'}\nt_end=1\ncadence=1\n",
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "NonFiniteState" in err and "t=" in err

    @pytest.mark.parametrize("kind", ["garbage", "npy"])
    def test_custom_ic_not_npz_is_usage_error(self, tmp_path, capsys, kind):
        path = tmp_path / f"ic.{kind}"
        if kind == "npy":
            np.save(path, np.zeros(41))
        else:
            path.write_bytes(b"not an archive\n")
        cfg = _write(
            tmp_path,
            "s.cfg",
            "motility=power\nm=6\na=0.1\nb=0.1\ndim=1\nx_min=0\nx_max=4\nh=0.1\n"
            f"ic=custom\nic_path={path}\nt_end=1\ncadence=1\n",
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 64
        assert "cannot load initial state" in capsys.readouterr().err

    def test_usage_error_during_run_leaves_no_directory(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "s.cfg",
            "motility=power\nm=6\na=0.1\nb=0.1\ndim=1\nx_min=0\nx_max=4\nh=0.1\n"
            f"ic=custom\nic_path={tmp_path / 'missing.npz'}\nt_end=1\ncadence=1\n",
        )
        out = tmp_path / "newdir" / "sub"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 64
        assert "cannot load initial state" in capsys.readouterr().err
        assert not (tmp_path / "newdir").exists()
        # A directory that was there before the call stays.
        out.mkdir(parents=True)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 64
        capsys.readouterr()
        assert out.is_dir() and not list(out.iterdir())

    def test_no_config_or_preset_is_usage_error(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path)]) == 64
        assert "no configuration" in capsys.readouterr().err


_SCAN_CFG = (
    "motility=power\nm=6\na=1\nb=1\nlambda0=0.5\nx0=5\nt_end=20\ncadence=0.5\n"
)


class TestSpeedscan:
    def test_single_row_matches_prediction(self, tmp_path):
        cfg = _write(tmp_path, "scan.cfg", _SCAN_CFG)
        out = tmp_path / "out"
        assert main(["speedscan", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "speedscan.csv").read_text().splitlines()
        assert rows[0] == "lambda0,c_pred,c_est,rel_err"
        lam0, c_pred, c_est, rel = rows[1].split(",")
        assert float(lam0) == 0.5
        assert float(c_pred) == 2.5
        assert abs(float(rel)) < 0.1
        assert abs(float(c_est) - 2.5) / 2.5 < 0.1

    def test_sigmoid_row_past_the_minimizer_takes_the_minimal_speed(self, tmp_path):
        # gamma(0) != 1, so the minimal speed 2 sqrt(gamma0 a) takes over at
        # the dispersion minimizer sqrt(a / gamma0), below sqrt(a).
        text = (
            "motility=sigmoid\neps=0.1\nv0=1\na=0.2\nb=0.2\nlambda0=0.4\n"
            "x0=5\nh=0.1\nt_end=10\ncadence=0.5\n"
        )
        cfg = _write(tmp_path, "scan.cfg", text)
        out = tmp_path / "out"
        assert main(["speedscan", "--config", cfg, "--out", str(out)]) == 0
        params = cli._model_params(resolve_config("speedscan", read_config(cfg)))
        a, gamma0 = params.a, params.motility.gamma(0.0)
        assert math.sqrt(a / gamma0) < 0.4 < math.sqrt(a)
        row = (out / "speedscan.csv").read_text().splitlines()[1].split(",")
        assert row[:2] == ["0.4", repr(2.0 * math.sqrt(gamma0 * a))]

    def test_empty_rate_list_is_usage_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, "scan.cfg", _SCAN_CFG.replace("lambda0=0.5", "lambda0= ,"))
        assert main(["speedscan", "--config", cfg, "--out", str(tmp_path)]) == 64
        capsys.readouterr()


_SIM_SHORT = (
    "m=6\na=0.1\nb=0.1\nx_min=0\nx_max=10\nh=0.1\nic=front\n"
    "ic_steepness=2\nic_offset=3\nt_end=1\ncadence=1\n"
)


class TestUsage:
    @pytest.mark.parametrize(
        "command, text",
        [
            ("analyze", "a=-0.1\nb=60\nm=6\n"),
            ("certify", "a=-0.1\nb=60\nm=6\nc=0.7\n"),
            ("simulate", _SIM_SHORT.replace("a=0.1", "a=-0.1")),
            ("analyze", "a=0.1\nb=60\nm=-6\n"),
            ("simulate", _SIM_SHORT.replace("m=6", "motility=sigmoid\neps=-1\nv0=1")),
            ("wave", "a=0.1\nb=60\nm=6\nc=0.7\nh=0\n"),
            ("wave", "a=0.1\nb=60\nm=6\nc=0.7\nh=-0.05\n"),
            ("speedscan", _SCAN_CFG.replace("lambda0=0.5", "lambda0=-1")),
            ("speedscan", _SCAN_CFG + "h=0\n"),
            ("simulate", _SIM_SHORT.replace("m=6", "motility=exponential")),
            ("simulate", _SIM_SHORT + "motility=foo\n"),
            ("simulate", _SIM_SHORT.replace("ic_steepness=2\n", "")),
            ("simulate", _SIM_SHORT.replace("ic=front", "ic=spiral")),
            ("simulate", _SIM_2D_CFG.replace("y_min=-3\ny_max=3\n", "")),
            ("simulate", _SIM_SHORT + "bc_left=dirichlet:1\n"),
            ("simulate", _SIM_SHORT + "transient_fraction=1\n"),
            ("speedscan", _SCAN_CFG + "threshold=median\n"),
            ("speedscan", _SCAN_CFG.replace("cadence=0.5", "cadence=7")),
            ("speedscan", _SCAN_CFG.replace("t_end=20", "t_end=0")),
            ("speedscan", _SCAN_CFG + "h=0.03\n"),
            ("speedscan", _SCAN_CFG + "dt_max=0\n"),
            ("speedscan", _SCAN_CFG + "transient_fraction=2\n"),
            ("simulate", _SIM_SHORT + "bc_top=garbage\n"),
            ("simulate", _SIM_SHORT + "bc_bottom=neumann\n"),
            ("simulate", _SIM_SHORT + "y_min=-1\n"),
            ("simulate", _SIM_SHORT + "dim=1\ny_max=1\n"),
            ("simulate --preset fig2", "t_end=inf\n"),
            ("simulate --preset fig2", "x_max=inf\n"),
            ("simulate --preset fig2", "cadence=inf\n"),
            ("simulate", _SIM_SHORT + "bc_left=dirichlet:nan:0\n"),
            ("analyze", "a=0.1\nb=60\nm=6\nc=nan\n"),
            ("analyze", "a=0.1\nb=60\nm=6\nc=inf\n"),
            ("analyze", "a=0.1\nb=inf\nm=6\n"),
            ("certify", "a=0.1\nb=inf\nm=6\nc=0.7\n"),
            ("speedscan", _SCAN_CFG.replace("lambda0=0.5", "lambda0=0.5,inf")),
            ("simulate --preset fig2", "chi=3\nic_path=nowhere.npz\n"),
            ("simulate", _SIM_SHORT + "eps=0.1\n"),
            ("simulate", _SIM_SHORT + "ic_base=0\n"),
            ("speedscan", _SCAN_CFG + "chi=3\n"),
            ("analyze", "a=1e-300\nb=1e300\nm=0.1\n"),
            ("analyze", "a=1e300\nb=1e-300\nm=0.1\n"),
            ("wave", "a=0.1\nb=60\nm=6\nc=0.88\nh=1e-300\n"),
            ("wave", "a=0.1\nb=60\nm=6\nc=0.88\nh=200\n"),
            ("wave", "a=0.1\nb=60\nm=6\nc=0.88\nh=420\n"),
            ("wave", "a=0.1\nb=60\nm=6\nc=0.88\nh=1e300\n"),
            ("speedscan", "a=1e300\nb=2\nm=3\nlambda0=1e-300\n"),
        ],
        ids=[
            "analyze-a", "certify-a", "simulate-a", "analyze-m", "sigmoid-eps",
            "wave-h0", "wave-hneg", "speedscan-lambda0", "speedscan-h0",
            "exponential-no-chi", "motility-foo", "front-no-steepness",
            "ic-spiral", "dim2-no-y", "bc-dirichlet-one-value", "simulate-fraction",
            "speedscan-threshold", "speedscan-cadence", "speedscan-t_end0",
            "speedscan-h", "speedscan-dt_max0", "speedscan-fraction",
            "dim1-bc_top", "dim1-bc_bottom", "dim1-y_min", "dim1-y_max",
            "fig2-t_end-inf", "fig2-x_max-inf", "fig2-cadence-inf",
            "dirichlet-nan", "analyze-c-nan", "analyze-c-inf", "analyze-b-inf",
            "certify-b-inf", "speedscan-lambda0-inf", "fig2-chi-ic_path",
            "power-eps", "front-ic_base", "speedscan-power-chi",
            # a/b rounds to 0 or to inf: no coexistence state
            "analyze-a/b-underflows", "analyze-a/b-overflows",
            # 4e302 frame nodes are more than an index reaches; 3, 2 and 1
            # are fewer than the 5 the chemical solve needs
            "wave-h1e-300", "wave-h200", "wave-h420", "wave-h1e300",
            # a / lambda0 overflows: the predicted speed, and the scan's
            # domain, are infinite
            "speedscan-c_pred-inf",
        ],
    )
    def test_malformed_value_is_usage_error(
        self, tmp_path, capsys, monkeypatch, command, text
    ):
        def no_simulation(config):
            raise AssertionError("a malformed config reached the simulation")

        monkeypatch.setattr(cli, "simulate", no_simulation)
        cfg = _write(tmp_path, "bad.cfg", text)
        out = tmp_path / "out"
        assert main([*command.split(), "--config", cfg, "--out", str(out)]) == 64
        assert "usage error" in capsys.readouterr().err
        # Nothing is written: no data file (speedscan.csv included), no run.json.
        assert not list(out.glob("*"))

    @pytest.mark.parametrize(
        "command, text",
        [
            ("simulate --preset fig3", "dt_max=1e-320\nt_end=5\n"),
            ("speedscan", _SCAN_CFG + "dt_max=1e-320\n"),
        ],
        ids=["fig3", "speedscan"],
    )
    def test_dt_max_too_small_for_the_cadence(self, tmp_path, capsys, command, text):
        # cadence / dt_max overflows to inf, so no step count exists.
        cfg = _write(tmp_path, "bad.cfg", text)
        out = tmp_path / "out"
        assert main([*command.split(), "--config", cfg, "--out", str(out)]) == 64
        assert "dt_max" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            _SIM_SHORT.replace("cadence=1", "cadence=1e-300"),
            _SIM_SHORT + "dt_max=1e-300\n",
        ],
        ids=["cadence", "dt_max"],
    )
    def test_run_past_the_count_bound_is_refused(self, tmp_path, capsys, text):
        # 1e300 snapshots, or steps, were once accepted and then stepped
        # until stopped; now they are refused at once.
        cfg = _write(tmp_path, "long.cfg", text)
        out = tmp_path / "out"
        with _time_budget(10.0, text):
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 64
        assert "more than MAX_RUN_COUNT" in capsys.readouterr().err
        assert not out.exists()

    def test_frame_grid_past_the_count_bound_is_refused(
        self, tmp_path, capsys, allocation_guard
    ):
        # h = 1e-8 asks for 2e10 frame nodes (160 GB of each array); the
        # guard fails the test should any such array be asked for.
        cfg = _write(tmp_path, "fine.cfg", "a=0.1\nb=60\nm=6\nc=0.88\nh=1e-8\n")
        out = tmp_path / "out"
        with _time_budget(10.0, "wave h=1e-8"):
            assert main(["wave", "--config", cfg, "--out", str(out)]) == 64
        assert "at most MAX_RUN_COUNT" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, text",
        [
            ("simulate", _SIM_SHORT.replace("h=0.1", "h=1e-300")),
            ("simulate", _SIM_SHORT.replace("h=0.1", "h=1e-320")),
            ("simulate", _SIM_SHORT.replace("h=0.1", f"h={10 / 2**61!r}")),
            ("simulate", _SIM_2D_CFG.replace("h=0.25", f"h={6 / 2**33!r}")),
            ("speedscan", "a=0.1\nb=0.1\nm=6\nlambda0=0.5\nh=1e-300\n"),
        ],
        ids=["1d", "1d-subnormal", "1d-bytes", "2d", "speedscan"],
    )
    def test_grid_too_large_to_index(self, tmp_path, capsys, command, text):
        # 1e301 nodes on one axis, or 2**33 + 1 on each of two, is more than
        # an array index reaches (at h = 1e-320 the step count overflows to
        # inf); 2**61 + 1 is fewer, but not its 8-byte floats.  Each is far
        # past MAX_RUN_COUNT and refused before any array exists, a scan
        # row's profile included.
        cfg = _write(tmp_path, "big.cfg", text)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 64
        assert "grid nodes, more than MAX_RUN_COUNT" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, text",
        [
            ("certify", f"a=0.1\nb=60\nm=6\nc={2.0 * math.sqrt(0.1)!r}\n"),
            ("wave", f"a=0.1\nb=60\nm=6\nc={2.0 * math.sqrt(0.1)!r}\n"),
            ("simulate", _SIM_SHORT),
            ("speedscan", _SCAN_CFG),
        ],
        ids=["certify", "wave", "simulate", "speedscan"],
    )
    def test_out_under_a_file_exits_1(self, tmp_path, capsys, command, text):
        # An output directory that cannot be made is an OSError of the run:
        # exit 1, no traceback, and the file in the way is left as it was.
        cfg = _write(tmp_path, "c.cfg", text)
        blocker = tmp_path / "blocker"
        blocker.write_text("kept")
        assert main([command, "--config", cfg, "--out", str(blocker / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("OSError:") and "Traceback" not in err
        assert blocker.read_text() == "kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "c.cfg"]

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 64
        capsys.readouterr()

    def test_preset_not_accepted_elsewhere(self, capsys):
        assert main(["analyze", "--preset", "fig2"]) == 64
        capsys.readouterr()


# Values each of a, b, m and c is drawn from: zero, negative, tiny, huge and
# non-finite values around the gate's (0.1, 60, 6, 2 sqrt(0.1)).
_FUZZ_VALUES = (
    0.0, -1.0, 1e-300, 1e-8, 0.1, 1.0, 2.0, 3.0, 6.0, 60.0, 1e8, 1e300,
    math.nan, math.inf, 2.0 * math.sqrt(0.1),
)


#: Values near the gate's (a, b, m) = (0.1, 60, 6), with c inside its
#: window [2 sqrt(0.1), 1.13]: most draws from these reach the solvers.
_NEAR_GATE = {
    "a": (0.05, 0.1, 0.2),
    "b": (55.0, 60.0, 100.0),
    "m": (4.0, 6.0),
    "c": (2.0 * math.sqrt(0.1), 0.88, 1.1),
}


def test_random_configs_end_in_a_documented_exit_code(tmp_path, capsys, allocation_guard):
    # 150 seeded configs through analyze, certify and wave: a, b, m and c
    # are each drawn near the gate's point two times in three and from
    # _FUZZ_VALUES otherwise.  Each command exits 0, 1, 2 or 64 and no
    # exception escapes main.  No n is drawn (certify with n=1 is a known
    # bare ValueError) and no h (the next test draws it).
    rng = random.Random(0)
    codes = {"analyze": set(), "certify": set(), "wave": set()}
    for k in range(150):
        draw = {
            key: rng.choice(_FUZZ_VALUES if rng.random() < 1 / 3 else near)
            for key, near in _NEAR_GATE.items()
        }
        text = "".join(f"{key}={value!r}\n" for key, value in draw.items())
        cfg = _write(tmp_path, f"{k}.cfg", text)
        for command in codes:
            with _time_budget(_CASE_BUDGET_S, (command, text)):
                code = main([command, "--config", cfg, "--out", str(tmp_path / f"{k}-{command}")])
            assert code in (0, 1, 2, 64), (command, text)
            codes[command].add(code)
    capsys.readouterr()
    # the draw reaches passing runs, numeric failures, window failures and
    # usage errors
    assert codes == {"analyze": {0, 64}, "certify": {0, 1, 2, 64}, "wave": {0, 1, 2, 64}}


def test_random_scans_and_steps_end_in_a_documented_exit_code(
    tmp_path, capsys, allocation_guard
):
    # Each h of _FUZZ_VALUES on the gate's wave and on a one-row scan, then
    # 300 seeded configs through wave with h drawn too, and through
    # speedscan with a, b, m, one or two lambda0 and h drawn, all from
    # _FUZZ_VALUES: each command exits 0, 1, 2 or 64 within its budget and
    # no exception escapes main.  Still no n is drawn (certify with n=1 is
    # a known bare ValueError).
    cases = [
        (command, text + f"h={h!r}\n")
        for h in _FUZZ_VALUES
        for command, text in (
            ("wave", "a=0.1\nb=60\nm=6\nc=0.88\n"),
            ("speedscan", "a=1\nb=1\nm=6\nlambda0=0.5\n"),
        )
    ]
    rng = random.Random(1)
    for _ in range(300):
        a, b, m, c, h = (rng.choice(_FUZZ_VALUES) for _ in range(5))
        rates = ",".join(repr(rng.choice(_FUZZ_VALUES)) for _ in range(rng.choice((1, 2))))
        cases.append(("wave", f"a={a!r}\nb={b!r}\nm={m!r}\nc={c!r}\nh={h!r}\n"))
        cases.append(
            ("speedscan", f"a={a!r}\nb={b!r}\nm={m!r}\nlambda0={rates}\nh={h!r}\n")
        )
    codes = {"wave": set(), "speedscan": set()}
    for k, (command, text) in enumerate(cases):
        cfg = _write(tmp_path, f"{k}.cfg", text)
        with _time_budget(_CASE_BUDGET_S, (command, text)):
            code = main([command, "--config", cfg, "--out", str(tmp_path / str(k))])
        assert code in (0, 1, 2, 64), (command, text)
        codes[command].add(code)
    capsys.readouterr()
    # both commands reach finished runs, numeric failures and usage errors
    assert codes["speedscan"] == {0, 1, 64} and codes["wave"] == {0, 1, 2, 64}



# Values near the presets' for the fuzzed simulate runs on tiny grids.
_NEAR_PRESETS = {
    "a": (0.1, 0.2, 1.0),
    "b": (0.1, 0.2),
    "m": (2.0, 6.0),
    "h": (0.1, 0.25, 0.5),
    "t_end": (1.0, 2.0, 5.0),
    "cadence": (0.5, 1.0, 5.0),
    "dt_max": (0.05, 0.1, 0.5),
}

#: The tiny grids fuzzed: a 1-D front and a planar bump, square or masked.
_SIM_GRIDS = (
    "x_min=0\nx_max=10\nic=front\nic_steepness=2\nic_offset=3\n",
    "dim=2\nx_min=-2\nx_max=2\ny_min=-2\ny_max=2\nic=bump2d\nic_base=0\nic_amplitude=4\n",
    "dim=2\nx_min=-2\nx_max=2\ny_min=-2\ny_max=2\nic=bump2d\nic_base=0\nic_amplitude=4\n"
    "disk_mask=true\n",
)


def _long_valid_run(t_end, cadence, dt_max) -> bool:
    """Whether the times ask for a run of 2e3 to 2e7 steps: within the
    run-size bound (or near it), so valid, but minutes long."""
    if not all(0.0 < x < math.inf for x in (t_end, cadence, dt_max)):
        return False
    return 2e3 < t_end / min(cadence, dt_max) <= 2.0 * pde.MAX_RUN_COUNT


def test_random_simulations_end_in_a_documented_exit_code(tmp_path, capsys, allocation_guard):
    # Three runs whose growth term overflows, then 90 seeded simulate
    # configs on tiny 1-D and planar grids: a, b, m, h, t_end, cadence and
    # dt_max are each drawn near the presets' values two times in three and
    # from _FUZZ_VALUES otherwise.  Each run exits 0, 1, 2 or 64 within its
    # budget and no exception escapes main.  Times that ask for a valid but
    # minutes-long run (_long_valid_run) are drawn again; times past the
    # run-size bound are kept.
    times = {"h": 0.1, "t_end": 2.0, "cadence": 1.0, "dt_max": 0.1}
    draws = [
        (grid, dict(a=a, b=b, m=2.0, **times))
        for grid, a, b in ((0, 1e300, 0.1), (1, 1e300, 0.1), (2, 1e8, 1e-300))
    ]
    rng = random.Random(2)
    for k in range(90):
        draw = {}
        while not draw or _long_valid_run(draw["t_end"], draw["cadence"], draw["dt_max"]):
            draw = {
                key: rng.choice(_FUZZ_VALUES if rng.random() < 1 / 3 else near)
                for key, near in _NEAR_PRESETS.items()
            }
        draws.append((k % len(_SIM_GRIDS), draw))
    codes = set()
    for k, (grid, draw) in enumerate(draws):
        text = _SIM_GRIDS[grid] + "".join(f"{key}={value!r}\n" for key, value in draw.items())
        cfg = _write(tmp_path, f"{k}.cfg", text)
        with _time_budget(_CASE_BUDGET_S, text):
            code = main(["simulate", "--config", cfg, "--out", str(tmp_path / str(k))])
        assert code in (0, 1, 2, 64), text
        codes.add(code)
    capsys.readouterr()
    # the draw reaches finished runs and usage errors
    assert {0, 64} <= codes
