"""End-to-end checks of the command-line interface: config parsing with
line/key diagnostics, artifact and manifest layout, headline metrics, exit
codes, preset resolution and deterministic re-runs."""

import hashlib
import json
import math

import numpy as np
import pytest

import wavemotil.cli as cli
import wavemotil.pde as pde
from wavemotil.analysis import b_star, kappa
from wavemotil.cli import PRESETS, main, read_config, resolve_config
from wavemotil.errors import ConfigError


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["metrics"]["certificate_passed"] is True

    def test_below_threshold_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.cfg", "a=0.1\nb=0.1\nm=6\nc=0.7\n")
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "WindowViolation" in capsys.readouterr().err


class TestWave:
    def test_profile_artifacts_and_manifest(self, tmp_path):
        c = 2.0 * math.sqrt(0.1)
        cfg = _write(tmp_path, "w.cfg", f"a=0.1\nb=60\nm=6\nc={c!r}\n")
        out = tmp_path / "out"
        assert main(["wave", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "wave.json").read_text())
        assert payload["verification"]["passed"] is True
        header = (out / "wave.csv").read_text().splitlines()[0]
        assert header == "z,U,V,Uprime,Vprime"
        manifest = json.loads((out / "run.json").read_text())
        for entry in manifest["outputs"]:
            data = (out / entry["path"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == entry["sha256"]

    def test_speed_below_minimal_refused(self, tmp_path, capsys):
        cfg = _write(tmp_path, "w.cfg", "a=0.1\nb=60\nm=6\nc=0.5\n")
        assert main(["wave", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "SpeedBelowMinimal" in capsys.readouterr().err

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
        snaps = sorted(out.glob("snap_*.csv"))
        assert len(snaps) == 21
        rows = (out / "metrics.csv").read_text().splitlines()
        assert rows[0] == "time,mass_u,mass_v,front,label,crossing_count,overshoot"
        assert len(rows) == 22
        manifest = json.loads((out / "run.json").read_text())
        listed = {entry["path"] for entry in manifest["outputs"]}
        assert "metrics.csv" in listed and "snap_0000.csv" in listed
        for entry in manifest["outputs"]:
            target = out / entry["path"]
            assert target.exists()
            assert hashlib.sha256(target.read_bytes()).hexdigest() == entry["sha256"]
        assert manifest["metrics"]["c_est"] is not None
        assert manifest["metrics"]["solver_iterations"] == 0
        assert manifest["config"]["t_end"] == "10.0"

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = _write(tmp_path, "s.cfg", _SIM_CFG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        for name in ["metrics.csv"] + [f"snap_{k:04d}.csv" for k in range(21)]:
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
        assert len(sorted(out.glob("snap_*.csv"))) == 3

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
        assert "iteration" not in (out / "metrics.csv").read_text()

    def test_solver_iteration_cap_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pde, "_CG_MAX_ITER", 1)
        cfg = _write(tmp_path, "s.cfg", _SIM_2D_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "NoConvergence" in err and "t=" in err

    def test_solver_error_exits_1(self, tmp_path, capsys):
        # A cliff in the chemical field with an empty cell under the spike
        # triggers the negative-density guard during the run.
        n = 41
        u = np.zeros(n)
        u[1] = 1.0
        v = np.full(n, 0.01)
        v[:2] = 3.0
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
            "certify-b-inf", "speedscan-lambda0-inf",
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

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 64
        capsys.readouterr()

    def test_preset_not_accepted_elsewhere(self, capsys):
        assert main(["analyze", "--preset", "fig2"]) == 64
        capsys.readouterr()
