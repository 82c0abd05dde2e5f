"""End-to-end checks of the command-line interface: config parsing with
line/key diagnostics, artifact and manifest layout, headline metrics, exit
codes, preset resolution and deterministic re-runs."""

import hashlib
import json
import math
import multiprocessing

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

    def test_kernel_overflow_exits_1_without_traceback(self, tmp_path, capsys):
        # the chemical-field grid of this certificate has h |lambda_1| > 709
        cfg = _write(tmp_path, "c.cfg", "a=0.1\nb=2057.3\nm=6\nc=117.5\n")
        assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("NonFiniteTail:") and "too coarse" in err
        assert "Traceback" not in err


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

    @pytest.mark.parametrize(
        "text, snaps",
        [
            pytest.param(_SIM_CFG, [f"snap_{k:04d}.csv" for k in range(21)], id="1d"),
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
        assert len(sorted(out.glob("snap_*.csv"))) == 3

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
        # The writer saved snapshot 0 before the step failed; it is removed.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ic.npz", "s.cfg"]
        assert not multiprocessing.active_children()

    def test_write_error_reaches_the_caller(self, tmp_path):
        out = tmp_path / "out"
        out.write_text("")  # a file where the snapshots should go
        resolved = resolve_config("simulate", {**PRESETS["fig2"], "t_end": "10"})
        with pytest.raises(OSError) as direct:
            pde.save_field(pde.build_initial(cli._sim_config(resolved)), str(out / "x"))
        with pytest.raises(type(direct.value)):
            cli.cmd_simulate(resolved, out)
        assert not multiprocessing.active_children()

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

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 64
        capsys.readouterr()

    def test_preset_not_accepted_elsewhere(self, capsys):
        assert main(["analyze", "--preset", "fig2"]) == 64
        capsys.readouterr()
