"""Command-line entry point.

Parses a flat ``key=value`` config file (``#`` comments allowed), runs one of
the engines — threshold analysis, certificate checking, the constructive wave
solver, time-dependent simulation, or a front-speed scan over initial decay
rates — and writes plot-ready CSV/JSON artifacts into the output directory
together with a ``run.json`` manifest recording the fully resolved config,
the package version, timestamps, content hashes of every output file and the
headline metrics.  Re-running a command with the same resolved config and
build produces byte-identical data files.

``resolve_config`` checks a config completely, including the keys each
listed value needs (``motility=sigmoid`` needs ``eps`` and ``v0``) and the
keys only one value accepts (``y_min``, ``y_max``, ``bc_bottom`` and
``bc_top`` only with ``dim=2``), and
``speedscan`` builds every row before it simulates one, so a malformed value
fails before any work starts.  Each command returns its exit code, outputs
and metrics; ``main`` writes the manifest, with non-finite metrics as null.

Exit codes: 0 all requested checks passed; 1 numeric failure (divergence,
instability, failed verification); 2 certificate or speed-window failure;
64 malformed config or usage.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    b_star,
    c_star,
    in_speed_window,
    kappa,
    lambda_decay,
    leading_edge_speed,
    linearize,
    oscillation_condition,
    speed_window,
)
from .certificates import certify_pair
from .errors import (
    CertificateFailed,
    ConfigError,
    EtaUndefined,
    InsufficientSamples,
    NoCrossing,
    NoRing,
    SpeedBelowMinimal,
    WavemotilError,
    WindowTooSmall,
    WindowViolation,
)
from .frontmetrics import classify_profile, decay_fit, wave_speed
from .model import (
    ExponentialMotility,
    ModelParams,
    PowerMotility,
    SigmoidMotility,
)
from .pde import (
    DEFAULT_DT_MAX,
    ArrayIC,
    Bump2dIC,
    CustomIC,
    Dirichlet,
    FrontIC,
    Neumann,
    SimConfig,
    _SnapshotWriter,
    ring_radii,
    simulate,
)
from .waveode import traveling_wave, verify_profile

__all__ = ["main", "PRESETS", "read_config", "resolve_config", "run_scan_row"]

_REQUIRED = object()


# ---------------------------------------------------------------------------
# Config parsing


def read_config(path: str) -> dict[str, str]:
    """Read a flat key=value file with # comments into a string mapping."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        if key in mapping:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: key {key!r} has no value")
        mapping[key] = value
    return mapping


def _as_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: expected a finite number, got {raw!r}")
    return value


def _as_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from exc


def _as_bool(key: str, raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"key {key!r}: expected true/false, got {raw!r}")


def _as_str(key: str, raw: str) -> str:
    return raw


def _bounded(test, expected: str):
    def convert(key: str, raw: str) -> float:
        value = _as_float(key, raw)
        if not test(value):
            raise ConfigError(f"key {key!r}: expected {expected}, got {raw!r}")
        return value

    return convert


_as_positive = _bounded(lambda v: v > 0.0, "a positive number")
_as_fraction = _bounded(lambda v: 0.0 <= v < 1.0, "a fraction in [0, 1)")


def _as_rates(key: str, raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"key {key!r}: expected a comma-separated list of numbers")
    return tuple(_as_positive(key, p) for p in parts)


def _one_of(needs: dict, convert=_as_str, only: dict | None = None):
    """Converter accepting only the keys of ``needs``, which maps each value
    to the keys a config with that value must set; ``only`` maps a value to
    the keys that no other value accepts (both checked by resolve_config)."""

    def check(key: str, raw: str):
        value = convert(key, raw)
        if value not in needs:
            listed = "|".join(str(choice) for choice in needs)
            raise ConfigError(f"key {key!r}: expected {listed}, got {raw!r}")
        return value

    check.needs = needs
    check.only = only or {}
    return check


_MOTILITY = {"power": ("m",), "exponential": ("chi",), "sigmoid": ("eps", "v0")}
_IC = {
    "front": ("ic_steepness", "ic_offset"),
    "bump2d": ("ic_base", "ic_amplitude"),
    "custom": ("ic_path",),
}

_MOTILITY_KEYS = {
    "motility": (_one_of(_MOTILITY), "power"),
    "m": (_as_float, None),
    "chi": (_as_float, None),
    "eps": (_as_float, None),
    "v0": (_as_float, None),
}

_SCHEMAS: dict[str, dict] = {
    "analyze": {
        "a": (_as_float, _REQUIRED),
        "b": (_as_float, _REQUIRED),
        "m": (_as_float, _REQUIRED),
        "c": (_as_float, None),
    },
    "certify": {
        "a": (_as_float, _REQUIRED),
        "b": (_as_float, _REQUIRED),
        "m": (_as_float, _REQUIRED),
        "c": (_as_float, _REQUIRED),
        "n": (_as_int, 2),
    },
    "wave": {
        "a": (_as_float, _REQUIRED),
        "b": (_as_float, _REQUIRED),
        "m": (_as_float, _REQUIRED),
        "c": (_as_float, _REQUIRED),
        "h": (_as_positive, 0.05),
    },
    "simulate": {
        **_MOTILITY_KEYS,
        "a": (_as_float, _REQUIRED),
        "b": (_as_float, _REQUIRED),
        "dim": (
            _one_of(
                {1: (), 2: ("y_min", "y_max")},
                _as_int,
                only={2: ("y_min", "y_max", "bc_bottom", "bc_top")},
            ),
            1,
        ),
        "x_min": (_as_float, _REQUIRED),
        "x_max": (_as_float, _REQUIRED),
        "y_min": (_as_float, None),
        "y_max": (_as_float, None),
        "h": (_as_positive, _REQUIRED),
        "ic": (_one_of(_IC), _REQUIRED),
        "ic_steepness": (_as_float, None),
        "ic_offset": (_as_float, None),
        "ic_base": (_as_float, None),
        "ic_amplitude": (_as_float, None),
        "ic_path": (_as_str, None),
        "bc_left": (_as_str, "neumann"),
        "bc_right": (_as_str, "neumann"),
        "bc_bottom": (_as_str, "neumann"),
        "bc_top": (_as_str, "neumann"),
        "t_end": (_as_float, _REQUIRED),
        "cadence": (_as_float, _REQUIRED),
        "dt_max": (_as_float, DEFAULT_DT_MAX),
        "disk_mask": (_as_bool, False),
        "transient_fraction": (_as_fraction, 0.2),
    },
    "speedscan": {
        **_MOTILITY_KEYS,
        "a": (_as_float, _REQUIRED),
        "b": (_as_float, _REQUIRED),
        "lambda0": (_as_rates, _REQUIRED),
        "x0": (_as_float, 10.0),
        "h": (_as_positive, 0.05),
        "t_end": (_as_float, 60.0),
        "cadence": (_as_float, 2.0),
        "dt_max": (_as_float, DEFAULT_DT_MAX),
        "transient_fraction": (_as_fraction, 0.5),
        "threshold": (_one_of({"literal": (), "minimizer": ()}), "literal"),
    },
}

#: Named configs reproducing the three qualitative experiments: a monotone
#: 1-D invasion front, a 1-D front with an oscillatory trailing edge, and a
#: planar colony expanding from a central inoculum in a masked disk.
PRESETS: dict[str, dict[str, str]] = {
    "fig2": {
        "motility": "power",
        "m": "6",
        "a": "0.1",
        "b": "0.1",
        "dim": "1",
        "x_min": "0",
        "x_max": "200",
        "h": "0.05",
        "ic": "front",
        "ic_steepness": "2",
        "ic_offset": "20",
        "bc_left": "dirichlet:1:1",
        "bc_right": "dirichlet:0:0",
        "t_end": "300",
        "cadence": "5",
        "transient_fraction": "0.5",
    },
    "fig3": {
        "motility": "sigmoid",
        "eps": "0.1",
        "v0": "1",
        "a": "0.2",
        "b": "0.2",
        "dim": "1",
        "x_min": "0",
        "x_max": "200",
        "h": "0.05",
        "ic": "front",
        "ic_steepness": "2",
        "ic_offset": "15",
        "t_end": "140",
        "cadence": "5",
        "transient_fraction": "0.5",
    },
    "fig4": {
        "motility": "power",
        "m": "6",
        "a": "0.1",
        "b": "0.1",
        "dim": "2",
        "x_min": "-10",
        "x_max": "10",
        "y_min": "-10",
        "y_max": "10",
        "h": "0.1",
        "ic": "bump2d",
        "ic_base": "0",
        "ic_amplitude": "4",
        "disk_mask": "true",
        "t_end": "50",
        "cadence": "5",
        "transient_fraction": "0.5",
    },
}


def resolve_config(command: str, raw: dict[str, str]) -> dict:
    """Validate raw strings against the command schema and convert types,
    then check that every key a chosen value needs is set and that no key
    another value owns is."""
    schema = _SCHEMAS[command]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown key(s) for {command}: {', '.join(unknown)}")
    resolved: dict = {}
    for key, (convert, default) in schema.items():
        if key in raw:
            resolved[key] = convert(key, raw[key])
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        else:
            resolved[key] = default
    for key, (convert, _) in schema.items():
        value = resolved[key]
        for needed in getattr(convert, "needs", {}).get(value, ()):
            if resolved[needed] is None:
                raise ConfigError(f"missing required key {needed!r} for {key}={value}")
        for owner, owned in getattr(convert, "only", {}).items():
            stray = [name for name in owned if name in raw and owner != value]
            if stray:
                raise ConfigError(
                    f"key(s) {', '.join(stray)} need {key}={owner}, got {key}={value}"
                )
    return resolved


def _build_motility(cfg: dict):
    family = cfg.get("motility", "power")
    if family == "exponential":
        return ExponentialMotility(chi=cfg["chi"])
    if family == "sigmoid":
        return SigmoidMotility(eps=cfg["eps"], v0=cfg["v0"])
    return PowerMotility(m=cfg["m"])


def _model_params(resolved: dict) -> ModelParams:
    """The model of a resolved config, with malformed values as usage errors."""
    try:
        return ModelParams(
            a=resolved["a"], b=resolved["b"], motility=_build_motility(resolved)
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_bc(key: str, raw: str):
    if raw == "neumann":
        return Neumann()
    if raw.startswith("dirichlet:"):
        parts = raw.split(":")
        if len(parts) == 3:
            return Dirichlet(_as_float(key, parts[1]), _as_float(key, parts[2]))
    raise ConfigError(f"key {key!r}: expected neumann or dirichlet:<u>:<v>, got {raw!r}")


# ---------------------------------------------------------------------------
# Artifact helpers


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    if value is None:
        return ""
    return str(value)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_manifest(
    command: str,
    resolved: dict,
    out_dir: Path,
    outputs: list[str],
    metrics: dict,
    started: str,
) -> None:
    manifest = {
        "command": command,
        "config": {k: _fmt_value(v) for k, v in sorted(resolved.items())},
        "version": __version__,
        "started": started,
        "finished": _now(),
        "outputs": [
            {"path": name, "sha256": _sha256(out_dir / name)} for name in outputs
        ],
        # NaN and infinities are not JSON: every metric writes them as null
        "metrics": {
            k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in metrics.items()
        },
    }
    _write_json(out_dir / "run.json", manifest)


# ---------------------------------------------------------------------------
# Commands


def cmd_analyze(resolved: dict, out_dir: Path) -> tuple[int, list[str], dict]:
    params = _model_params(resolved)
    a, b, m = resolved["a"], resolved["b"], resolved["m"]
    c = resolved["c"] if resolved["c"] is not None else 2.0 * math.sqrt(a)

    bs = b_star(m, a)
    in_window = in_speed_window(a, b, m, c)
    lam = eta = None
    try:
        ctx = speed_window(params, c)
        lam, eta = ctx.lam, ctx.eta
    except SpeedBelowMinimal:
        pass
    except EtaUndefined:
        lam = lambda_decay(c, a)

    holds, lhs, rhs = oscillation_condition(params)

    def _eigs(at: str) -> dict:
        rep = linearize(params, c, at=at)
        eigs = np.sort_complex(rep.eigenvalues)
        out = {"eigenvalues": [[float(e.real), float(e.imag)] for e in eigs]}
        if rep.spiral is not None:
            out["spiral"] = bool(rep.spiral)
        if rep.hopf_omega is not None:
            out["hopf_omega"] = float(rep.hopf_omega)
        return out

    report = {
        "a": a,
        "b": b,
        "m": m,
        "c": c,
        "b_star": bs,
        "c_star": c_star(a, b, m),
        "c_min": 2.0 * math.sqrt(a),
        "kappa": kappa(m, a),
        "lambda": lam,
        "eta": eta,
        "window": {
            "b_above_threshold": bool(b >= bs),
            "speed_in_window": bool(in_window),
        },
        "oscillation": {
            "holds": bool(holds),
            "lhs": lhs,
            "rhs": rhs,
            "margin": rhs - lhs,
        },
        "linearization": {
            "origin": _eigs("origin"),
            "coexistence": _eigs("coexistence"),
        },
    }
    _write_json(out_dir / "analysis.json", report)
    metrics = {
        "kappa": report["kappa"],
        "oscillation_condition": bool(holds),
        "speed_in_window": bool(in_window),
    }
    return 0, ["analysis.json"], metrics


def cmd_certify(resolved: dict, out_dir: Path) -> tuple[int, list[str], dict]:
    report = certify_pair(_model_params(resolved), resolved["c"], resolved["n"])
    _write_json(out_dir / "certificate.json", report.to_dict())
    worst = min(report.checks, key=lambda ch: ch.margin)
    metrics = {
        "certificate_passed": bool(report.passed),
        "delta": report.delta,
        "x_delta": report.x_delta,
        "worst_check": worst.name,
        "worst_margin": worst.margin,
    }
    return (0 if report.passed else 2), ["certificate.json"], metrics


def cmd_wave(resolved: dict, out_dir: Path) -> tuple[int, list[str], dict]:
    params = _model_params(resolved)
    profile = traveling_wave(params, resolved["c"], h=resolved["h"])
    verification = verify_profile(profile, params)
    profile.write_csv(out_dir / "wave.csv")
    payload = profile.to_dict()
    payload["verification"] = verification.to_dict()
    _write_json(out_dir / "wave.json", payload)
    metrics = {
        "c": profile.c,
        "lambda": profile.lam,
        "tail_ratio_U": profile.tail_ratio_U,
        "tail_ratio_V": profile.tail_ratio_V,
        "ode_residual_l": profile.ode_residual_l,
        "ode_residual_v": profile.ode_residual_v,
        "picard_iterations": profile.picard_iterations,
        "march_steps_per_checkpoint": profile.march_steps_per_checkpoint,
        "checkpoints": profile.checkpoints,
        "newton_iterations": profile.newton_iterations,
        "verification_passed": bool(verification.passed),
    }
    return (0 if verification.passed else 1), ["wave.csv", "wave.json"], metrics


def _sim_config(resolved: dict) -> SimConfig:
    dim = resolved["dim"]
    extents = tuple(
        (resolved[f"{axis}_min"], resolved[f"{axis}_max"]) for axis in "xy"[:dim]
    )
    kind = resolved["ic"]
    if kind == "front":
        ic = FrontIC(resolved["ic_steepness"], resolved["ic_offset"])
    elif kind == "bump2d":
        ic = Bump2dIC(resolved["ic_base"], resolved["ic_amplitude"])
    else:
        ic = CustomIC(resolved["ic_path"])
    sides = ("left", "right", "bottom", "top")[: 2 * dim]
    bc = {side: _parse_bc(f"bc_{side}", resolved[f"bc_{side}"]) for side in sides}
    return SimConfig(
        params=_model_params(resolved),
        dim=dim,
        extents=extents,
        h=resolved["h"],
        ic=ic,
        bc=bc,
        t_end=resolved["t_end"],
        cadence=resolved["cadence"],
        dt_max=resolved["dt_max"],
        disk_mask=resolved["disk_mask"],
    )


def cmd_simulate(resolved: dict, out_dir: Path) -> tuple[int, list[str], dict]:
    config = _sim_config(resolved)
    # The snapshots are saved by a forked writer while the run steps; they
    # are complete, and hashed by the manifest, only after the block.
    with _SnapshotWriter(out_dir) as writer:
        traj = simulate(config, on_snapshot=writer)
    params = config.params
    level = params.a / (2.0 * params.b)

    outputs = [Path(p).name for p in writer.written]

    lines = []
    classification = lambda_est = None
    if config.dim == 1:
        lines.append("time,mass_u,mass_v,front,label,crossing_count,overshoot\n")
        for k, field in enumerate(traj.snapshots):
            try:
                cls = classify_profile(field.u, params.equilibrium)
                label, ncross, over = cls.label, str(cls.crossing_count), repr(cls.overshoot)
            except NoCrossing:
                label, ncross, over = "NoFront", "", ""
            lines.append(
                f"{traj.times[k]!r},{traj.mass_u[k]!r},{traj.mass_v[k]!r},"
                f"{traj.front[k]!r},{label},{ncross},{over}\n"
            )
        classification = label  # of the final snapshot
        final = traj.snapshots[-1]
        try:
            lambda_est, _ = decay_fit(final.x, final.u)
        except WavemotilError:
            pass
    else:
        lines.append("time,mass_u,mass_v,r_inner,r_peak,r_outer\n")
        for k, field in enumerate(traj.snapshots):
            try:
                r_in, r_pk, r_out = ring_radii(field, level)
                ring = f"{r_in!r},{r_pk!r},{r_out!r}"
            except NoRing:
                ring = "nan,nan,nan"
            lines.append(
                f"{traj.times[k]!r},{traj.mass_u[k]!r},{traj.mass_v[k]!r},{ring}\n"
            )
    with open(out_dir / "metrics.csv", "w") as fh:
        fh.writelines(lines)
    outputs.append("metrics.csv")

    c_est = stderr = None
    try:
        c_est, stderr = wave_speed(
            np.array(traj.times),
            np.array(traj.front),
            transient_fraction=resolved["transient_fraction"],
        )
    except (InsufficientSamples, WindowTooSmall):
        pass
    metrics = {
        "c_est": c_est,
        "c_est_stderr": stderr,
        "lambda_est": lambda_est,
        "classification": classification,
        "front_final": traj.front[-1],
        "steps": len(traj.solver_iterations),
        "solver_iterations": sum(traj.solver_iterations),
        "solver_iterations_step_max": max(traj.solver_iterations, default=0),
        "v_builds": traj.v_builds,
        "clipped_values": traj.clipped_values,
        "worst_undershoot": traj.worst_undershoot,
        "dt": config.dt,
    }
    return 0, outputs, metrics


def _scan_row(
    resolved: dict, params: ModelParams, gamma0: float, lam0: float
) -> tuple[float, SimConfig]:
    """The predicted speed and the simulation setup of one decay-rate row."""
    a, b = params.a, params.b
    c_pred = leading_edge_speed(lam0, a, gamma0, threshold=resolved["threshold"])
    x0, h, t_end = resolved["x0"], resolved["h"], resolved["t_end"]
    length = 10.0 * math.ceil((x0 + 1.25 * c_pred * t_end + 10.0) / 10.0)
    nx = int(round(length / h)) + 1
    x = h * np.arange(nx)
    profile = np.minimum(a / b, np.exp(-lam0 * (x - x0)))
    config = SimConfig(
        params=params,
        dim=1,
        extents=((0.0, length),),
        h=h,
        ic=ArrayIC(profile, profile),
        t_end=t_end,
        cadence=resolved["cadence"],
        dt_max=resolved["dt_max"],
    )
    return c_pred, config


def run_scan_row(
    lam0: float, c_pred: float, config: SimConfig, transient_fraction: float
) -> dict:
    """Simulate one built row of the front-speed scan and return its record."""
    record = {"lambda0": lam0, "c_pred": c_pred}
    try:
        traj = simulate(config)
        c_est, _ = wave_speed(
            np.array(traj.times),
            np.array(traj.front),
            transient_fraction=transient_fraction,
        )
        record["c_est"] = c_est
        record["rel_err"] = (c_est - c_pred) / c_pred
    except WavemotilError as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def cmd_speedscan(resolved: dict, out_dir: Path) -> tuple[int, list[str], dict]:
    params = _model_params(resolved)
    gamma0 = params.motility.gamma(0.0)
    rows = [
        (lam0, *_scan_row(resolved, params, gamma0, lam0))
        for lam0 in resolved["lambda0"]
    ]
    records = [run_scan_row(*row, resolved["transient_fraction"]) for row in rows]

    lines = ["lambda0,c_pred,c_est,rel_err\n"]
    for rec in records:
        fit = "," if "error" in rec else f"{rec['c_est']!r},{rec['rel_err']!r}"
        lines.append(f"{rec['lambda0']!r},{rec['c_pred']!r},{fit}\n")
    with open(out_dir / "speedscan.csv", "w") as fh:
        fh.writelines(lines)

    failures = [rec for rec in records if "error" in rec]
    metrics = {
        "rows": len(records),
        "failures": [
            {"lambda0": rec["lambda0"], "error": rec["error"]} for rec in failures
        ],
        "max_abs_rel_err": max(
            (abs(rec["rel_err"]) for rec in records if "rel_err" in rec),
            default=None,
        ),
    }
    return (1 if failures else 0), ["speedscan.csv"], metrics


# ---------------------------------------------------------------------------
# Entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems map to exit code 64
        raise ConfigError(message)


_COMMANDS = {
    "analyze": cmd_analyze,
    "certify": cmd_certify,
    "wave": cmd_wave,
    "simulate": cmd_simulate,
    "speedscan": cmd_speedscan,
}


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="wavemotil", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        if name == "simulate":
            p.add_argument(
                "--preset",
                choices=sorted(PRESETS),
                default=None,
                help="named experiment preset (config keys override it)",
            )
        p.add_argument("--out", default=".", help="output directory")

    try:
        args = parser.parse_args(argv)
        raw: dict[str, str] = {}
        if getattr(args, "preset", None):
            raw.update(PRESETS[args.preset])
        if args.config:
            raw.update(read_config(args.config))
        if not raw:
            raise ConfigError("no configuration given: pass --config and/or --preset")
        resolved = resolve_config(args.command, raw)
        out_dir = Path(args.out)
        made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
        out_dir.mkdir(parents=True, exist_ok=True)
        started = _now()
        try:
            code, outputs, metrics = _COMMANDS[args.command](resolved, out_dir)
        except ConfigError:
            # A usage error found during the run writes nothing either.
            if made:
                shutil.rmtree(made[-1], ignore_errors=True)
            raise
        _write_manifest(args.command, resolved, out_dir, outputs, metrics, started)
        return code
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except (WindowViolation, SpeedBelowMinimal, CertificateFailed, EtaUndefined) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except WavemotilError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
