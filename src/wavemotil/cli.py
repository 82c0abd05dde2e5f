"""Command-line entry point.

Parses a flat ``key=value`` config file (``#`` comments allowed), runs one of
the engines — threshold analysis, certificate checking, the constructive wave
solver, time-dependent simulation, or a front-speed scan over initial decay
rates — and writes its artifacts into the output directory (JSON reports,
CSV tables, and the wave profile as a JSON header plus a float64 binary, the
layout of ``save_field``'s snapshots) together with a ``run.json`` manifest
recording the fully resolved config, the package version, timestamps,
content hashes of every output file and the headline metrics.  Re-running a command with the same resolved config and
build produces byte-identical data files.

``resolve_config`` checks a config completely, including the keys each
listed value needs and owns (``motility=sigmoid`` needs and owns ``eps``
and ``v0``; ``dim=2`` owns ``bc_bottom``, ``bc_top`` and the ``y_min`` and
``y_max`` it needs): a key owned only by values not chosen is an error,
and a ``--config`` value replacing a preset's drops such preset keys.
``speedscan`` builds every row before it simulates one, so a malformed
value fails before any work starts.  The CLI restates no library
decision: the schema keys of a ``motility`` or ``ic`` value, and the keys
it needs and owns, are the dataclass fields of the class it names (``ic_``
+ field for ``ic``), the side names are ``pde``'s, ``wave``'s ``h`` and
``simulate``'s ``transient_fraction`` default to the library's
``frame_step(c)`` and ``DEFAULT_TRANSIENT_FRACTION``, so ``run.json``
records the values used, and ``metrics.csv`` rows are as ``simulate``
measured them.  Each command returns its exit code, outputs and metrics.
One walker, ``_json_tree``, readies every JSON report, ``wave.json``
included: a record field by field, non-finite values as null.

Exit codes: 0 all requested checks passed; 1 numeric failure (divergence,
instability, failed verification) or an output that cannot be written;
2 certificate or speed-window failure; 64 malformed config or usage.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import sys
from dataclasses import fields, is_dataclass
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
    NonFiniteState,
    SpeedBelowMinimal,
    WavemotilError,
    WindowViolation,
)
from .frontmetrics import DEFAULT_TRANSIENT_FRACTION, decay_fit, wave_speed
from .model import (
    ExponentialMotility,
    ModelParams,
    PowerMotility,
    SigmoidMotility,
)
from .pde import (
    _SIDES,
    DEFAULT_DT_MAX,
    ArrayIC,
    Bump2dIC,
    CustomIC,
    Dirichlet,
    FrontIC,
    Neumann,
    SimConfig,
    _write_arrays,
    make_field,
    save_field,
    simulate,
)
from .waveode import frame_step, traveling_wave, verify_profile

__all__ = ["main", "PRESETS", "read_config", "resolve_config"]

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
    the keys it owns, and ``stray(value, keys)`` lists those of ``keys``
    only other values own (both checked by resolve_config)."""
    only = only or {}

    def check(key: str, raw: str):
        value = convert(key, raw)
        if value not in needs:
            listed = "|".join(str(choice) for choice in needs)
            raise ConfigError(f"key {key!r}: expected {listed}, got {raw!r}")
        return value

    def stray(value, keys) -> list[str]:
        others = {name for names in only.values() for name in names}
        others -= set(only.get(value, ()))
        return [name for name in keys if name in others]

    check.needs = needs
    check.stray = stray
    return check


def _builds(classes: dict, prefix: str = ""):
    """Converter accepting only the keys of ``classes``, which maps each value
    to the dataclass it builds: the value needs and owns one key per field
    of its class, ``prefix`` + field name, and ``build(value, resolved)``
    builds the class from them.  ``schema`` holds one optional entry per
    field of the classes, in their order: a string for a ``str`` field,
    else a number."""
    needs = {
        v: tuple(prefix + f.name for f in fields(cls)) for v, cls in classes.items()
    }
    check = _one_of(needs, only=needs)
    check.schema = {
        prefix + f.name: (_as_str if f.type == "str" else _as_float, None)
        for cls in classes.values()
        for f in fields(cls)
    }
    check.build = lambda value, resolved: classes[value](
        **{key[len(prefix) :]: resolved[key] for key in needs[value]}
    )
    return check


_FAMILY = _builds(
    {"power": PowerMotility, "exponential": ExponentialMotility, "sigmoid": SigmoidMotility}
)
_INITIAL_CONDITION = _builds(
    {"front": FrontIC, "bump2d": Bump2dIC, "custom": CustomIC}, "ic_"
)

_MOTILITY_KEYS = {"motility": (_FAMILY, "power"), **_FAMILY.schema}

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
        "h": (_as_positive, lambda resolved: frame_step(resolved["c"])),
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
        "ic": (_INITIAL_CONDITION, _REQUIRED),
        **_INITIAL_CONDITION.schema,
        "bc_left": (_as_str, "neumann"),
        "bc_right": (_as_str, "neumann"),
        "bc_bottom": (_as_str, "neumann"),
        "bc_top": (_as_str, "neumann"),
        "t_end": (_as_float, _REQUIRED),
        "cadence": (_as_float, _REQUIRED),
        "dt_max": (_as_float, DEFAULT_DT_MAX),
        "disk_mask": (_as_bool, False),
        "transient_fraction": (_as_fraction, DEFAULT_TRANSIENT_FRACTION),
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
    only other values own is.  A callable default is a function of the keys
    resolved before it."""
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
            resolved[key] = default(resolved) if callable(default) else default
    for key, (convert, _) in schema.items():
        value = resolved[key]
        for needed in getattr(convert, "needs", {}).get(value, ()):
            if resolved[needed] is None:
                raise ConfigError(f"missing required key {needed!r} for {key}={value}")
        stray = convert.stray(value, raw) if hasattr(convert, "stray") else []
        if stray:
            raise ConfigError(
                f"key(s) {', '.join(stray)} do not apply to {key}={value}"
            )
    return resolved


def _override(command: str, preset: dict, given: dict) -> dict:
    """``preset`` updated by ``given``; a value ``given`` sets first drops
    the preset's keys that only other values of its key own."""
    schema = _SCHEMAS[command]
    merged = dict(preset)
    for key, raw in given.items():
        convert = schema.get(key, (None,))[0]
        if hasattr(convert, "stray"):
            for name in convert.stray(convert(key, raw), preset):
                del merged[name]
    merged.update(given)
    return merged


def _model_params(resolved: dict) -> ModelParams:
    """The model of a resolved config, with malformed values as usage errors;
    a command without a ``motility`` key takes the power family."""
    try:
        family = _FAMILY.build(resolved.get("motility", "power"), resolved)
        return ModelParams(a=resolved["a"], b=resolved["b"], motility=family)
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


def _write_csv(path: Path, columns: list[str], rows) -> None:
    """Write a header line of ``columns`` and one line per row, each value
    through ``_fmt_value`` (so None, a missing value, is an empty cell)."""
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\n").encode())
        fh.writelines((",".join(map(_fmt_value, row)) + "\n").encode() for row in rows)


def _json_tree(value):
    """``value`` as JSON can hold it: a dataclass record becomes a dict of
    its fields in their order, dicts, lists and tuples are walked, and
    every NaN or infinite float becomes None."""
    if is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, dict):
        return {k: _json_tree(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_tree(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(path: Path, payload) -> None:
    """Write ``payload``, a dict or a dataclass record, as strict JSON: NaN
    and infinities are not JSON, so every one of them is written as null."""
    with open(path, "w") as fh:
        json.dump(_json_tree(payload), fh, indent=2, allow_nan=False)
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
        "metrics": metrics,
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

    def _eigs(at: str) -> dict | None:
        try:
            rep = linearize(params, c, at=at)
        except NonFiniteState:  # gamma(a/b) too small to form it
            return None
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
    _write_json(out_dir / "certificate.json", report)
    worst = min(report.checks, key=lambda ch: ch.margin)
    metrics = {
        "certificate_passed": bool(report.passed),
        "delta": report.delta,
        "x_delta": report.x_delta,
        "worst_check": worst.name,
        "worst_margin": worst.margin,
    }
    return 0, ["certificate.json"], metrics


def cmd_wave(resolved: dict, out_dir: Path) -> tuple[int, list[str], dict]:
    params = _model_params(resolved)
    profile = traveling_wave(params, resolved["c"], h=resolved["h"])
    verification = verify_profile(profile, params)
    grid = profile.grid
    payload = dict(c=profile.c, lam=profile.lam, z_min=grid[0], z_max=grid[-1])
    payload.update(n_points=grid.size, h=grid[1] - grid[0])
    for f in fields(profile):  # the other scalars, in field order
        value = getattr(profile, f.name)
        if np.ndim(value) == 0:
            payload.setdefault(f.name, value)
    payload["verification"] = verification
    arrays = {
        "z": grid,
        "U": profile.U,
        "V": profile.V,
        "Uprime": profile.Uprime,
        "Vprime": profile.Vprime,
    }
    _write_arrays(out_dir / "wave", arrays, _json_tree(payload))
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
    return (0 if verification.passed else 1), ["wave.bin", "wave.json"], metrics


def _sim_config(resolved: dict) -> SimConfig:
    dim = resolved["dim"]
    extents = tuple(
        (resolved[f"{axis}_min"], resolved[f"{axis}_max"]) for axis in "xy"[:dim]
    )
    bc = {
        side: _parse_bc(f"bc_{side}", resolved[f"bc_{side}"])
        for side in _SIDES[: 2 * dim]
    }
    return SimConfig(
        params=_model_params(resolved),
        dim=dim,
        extents=extents,
        h=resolved["h"],
        ic=_INITIAL_CONDITION.build(resolved["ic"], resolved),
        bc=bc,
        t_end=resolved["t_end"],
        cadence=resolved["cadence"],
        dt_max=resolved["dt_max"],
        disk_mask=resolved["disk_mask"],
    )


def cmd_simulate(resolved: dict, out_dir: Path) -> tuple[int, list[str], dict]:
    """Run the configured simulation, saving each snapshot with
    ``save_field`` as the run takes it (``snap_0000`` first), and write
    ``metrics.csv``.

    A run that fails writes no snapshot: the files saved so far are
    removed and the error propagates.
    """
    config = _sim_config(resolved)
    written: list[str] = []

    def save(k, f):
        written.extend(save_field(f, str(out_dir / f"snap_{k:04d}")))

    try:
        traj = simulate(config, on_snapshot=save)
    except BaseException:
        for path in written:
            Path(path).unlink(missing_ok=True)
        raise

    outputs = [Path(p).name for p in written]
    # The run measured each snapshot; its rows are written as measured.
    rows = zip(traj.times, traj.mass_u, traj.mass_v, traj.diagnostics)
    _write_csv(
        out_dir / "metrics.csv",
        ["time", "mass_u", "mass_v", *traj.diagnostics[0]],
        ([t, mu, mv, *measured.values()] for t, mu, mv, measured in rows),
    )
    outputs.append("metrics.csv")

    classification = traj.diagnostics[-1].get("label")  # 1-D only
    lambda_est = c_est = stderr = None
    if config.dim == 1:
        final = traj.snapshots[-1]
        try:
            lambda_est, _ = decay_fit(final.x, final.u)
        except WavemotilError:
            pass
    try:
        c_est, stderr = wave_speed(
            np.array(traj.times),
            np.array(traj.front),
            transient_fraction=resolved["transient_fraction"],
        )
    except InsufficientSamples:
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
    """The predicted speed and the simulation setup of one decay-rate row,
    its profile sampled on the grid ``make_field`` validates."""
    a, b = params.a, params.b
    c_pred = leading_edge_speed(lam0, a, gamma0)
    x0, h, t_end = resolved["x0"], resolved["h"], resolved["t_end"]
    reach = (x0 + 1.25 * c_pred * t_end + 10.0) / 10.0
    if not reach < math.inf:
        raise ConfigError(
            f"lambda0={lam0!r} predicts speed {c_pred!r}: no finite domain holds the run"
        )
    length = 10.0 * math.ceil(reach)
    try:
        x = make_field(1, (0.0, length), h, u0=0.0, v0=0.0).x
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    with np.errstate(over="ignore"):  # an overflowing exp is capped at a/b
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


def _run_scan_row(
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
    records = [_run_scan_row(*row, resolved["transient_fraction"]) for row in rows]

    columns = ["lambda0", "c_pred", "c_est", "rel_err"]  # a failed row has no fit
    _write_csv(
        out_dir / "speedscan.csv", columns, ([rec.get(k) for k in columns] for rec in records)
    )

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
        raw = dict(PRESETS[args.preset]) if getattr(args, "preset", None) else {}
        if args.config:
            raw = _override(args.command, raw, read_config(args.config))
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
    except OSError as exc:  # an output that cannot be written
        print(f"OSError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
