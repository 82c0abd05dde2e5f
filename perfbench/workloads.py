"""Seeded inputs and output checks for the three benchmark workloads.

Every operation is one call of ``wavemotil.cli.main(argv)``.  The program
only ever sees the generated argv and the config files it names; both are
saved with the results so any run can be replayed.  Seed 0 reproduces the
shipped presets and the acceptance gate's dilute case exactly; other seeds
perturb them within ranges that keep every operation passing and keep the
amount of work per operation close to the seed-0 amount, so that the
benchmark's spread measures the machine, not the inputs.

Each check uses the tolerance the acceptance gate states for the same
behaviour.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("front1d", "ring2d", "wave")

# The gate's dilute case.  c_max is the right end of its admissible speed
# window, (b - 3m) sqrt(1 + a) / (3m) - 2 sqrt(a) (1 + sqrt(1 + 1/m)).
WAVE_A, WAVE_B, WAVE_M = 0.1, 60.0, 6.0
WAVE_C_MIN = 2.0 * math.sqrt(WAVE_A)
WAVE_C_MAX = (WAVE_B - 3.0 * WAVE_M) * math.sqrt(1.0 + WAVE_A) / (
    3.0 * WAVE_M
) - WAVE_C_MIN * (1.0 + math.sqrt(1.0 + 1.0 / WAVE_M))

# fig2 and fig3 preset values that other seeds perturb.
FIG2_OFFSET, FIG3_OFFSET = 20.0, 15.0
FIG4_AMPLITUDE = 4.0
FIG2_A = 0.1
SCAN_ROWS = 2

# Tolerances taken from tests/test_acceptance.py.
SPEED_TOL = 0.05
MIN_CROSSINGS = 3


@dataclass
class Op:
    """One CLI call: ``kind`` names its check and its op.* metric."""

    id: str
    kind: str
    argv: list[str]
    files: dict[str, str] = field(default_factory=dict)


def _cfg(**values) -> str:
    return "".join(f"{k}={v}\n" for k, v in values.items())


def _simulate(op_id: str, preset: str, overrides: dict | None) -> Op:
    argv = ["simulate", "--preset", preset]
    files = {}
    if overrides:
        name = f"{op_id}.cfg"
        files[name] = _cfg(**overrides)
        argv += ["--config", f"../inputs/{name}"]
    return Op(op_id, preset, argv + ["--out", op_id], files)


def _front1d(rng: random.Random | None) -> list[Op]:
    if rng is None:
        fig2 = fig3 = None
        lam_lo, lam_hi = "0.5", "1.5"
    else:
        fig2 = {"ic_offset": repr(round(FIG2_OFFSET + rng.uniform(-2, 2), 3))}
        fig3 = {"ic_offset": repr(round(FIG3_OFFSET + rng.uniform(-2, 2), 3))}
        # The low rate sets the scan's domain length, so it stays near 0.5.
        lam_lo = repr(round(rng.uniform(0.47, 0.53), 3))
        lam_hi = repr(round(rng.uniform(1.3, 1.7), 3))
    scan = Op(
        "speedscan",
        "speedscan",
        ["speedscan", "--config", "../inputs/speedscan.cfg", "--out", "speedscan"],
        {"speedscan.cfg": _cfg(motility="power", m=6, a=1, b=1,
                               lambda0=f"{lam_lo},{lam_hi}")},
    )
    return [_simulate("fig2", "fig2", fig2), _simulate("fig3", "fig3", fig3), scan]


def _ring2d(rng: random.Random | None) -> list[Op]:
    overrides = {"t_end": "5"}
    if rng is not None:
        scale = 1.0 + rng.uniform(-0.05, 0.05)
        overrides["ic_amplitude"] = repr(round(FIG4_AMPLITUDE * scale, 4))
    return [_simulate("fig4", "fig4", overrides)]


def _wave(rng: random.Random | None) -> list[Op]:
    if rng is None:
        c_mid = "0.88"
    else:
        share = rng.uniform(0.25, 0.75)
        c_mid = repr(round(WAVE_C_MIN + share * (WAVE_C_MAX - WAVE_C_MIN), 4))
    base = {"a": f"{WAVE_A:g}", "b": f"{WAVE_B:g}", "m": f"{WAVE_M:g}"}
    points = [("crit", repr(WAVE_C_MIN), None), ("mid", c_mid, None),
              ("fine", repr(WAVE_C_MIN), "0.025")]
    ops = []
    for tag, c, h in points:
        commands = ("wave",) if h else ("analyze", "certify", "wave")
        for command in commands:
            op_id = f"{command}_{tag}"
            values = dict(base, c=c) if h is None else dict(base, c=c, h=h)
            ops.append(Op(
                op_id,
                command,
                [command, "--config", f"../inputs/{op_id}.cfg", "--out", op_id],
                {f"{op_id}.cfg": _cfg(**values)},
            ))
    return ops


def make_ops(workload: str, seed: int) -> list[Op]:
    """The operations of one workload iteration for ``seed``."""
    build = {"front1d": _front1d, "ring2d": _ring2d, "wave": _wave}[workload]
    return build(None if seed == 0 else random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# Checks: each returns a list of problems, empty when the op is correct.


def _manifest(out: Path) -> dict:
    return json.loads((out / "run.json").read_text())


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_fig2(op: Op, out: Path) -> list[str]:
    met = _manifest(out)["metrics"]
    c_min = 2.0 * math.sqrt(FIG2_A)
    problems = []
    if met["classification"] != "Monotone":
        problems.append(f"classification {met['classification']}, want Monotone")
    if met["c_est"] is None or abs(met["c_est"] - c_min) > SPEED_TOL * c_min:
        problems.append(f"c_est {met['c_est']} not within 5% of {c_min}")
    return problems


def _check_fig3(op: Op, out: Path) -> list[str]:
    met = _manifest(out)["metrics"]
    problems = []
    if met["classification"] != "OscillatoryTrailingEdge":
        problems.append(
            f"classification {met['classification']}, want OscillatoryTrailingEdge"
        )
    counts = [int(r["crossing_count"] or 0) for r in _rows(out / "metrics.csv")[-3:]]
    if len(counts) < 3 or min(counts) < MIN_CROSSINGS:
        problems.append(f"crossings over the last three snapshots {counts}, want >= 3")
    return problems


def _check_speedscan(op: Op, out: Path) -> list[str]:
    rows = _rows(out / "speedscan.csv")
    problems = []
    if len(rows) != SCAN_ROWS:
        problems.append(f"{len(rows)} scan rows, want {SCAN_ROWS}")
    for row in rows:
        if not row["rel_err"] or abs(float(row["rel_err"])) > SPEED_TOL:
            problems.append(f"lambda0={row['lambda0']}: rel_err {row['rel_err']!r}")
    return problems


def _check_fig4(op: Op, out: Path) -> list[str]:
    radii = [float(r["r_outer"]) for r in _rows(out / "metrics.csv")]
    if len(radii) < 2 or not all(math.isfinite(r) for r in radii):
        return [f"r_outer {radii} not finite at every snapshot"]
    if not radii[-1] < radii[0]:
        return [f"r_outer {radii} does not contract"]
    return []


def _check_analyze(op: Op, out: Path) -> list[str]:
    met = _manifest(out)["metrics"]
    return [] if met["speed_in_window"] else ["speed reported outside the window"]


def _check_certify(op: Op, out: Path) -> list[str]:
    met = _manifest(out)["metrics"]
    return [] if met["certificate_passed"] else ["certificate_passed is false"]


def _check_wave(op: Op, out: Path) -> list[str]:
    met = _manifest(out)["metrics"]
    return [] if met["verification_passed"] else ["verification_passed is false"]


CHECKS = {
    "fig2": _check_fig2,
    "fig3": _check_fig3,
    "speedscan": _check_speedscan,
    "fig4": _check_fig4,
    "analyze": _check_analyze,
    "certify": _check_certify,
    "wave": _check_wave,
}


def check_op(op: Op, exit_code, error: str | None, out: Path) -> list[str]:
    """Problems with one finished op: a nonzero exit, an unmapped exception,
    missing outputs, or a result outside the gate's tolerance."""
    if error is not None:
        return [f"unmapped exception: {error.strip().splitlines()[-1]}"]
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        return CHECKS[op.kind](op, out)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def output_hashes(out: Path) -> dict[str, str]:
    """Data-file SHA-256 values the op recorded in its run.json."""
    try:
        manifest = _manifest(out)
    except (OSError, ValueError):
        return {}
    return {entry["path"]: entry["sha256"] for entry in manifest["outputs"]}
