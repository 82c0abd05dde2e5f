"""The wavemotil benchmark: three workloads driven through ``wavemotil.cli.main``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {front1d,ring2d,wave} --seed N \\
        --seconds S --trace {0,1} [--record-reference]

Workloads (see ``workloads.py`` for the inputs and checks):

- ``front1d``: ``simulate --preset fig2``, ``simulate --preset fig3`` and a
  two-row ``speedscan``.  The 1-D IMEX stepper on ~4000-node grids, where
  fixed per-step overhead dominates; both boundary kinds, two motility laws,
  CSV snapshot writing and the scan's temp-file initial condition.  No
  sparse LU, certificate or wave-solver work.
- ``ring2d``: ``simulate --preset fig4`` cut to ``t_end=5``.  The 2-D path:
  a fresh sparse LU every step plus the dt-keyed v-factor cache; almost no
  1-D work or I/O.
- ``wave``: ``analyze``, ``certify`` and ``wave`` for (a, b, m) = (0.1, 60, 6)
  at c = 2 sqrt(a), at a seeded mid-window speed, and ``wave`` again at
  c = 2 sqrt(a) with h = 0.025.  Certificates and the wave solver only, no
  ``pde`` work.

Every iteration of a workload runs in a fresh worker process (the package
keeps a module-level factor cache, so a second pass in one process would
do less work), one after another, with BLAS pinned to one thread and no
``WAVEMOTIL_THREADS`` pool.  Iterations repeat until ``--seconds`` is
used up; the reported times are medians over the iterations whose checks
passed.  ``setup_s`` is the median over several fresh interpreters of the
time from process start until ``wavemotil.cli`` is imported.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics: spans
around each module's public functions (``tracing.py``), per-command times
and process CPU from the untraced iterations, and the tracing overhead.

Inputs, per-iteration results, spans and an environment record are kept
under ``.perfbench_runs/`` in the checkout.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads
from tracing import LAYERS

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference_hashes.json"

#: Fresh interpreters timed for ``setup_s`` in every run.
SETUP_SAMPLES = 5
#: A run never starts an iteration that could end after this many seconds.
RUN_LIMIT_S = 165.0
PROBE = "import time, wavemotil.cli; print(time.monotonic())"

#: Per-command times; certify and wave are summed over the workload's calls.
OP_KINDS = ("fig2", "fig3", "speedscan", "fig4", "certify", "wave")


# ---------------------------------------------------------------------------
# Environment


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():  # benchmark checkouts are plain trees
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment(root: Path) -> dict:
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root / "src"),
        "load_1min_start": os.getloadavg()[0],
    }


# ---------------------------------------------------------------------------
# Running


def child_env(root: Path, run_dir: Path) -> dict:
    env = dict(os.environ)
    env.pop("WAVEMOTIL_THREADS", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    tmp = run_dir / "tmp"
    tmp.mkdir(exist_ok=True)
    env["TMPDIR"] = str(tmp)  # the scan's temp-file initial condition
    return env


def setup_sample(env: dict, cwd: Path) -> float:
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, cwd=cwd, capture_output=True,
        text=True, timeout=60, check=True,
    )
    return float(out.stdout.split()[-1]) - start


def run_iteration(
    index: int, traced: bool, ops: list, run_dir: Path, env: dict, deadline: float
) -> dict:
    """One fresh worker process over all ops; returns per-op outcomes."""
    it_dir = run_dir / f"iter{index:02d}{'-traced' if traced else ''}"
    it_dir.mkdir()
    plan = {"trace": traced, "ops": [{"id": op.id, "argv": op.argv} for op in ops]}
    (it_dir / "plan.json").write_text(json.dumps(plan, indent=1) + "\n")
    start = time.monotonic()
    with open(it_dir / "worker.log", "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "plan.json", "result.json"],
                cwd=it_dir, env=env, stdout=log, stderr=subprocess.STDOUT,
                timeout=max(1.0, deadline - start),
            )
            died = None if proc.returncode == 0 else f"worker exit code {proc.returncode}"
        except subprocess.TimeoutExpired:
            died = "worker timed out"
    elapsed = time.monotonic() - start
    result = None
    if died is None:
        result = json.loads((it_dir / "result.json").read_text())

    outcomes = []
    for k, op in enumerate(ops):
        out = it_dir / op.id
        if result is None:
            outcomes.append({"id": op.id, "kind": op.kind, "problems": [died]})
            continue
        rec = result["ops"][k]
        problems = workloads.check_op(op, rec["exit"], rec["error"], out)
        outcomes.append({
            "id": op.id,
            "kind": op.kind,
            "seconds": rec["seconds"],
            "exit": rec["exit"],
            "problems": problems,
            "hashes": workloads.output_hashes(out),
        })
        for snap in out.glob("snap_*"):  # bulky; run.json keeps their hashes
            snap.unlink()
    it = {"traced": traced, "elapsed": elapsed, "ops": outcomes}
    if result is not None:
        it.update({k: result[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")})
        it["layers"] = result.get("layers")
    return it


def run_iterations(args, ops, run_dir: Path, env: dict, t0: float) -> list[dict]:
    """Iterate until the measuring time is used up (a traced run needs one
    untraced and one traced iteration at least)."""
    start = time.monotonic()
    iterations: list[dict] = []
    while True:
        traced = bool(args.trace) and len(iterations) % 2 == 1
        iterations.append(
            run_iteration(len(iterations), traced, ops, run_dir, env, t0 + RUN_LIMIT_S)
        )
        longest = max(it["elapsed"] for it in iterations)
        now = time.monotonic()
        if now + longest > t0 + RUN_LIMIT_S:
            break
        enough = len(iterations) >= (2 if args.trace else 1)
        if enough and now + longest / 2 > start + args.seconds:
            break
    return iterations


# ---------------------------------------------------------------------------
# Aggregation


def _passed(it: dict, kinds=None) -> bool:
    return all(not o["problems"] for o in it["ops"] if kinds is None or o["kind"] in kinds)


def op_times(iterations: list[dict]) -> dict[str, list[float]]:
    """Per-command times over the iterations where that command passed."""
    out: dict[str, list[float]] = {}
    for kind in OP_KINDS:
        for it in iterations:
            mine = [o for o in it["ops"] if o["kind"] == kind]
            if mine and _passed(it, (kind,)):
                out.setdefault(kind, []).append(sum(o["seconds"] for o in mine))
    return out


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def outputs_changed(workload: str, seed: int, it: dict) -> int:
    """Data files whose hash differs from the reference run of this seed;
    -1 when no reference was recorded for it."""
    try:
        ref = json.loads(REFERENCE.read_text())["runs"][workload][str(seed)]
    except (OSError, ValueError, KeyError):
        return -1
    changed = 0
    for o in it["ops"]:
        got = {p: h[:16] for p, h in o.get("hashes", {}).items()}
        want = ref.get(o["id"], {})
        changed += sum(got.get(p) != want.get(p) for p in set(got) | set(want))
    return changed


def record_reference(workload: str, seed: int, it: dict, env_info: dict) -> None:
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {"runs": {}}
    data["src_sha256"] = env_info["src_sha256"]
    data["runs"].setdefault(workload, {})[str(seed)] = {
        o["id"]: {p: h[:16] for p, h in sorted(o["hashes"].items())} for o in it["ops"]
    }
    runs = data["runs"][workload]
    data["runs"][workload] = dict(sorted(runs.items(), key=lambda kv: int(kv[0])))
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def end_to_end(iterations: list[dict], setup: list[float]) -> dict[str, tuple[float, int]]:
    # Times cover passing iterations; if none passed the run is reported
    # incorrect and the failing iterations' times are shown instead.
    good = [it for it in iterations if _passed(it)] or iterations
    walls = [it["wall_s"] for it in good if "wall_s" in it]
    rss = [it["peak_rss_mb"] for it in iterations if "peak_rss_mb" in it]
    ops = [o for it in iterations for o in it["ops"]]
    ok = sum(not o["problems"] for o in ops) / len(ops)
    return {
        "wall_s": (_median(walls), len(walls)),
        "setup_s": (_median(setup), len(setup)),
        "peak_rss_mb": (_median(rss), len(rss)),
        "ok_frac": (ok, len(ops)),
    }


def per_layer(workload: str, seed: int, iterations: list[dict]) -> dict[str, tuple[float, int]]:
    plain = [it for it in iterations if not it["traced"] and "wall_s" in it]
    traced = [it for it in iterations if it["traced"] and it.get("layers")]
    out: dict[str, tuple[float, int]] = {}
    times = op_times(plain)
    for kind in OP_KINDS:
        out[f"op.{kind}_s"] = (_median(times.get(kind, [])), len(times.get(kind, [])))
    if traced:
        for name in traced[0]["layers"]:
            values = [it["layers"][name] for it in traced]
            out[name] = (_median(values), len(values))
    out["cli.outputs_changed"] = (outputs_changed(workload, seed, iterations[0]), 1)
    wall = _median([it["wall_s"] for it in plain])
    cpu = _median([it["cpu_s"] for it in plain])
    traced_wall = _median([it["wall_s"] for it in traced])
    out["proc.cpu_s"] = (cpu, len(plain))
    out["proc.cpu_util"] = (cpu / wall if wall else 0.0, len(plain))
    out["trace.overhead_frac"] = (
        (traced_wall - wall) / wall if wall and traced else 0.0, len(traced)
    )
    return out


def identity_problems(iterations: list[dict]) -> list[str]:
    """Layer self times plus the unattributed remainder must add up to the
    traced wall time of the same iteration."""
    problems = []
    for it in iterations:
        layers = it.get("layers")
        if not layers:
            continue
        parts = sum(layers[f"{layer}.self_s"] for layer in LAYERS + ("scipy",))
        total = parts + layers["trace.unattributed_s"]
        if abs(total - layers["trace.wall_s"]) > 1e-6 * max(1.0, layers["trace.wall_s"]):
            problems.append(f"self times sum to {total}, traced wall is {layers['trace.wall_s']}")
    return problems


# ---------------------------------------------------------------------------
# Entry point


def main(argv: list[str] | None = None) -> int:
    t0 = time.monotonic()
    # Exit through Python on SIGTERM so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--record-reference", action="store_true",
        help="store this run's output hashes as the reference for its seed",
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "wavemotil" / "cli.py").is_file():
        print(f"no wavemotil source under {root / 'src'}: run from a checkout root",
              file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    run_dir = root / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "inputs").mkdir(parents=True)
    env_info = environment(root)

    ops = workloads.make_ops(args.workload, args.seed)
    for op in ops:
        for name, text in op.files.items():
            (run_dir / "inputs" / name).write_text(text)
    (run_dir / "inputs" / "argv.json").write_text(
        json.dumps({op.id: op.argv for op in ops}, indent=1) + "\n"
    )

    env = child_env(root, run_dir)
    setup = [setup_sample(env, run_dir) for _ in range(SETUP_SAMPLES)]
    iterations = run_iterations(args, ops, run_dir, env, t0)

    env_info["load_1min_end"] = os.getloadavg()[0]
    env_info["load_above_nproc"] = max(
        env_info["load_1min_start"], env_info["load_1min_end"]
    ) > env_info["nproc"]

    problems = [
        f"iteration {k} {o['id']}: {p}"
        for k, it in enumerate(iterations) for o in it["ops"] for p in o["problems"]
    ] + identity_problems(iterations)
    attempted = sum(len(it["ops"]) for it in iterations)
    failed = sum(bool(o["problems"]) for it in iterations for o in it["ops"])
    if args.record_reference and not problems and not args.trace:
        record_reference(args.workload, args.seed, iterations[0], env_info)

    measured = per_layer(args.workload, args.seed, iterations) if args.trace else end_to_end(
        iterations, setup
    )
    if set(measured) - set(units):
        raise RuntimeError(f"undeclared metrics: {sorted(set(measured) - set(units))}")
    # A metric whose iterations all died reads 0 from 0 samples; the run is
    # then reported incorrect.
    metrics = {name: measured.get(name, (0.0, 0)) for name in units}
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env_info,
        "setup_samples": setup,
        "iterations": iterations,
        "problems": problems,
        "metrics": {k: {"value": v, "n": n} for k, (v, n) in metrics.items()},
    }
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"iterations={len(iterations)} nproc={env_info['nproc']} "
          f"load={env_info['load_1min_start']:.2f}->{env_info['load_1min_end']:.2f}"
          + ("  LOAD ABOVE NPROC" if env_info["load_above_nproc"] else ""))
    for name, (value, n) in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]:8s} n={n}")
    for problem in problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
