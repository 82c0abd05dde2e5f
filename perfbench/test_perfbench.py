"""Self-checks of the benchmark harness.

Run from the checkout root:

    PYTHONPATH=src python3 -m pytest -q perfbench

The trace self-check runs the seed-0 fig2, fig4 (t_end=5) and critical-speed
wave ops in a traced worker and compares the span counts with the counts the
seed code is known to produce; a mismatch means a wrapper missed a binding
site.  It takes about half a minute.
"""

import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import workloads
from tracing import LAYERS, Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run_worker(tmp_path: Path, ops, trace: bool) -> dict:
    inputs = tmp_path / "inputs"
    inputs.mkdir(exist_ok=True)
    for op in ops:
        for name, text in op.files.items():
            (inputs / name).write_text(text)
    it_dir = tmp_path / "iter"
    it_dir.mkdir()
    plan = {"trace": trace, "ops": [{"id": op.id, "argv": op.argv} for op in ops]}
    (it_dir / "plan.json").write_text(json.dumps(plan))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "plan.json", "result.json"],
        cwd=it_dir, env=env, check=True, timeout=300,
    )
    return json.loads((it_dir / "result.json").read_text())


def _op(workload: str, op_id: str, seed: int = 0) -> workloads.Op:
    return next(op for op in workloads.make_ops(workload, seed) if op.id == op_id)


def _resolved(op: workloads.Op) -> dict:
    """The config the CLI resolves for an op, as cli.main would build it."""
    from wavemotil.cli import PRESETS, resolve_config

    raw = {}
    if "--preset" in op.argv:
        raw.update(PRESETS[op.argv[op.argv.index("--preset") + 1]])
    for text in op.files.values():
        raw.update(line.split("=", 1) for line in text.splitlines())
    return resolve_config(op.argv[0], raw)


def test_seed_zero_reproduces_presets_and_gate_case():
    from wavemotil.cli import PRESETS, resolve_config

    fig2, fig3, scan = workloads.make_ops("front1d", 0)
    assert fig2.argv == ["simulate", "--preset", "fig2", "--out", "fig2"]
    assert fig3.argv == ["simulate", "--preset", "fig3", "--out", "fig3"]
    gate_scan = {"motility": "power", "m": "6", "a": "1", "b": "1", "lambda0": "0.5,1.5"}
    assert _resolved(scan) == resolve_config("speedscan", gate_scan)

    (fig4,) = workloads.make_ops("ring2d", 0)
    assert _resolved(fig4) == resolve_config("simulate", dict(PRESETS["fig4"], t_end="5"))

    c_min = 2.0 * math.sqrt(0.1)
    for op in workloads.make_ops("wave", 0):
        cfg = _resolved(op)
        assert (cfg["a"], cfg["b"], cfg["m"]) == (0.1, 60.0, 6.0)
        assert cfg["c"] == (0.88 if op.id.endswith("_mid") else c_min)
        if op.kind == "wave":
            assert cfg["h"] == (0.025 if op.id.endswith("_fine") else 0.05)


def test_seeds_are_reproducible_and_distinct():
    for workload in workloads.WORKLOADS:
        first = [(op.argv, op.files) for op in workloads.make_ops(workload, 7)]
        again = [(op.argv, op.files) for op in workloads.make_ops(workload, 7)]
        other = [(op.argv, op.files) for op in workloads.make_ops(workload, 8)]
        assert first == again
        assert first != other


def test_wave_mid_speed_stays_in_middle_half_of_window():
    span = workloads.WAVE_C_MAX - workloads.WAVE_C_MIN
    for seed in range(1, 50):
        c = _resolved(_op("wave", "certify_mid", seed))["c"]
        assert 0.25 <= (c - workloads.WAVE_C_MIN) / span <= 0.75


def test_wrappers_pass_results_and_exceptions_through():
    tracer = Tracer()
    sentinel = object()
    error = KeyError("boom")

    def ok():
        return sentinel

    def bad():
        raise error

    assert tracer.wrap("cli.ok", ok)() is sentinel
    with pytest.raises(KeyError) as info:
        tracer.wrap("cli.bad", bad)()
    assert info.value is error
    assert [s[0] for s in tracer.spans] == ["cli.ok", "cli.bad"]


def test_self_times_add_up_to_wall():
    spans = [
        ["cli.main", 0.0, 10.0, -1, "a", None],
        ["pde.simulate", 1.0, 9.0, 0, "a", None],
        ["pde.step", 2.0, 5.0, 1, "a", None],
        ["scipy.splu", 3.0, 4.0, 2, "a", None],
        ["model.motility_eval", 6.0, 7.0, 1, "a", None],
    ]
    out = summarize(spans, 10.5)
    parts = sum(out[f"{layer}.self_s"] for layer in LAYERS + ("scipy",))
    assert parts + out["trace.unattributed_s"] == pytest.approx(10.5)
    assert out["pde.step.self_s"] == pytest.approx(2.0)
    assert out["scipy.splu.calls_per_step"] == 1.0
    assert out["model.motility_eval.calls_per_step"] == 1.0


def test_unmapped_exception_fails_the_op_not_the_run(tmp_path):
    bad = workloads.Op(
        "certify_bad", "certify",
        ["certify", "--config", "../inputs/bad.cfg", "--out", "certify_bad"],
        {"bad.cfg": "a=0.1\nb=60\nm=6\nc=0.88\nn=1\n"},
    )
    ops = [bad, _op("wave", "analyze_crit")]
    result = _run_worker(tmp_path, ops, trace=False)
    first, second = result["ops"]
    assert "ValueError" in first["error"]
    assert second["exit"] == 0 and second["error"] is None
    problems = workloads.check_op(bad, first["exit"], first["error"], tmp_path)
    assert problems and "unmapped exception" in problems[0]


def test_trace_counts_match_seed_code(tmp_path):
    ops = [_op("front1d", "fig2"), _op("ring2d", "fig4"), _op("wave", "wave_crit")]
    result = _run_worker(tmp_path, ops, trace=True)
    assert [op["exit"] for op in result["ops"]] == [0, 0, 0]
    counts = Counter()
    with open(tmp_path / "iter" / "spans.jsonl") as fh:
        for line in fh:
            name, _, _, _, op = json.loads(line)
            counts[op, name] += 1
    assert counts["fig2", "pde.step"] == 3045
    assert counts["fig2", "pde.save_field"] == 61
    assert counts["fig2", "model.motility_eval"] == 2 * 3045
    assert counts["fig4", "pde.step"] == 58
    assert counts["fig4", "scipy.splu"] == 82
    assert counts["wave_crit", "waveode.u_map"] == 5
    assert counts["wave_crit", "certificates.locate_junction"] == 46
