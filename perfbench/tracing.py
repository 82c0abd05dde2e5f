"""Spans around the public functions of each wavemotil module.

The wrappers are installed from outside the package: every binding of a
wrapped function in any loaded ``wavemotil`` module is replaced, because
``cli``, ``pde`` and ``waveode`` import functions by name and a consumer
calls whatever object its own module dictionary holds.  The scipy solvers
are wrapped only where ``pde`` and ``waveode`` bind them.

A span is (name, start, end, parent span, op id), kept in memory and
written out when the run ends.  A span's self time is its duration minus
the time its direct child spans cover; calls are single-threaded, so the
spans of one op nest properly.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

#: Modules whose public functions are wrapped, in layer order.
LAYERS = ("cli", "pde", "model", "frontmetrics", "certificates", "waveode", "analysis")

#: Solver entry points wrapped where the package binds them.
SCIPY = {"splu": "scipy.sparse.linalg", "solve_banded": "scipy.linalg"}

#: Per-call sizes: span name -> function of (args, kwargs, result).
_SIZES = {
    "certificates.solve_v": lambda args, kwargs, result: len(args[0] if args else kwargs["grid"]),
    "pde.save_field": lambda args, kwargs, result: list(result),
}


class Tracer:
    """In-memory span recorder; ``install`` wraps the package in place."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op, size]
        self.op: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        size = _SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[1] = start
                stack.pop()
            if size is not None:
                span[5] = size(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function at each of its bindings in the package."""
        targets = {}  # id(original) -> (span name, original)
        for layer in LAYERS:
            module = sys.modules.get(f"wavemotil.{layer}") or __import__(
                f"wavemotil.{layer}", fromlist=["_"]
            )
            for attr in module.__all__:
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    targets[id(obj)] = (f"{layer}.{attr}", obj)
        for attr, home in SCIPY.items():
            obj = getattr(__import__(home, fromlist=[attr]), attr)
            targets[id(obj)] = (f"scipy.{attr}", obj)

        wrappers = {key: self.wrap(name, fn) for key, (name, fn) in targets.items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "wavemotil" or mod_name.startswith("wavemotil.")
            ):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and targets[id(obj)][1] is obj:
                    setattr(module, attr, wrapper)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for name, start, end, parent, op, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


#: Step-time percentiles considered for the tail metric.
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def summarize(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    ``wall_s`` is the traced total of the op calls as timed around
    ``cli.main``; whatever no span covers is reported as unattributed, so
    the layer self times plus ``trace.unattributed_s`` equal it.
    """
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def ancestors(index: int):
        parent = spans[index][3]
        while parent >= 0:
            yield spans[parent][0]
            parent = spans[parent][3]

    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    layer_total: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    in_sim: dict[str, int] = {}
    roots = 0.0
    steps_us = []
    nodes = 0
    written = []
    for i, (name, start, end, parent, _, size) in enumerate(spans):
        duration = end - start
        own = duration - child_time[i]
        layer = name.split(".", 1)[0]
        up = list(ancestors(i))
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + own
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        if name not in up:
            total[name] = total.get(name, 0.0) + duration
        if not any(a.split(".", 1)[0] == layer for a in up):
            layer_total[layer] = layer_total.get(layer, 0.0) + duration
        if "pde.simulate" in up:
            in_sim[name] = in_sim.get(name, 0) + 1
        if parent < 0:
            roots += duration
        if name == "pde.step":
            steps_us.append(duration * 1e6)
        elif name == "certificates.solve_v":
            nodes += size
        elif name == "pde.save_field":
            written.extend(size)

    steps = calls.get("pde.step", 0)
    steps_us.sort()
    tail_pct = next((p for p in TAIL_LADDER if steps * (100 - p) / 100 >= 10), None)

    def per_step(name: str) -> float:
        return in_sim.get(name, 0) / steps if steps else 0.0

    out = {
        "scipy.splu.calls": calls.get("scipy.splu", 0),
        "scipy.splu.calls_per_step": per_step("scipy.splu"),
        "scipy.splu.total_s": total.get("scipy.splu", 0.0),
        "scipy.solve_banded.calls": calls.get("scipy.solve_banded", 0),
        "scipy.solve_banded.total_s": total.get("scipy.solve_banded", 0.0),
        "pde.step.calls": steps,
        "pde.step.self_s": self_time.get("pde.step", 0.0),
        "pde.step.p50_us": _percentile(steps_us, 50.0) if steps else 0.0,
        "pde.step.tail_pct": tail_pct or 0.0,
        "pde.step.tail_us": _percentile(steps_us, tail_pct) if tail_pct else 0.0,
        "pde.simulate.self_s": self_time.get("pde.simulate", 0.0),
        "pde.save_field.calls": calls.get("pde.save_field", 0),
        "pde.save_field.total_s": total.get("pde.save_field", 0.0),
        "pde.save_field.bytes": sum(os.path.getsize(p) for p in written),
        "pde.mass.total_s": total.get("pde.mass", 0.0),
        "pde.build_initial.total_s": total.get("pde.build_initial", 0.0),
        "model.motility_eval.calls": calls.get("model.motility_eval", 0),
        "model.motility_eval.calls_per_step": per_step("model.motility_eval"),
        "model.motility_eval.total_s": total.get("model.motility_eval", 0.0),
        "frontmetrics.ring_metrics.calls": calls.get("frontmetrics.ring_metrics", 0),
        "frontmetrics.total_s": layer_total.get("frontmetrics", 0.0),
        "certificates.certify_pair.calls": calls.get("certificates.certify_pair", 0),
        "certificates.certify_pair.self_s": self_time.get(
            "certificates.certify_pair", 0.0
        ),
        "certificates.locate_junction.calls": calls.get(
            "certificates.locate_junction", 0
        ),
        "certificates.solve_v.calls": calls.get("certificates.solve_v", 0),
        "certificates.solve_v.total_s": total.get("certificates.solve_v", 0.0),
        "certificates.solve_v.nodes": nodes,
        "waveode.u_map.calls": calls.get("waveode.u_map", 0),
        "waveode.u_map.self_s": self_time.get("waveode.u_map", 0.0),
        "waveode.traveling_wave.total_s": total.get("waveode.traveling_wave", 0.0),
        "waveode.verify_profile.total_s": total.get("waveode.verify_profile", 0.0),
        "analysis.total_s": layer_total.get("analysis", 0.0),
    }
    for layer in LAYERS + ("scipy",):
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - roots
    return out
