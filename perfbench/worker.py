"""Run one iteration of a benchmark plan in a fresh interpreter.

Usage: python3 worker.py PLAN_JSON RESULT_JSON

The plan lists the op ids and argv to pass to ``wavemotil.cli.main``, in
order, and whether to trace.  Each op is timed around the call; an
exception the CLI did not map is recorded as that op's error and the next
op still runs.  The result holds the op times and exit codes, the
process's CPU time and peak RSS, and, when traced, the per-layer summary
(the spans themselves go to ``spans.jsonl`` next to the result).
"""

import os

# Pinned before numpy is first imported, so BLAS starts one thread.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
os.environ.pop("WAVEMOTIL_THREADS", None)

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run(plan: dict, result_dir: str) -> dict:
    import wavemotil.cli as cli

    imported_at = time.monotonic()
    tracer = None
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    ops = []
    cpu0 = _cpu_s()
    for op in plan["ops"]:
        if tracer is not None:
            tracer.op = op["id"]
        error = code = None
        start = time.perf_counter()
        try:
            code = cli.main(list(op["argv"]))
        except Exception:  # an unmapped error fails this op, not the run
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
        ops.append({"id": op["id"], "exit": code, "error": error, "seconds": seconds})
    cpu_s = _cpu_s() - cpu0

    wall_s = sum(op["seconds"] for op in ops)
    result = {
        "imported_at": imported_at,
        "ops": ops,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from tracing import summarize

        tracer.dump(os.path.join(result_dir, "spans.jsonl"))
        result["layers"] = summarize(tracer.spans, wall_s)
    return result


def main(argv: list[str]) -> int:
    plan_path, result_path = argv
    with open(plan_path) as fh:
        plan = json.load(fh)
    result = run(plan, os.path.dirname(os.path.abspath(result_path)))
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
