"""One workload in a fresh interpreter; started by run.py, one child at a time.

    python3 child.py setup <workload> <seed> <t0>
    python3 child.py ops <workload> <seed> <t0> <seconds> <trace 0|1> <spans.json>

``t0`` is the parent's CLOCK_MONOTONIC reading taken just before it started
this process, so ``ready_s`` covers interpreter start, ``import ponqkd`` and
the parse of the workload's scenarios.  ``setup`` stops there; ``ops`` then
runs ops in a closed loop for ``seconds``, replays op 0, and reports.  The
last line of stdout is one JSON object.
"""

from __future__ import annotations

import json
import sys
import time


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_ops(workload, seconds: float, trace: bool, spans_path: str) -> dict:
    from layers import LAYERS
    from tracer import Tracer
    from workloads import Capture

    capture = Capture()
    capture.install()
    try:
        return _loop(workload, seconds, trace, spans_path, capture, Tracer(LAYERS))
    finally:
        capture.uninstall()


def _loop(workload, seconds, trace, spans_path, capture, tracer) -> dict:
    import importlib.metadata
    import platform
    import resource

    from layers import per_layer
    from stats import reference_s
    from tracer import Span

    workload.reference()

    reference_s()  # warm-up
    ref = reference_s()  # re-measured after every op; an op takes the mean of its two

    def one(op: int, traced: bool, check: bool = True):
        nonlocal ref
        inp = workload.prepare(op)
        capture.reset()
        if traced:  # trace under the checks, so spans leave their cost out
            tracer.op = op
            capture.uninstall()
            tracer.install()
            capture.install()
        try:
            start = time.perf_counter()
            results, text = workload.run(inp)
            wall = time.perf_counter() - start
        finally:
            if traced:
                capture.uninstall()
                tracer.uninstall()
                capture.install()
        ref_before, ref = ref, reference_s()
        problems = list(capture.problems)
        if check:
            problems += workload.check(op, inp, results)
        return (wall, (ref_before + ref) / 2.0), text, problems

    untraced_s: list[float] = []
    traced_s: list[float] = []
    log: list[str] = []
    failed = traced_ops = streams = sweep_threads = 0
    first_text = None
    op = 0
    loop_start = time.perf_counter()
    while op == 0 or time.perf_counter() - loop_start < seconds:
        traced = trace and op % 2 == 0  # alternate, so the overhead compares like with like
        traced_ops += traced
        try:
            wall, text, problems = one(op, traced)
        except Exception as exc:  # a raising op counts as failed; the loop goes on
            wall, text, problems = None, None, [f"{type(exc).__name__}: {exc}"]
        streams += capture.streams
        sweep_threads = max(sweep_threads, len(capture.sweep_threads))
        if op == 0:
            first_text = text
        elif workload.compare_every_op and text != first_text:
            problems.append("output bytes differ from op 0")
        if problems:
            failed += 1
            log.extend(f"op {op}: {p}" for p in problems[:3])
        else:
            (traced_s if traced else untraced_s).append(wall)
        op += 1

    # replay op 0 with the same inputs: the same bytes must come back
    try:
        _, text, problems = one(0, False, check=False)
        if text != first_text:
            problems.append("replay of op 0 gave different bytes")
    except Exception as exc:
        problems = [f"replay: {type(exc).__name__}: {exc}"]
    if problems:
        failed += 1
        log.extend(f"replay: {p}" for p in problems[:3])

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    import numpy

    bad, points = workload.outliers()
    payload = {
        "op_s": untraced_s,
        "traced_op_s": traced_s,
        "attempted": op + 1,
        "failed": failed,
        "problems": log[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mc_oracle_outliers": bad,
        "mc_points": points,
        "z": workload.z,
        "streams_checked": streams,
        "capture_missing": capture.missing,
        "sweep_threads": sweep_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
    }
    if trace:
        payload["per_layer"] = per_layer(tracer, max(traced_ops, 1))
        with open(spans_path, "w") as handle:
            json.dump({"fields": Span._fields, "spans": tracer.spans}, handle)
    return payload


def main(argv: list[str]) -> int:
    mode, name, seed, t0 = argv[0], argv[1], int(argv[2]), float(argv[3])
    from workloads import WORKLOADS  # imports ponqkd

    workload = WORKLOADS[name](seed)
    workload.parse()
    ready_s = monotonic() - t0
    if mode == "setup":
        payload = {}
    else:
        payload = run_ops(workload, float(argv[4]), argv[5] == "1", argv[6])
    payload["ready_s"] = ready_s
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
