"""Benchmark of ponqkd: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload mc-run --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout this file sits in;
nothing is installed or built.  This driver is single-threaded and runs
every measurement in a fresh child interpreter (child.py), one at a time:

* ``--trace 0``: SETUP_STARTS set-up children (start, ``import ponqkd``,
  parse) plus the ops child give ``setup_s``; the ops child runs the closed
  loop of ops for ``--seconds`` and reports op times and its peak RSS.
* ``--trace 1``: the ops child alternates traced and untraced ops and
  reports per-layer metrics; ``python -X importtime`` children give import
  times per package.

Human-readable lines come first; the last line of stdout is the JSON result.
Everything else measured (environment, every MC-vs-oracle z, problems) goes
to ``perfbench/out/<workload>-seed<seed>-trace<t>.json``, and a traced run's
spans to ``...-spans.json`` beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from stats import REF_NOMINAL_S, percentile, reference_s, scaled, tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("mc-run", "mc-budget-sweep", "oracle-calibrate")
SETUP_STARTS = 5
IMPORT_RUNS = 3
DEADLINE_S = 170.0  # the whole run, children included
IMPORT_PACKAGES = ("scipy", "numpy", "ponqkd")


class BenchError(Exception):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Start child.py, wait for it, return its JSON line."""
    t0 = monotonic()
    argv = [sys.executable, os.path.join(HERE, "child.py"), *args[:3], repr(t0), *args[3:]]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child {args[0]} {args[1]} ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} {args[1]} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def setup_s(name: str, seed: str, deadline: float) -> tuple[float, float]:
    """(wall, reference) seconds of one cold start: interpreter, import, parse."""
    ref_before = reference_s()
    ready = run_child(["setup", name, seed], deadline)["ready_s"]
    return ready, (ref_before + reference_s()) / 2.0


def import_ms(deadline: float) -> dict[str, float]:
    """Self time of each package's own modules in ``import ponqkd``, ms."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import ponqkd"],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - monotonic()),
    )
    if proc.returncode != 0:
        raise BenchError(f"import ponqkd failed:\n{proc.stderr[-2000:]}")
    totals: dict[str, float] = defaultdict(float)
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        totals[name.strip().split(".")[0]] += int(self_us) / 1000.0
    return {pkg: totals[pkg] for pkg in IMPORT_PACKAGES}


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def fmt(value) -> str:
    return "absent" if value is None else f"{value:.6g}"


def summary(args, child: dict, env: dict, ops: list[float]) -> list[str]:
    """Human-readable lines: every end-to-end metric by name, with its unit."""
    p90 = tail_percentile(ops, 90)
    z_max = max((max(abs(zb), abs(ze)) for *_, zb, ze in child["z"]), default=None)
    wall_p50 = percentile([wall for wall, _ in child["op_s"]], 50)
    ref_ms = 1e3 * statistics.median(ref for _, ref in child["op_s"])
    lines = [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        "env " + " ".join(f"{k}={v}" for k, v in env.items()),
        f"speed               reference work {ref_ms:.4g} ms (times below scaled to"
        f" {1e3 * REF_NOMINAL_S:g} ms); raw wall op p50 {wall_p50:.4g} s",
        f"op_p50_s            {fmt(percentile(ops, 50))} s   over {len(ops)} ops",
        f"op_p90_s            {fmt(p90)} s   over {len(ops)} ops"
        if p90 is not None
        else f"op_p90_s            n/a   needs >= 100 ops, have {len(ops)}",
        f"ops_per_s           {fmt(len(ops) / sum(ops))} 1/s",
        f"failed_op_frac      {fmt(child['failed'] / child['attempted'])}"
        f"   {child['failed']} of {child['attempted']} ops",
        f"mc_oracle_outliers  {child['mc_oracle_outliers']} of {child['mc_points']}"
        " MC points with |z| > 5" + (f"   (max |z| {z_max:.3g})" if z_max is not None else ""),
        f"streams_checked     {child['streams_checked']}",
    ]
    if child["capture_missing"]:
        lines[-1] += f"   (not wrapped: {', '.join(child['capture_missing'])})"
    return lines


def per_layer_metrics(child: dict, imports: list[dict], ops: list[float]) -> dict:
    metrics = dict(child["per_layer"])
    for pkg in IMPORT_PACKAGES:
        metrics[f"setup.import_ms.{pkg}"] = statistics.median(m[pkg] for m in imports)
    traced = [scaled(wall, ref) for wall, ref in child["traced_op_s"]]
    metrics["trace.overhead_frac"] = (
        percentile(traced, 50) / percentile(ops, 50) - 1.0 if traced else None
    )
    ops_with_z = len({z[0] for z in child["z"]})
    metrics["mc_oracle_outliers"] = child["mc_oracle_outliers"] / ops_with_z if ops_with_z else 0.0
    metrics["failed_op_frac"] = child["failed"] / child["attempted"]
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ponqkd", "__init__.py")):
        sys.stderr.write(f"perfbench: no ponqkd sources under {SRC}\n")
        return 2
    deadline = monotonic() + DEADLINE_S
    name, seed = args.workload, str(args.seed)
    os.makedirs(OUT, exist_ok=True)
    record = os.path.join(OUT, f"{name}-seed{seed}-trace{args.trace}")
    try:
        reference_s()  # warm-up
        setup = [] if args.trace else [setup_s(name, seed, deadline) for _ in range(SETUP_STARTS)]
        ops_args = ["ops", name, seed, repr(args.seconds), str(args.trace), record + "-spans.json"]
        child = run_child(ops_args, deadline)
        imports = [import_ms(deadline) for _ in range(IMPORT_RUNS)] if args.trace else []
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    ops = [scaled(wall, ref) for wall, ref in child["op_s"]]
    if not ops:
        sys.stderr.write("perfbench: no op completed correctly\n")
        sys.stderr.write("".join(p + "\n" for p in child["problems"]))
        return 1

    env = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": child["python"],
        "numpy": child["numpy"],
        "scipy": child["scipy"],
        "commit": git_commit(),
        "seed": args.seed,
        "sweep_threads": child["sweep_threads"],
    }
    lines = summary(args, child, env, ops)
    if args.trace:
        metrics = per_layer_metrics(child, imports, ops)
        lines += [f"  {key:40s} {fmt(metrics[key])}" for key in sorted(metrics)]
    else:
        metrics = {
            "setup_s": statistics.median(scaled(wall, ref) for wall, ref in setup),
            "op_p50_s": percentile(ops, 50),
            "ops_per_s": len(ops) / sum(ops),
            "peak_rss_mb": child["peak_rss_mb"],
        }
        setup_line = f"setup_s             {fmt(metrics['setup_s'])} s"
        lines.insert(2, f"{setup_line}   median of {len(setup)} cold starts")
        lines.append(f"peak_rss_mb         {fmt(metrics['peak_rss_mb'])} MB")
    print("\n".join(lines))

    with open(record + ".json", "w") as handle:
        record_data = {"env": env, "setup_s": setup, "metrics": metrics, "child": child}
        json.dump(record_data, handle, indent=1)
    units = declared_units(args.trace)
    if set(units) != set(metrics):
        stray = sorted(set(metrics) ^ set(units))
        sys.stderr.write(f"perfbench: metrics {stray} out of step with BENCHMARK.json\n")
        return 1
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
