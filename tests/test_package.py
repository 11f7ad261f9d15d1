"""The package root and the module names the benchmark harness wraps."""

import ast
import copy
import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import ponqkd

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

ROOT_NAMES = [
    "__version__",
    "CalibrationError",
    "ConfigError",
    "apply_axis",
    "bundled_names",
    "bundled_scenario",
    "calibrate",
    "emit_report",
    "parse_scenario",
    "run_scenario",
    "run_sweep",
    "sweep_csv",
]


def test_root_exports_what_the_verbs_and_benchmark_use():
    # a new root name needs an edit here as well as in __init__.py
    assert ponqkd.__all__ == ROOT_NAMES
    for name in ROOT_NAMES:
        assert getattr(ponqkd, name) is not None


def test_an_oracle_run_does_not_import_the_thread_pool():
    # a Monte Carlo sweep runs its points on plain threads, so neither it nor
    # an oracle run imports concurrent.futures, which also pulls in logging;
    # the child prints the sweep's table, then the modules it found
    code = (
        "import contextlib, io, sys\n"
        "import ponqkd\n"
        "from ponqkd import cli\n"
        "sweep = ['sweep', '--config', 'b2b-budget-sweep', '--mode', 'monte_carlo']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['run', '--config', 'pon-baseline']) == 0\n"
        "assert cli.main(sweep + ['--duration', '0.05']) == 0\n"
        "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))\n"
    )
    src = os.path.dirname(os.path.dirname(ponqkd.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    *table, modules = child.stdout.splitlines()
    assert modules == "[]"
    assert len(list(csv.DictReader(table))) == 21  # one row per budget, 10-30 dB


def test_every_benchmark_hook_resolves(monkeypatch):
    # a layer with no site left reads null in every traced metric of its own
    monkeypatch.syspath_prepend(BENCH)
    import layers
    import tracer
    import workloads

    trace = tracer.Tracer(layers.LAYERS)
    trace.install()
    try:
        assert trace.present == {layer.name for layer in layers.LAYERS}
    finally:
        trace.uninstall()
    capture = workloads.Capture()
    capture.install()
    try:
        assert capture.missing == []
    finally:
        capture.uninstall()


def test_benchmark_capture_checks_one_and_two_port_runs(monkeypatch):
    # the stream check reads the detector off the simulate_timetags call,
    # which run_scenario makes with det= by keyword; each run hands it two
    # streams, the drawn one and the gated one
    monkeypatch.syspath_prepend(BENCH)
    import workloads

    import ponqkd.runner

    raw = ponqkd.bundled_scenario("pon-baseline")
    both = copy.deepcopy(raw)
    both["detector"]["monitored_ports"] = "both"
    scenarios = [ponqkd.parse_scenario(r) for r in (raw, both)]
    capture = workloads.Capture()
    capture.install()
    try:
        for scn in scenarios:
            ponqkd.runner.run_scenario(scn, mode="monte_carlo", duration_s=0.05)
    finally:
        capture.uninstall()
    assert capture.streams == 4
    assert capture.problems == []


def module_tree(name):
    return ast.parse(Path(ponqkd.__file__).with_name(f"{name}.py").read_text())


def test_the_oracle_and_the_monte_carlo_are_split():
    # the oracle imports no numpy and no Monte Carlo name; the Monte Carlo
    # borrows three oracle names at run time and takes the run's p_eff
    # instead of solving the detector balance again
    oracle = module_tree("dpslink")
    imported = set()
    for node in ast.walk(oracle):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or "").split(".")[0])
    assert imported == {"__future__", "math", "dataclasses", ".roots", ".scenarios"}
    mc = module_tree("montecarlo")
    borrowed = {
        alias.name
        for node in mc.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "dpslink"
        for alias in node.names
    }
    assert borrowed == {"QberReport", "_arrival_rates", "_click_probability"}
    named = set()
    for node in ast.walk(mc):
        named.update(
            getattr(node, field) for field in ("id", "attr", "name") if hasattr(node, field)
        )
    assert "_saturation_fixed_point" not in named
    assert importlib.util.find_spec("ponqkd.sifting") is None
