"""The package root and the module names the benchmark harness wraps."""

import os

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
