"""Tests of the benchmark itself: arithmetic, tracing and failure accounting.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import child  # noqa: E402
from stats import percentile, tail_percentile  # noqa: E402
from tracer import (  # noqa: E402
    Layer,
    Span,
    Tracer,
    busy_times_ns,
    layer_metrics,
    self_times_ns,
    union_ns,
)
from workloads import (  # noqa: E402
    McBudgetSweep,
    OracleCalibrate,
    Workload,
    op_seed,
    stream_problems,
    z_scores,
)


def test_percentile_interpolates_between_ranks():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([1, 2, 3, 4], 90) == pytest.approx(3.7)
    assert percentile([1, 2, 3, 4], 0) == 1
    assert percentile([1, 2, 3, 4], 100) == 4
    assert percentile([7.0], 90) == 7.0
    values = list(range(1, 12))
    assert percentile(values, 90) == pytest.approx(np.percentile(values, 90))


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(99)), 90) is None
    assert tail_percentile(list(range(100)), 90) == pytest.approx(89.1)


def test_union_counts_overlap_once():
    assert union_ns([(0, 10), (5, 15), (20, 30)]) == 25
    assert union_ns([(5, 5), (7, 3)]) == 0
    assert union_ns([]) == 0


def spans_by_hand():
    # root 0-100 (thread 1) has two children on other threads that overlap
    # (30-40); child 1 has a grandchild 15-20; child 4 sticks out past the
    # root's end; child 5 runs on the root's own thread
    return [
        Span(0, "root", 0, 100, 70, None, 0, 1),
        Span(1, "work", 10, 40, 20, 0, 0, 2),
        Span(2, "work", 30, 60, 30, 0, 0, 3),
        Span(3, "inner", 15, 20, 4, 1, 0, 2),
        Span(4, "work", 90, 120, 30, 0, 0, 2),
        Span(5, "inner", 62, 70, 8, 0, 0, 1),
    ]


def test_self_time_subtracts_the_union_of_children():
    self_ns = self_times_ns(spans_by_hand())
    assert self_ns == {0: 100 - (50 + 8 + 10), 1: 30 - 5, 2: 30, 3: 5, 4: 30, 5: 8}


def test_busy_time_subtracts_children_on_the_same_thread_only():
    busy_ns = busy_times_ns(spans_by_hand())
    assert busy_ns == {0: 70 - 8, 1: 20 - 4, 2: 30, 3: 4, 4: 30, 5: 8}


def test_layer_metrics_are_per_op():
    tracer = Tracer((Layer("root", ()), Layer("work", ()), Layer("inner", ()), Layer("gone", ())))
    tracer.spans = spans_by_hand()
    tracer.present = {"root", "work", "inner"}
    metrics = layer_metrics(tracer, n_ops=2)
    assert metrics["work.calls"] == 1.5
    assert metrics["work.self_ms"] == pytest.approx((25 + 30 + 30) / 2 / 1e6)
    assert metrics["work.busy_ms"] == pytest.approx((16 + 30 + 30) / 2 / 1e6)
    assert metrics["root.self_ms"] == pytest.approx(32 / 2 / 1e6)
    assert metrics["inner.calls"] == 1.0
    assert metrics["gone.calls"] is None and metrics["gone.busy_ms"] is None


@pytest.fixture
def fakeprog(monkeypatch):
    """A stand-in program: ``outer`` fans ``inner`` out over a thread pool."""
    mod = types.ModuleType("fakeprog")

    def inner(x):
        return x * 2

    def outer(xs):
        with ThreadPoolExecutor(max_workers=3) as pool:
            return list(pool.map(lambda x: mod.inner(x), xs))

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fakeprog", mod)
    return mod


def test_missing_name_is_absent_and_install_restores(fakeprog):
    original = fakeprog.outer
    tracer = Tracer(
        (
            Layer("prog.outer", ("fakeprog:outer",)),
            Layer("prog.renamed", ("fakeprog:no_such_name", "no_such_module:f")),
        )
    )
    tracer.install()
    assert fakeprog.outer is not original
    fakeprog.outer([1])
    tracer.uninstall()
    assert fakeprog.outer is original
    metrics = layer_metrics(tracer, n_ops=1)
    assert metrics["prog.outer.calls"] == 1
    assert metrics["prog.renamed.calls"] is None
    assert metrics["prog.renamed.self_ms"] is None


def test_pool_thread_spans_hang_under_the_open_span(fakeprog):
    tracer = Tracer((Layer("outer", ("fakeprog:outer",)), Layer("inner", ("fakeprog:inner",))))
    tracer.install()
    try:
        assert fakeprog.outer(list(range(30))) == [2 * x for x in range(30)]
    finally:
        tracer.uninstall()
    (outer,) = [s for s in tracer.spans if s.name == "outer"]
    inner = [s for s in tracer.spans if s.name == "inner"]
    assert len(inner) == 30
    assert all(s.parent == outer.id for s in inner)
    assert len({s.id for s in tracer.spans}) == 31
    assert all(outer.start_ns <= s.start_ns and s.end_ns <= outer.end_ns for s in inner)


def test_op_seed_is_fixed_by_the_benchmark_seed():
    assert op_seed(3, 0) == op_seed(3, 0)
    assert len({op_seed(3, i, k) for i in range(50) for k in range(2)}) == 100
    assert op_seed(3, 0) != op_seed(4, 0)


def test_z_scores_match_the_acceptance_formula():
    oracle = SimpleNamespace(raw_rate=100.0, qber=0.1)
    mc = SimpleNamespace(duration_s=1.0, sifted_bits=110, error_bits=11.0)
    z_bits, z_err = z_scores(oracle, mc)
    assert z_bits == pytest.approx(1.0)
    assert z_err == pytest.approx(0.0)


def stream(times, ports, duration=1.0):
    return SimpleNamespace(
        times_s=np.array(times), ports=np.array(ports, dtype=np.uint8), duration_s=duration
    )


def test_stream_checks_catch_dead_time_and_span():
    assert stream_problems(stream([0.1, 0.2, 0.2 + 1e-6], [0, 0, 1]), 1e-5) == []
    assert stream_problems(stream([0.1, 0.1 + 1e-6], [0, 0]), 1e-5)  # inside dead time
    assert stream_problems(stream([0.1, 1.5], [0, 0]), 1e-5)  # past the span
    assert stream_problems(stream([], []), 1e-5) == []


class Scripted(Workload):
    """Fake workload: ``text_for(op, call)`` gives each op's output bytes."""

    name = "scripted"

    def __init__(self, text_for, problems=(), raise_on=None):
        super().__init__(0)
        self.text_for, self.problems, self.raise_on, self.calls = text_for, problems, raise_on, 0

    def run(self, op):
        self.calls += 1
        if self.calls == self.raise_on:
            raise RuntimeError("boom")
        return None, self.text_for(op, self.calls)

    def check(self, op, inp, results):
        return list(self.problems)


def run_loop(workload, tmp_path, seconds=0.0):
    return child.run_ops(workload, seconds, False, str(tmp_path / "spans.json"))


def test_correct_ops_do_not_fail(tmp_path):
    out = run_loop(Scripted(lambda op, call: "a"), tmp_path)
    assert (out["attempted"], out["failed"]) == (2, 0)
    assert len(out["op_s"]) == 1


def test_replay_with_other_bytes_is_a_failed_op(tmp_path):
    out = run_loop(Scripted(lambda op, call: "a" if call == 1 else "b"), tmp_path)
    assert (out["attempted"], out["failed"]) == (2, 1)
    assert "replay" in out["problems"][0]


def test_failed_check_and_raising_op_count_as_failed(tmp_path):
    out = run_loop(Scripted(lambda op, call: "a", problems=["wrong"]), tmp_path)
    assert out["failed"] == 1 and out["op_s"] == []
    out = run_loop(Scripted(lambda op, call: "a", raise_on=1), tmp_path)
    assert out["failed"] == 2  # the op raised, and the replay then has nothing to match
    assert "RuntimeError: boom" in out["problems"][0]


def test_oracle_ops_must_all_emit_the_bytes_of_op_0(tmp_path):
    workload = Scripted(lambda op, call: "a" if op == 0 else "b")
    workload.compare_every_op = True
    out = run_loop(workload, tmp_path, seconds=0.05)
    assert out["attempted"] > 3
    assert out["failed"] == out["attempted"] - 2  # all but op 0 and its replay


def test_wrong_calibration_is_caught():
    workload = OracleCalibrate(5)
    workload.parse()
    workload.reference()
    (fits, fitted, sweeps), _ = workload.run(None)
    assert workload.check(0, None, (fits, fitted, sweeps)) == []
    off = dataclasses.replace(fits[0], value=fits[0].value * (1 + 1e-6))
    assert workload.check(0, None, ([off] + fits[1:], fitted, sweeps))
    name = workload.sweeps[0]
    shuffled = sweeps | {name: "".join(reversed(sweeps[name].splitlines(True)))}
    assert workload.check(0, None, (fits, fitted, shuffled))


def test_sweep_rows_out_of_axis_order_are_caught():
    workload = McBudgetSweep(5)
    workload.parse()
    workload.reference()
    rows = [dataclasses.replace(r, mode="monte_carlo") for r in workload.oracle]
    assert workload.check(0, None, rows) == []
    assert workload.check(0, None, rows[::-1])
    assert workload.check(0, None, rows[:-1])


def test_benchmark_without_the_program_exits_nonzero(tmp_path):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    argv = spec["command"] + ["--workload", "mc-run", "--seed", "1", "--seconds", "1"]
    argv += ["--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
