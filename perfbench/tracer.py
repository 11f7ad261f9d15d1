"""In-memory span recorder that wraps module-level names from outside.

A :class:`Layer` names one boundary of the program and the module
attributes ("sites", written ``"module:attr"``) through which callers reach
it.  While a :class:`Tracer` is installed each site is replaced by a wrapper
that records one :class:`Span` per call; uninstalling puts the original
objects back.  Sites that do not exist are skipped, and a layer left with no
site is *absent*: its metrics read ``None`` instead of a number.

Spans may be recorded from worker threads.  A worker thread with no open
span of its own is working for the installing thread, so its outermost
spans take that thread's innermost open span as parent.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start_ns: int  # perf_counter_ns
    end_ns: int
    cpu_ns: int  # CPU time of the recording thread during the span
    parent: int | None
    op: int | None
    thread: int


@dataclass(frozen=True)
class Layer:
    """One traced boundary.

    ``count`` maps ``(args, kwargs, result)`` of a call to counter
    increments; ``timed`` False keeps the layer's spans (they still split
    self time) but leaves out its ``.calls``, ``.self_ms`` and ``.busy_ms``.
    """

    name: str
    sites: tuple[str, ...]
    count: Callable[[tuple, dict, object], dict[str, float]] | None = None
    timed: bool = True


class Tracer:
    def __init__(self, layers: tuple[Layer, ...]) -> None:
        self.layers = layers
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.present: set[str] = set()
        self.op: int | None = None
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, increments: dict[str, float]) -> None:
        with self._lock:
            for key, value in increments.items():
                self.counters[key] += value

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                tail = tracer._owner_stack[-1:]  # one atomic read of the owner's top
                parent = tail[0] if tail else None
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            stack.append(span_id)
            cpu = time.thread_time_ns()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                cpu = time.thread_time_ns() - cpu
                stack.pop()
                span = Span(
                    span_id, layer.name, start, end, cpu, parent, tracer.op, threading.get_ident()
                )
                with tracer._lock:
                    tracer.spans.append(span)
            if layer.count is not None:
                tracer.add(layer.count(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer in self.layers:
            for site in layer.sites:
                module_name, attr = site.split(":")
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(layer, fn))
                self.present.add(layer.name)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


def union_ns(intervals) -> int:
    """Length covered by a set of ``(start, end)`` intervals."""
    total = 0
    lo = hi = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    if hi is not None:
        total += hi - lo
    return total


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            out[span.parent].append(span)
    return out


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Span duration minus the part of it that its child spans cover.

    Children running in parallel threads overlap, so their union is
    subtracted, not their sum.
    """
    children = children_of(spans)
    out = {}
    for span in spans:
        covered = union_ns(
            (max(c.start_ns, span.start_ns), min(c.end_ns, span.end_ns))
            for c in children.get(span.id, ())
        )
        out[span.id] = span.end_ns - span.start_ns - covered
    return out


def busy_times_ns(spans: list[Span]) -> dict[int, int]:
    """CPU time of a span minus that of its children on the same thread.

    Unlike wall self time this leaves out time spent waiting, for the
    interpreter lock among others.
    """
    children = children_of(spans)
    return {
        span.id: span.cpu_ns
        - sum(c.cpu_ns for c in children.get(span.id, ()) if c.thread == span.thread)
        for span in spans
    }


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float | None]:
    """``<layer>.calls``, ``.self_ms`` (wall) and ``.busy_ms`` (CPU), per traced op."""
    self_ns = self_times_ns(tracer.spans)
    busy_ns = busy_times_ns(tracer.spans)
    calls: dict[str, int] = defaultdict(int)
    wall: dict[str, int] = defaultdict(int)
    busy: dict[str, int] = defaultdict(int)
    for span in tracer.spans:
        calls[span.name] += 1
        wall[span.name] += self_ns[span.id]
        busy[span.name] += busy_ns[span.id]
    out: dict[str, float | None] = {}
    for layer in tracer.layers:
        if not layer.timed:
            continue
        here = layer.name in tracer.present
        out[f"{layer.name}.calls"] = calls[layer.name] / n_ops if here else None
        out[f"{layer.name}.self_ms"] = wall[layer.name] / n_ops / 1e6 if here else None
        out[f"{layer.name}.busy_ms"] = busy[layer.name] / n_ops / 1e6 if here else None
    return out
