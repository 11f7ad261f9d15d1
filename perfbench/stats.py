"""Order statistics for op timings, and the machine-speed reference."""

from __future__ import annotations

import math
import time

import numpy as np

# Reported times are wall times scaled to the speed at which reference_s()
# takes this long (about its fastest on a 2-core x86-64 sandbox).
REF_NOMINAL_S = 0.0125


def reference_s() -> float:
    """Wall time of a fixed piece of work: how fast the machine runs right now.

    On a shared host the speed of a core swings by up to 2x within seconds.
    Interpreter work and numpy kernels slow by different amounts, so the
    reference does some of each, as the ops do.
    """
    start = time.perf_counter()
    acc = 0
    for k in range(100_000):
        acc += k * k
    values = np.random.default_rng(7).random(300_000)
    np.sort(values)
    np.cumsum(values)
    (values * 2.0 + 1.0).sum()
    return time.perf_counter() - start


def scaled(wall_s: float, ref_s: float) -> float:
    """A wall time as it would read at the nominal reference speed."""
    return wall_s * REF_NOMINAL_S / ref_s


def percentile(values, q: float) -> float:
    """q-th percentile (0..100), linear between closest ranks (numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(values, q: float, beyond: int = 10) -> float | None:
    """The q-th percentile if at least ``beyond`` samples lie above it, else None."""
    if len(values) * (100.0 - q) / 100.0 < beyond:
        return None
    return percentile(values, q)
