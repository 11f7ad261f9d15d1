"""Temporal gating and QBER estimation on time-tag streams."""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .dpslink import PORT_CONSTRUCTIVE, TimeTagStream
from .errors import DataError


@dataclass(frozen=True)
class GateConfig:
    """Acceptance window around the expected pulse arrival.

    The slot is one symbol period of the gated stream's transmitter.
    ``slot_phase_s`` is the offset of the gate center from the slot center;
    None puts it on the pulse center that :func:`estimate_slot_phase` finds.
    """

    gate_fraction: float = 0.30
    slot_phase_s: float | None = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.gate_fraction <= 1.0):
            raise ValueError("gate_fraction: must be in (0, 1]")


def estimate_slot_phase(times_s: np.ndarray, period_s: float) -> float:
    """Gate-center offset at the pulse center, by circular mean.

    Each tag's position inside its slot is an angle; the angle of the summed
    unit vectors is the mean arrival position, and uniform background adds
    no bias to it.  The result is wrapped into [-T/2, T/2) of the slot
    period T = ``period_s``; an empty stream gives 0.0.
    """
    if not len(times_s):
        return 0.0
    angle = np.mod(times_s, period_s) * (2.0 * np.pi / period_s)
    mean = np.arctan2(np.sin(angle).sum(), np.cos(angle).sum())
    return float(np.mod(mean * period_s / (2.0 * np.pi), period_s) - period_s / 2.0)


def apply_gate(stream: TimeTagStream, gate: GateConfig) -> TimeTagStream:
    """Keep tags inside the gate window; rejected count rides on the stream."""
    if gate.gate_fraction == 1.0:
        return dc_replace(stream)
    period = 1.0 / stream.symbol_rate_hz
    phase = gate.slot_phase_s
    if phase is None:
        phase = estimate_slot_phase(stream.times_s, period)
    offset = np.mod(stream.times_s - phase, period) - period / 2.0
    # boundary ties kept (closed interval) so the cut is deterministic
    mask = np.abs(offset) <= gate.gate_fraction * period / 2.0
    return dc_replace(
        stream,
        times_s=stream.times_s[mask],
        ports=stream.ports[mask],
        origins=stream.origins[mask],
        gated_rejected=stream.gated_rejected + int(np.count_nonzero(~mask)),
    )


@dataclass(frozen=True)
class QberReport:
    """Sifted-key statistics.

    Bit counts are integers for Monte Carlo streams and expectation values
    (floats) in oracle mode; the ratio invariants hold either way.
    """

    qber: float
    raw_rate: float
    sifted_bits: float
    error_bits: float
    gated_rejected: float
    duration_s: float


def sift_and_score(stream: TimeTagStream) -> QberReport:
    """Score a (gated) stream against the truth pattern.

    Each tag maps to its symbol slot.  Under single-port monitoring every
    click decodes bit 0 and clicks landing on slots whose truth bit is 1
    count as errors; with both ports monitored the port itself is the
    decoded bit.  The truth pattern extends cyclically, so any tag inside
    the run duration is covered.
    """
    times = stream.times_s
    if len(times) and (times[0] < 0.0 or times[-1] > stream.duration_s):
        raise DataError("tag outside the simulated time span")
    slots = np.floor(times * stream.symbol_rate_hz).astype(np.int64)
    truth_at_tag = stream.truth_bits[slots % stream.pattern_period]
    if stream.monitored_ports == "one":
        decoded = np.zeros(len(times), dtype=np.uint8)
    else:
        decoded = (stream.ports != PORT_CONSTRUCTIVE).astype(np.uint8)
    errors = int(np.count_nonzero(decoded != truth_at_tag))
    sifted = len(times)
    return QberReport(
        qber=errors / sifted if sifted else 0.0,
        raw_rate=sifted / stream.duration_s,
        sifted_bits=sifted,
        error_bits=errors,
        gated_rejected=stream.gated_rejected,
        duration_s=stream.duration_s,
    )


def oracle_qber_report(
    signal_rate: float, intrinsic_error: float, background_gated: float
) -> QberReport:
    """Expected QberReport over 1 s, the oracle-mode twin of sift_and_score.

    Background clicks land on random slots and are wrong half the time.
    With no clicks at all the QBER is 0, as for an empty stream.
    """
    if signal_rate < 0.0 or background_gated < 0.0:
        raise ValueError("rates must be >= 0")
    total = signal_rate + background_gated
    qber = (intrinsic_error * signal_rate + 0.5 * background_gated) / total if total else 0.0
    return QberReport(
        qber=qber,
        raw_rate=total,
        sifted_bits=total,
        error_bits=qber * total,
        gated_rejected=0.0,
        duration_s=1.0,
    )
