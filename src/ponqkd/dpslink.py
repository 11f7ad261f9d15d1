"""DPS quantum link oracle: the source, the SPAD and their closed-form rates.

:func:`click_rate_oracle` is the closed-form steady-state model (rates
only, no randomness); :mod:`ponqkd.montecarlo` draws the same physics
event by event and scores it.  The SPAD is non-paralyzable:
every registered click blinds it for ``dead_time_s``, so the dead fraction
of time equals ``registered_rate * dead_time_s`` and uniform arrivals are
registered with the complementary live fraction.  Each registered primary
click can trap carriers and release an afterpulse at dead-time end plus an
exponential delay; the afterpulse probability grows quadratically with the
registered click rate (trap pile-up), which is what bends the QBER curve
back up at small loss budgets.  Afterpulses do not spawn afterpulses.
The balance is closed-form up to one bracketed root, the afterpulse
probability on [0, 1], found by :func:`ponqkd.roots.brentq`; a Monte Carlo
run takes that probability from the run's solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .roots import brentq
from .scenarios import CAL_EXCESS_LOSS_DB


@dataclass(frozen=True)
class TransmitterConfig:
    """Weak-coherent DPS source."""

    symbol_rate_hz: float = 1e9
    mean_photon_number: float = 0.1
    carve_duty: float = 0.2
    visibility: float = 1.0

    def __post_init__(self) -> None:
        if self.symbol_rate_hz < 1.0:
            raise ValueError("symbol_rate_hz: must be >= 1")
        if self.mean_photon_number <= 0.0:
            raise ValueError("mean_photon_number: must be > 0")
        if not (0.0 < self.carve_duty <= 1.0):
            raise ValueError("carve_duty: must be in (0, 1]")
        if not (0.0 < self.visibility <= 1.0):
            raise ValueError("visibility: must be in (0, 1]")

    @property
    def symbol_period_s(self) -> float:
        return 1.0 / self.symbol_rate_hz

    @property
    def intrinsic_error(self) -> float:
        return (1.0 - self.visibility) / 2.0


@dataclass(frozen=True)
class DetectorModel:
    """SPAD plus the receiver's lumped excess loss.

    The excess loss lumps interferometer insertion, filter loss, connectors
    and carving overhead; it defaults to the calibrated reference value.
    """

    efficiency: float = 0.10
    dark_rate_hz: float = 520.0
    dead_time_s: float = 10e-6
    afterpulse_probability: float = 0.02
    afterpulse_decay_s: float = 5e-6
    afterpulse_memory_s: float = 4e-4
    excess_loss_db: float = CAL_EXCESS_LOSS_DB
    monitored_ports: str = "one"

    def __post_init__(self) -> None:
        if not (0.0 <= self.efficiency <= 1.0):
            raise ValueError("efficiency: must be in [0, 1]")
        for name in ("dark_rate_hz", "dead_time_s", "afterpulse_memory_s", "excess_loss_db"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name}: must be >= 0")
        if not (0.0 <= self.afterpulse_probability <= 1.0):
            raise ValueError("afterpulse_probability: must be in [0, 1]")
        if self.afterpulse_decay_s <= 0.0:
            raise ValueError("afterpulse_decay_s: must be > 0")
        if self.monitored_ports not in ("one", "both"):
            raise ValueError("monitored_ports: must be 'one' or 'both'")

    @property
    def detector_count(self) -> int:  # one detector per monitored port
        return 2 if self.monitored_ports == "both" else 1


@dataclass(frozen=True)
class GateConfig:
    """Acceptance window around the expected pulse arrival.

    The slot is one symbol period of the gated stream's transmitter.
    ``slot_phase_s`` is the offset of the gate center from the slot center;
    None puts it on the pulse center that
    :func:`~ponqkd.montecarlo.estimate_slot_phase` finds.
    """

    gate_fraction: float = 0.30
    slot_phase_s: float | None = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.gate_fraction <= 1.0):
            raise ValueError("gate_fraction: must be in (0, 1]")


@dataclass(frozen=True)
class LinkRates:
    """Steady-state counted rates on the monitored detector(s), counts/s.

    ``signal_rate``/``background_rate``/``afterpulse_rate`` are the rates
    surviving dead time and the temporal gate; ``registered_rate`` is the
    physical click rate before gating (it drives saturation).
    """

    signal_rate: float
    background_rate: float
    afterpulse_rate: float
    registered_rate: float
    live_fraction: float
    afterpulse_probability_effective: float
    signal_retention: float

    @property
    def total_rate(self) -> float:
        return self.signal_rate + self.background_rate + self.afterpulse_rate


def _saturation_fixed_point(
    primary_rate: float, det: DetectorModel
) -> tuple[float, float, float, float, float]:
    """Solve the detector's stationary balance for one SPAD.

    Unknowns: registered click rate R, live fraction U = 1 - R*tau,
    afterpulse injection rate A = p_eff * primary_rate * U with
    p_eff = min(1, p_ap * (R * memory)^2), and the afterpulse survival
    S = 1/(1 + (primary_rate + A) * decay) (an afterpulse fires right
    after its parent's dead time and is lost if any other arrival beats
    it).  Returns (U, R, A, S, p_eff), which is (1, 0, 0, 1, 0) at a
    primary rate of 0, where ``excess(0)`` is 0 and the solve ends at once.
    """
    p = primary_rate
    a, b = p * det.afterpulse_decay_s, p * det.dead_time_s
    kappa = det.afterpulse_probability * det.afterpulse_memory_s**2

    def balance(q: float) -> tuple[float, float, float]:
        # For fixed p_eff = q, U = 1/(1 + b(1 + qS)) and S = 1/(1 + a(1 + qU))
        # give (1+b)aq U^2 + quad_b U - (1+a) = 0 with quad_b > 0 (q <= 1);
        # its one positive root, in cancellation-free form:
        quad_b = (1.0 + b) * (1.0 + a) + (b - a) * q
        root = math.sqrt(quad_b * quad_b + 4.0 * (1.0 + b) * a * q * (1.0 + a))
        live = 2.0 * (1.0 + a) / (quad_b + root)
        surv = 1.0 / (1.0 + a * (1.0 + q * live))
        return live, surv, p * live * (1.0 + q * surv)

    def excess(q: float) -> float:
        reg = balance(q)[2]
        return min(1.0, kappa * reg * reg) - q

    # excess(0) >= 0 >= excess(1) always brackets p_eff; a purely relative
    # tolerance keeps a tiny p_eff accurate
    q, _ = brentq(excess, 0.0, 1.0, xtol=0.0)
    live, surv, _ = balance(q)
    ap_in = q * p * live
    return live, p * live + ap_in * surv, ap_in, surv, q


def _click_probability(tx: TransmitterConfig, loss_budget_db: float, det: DetectorModel) -> float:
    """Probability that one pulse gives a detection, summed over both ports."""
    transmittance = 10.0 ** (-(loss_budget_db + det.excess_loss_db) / 10.0)
    return 1.0 - math.exp(-tx.mean_photon_number * transmittance * det.efficiency)


def _arrival_rates(
    tx: TransmitterConfig, loss_budget_db: float, det: DetectorModel, noise_rate: float
) -> tuple[float, float]:
    """(signal, background) arrival rates per monitored SPAD, counts/s.

    The interferometer splits signal photons half/half between ports on a
    balanced bit pattern, so each SPAD sees half the detections; dark rate
    and noise rate are per-detector quantities (the noise calibration
    anchor is a count rate measured on the monitored SPAD).
    """
    signal_in = tx.symbol_rate_hz * _click_probability(tx, loss_budget_db, det) * 0.5
    background_in = det.dark_rate_hz + noise_rate
    return signal_in, background_in


def _signal_retention(
    tx: TransmitterConfig, gate_fraction: float, slot_phase_s: float | None
) -> float:
    """Share of the signal the gate keeps.

    Signal arrives uniformly in the carve window ``[-d/2, d/2]`` of the
    slot (in slot units, d the carve duty); the gate keeps ``phase +- g/2``
    in every slot.  The retention is their overlap, summed over the
    neighbouring slots, divided by d.  A centred gate (phase 0, or None:
    the automatic phase finds the pulse centre) keeps ``min(1, g/d)``.
    """
    duty = tx.carve_duty
    if not slot_phase_s or gate_fraction == 1.0:
        return min(1.0, gate_fraction / duty)
    period = tx.symbol_period_s
    centre = math.remainder(math.fmod(slot_phase_s, period) / period, 1.0)  # in [-1/2, 1/2]
    overlap = 0.0
    for c in (centre - 1.0, centre, centre + 1.0):
        low = max(-duty / 2.0, c - gate_fraction / 2.0)
        high = min(duty / 2.0, c + gate_fraction / 2.0)
        overlap += max(0.0, high - low)
    return min(1.0, overlap / duty)


def click_rate_oracle(
    tx: TransmitterConfig,
    loss_budget_db: float,
    det: DetectorModel,
    noise_rate: float = 0.0,
    gate_fraction: float = 1.0,
    slot_phase_s: float | None = None,
) -> LinkRates:
    """Closed-form counted rates for one parameter point.

    Signal photons arrive inside the carve window, so the gate keeps the
    part of it that overlaps the gate, offset by ``slot_phase_s`` from the
    pulse centre (None centres it); backgrounds and afterpulses arrive
    uniformly over the symbol and are cut to the gate fraction.  Dead time
    is shared by everything that physically clicks, gated or not.
    """
    if loss_budget_db < 0.0:
        raise ValueError("loss_budget_db must be >= 0")
    if noise_rate < 0.0:
        raise ValueError("noise_rate must be >= 0")
    if not (0.0 < gate_fraction <= 1.0):
        raise ValueError("gate_fraction must be in (0, 1]")
    signal_in, background_in = _arrival_rates(tx, loss_budget_db, det, noise_rate)
    live, reg, ap_in, surv, p_eff = _saturation_fixed_point(signal_in + background_in, det)
    retention = _signal_retention(tx, gate_fraction, slot_phase_s)
    n_det = det.detector_count
    return LinkRates(
        signal_rate=n_det * signal_in * live * retention,
        background_rate=n_det * background_in * live * gate_fraction,
        afterpulse_rate=n_det * ap_in * surv * gate_fraction,
        registered_rate=n_det * reg,
        live_fraction=live,
        afterpulse_probability_effective=p_eff,
        signal_retention=retention,
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
