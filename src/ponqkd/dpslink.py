"""DPS quantum link: phase-encoded pulse train, SPAD clicks, time tags.

Two routes through the same physics:

* :func:`click_rate_oracle` is the closed-form steady-state model (rates
  only, no randomness);
* :func:`simulate_timetags` is the event-by-event Monte Carlo producing a
  :class:`TimeTagStream` for the sifting pipeline.

Both share one detector saturation model.  The SPAD is non-paralyzable:
every registered click blinds it for ``dead_time_s``, so the dead fraction
of time equals ``registered_rate * dead_time_s`` and uniform arrivals are
registered with the complementary live fraction.  Each registered primary
click can trap carriers and release an afterpulse at dead-time end plus an
exponential delay; the afterpulse probability grows quadratically with the
registered click rate (trap pile-up), which is what bends the QBER curve
back up at small loss budgets.  Afterpulses do not spawn afterpulses.
The balance is closed-form up to one bracketed root, the afterpulse
probability on [0, 1], found by :func:`ponqkd.roots.brentq`.

Bit convention: differential phase 0 encodes bit 0 and exits the
interferometer's constructive port; phase pi encodes bit 1 on the other
port.  With a single monitored SPAD on the constructive port, half of the
signal photons are lost and every surviving click decodes as bit 0.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .roots import brentq
from .scenarios import CAL_EXCESS_LOSS_DB

# longest seeded truth pattern; a longer run repeats it cyclically
PATTERN_PERIOD = 1 << 20

ORIGIN_SIGNAL = 0
ORIGIN_DARK = 1
ORIGIN_RAMAN = 2
ORIGIN_AFTERPULSE = 3

PORT_CONSTRUCTIVE = 0
PORT_DESTRUCTIVE = 1


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
    it).  Returns (U, R, A, S, p_eff).
    """
    p = primary_rate
    if p <= 0.0:
        return 1.0, 0.0, 0.0, 1.0, 0.0
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


def click_rate_oracle(
    tx: TransmitterConfig,
    loss_budget_db: float,
    det: DetectorModel,
    noise_rate: float = 0.0,
    gate_fraction: float = 1.0,
) -> LinkRates:
    """Closed-form counted rates for one parameter point.

    Signal photons arrive inside the carve window, so the gate keeps them
    all while the gate is at least as wide as the carve; backgrounds and
    afterpulses arrive uniformly over the symbol and are cut to the gate
    fraction.  Dead time is shared by everything that physically clicks,
    gated or not.
    """
    if loss_budget_db < 0.0:
        raise ValueError("loss_budget_db must be >= 0")
    if noise_rate < 0.0:
        raise ValueError("noise_rate must be >= 0")
    if not (0.0 < gate_fraction <= 1.0):
        raise ValueError("gate_fraction must be in (0, 1]")
    signal_in, background_in = _arrival_rates(tx, loss_budget_db, det, noise_rate)
    live, reg, ap_in, surv, p_eff = _saturation_fixed_point(signal_in + background_in, det)
    retention = min(1.0, gate_fraction / tx.carve_duty)
    n_det = 2 if det.monitored_ports == "both" else 1
    return LinkRates(
        signal_rate=n_det * signal_in * live * retention,
        background_rate=n_det * background_in * live * gate_fraction,
        afterpulse_rate=n_det * ap_in * surv * gate_fraction,
        registered_rate=n_det * reg,
        live_fraction=live,
        afterpulse_probability_effective=p_eff,
        signal_retention=retention,
    )


@dataclass
class TimeTagStream:
    """Registered detector clicks plus the ground truth to score them.

    Times are seconds from run start; the truth pattern repeats with period
    ``pattern_period`` symbols, so the truth bit for any slot k is
    ``truth_bits[k % pattern_period]``.
    """

    times_s: np.ndarray
    ports: np.ndarray
    origins: np.ndarray
    duration_s: float
    symbol_rate_hz: float
    truth_bits: np.ndarray
    pattern_period: int
    monitored_ports: str
    seed: int | None = None
    gated_rejected: int = 0

    def __len__(self) -> int:
        return len(self.times_s)


def _time_order(times: np.ndarray, *labels: np.ndarray) -> tuple[np.ndarray, ...]:
    """``times`` and its label arrays in the order of a stable sort by time.

    A plain sort is several times faster than a stable one; the two agree
    unless some times repeat, and then the stable sort decides.
    """
    order = np.argsort(times)
    ordered = times[order]
    if np.any(ordered[1:] == ordered[:-1]):
        order = np.argsort(times, kind="stable")
        ordered = times[order]
    return (ordered, *(a[order] for a in labels))


# below this many open clusters a lockstep round costs more per decided
# event than the sequential rule, so the rest finish one cluster at a time
_SERIAL_CLUSTERS = 64


def _dead_time_pass(
    times: np.ndarray,
    ports: np.ndarray,
    origins: np.ndarray,
    fires: np.ndarray,
    delays: np.ndarray,
    dead_time_s: float,
    duration_s: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Register clicks on each port's non-paralyzable detector.

    ``times``/``ports``/``origins`` are the primaries (signal, dark, Raman)
    in time order, all before ``duration_s``.  Primary i with ``fires[i]``
    sends an afterpulse candidate to its own port at ``times[i] +
    dead_time_s + delay``, the delays taken in order from ``delays`` (one
    per firing primary); the candidate is a click only if its parent
    registers.  A click at or after a detector's ``free_at`` (its last
    registered click plus the dead time) registers; a candidate at or after
    ``duration_s`` is dropped before it can block anything.  Returns the
    registered (times, ports, origins) in time order; at equal times the
    primaries come first in input order, then afterpulses by port.

    One stable sort of primaries followed by candidates lays out one
    timeline per port with primaries first at equal times.  An event with
    no other event within the dead time on either side is lone: a lone
    primary registers, a lone candidate exactly when its parent does.  The
    rest form clusters, runs of events closer together than the dead time.
    Each lockstep round decides the next event of every open cluster at
    once; a candidate whose parent (always earlier) is still undecided
    waits a round.  Once fewer than ``_SERIAL_CLUSTERS`` clusters are open,
    they finish one at a time in timeline order, jumping from each
    registered click straight past the events its dead time blocks.
    """
    n = len(times)
    parent = np.flatnonzero(fires)
    ap_times = times[parent] + dead_time_s + delays
    inside = ap_times < duration_s
    parent, ap_times = parent[inside], ap_times[inside]
    del inside
    ap_ports = ports[parent]
    two_ports = n > 0 and ports.min() != ports.max()
    if two_ports:
        # the output order at equal times; on one port such candidates are
        # interchangeable, so they need no order there
        order = np.lexsort((ap_ports, ap_times))
        parent, ap_times, ap_ports = parent[order], ap_times[order], ap_ports[order]

    t = np.concatenate([times, ap_times])
    port = np.concatenate([ports, ap_ports])
    size = len(t)
    index = np.int32 if size < 2**31 else np.int64
    if two_ports:
        order = np.lexsort((t, port)).astype(index)
    else:
        order = np.argsort(t, kind="stable").astype(index)
    inv = np.empty(size, dtype=index)
    inv[order] = np.arange(size, dtype=index)
    ap_at = inv[n:]  # timeline place of each candidate, and of its parent
    parent_at = inv[parent]
    del parent

    ts = t[order]
    # event k + 1 arrives inside the dead time event k would start (the
    # comparison the sequential rule makes, so rounding agrees)
    close = ts[1:] < ts[:-1] + dead_time_s
    if two_ports:
        close[np.count_nonzero(port == PORT_CONSTRUCTIVE) - 1] = False
    clustered = np.zeros(size, dtype=bool)
    clustered[1:] = close
    clustered[:-1] |= close
    pos = np.flatnonzero(clustered)
    n_clustered = len(pos)
    tc = ts[pos]
    del ts
    head = np.ones(n_clustered, dtype=bool)
    head[1:] = ~close[pos[1:] - 1]
    del close, pos
    cur = np.flatnonzero(head).astype(index)  # next undecided slot per open cluster
    del head
    end = np.append(cur[1:], index(n_clustered))

    # slot of each event among the clustered ones; lone events share the
    # extra slot ``n_clustered``, which stands for "registered"
    slot = np.cumsum(clustered, dtype=index) - 1
    slot[~clustered] = n_clustered
    del clustered
    hit = np.full(n_clustered + 1, -1, dtype=np.int8)  # -1 while undecided
    hit[n_clustered] = 1
    par = np.full(n_clustered + 1, n_clustered, dtype=index)  # parent's slot
    par[slot[ap_at]] = slot[parent_at]

    free_at = np.full(len(cur), -math.inf)
    while len(cur) >= _SERIAL_CLUSTERS:
        parent_hit = hit[par[cur]]
        t_cur = tc[cur]
        ok = (parent_hit == 1) & (t_cur >= free_at)
        hit[cur] = np.minimum(parent_hit, ok)  # a waiting event stays -1
        free_at = np.where(ok, t_cur + dead_time_s, free_at)
        cur += parent_hit >= 0
        open_ = cur < end
        cur, end, free_at = cur[open_], end[open_], free_at[open_]
    for a, b, f in zip(cur.tolist(), end.tolist(), free_at.tolist()):
        # every event before free_at is blocked, whatever its parent did
        hit[a:b] = 0
        k = bisect_left(tc, f, a, b)
        while k < b:
            if hit[par[k]] == 1:
                hit[k] = 1
                f = tc[k] + dead_time_s
                k = bisect_left(tc, f, k + 1, b)
            else:
                k += 1
    del par, tc, cur, end, free_at

    registered = hit[slot] == 1
    del hit, slot
    # a lone candidate registers exactly when its parent does
    registered[ap_at] &= registered[parent_at]
    del inv, ap_at, parent_at

    sel = order[registered]
    del order, registered
    if two_ports:
        sel.sort()
        sel = sel[np.argsort(t[sel], kind="stable")]
    ap_origins = np.full(len(ap_times), ORIGIN_AFTERPULSE, dtype=np.uint8)
    return t[sel], port[sel], np.concatenate([origins, ap_origins])[sel]


def simulate_timetags(
    tx: TransmitterConfig,
    loss_budget_db: float,
    det: DetectorModel,
    noise_rate: float,
    duration_s: float,
    seed: int | np.random.SeedSequence,
) -> TimeTagStream:
    """Monte Carlo click stream over ``duration_s`` of wall-clock channel time.

    Draw order (fixed, which makes runs bit-identical for a given seed):
    the master seed spawns four child streams in the order truth pattern,
    signal photons, background events, afterpulsing.  Signal detections
    are binomial over symbols; their symbol indices, interferometer port
    draws and carve-window jitter come from the signal stream.  Dark and
    Raman events are Poisson-uniform.  The primaries (signal, dark, Raman)
    are then put in time order, and the afterpulse stream draws one uniform
    per primary in that order (the primary fires an afterpulse when it falls
    below the probability from the stationary fixed point), then one
    exponential delay per firing primary, again in time order.  The
    dead-time pass registers clicks per detector; a firing primary's
    afterpulse (dead time plus its delay after the parent) exists only if
    the parent registered, so afterpulses never spawn afterpulses.
    """
    if duration_s <= 0.0:
        raise ValueError("duration_s must be > 0")
    if noise_rate < 0.0:
        raise ValueError("noise_rate must be >= 0")
    master = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    ss_pattern, ss_signal, ss_background, ss_afterpulse = master.spawn(4)

    period_s = tx.symbol_period_s
    n_symbols = max(2, int(round(duration_s * tx.symbol_rate_hz)))
    duration_s = n_symbols * period_s
    pattern_period = min(PATTERN_PERIOD, n_symbols - 1)
    rng_pattern = np.random.default_rng(ss_pattern)
    truth_bits = rng_pattern.integers(0, 2, size=pattern_period, dtype=np.uint8)

    one_port = det.monitored_ports == "one"

    rng_sig = np.random.default_rng(ss_signal)
    n_detected = rng_sig.binomial(n_symbols, _click_probability(tx, loss_budget_db, det))
    slots = rng_sig.integers(0, n_symbols, size=n_detected, dtype=np.int64)
    # constructive port for bit 0, destructive for bit 1; wrong port with
    # probability (1 - V)/2
    wrong = rng_sig.random(n_detected) < tx.intrinsic_error
    sig_ports = (truth_bits[slots % pattern_period] ^ wrong).astype(np.uint8)
    del wrong
    jitter = (rng_sig.random(n_detected) - 0.5) * tx.carve_duty * period_s
    sig_times = (slots.astype(np.float64) + 0.5) * period_s + jitter
    del slots, jitter
    if one_port:
        keep = sig_ports == PORT_CONSTRUCTIVE
        sig_times, sig_ports = sig_times[keep], sig_ports[keep]
        del keep

    rng_bg = np.random.default_rng(ss_background)
    n_det_ports = 1 if one_port else 2  # dark/noise rates are per detector
    n_dark = rng_bg.poisson(n_det_ports * det.dark_rate_hz * duration_s)
    n_raman = rng_bg.poisson(n_det_ports * noise_rate * duration_s)
    bg_times = rng_bg.random(n_dark + n_raman) * duration_s
    if one_port:
        bg_ports = np.zeros(n_dark + n_raman, dtype=np.uint8)
    else:
        bg_ports = rng_bg.integers(0, 2, size=n_dark + n_raman, dtype=np.uint8)

    times = np.concatenate([sig_times, bg_times])
    ports = np.concatenate([sig_ports, bg_ports])
    origins = np.concatenate(
        [
            np.full(len(sig_times), ORIGIN_SIGNAL, dtype=np.uint8),
            np.full(n_dark, ORIGIN_DARK, dtype=np.uint8),
            np.full(n_raman, ORIGIN_RAMAN, dtype=np.uint8),
        ]
    )
    del sig_times, sig_ports, bg_times, bg_ports
    times, ports, origins = _time_order(times, ports, origins)

    signal_in, background_in = _arrival_rates(tx, loss_budget_db, det, noise_rate)
    p_eff = _saturation_fixed_point(signal_in + background_in, det)[4]
    rng_ap = np.random.default_rng(ss_afterpulse)
    fires = rng_ap.random(len(times)) < p_eff
    delays = rng_ap.exponential(det.afterpulse_decay_s, size=int(np.count_nonzero(fires)))
    out_t, out_port, out_origin = _dead_time_pass(
        times, ports, origins, fires, delays, det.dead_time_s, duration_s
    )

    seed_int = None if isinstance(seed, np.random.SeedSequence) else int(seed)
    return TimeTagStream(
        times_s=out_t,
        ports=out_port,
        origins=out_origin,
        duration_s=duration_s,
        symbol_rate_hz=tx.symbol_rate_hz,
        truth_bits=truth_bits,
        pattern_period=pattern_period,
        monitored_ports=det.monitored_ports,
        seed=seed_int,
    )
