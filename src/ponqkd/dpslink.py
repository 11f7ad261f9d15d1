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

    @property
    def detector_count(self) -> int:  # one detector per monitored port
        return 2 if self.monitored_ports == "both" else 1


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


def pattern_index(slots: np.ndarray, period: int) -> np.ndarray:
    """``slots % period`` for non-negative slots; a mask when ``period`` is a power of two."""
    if period & (period - 1) == 0:
        return slots & (period - 1)
    return slots % period


def _truth_pattern(rng: np.random.Generator, n: int) -> np.ndarray:
    """``rng.integers(0, 2, size=n, dtype=np.uint8)``, read straight from raw bits.

    For two values numpy's bounded uint8 draw keeps the top bit of each
    byte of the generator's 64-bit outputs, low byte first, and never
    rejects one; reading those bits is several times faster and gives the
    same pattern.  The bytes are shifted in place, so the pattern is a view
    of the raw draw.
    """
    raw = rng.bit_generator.random_raw((n + 7) // 8).astype("<u8", copy=False)
    bits = raw.view(np.uint8)[:n]
    bits >>= 7
    return bits


@dataclass
class TimeTagStream:
    """Registered detector clicks plus the ground truth to score them.

    Times are seconds from run start; the truth pattern repeats with period
    ``pattern_period`` symbols, so the truth bit for any slot k is
    ``truth_bits[k % pattern_period]`` (see :func:`pattern_index`).
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

    The bit pattern of a float64 ``t >= +0.0`` read as a uint64 grows with
    ``t``.  Its low ``b`` bits, with ``2**b >= len(times)``, are swapped for
    the element's index and the keys sorted in place: numpy sorts a uint64
    array with its SIMD kernels, which ``argsort`` lacks, and the index
    falls out of the low bits.  Keys whose high bits tie (a handful per run)
    are put back in ``(time, index)`` order by one small stable sort.  A
    time with its sign bit set (-0.0 or below) or a NaN takes the stable
    argsort, and the gathers follow whichever order was taken.
    """
    n = len(times)
    b = (n - 1).bit_length() if n else 0
    low = np.uint64((1 << b) - 1)
    key = np.ascontiguousarray(times, dtype=np.float64).view(np.uint64) & ~low
    key |= np.arange(n, dtype=np.uint64)
    key.sort()
    signed = n > 0 and bool(key[-1] >> np.uint64(63))
    tied = np.flatnonzero((key[1:] ^ key[:-1]) <= low)  # equal high bits
    key &= low
    order = key.view(np.int64)  # the key array, reused in place
    if len(tied):
        # every place in a run of tied neighbours; one stable sort of them all
        # by time keeps the runs apart, since their high bits differ, and
        # within a run they are already in index order
        last = np.append(tied[1:] != tied[:-1] + 1, True)
        members = np.sort(np.concatenate((tied, tied[last] + 1)))
        sub = order[members]
        order[members] = sub[np.argsort(times[sub], kind="stable")]
    if signed or (n > 0 and np.isnan(times[order[-1]])):
        order = np.argsort(times, kind="stable")
    return (times[order], *(a[order] for a in labels))


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

    The primaries and candidates are laid out on one timeline per port,
    primaries first at equal times and candidates in input order among
    themselves.  On one port only the candidates are sorted, and each is
    placed after the primaries at or before it, found a step or two forward
    from its parent (always one of them) or by a binary search; on two ports
    one stable sort of all events lays the timeline out and its inverse
    gives each event's place.  An event with no other event within
    the dead time on either side is lone: a lone primary registers, a lone
    candidate exactly when its parent does.  The rest form clusters, runs
    of events closer together than the dead time.  Each lockstep round
    decides the next event of every open cluster at once; a candidate whose
    parent (always earlier) is still undecided waits a round.  Once fewer
    than ``_SERIAL_CLUSTERS`` clusters are open, they finish one at a time
    in timeline order, jumping from each registered click straight past the
    events its dead time blocks.
    """
    n = len(times)
    parent = np.flatnonzero(fires)
    ap_times = times[parent] + dead_time_s + delays
    inside = np.flatnonzero(ap_times < duration_s)
    parent, ap_times = parent[inside], ap_times[inside]
    del inside
    n_ap = len(ap_times)
    size = n + n_ap
    index = np.int32 if size < 2**31 else np.int64
    two_ports = n > 0 and ports.min() != ports.max()
    if not two_ports:
        # only the candidates are sorted, then merged into the primaries; the
        # stable sort is the faster one on their nearly sorted times
        order = np.argsort(ap_times, kind="stable")
        ap_times, parent = ap_times[order], parent[order]
        del order
        # ``ap_at[k]`` first counts the primaries at or before candidate k,
        # up from its parent's by two steps; a candidate still walking after
        # them (always one past the last primary) is searched.  Most
        # candidates of an unsaturated run stop within the steps, which cost
        # less than the search.  Then it counts the candidates before k
        ap_at = parent + 1
        walk = np.flatnonzero(times.take(ap_at, mode="clip") <= ap_times)
        ap_at[walk] += 1
        walk = walk[times.take(ap_at[walk], mode="clip") <= ap_times[walk]]
        ap_at[walk] = np.searchsorted(times, ap_times[walk], side="right")
        del walk
        ap_at += np.arange(n_ap)
        primary = np.ones(size, dtype=bool)
        primary[ap_at] = False
        prim_at = np.flatnonzero(primary)
        del primary
        parent_at = prim_at[parent]
        del parent
        ts = np.empty(size)
        ts[ap_at] = ap_times
        del ap_times
        ts[prim_at] = times
        # the one-port output is read from the timeline itself
        origin = np.full(size, ORIGIN_AFTERPULSE, dtype=np.uint8)
        origin[prim_at] = origins
        del prim_at
    else:
        # the output order at equal times: afterpulses by port
        ap_ports = ports[parent]
        order = np.lexsort((ap_ports, ap_times))
        parent, ap_times, ap_ports = parent[order], ap_times[order], ap_ports[order]
        port = np.concatenate([ports, ap_ports])
        del ap_ports
        t = np.concatenate([times, ap_times])
        del ap_times
        order = np.lexsort((t, port)).astype(index)
        inv = np.empty(size, dtype=index)
        inv[order] = np.arange(size, dtype=index)
        ap_at = inv[n:]  # timeline place of each candidate, and of its parent
        parent_at = inv[parent]
        del parent, inv
        ts = t[order]

    # event k + 1 arrives inside the dead time event k would start (the
    # comparison the sequential rule makes, so rounding agrees)
    close = ts[1:] < ts[:-1] + dead_time_s
    if two_ports:
        close[np.count_nonzero(port == PORT_CONSTRUCTIVE) - 1] = False
    clustered = np.zeros(size, dtype=bool)
    clustered[1:] = close
    clustered[:-1] |= close
    pos = np.flatnonzero(clustered).astype(index)
    n_clustered = len(pos)
    head = np.ones(n_clustered, dtype=bool)
    head[1:] = ~close[pos[1:] - 1]
    del close
    cur = np.flatnonzero(head).astype(index)  # next undecided slot per open cluster
    del head
    end = np.append(cur[1:], index(n_clustered))

    # each clustered event's slot among the clustered ones (a lone event's
    # slot is never read); ``par`` holds the slot of each clustered
    # candidate's parent, and the extra slot ``n_clustered``, which stands
    # for "registered", for a lone parent and for every primary
    slot = np.empty(size, dtype=index)
    slot[pos] = np.arange(n_clustered, dtype=index)
    hit = np.full(n_clustered + 1, -1, dtype=np.int8)  # -1 while undecided
    hit[n_clustered] = 1
    par = np.full(n_clustered + 1, n_clustered, dtype=index)  # parent's slot
    inner = np.flatnonzero(clustered[ap_at])
    inner_parent = parent_at[inner]
    inner = slot[ap_at[inner]]  # the slot of each clustered candidate
    par[inner] = np.where(clustered[inner_parent], slot[inner_parent], index(n_clustered))
    del slot, inner, inner_parent
    tc = ts[pos]
    if two_ports:
        del ts

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

    # lone events register, clustered ones as decided, and a lone candidate
    # exactly when its parent does
    registered = ~clustered
    del clustered
    registered[pos] = hit[:n_clustered] == 1
    del hit, pos
    registered[ap_at] &= registered[parent_at]
    del ap_at, parent_at

    keep = np.flatnonzero(registered)
    del registered
    if two_ports:
        sel = order[keep]
        del order
        origin = np.concatenate([origins, np.full(n_ap, ORIGIN_AFTERPULSE, dtype=np.uint8)])
        sel.sort()
        sel = sel[np.argsort(t[sel], kind="stable")]
        return t[sel], port[sel], origin[sel]
    same_port = np.full(len(keep), ports[0] if n else 0, dtype=ports.dtype)
    return ts[keep], same_port, origin[keep]


# peak bytes simulate_timetags holds per event of expected_events(): the
# largest tracemalloc peak over 2 s and 6 s runs on one and both ports, 6-20
# dB, afterpulse probability 0-1 and 2.5e3-2e5 counts/s of noise was 61.8
# bytes per event among runs of 1e5 events or more (both ports, 6 dB, 4.9e5
# events; one port at most 55.4).  Smaller runs exceed it through the fixed
# 1 MiB truth pattern, by well under 1 MiB (111 bytes per event at 1.3e4)
MC_BYTES_PER_EVENT = 64


def expected_events(
    tx: TransmitterConfig,
    loss_budget_db: float,
    det: DetectorModel,
    noise_rate: float,
    duration_s: float,
    p_eff: float,
) -> float:
    """Mean count of events a Monte Carlo run holds: primaries plus candidates.

    The primaries are the signal detections on both ports (a one-port run
    draws them all before it drops the destructive port's) and the dark and
    Raman clicks on the monitored ports; each primary sends an afterpulse
    candidate with probability ``p_eff``.
    """
    signal_in, background_in = _arrival_rates(tx, loss_budget_db, det, noise_rate)
    return duration_s * (2.0 * signal_in + det.detector_count * background_in) * (1.0 + p_eff)


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
    truth_bits = _truth_pattern(rng_pattern, pattern_period)

    one_port = det.monitored_ports == "one"

    rng_sig = np.random.default_rng(ss_signal)
    n_detected = rng_sig.binomial(n_symbols, _click_probability(tx, loss_budget_db, det))
    slots = rng_sig.integers(0, n_symbols, size=n_detected, dtype=np.int64)
    # constructive port for bit 0, destructive for bit 1; wrong port with
    # probability (1 - V)/2
    u = rng_sig.random(n_detected)
    sig_ports = truth_bits[pattern_index(slots, pattern_period)]
    sig_ports ^= u < tx.intrinsic_error
    rng_sig.random(out=u)  # the carve-window jitter, drawn into the same buffer
    if one_port:
        # the destructive port's detections are drawn, then dropped unused
        keep = np.flatnonzero(sig_ports == PORT_CONSTRUCTIVE)
        slots, u = slots[keep], u[keep]
        del keep, sig_ports
    n_sig = len(slots)

    rng_bg = np.random.default_rng(ss_background)
    n_det = det.detector_count  # dark/noise rates are per detector
    n_dark = rng_bg.poisson(n_det * det.dark_rate_hz * duration_s)
    n_raman = rng_bg.poisson(n_det * noise_rate * duration_s)

    # signal times (slot centre plus jitter), then the background's uniform
    # ones, computed in place in the order of (slot + 0.5) * T + (u - 0.5) * d * T
    times = np.empty(n_sig + n_dark + n_raman)
    sig_times = times[:n_sig]
    sig_times[:] = slots
    del slots
    sig_times += 0.5
    sig_times *= period_s
    u -= 0.5
    u *= tx.carve_duty
    u *= period_s
    sig_times += u
    del sig_times, u
    bg_times = times[n_sig:]
    rng_bg.random(out=bg_times)
    bg_times *= duration_s
    del bg_times
    origins = np.empty(len(times), dtype=np.uint8)
    origins[:n_sig] = ORIGIN_SIGNAL
    origins[n_sig : n_sig + n_dark] = ORIGIN_DARK
    origins[n_sig + n_dark :] = ORIGIN_RAMAN
    if one_port:
        times, origins = _time_order(times, origins)
        ports = np.zeros(len(times), dtype=np.uint8)
    else:
        bg_ports = rng_bg.integers(0, 2, size=n_dark + n_raman, dtype=np.uint8)
        times, ports, origins = _time_order(times, np.concatenate([sig_ports, bg_ports]), origins)
        del sig_ports, bg_ports

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
