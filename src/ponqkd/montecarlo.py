"""Monte Carlo route: seeded time tags, the dead-time pass, the gate and the sift.

:func:`simulate_timetags` draws a run's clicks event by event, and
:func:`apply_gate` and :func:`sift_and_score` score them as hardware would.
Of the oracle (:mod:`ponqkd.dpslink`) it uses the click probability, the
arrival rates and the effective afterpulse probability the run solved for.
Phase 0 encodes bit 0 on the interferometer's constructive port, phase pi
bit 1 on the other; a single SPAD on the constructive port reads every
click as bit 0.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace as dc_replace
from typing import TYPE_CHECKING

import numpy as np

from .dpslink import QberReport, _arrival_rates, _click_probability

if TYPE_CHECKING:
    from .dpslink import DetectorModel, GateConfig, TransmitterConfig


# longest seeded truth pattern; a longer run repeats it cyclically
PATTERN_PERIOD = 1 << 20

ORIGIN_SIGNAL = 0
ORIGIN_DARK = 1
ORIGIN_RAMAN = 2
ORIGIN_AFTERPULSE = 3

PORT_CONSTRUCTIVE = 0
PORT_DESTRUCTIVE = 1


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
    members = np.union1d(tied, tied + 1)  # every place in a run of ties
    key &= low
    order = key.view(np.int64)  # the key array, reused in place
    if len(members):
        # one stable sort of every tied place by time keeps the runs apart,
        # since their high bits differ, and within a run they are already in
        # index order
        sub = order[members]
        order[members] = sub[np.argsort(times[sub], kind="stable")]
    if signed or (n > 0 and np.isnan(times[order[-1]])):
        order = np.argsort(times, kind="stable")
    return (times[order], *(a[order] for a in labels))


# below this many open clusters a lockstep round costs more per decided
# event than the sequential rule, so the rest finish one cluster at a time
_SERIAL_CLUSTERS = 64

# events per block of the cluster flags' float sums, and tags per block of
# sift_and_score's slot arithmetic
_BLOCK = 1 << 15


def _dead_time_pass(
    events: list[np.ndarray], dead_time_s: float, duration_s: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Register clicks on each port's non-paralyzable detector.

    ``events`` is the list ``[times, ports, origins, fires, delays]``: the
    primaries (signal, dark, Raman) in time order, all before
    ``duration_s``.  The pass empties the list and drops each array at its
    last use, so a caller that keeps no other reference holds none of them
    while the pass allocates its own.  Primary i with ``fires[i]`` sends an
    afterpulse candidate to its own port at ``times[i] + dead_time_s +
    delay``, the delays taken in order from ``delays`` (one per firing
    primary); the candidate is a click only if its parent registers.  A
    click at or after a detector's ``free_at`` (its last registered click
    plus the dead time) registers; a candidate at or after ``duration_s``
    is dropped before it can block anything.  Returns the registered
    (times, ports, origins) in time order; at equal times port 0's clicks
    come first, and a port's primaries, in input order, before its
    afterpulses.

    The two detectors never interact, so there is one route: the pass of
    ``_port_pass`` on each detector.  On two ports each input is split by
    port, the primaries in input order with their share of ``delays``.
    One stable sort of port 0's time-sorted output followed by port 1's
    merges them (it finds two sorted runs and merges them in linear time),
    and so keeps port 0's clicks first at equal times.  A click's port is
    read off the merge order.
    """
    n = len(events[0])
    ports = events[1]
    if n == 0 or ports.min() == ports.max():
        port, port_type = (ports[0] if n else 0), ports.dtype
        del events[1], ports  # the list is now _port_pass's [times, origins, fires, delays]
        out_t, out_origin = _port_pass(events, dead_time_s, duration_s)
        return out_t, np.full(len(out_t), port, dtype=port_type), out_origin
    times, ports, origins, fires, delays = events
    events.clear()
    # each input is split into the two ports' shares and then dropped, one
    # at a time
    port_type = ports.dtype
    both = (PORT_CONSTRUCTIVE, PORT_DESTRUCTIVE)
    fired_ports = ports[fires]
    ats = [np.flatnonzero(ports == port) for port in both]
    del ports
    shares = [delays[np.flatnonzero(fired_ports == port)] for port in both]
    del delays, fired_ports
    fire_runs = [fires[at] for at in ats]
    del fires
    origin_runs = [origins[at] for at in ats]
    del origins
    time_runs = [times[at] for at in ats]
    del times, ats
    runs = [list(run) for run in zip(time_runs, origin_runs, fire_runs, shares)]
    del time_runs, origin_runs, fire_runs, shares
    # the first port's pass runs while only the second port's inputs are held
    (t_0, origin_0), (t_1, origin_1) = (_port_pass(run, dead_time_s, duration_s) for run in runs)
    del runs
    n_0 = len(t_0)
    out_t = np.concatenate((t_0, t_1))
    out_origin = np.concatenate((origin_0, origin_1))
    del t_0, t_1, origin_0, origin_1
    order = np.argsort(out_t, kind="stable")
    # places below n_0 hold port 0's clicks (PORT_CONSTRUCTIVE), the rest
    # port 1's (PORT_DESTRUCTIVE)
    out_port = (order >= n_0).astype(port_type)
    return out_t[order], out_port, out_origin.take(order)


def _port_pass(
    events: list[np.ndarray], dead_time_s: float, duration_s: float
) -> tuple[np.ndarray, np.ndarray]:
    """``_dead_time_pass`` on one detector: the registered times and origins.

    ``events`` is the list ``[times, origins, fires, delays]`` of the
    primaries, which the pass empties and drops an array at a time:
    ``fires`` once the parents are found, ``delays`` once the candidates'
    times are summed, ``times`` and ``origins`` once they are scattered onto
    the timeline.  The primaries and candidates are laid out on one
    timeline, primaries first at equal times and candidates in input order
    among themselves.  Only the candidates are sorted, and each is placed
    after the primaries at or before it, found a step or two forward from
    its parent (always one of them) or by a binary search.  An event with
    no other event within the dead time on either side is lone:
    a lone primary registers, a lone candidate exactly when its parent does.
    The rest form clusters, runs of events closer together than the dead
    time.  Each lockstep round decides the next event of every open cluster
    at once; a candidate whose parent (always earlier) is still undecided
    waits a round.  Once fewer than ``_SERIAL_CLUSTERS`` clusters are open,
    they finish one at a time in timeline order, jumping from each
    registered click straight past the events its dead time blocks.
    """
    times, origins, fires, delays = events
    events.clear()
    n = len(times)
    parent = np.flatnonzero(fires)
    del fires
    # (time + dead time) + delay, summed in place in that order
    ap_times = times[parent]
    ap_times += dead_time_s
    ap_times += delays
    del delays
    # only the candidates are sorted, then merged into the primaries; the
    # stable sort is the faster one on their nearly sorted times.  Those at
    # or after ``duration_s`` end the sorted order and are cut off
    order = np.argsort(ap_times, kind="stable")
    ap_times = ap_times[order]
    n_ap = int(np.searchsorted(ap_times, duration_s))
    ap_times, parent = ap_times[:n_ap], parent[order[:n_ap]]
    del order
    size = n + n_ap
    # ``ap_at[k]`` first counts the primaries at or before candidate k, up
    # from its parent's by two steps; a candidate still walking after them
    # (always one past the last primary) is searched.  Most candidates of an
    # unsaturated run stop within the steps, which cost less than the
    # search.  Then it counts the candidates before k
    ap_at = parent + 1
    walk = np.flatnonzero(times.take(ap_at, mode="clip") <= ap_times)
    ap_at[walk] += 1
    walk = walk[np.flatnonzero(times.take(ap_at[walk], mode="clip") <= ap_times[walk])]
    ap_at[walk] = np.searchsorted(times, ap_times[walk], side="right")
    del walk
    ap_at += np.arange(n_ap)
    # the candidates' times go onto the timeline first, so that they are
    # dropped before the primaries' places are found
    ts = np.empty(size)
    ts[ap_at] = ap_times
    del ap_times
    primary = np.ones(size, dtype=bool)
    primary[ap_at] = False
    prim_at = np.flatnonzero(primary)
    del primary
    ts[prim_at] = times
    del times
    # the output origins are read from the timeline itself
    origin = np.full(size, ORIGIN_AFTERPULSE, dtype=origins.dtype)
    origin[prim_at] = origins
    del origins
    parent_at = prim_at[parent]
    del parent, prim_at

    # event k + 1 arrives inside the dead time event k would start (the
    # comparison the sequential rule makes, so rounding agrees); the sums
    # are taken a block at a time, into one small buffer
    close = np.empty(max(size - 1, 0), dtype=bool)
    block = np.empty(min(size, _BLOCK))
    for a in range(0, size - 1, _BLOCK):
        b = min(a + _BLOCK, size - 1)
        np.add(ts[a:b], dead_time_s, out=block[: b - a])
        np.less(ts[a + 1 : b + 1], block[: b - a], out=close[a:b])
    del block
    # a cluster is the run of events from the first close flag of a run of
    # them to the event after its last; the flags have an extra place
    # ``size``, always lone, which stands for "registered"
    clustered = np.zeros(size + 1, dtype=bool)
    clustered[1:size] = close
    clustered[: size - 1] |= close
    edges = np.flatnonzero(np.diff(close, prepend=False, append=False)).reshape(-1, 2)
    del close
    cur = edges[:, 0].copy()  # next undecided place per open cluster
    end = edges[:, 1] + 1
    del edges

    # ``par`` holds the place of each candidate's parent, and the extra
    # place for every primary.  A lone candidate registers exactly when its
    # parent does, which the rounds decide only for a clustered parent: the
    # places of those candidates are kept for the end
    lone = clustered[parent_at]
    lone &= ~clustered[ap_at]
    lone_at = ap_at[np.flatnonzero(lone)]
    del lone
    par = np.full(size + 1, size, dtype=np.int32 if size < 2**31 else np.int64)
    par[ap_at] = parent_at
    del ap_at, parent_at
    # each event's verdict, in the flags' own buffer: -1 while undecided (every
    # clustered event), 1 registered (every lone one), 0 blocked
    hit = clustered.view(np.int8)
    del clustered
    hit *= -2
    hit += 1

    # the open clusters' arrays are intp, the dtype numpy indexes with
    free_at = np.full(len(cur), -math.inf)
    while len(cur) >= _SERIAL_CLUSTERS:
        parent_hit = hit.take(par.take(cur))
        t_cur = ts[cur]
        ok = t_cur >= free_at
        ok &= parent_hit == 1
        hit[cur] = np.minimum(parent_hit, ok)  # a waiting event stays -1
        cur += parent_hit >= 0
        t_cur += dead_time_s
        reg = np.flatnonzero(ok)
        free_at[reg] = t_cur[reg]
        del parent_hit, t_cur, ok, reg  # before the compaction allocates
        # a round in which no cluster closed keeps the arrays as they are
        open_ = np.flatnonzero(cur < end)
        if len(open_) < len(cur):
            cur, end, free_at = cur[open_], end[open_], free_at[open_]
    for a, b, f in zip(cur.tolist(), end.tolist(), free_at.tolist()):
        # every event before free_at is blocked, whatever its parent did
        hit[a:b] = 0
        k = bisect_left(ts, f, a, b)
        while k < b:
            if hit[par[k]] == 1:
                hit[k] = 1
                f = ts[k] + dead_time_s
                k = bisect_left(ts, f, k + 1, b)
            else:
                k += 1
    del cur, end, free_at

    # the lone candidates set aside take their clustered parents' verdicts
    hit[lone_at] = hit[par[lone_at]]
    del par, lone_at
    keep = np.flatnonzero(hit[:size])
    del hit
    return ts[keep], origin[keep]


# peak bytes simulate_timetags holds per event of expected_events(): the
# largest tracemalloc peak over 2 s and 6 s runs on one and both ports, 6-20
# dB, afterpulse probability 0-1 and 2.5e3-2e5 counts/s of noise was 38.7
# bytes per event among runs of 1e5 events or more (both ports, 2 s at 14 dB,
# 2e4 counts/s, 1.1e5 events, a quarter of it the 1 MiB truth pattern; one
# port at most 33.4).  With the two ports' passes merged by one stable sort
# that point still reads 38.7, reached before the dead-time pass, whose own
# peak is 35.7.  Smaller runs exceed 38.7 through the truth pattern, by under
# 1 MiB (103 bytes per event at 1.3e4).  The first run in a process also
# imports numpy.random, about 1.7 MiB once
MC_BYTES_PER_EVENT = 40


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
    *,
    p_eff: float,
) -> TimeTagStream:
    """Monte Carlo click stream over ``duration_s`` of wall-clock channel time.

    Draw order (fixed, which makes runs bit-identical for a given seed):
    the master seed spawns four child streams in the order truth pattern,
    signal photons, background events, afterpulsing.  They are the children
    ``spawn(4)`` would give a fresh sequence, derived without spawning, so a
    :class:`numpy.random.SeedSequence` seed gives the same stream each time
    it is passed.  Signal detections are binomial over symbols; their symbol
    indices, interferometer port draws and carve-window jitter come from the
    signal stream.  Dark and
    Raman events are Poisson-uniform.  The primaries (signal, dark, Raman)
    are then put in time order, and the afterpulse stream draws one uniform
    per primary in that order (the primary fires an afterpulse when it falls
    below ``p_eff``, the effective afterpulse probability the run's oracle
    solve gives, ``LinkRates.afterpulse_probability_effective``), then one
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
    ss_pattern, ss_signal, ss_background, ss_afterpulse = (
        np.random.SeedSequence(
            master.entropy, spawn_key=(*master.spawn_key, k), pool_size=master.pool_size
        )
        for k in range(4)
    )

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
    # probability (1 - V)/2.  The truth bits are gathered before the flip
    # uniforms are drawn (the gather draws nothing), so the gather's index
    # temporary and the uniforms are never held together
    sig_ports = truth_bits[pattern_index(slots, pattern_period)]
    u = rng_sig.random(n_detected)
    sig_ports ^= u < tx.intrinsic_error
    rng_sig.random(out=u)  # the carve-window jitter, drawn into the same buffer
    if one_port:
        # the destructive port's detections are drawn, then dropped unused,
        # one array at a time
        keep = np.flatnonzero(sig_ports == PORT_CONSTRUCTIVE)
        del sig_ports
        slots = slots[keep]
        u = u[keep]
        del keep
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

    rng_ap = np.random.default_rng(ss_afterpulse)
    fires = rng_ap.random(len(times)) < p_eff
    delays = rng_ap.exponential(det.afterpulse_decay_s, size=int(np.count_nonzero(fires)))
    # the pass owns its inputs and frees each at its last use
    events = [times, ports, origins, fires, delays]
    del times, ports, origins, fires, delays
    out_t, out_port, out_origin = _dead_time_pass(events, det.dead_time_s, duration_s)

    return TimeTagStream(
        times_s=out_t,
        ports=out_port,
        origins=out_origin,
        duration_s=duration_s,
        symbol_rate_hz=tx.symbol_rate_hz,
        truth_bits=truth_bits,
        pattern_period=pattern_period,
        monitored_ports=det.monitored_ports,
    )


# A tag whose fraction-pass distance from a gate edge is within
# _EDGE_MARGIN * (reach + 2) slots, reach = (max |t| + |phase|) / T, takes the
# exact np.mod test.  The fraction pass and the exact test each place a tag
# within 2**-53 * (reach + 3) slots of its true offset: one rounding (of t / T,
# or of t - phase) grows with the reach, and at most three more float64 steps
# act on numbers below one slot.  The margin is over 2.6 times their sum.
_EDGE_MARGIN = 2.0**-50


def _slot_fractions(times_s: np.ndarray, period_s: float) -> np.ndarray:
    """Each tag's place in its slot, ``t/T - floor(t/T)``, in [0, 1]."""
    fractions = np.divide(times_s, period_s)
    np.subtract(fractions, np.floor(fractions), out=fractions)
    return fractions


def _circular_mean_phase(fractions: np.ndarray, period_s: float) -> float:
    if not len(fractions):
        return 0.0
    angle = np.empty(len(fractions), dtype=np.float32)
    np.multiply(fractions, 2.0 * np.pi, out=angle, casting="same_kind")
    sine = np.sin(angle).sum(dtype=np.float64)
    cosine = np.cos(angle, out=angle).sum(dtype=np.float64)
    mean = np.arctan2(sine, cosine)
    return float(np.mod(mean * period_s / (2.0 * np.pi), period_s) - period_s / 2.0)


def estimate_slot_phase(times_s: np.ndarray, period_s: float) -> float:
    """Gate-center offset at the pulse center, by circular mean.

    Each tag's position inside its slot is an angle; the angle of the summed
    unit vectors is the mean arrival position, and uniform background adds
    no bias to it.  The result is wrapped into [-T/2, T/2) of the slot
    period T = ``period_s``; an empty stream gives 0.0.

    The angle is ``2*pi`` times the slot fraction ``t/T - floor(t/T)``,
    three cheap float64 passes where ``np.mod`` costs about 10 ns per tag;
    its sine and cosine are taken in float32 (over 10x faster than float64
    on x86-64) and summed in float64.  Each fraction is off by up to
    2**-53 * t/T of a slot (4e-6 at 30 s and 1 GHz), and the errors average
    out: across 30 seeds of 30 s ``pon-us-20`` the estimate moved at most
    1.9e-8 of T from the all-float64 ``np.mod`` one, and no tag changed
    sides of the gate in :func:`apply_gate`.
    """
    return _circular_mean_phase(_slot_fractions(times_s, period_s), period_s)


def apply_gate(stream: TimeTagStream, gate: GateConfig) -> TimeTagStream:
    """Keep tags inside the gate window; rejected count rides on the stream.

    A tag is kept when ``|mod(t - phase, T) - T/2| <= gate_fraction * T/2``
    in float64, with T the symbol period: the closed interval, so a tag on
    the edge is kept and the cut is deterministic.  A fixed phase is first
    reduced into one slot with ``math.fmod``.  One slot-fraction pass
    (see :func:`estimate_slot_phase`, which the automatic phase reuses)
    decides every tag that lies farther from a gate edge than the fraction's
    error bound; only the few tags within it take the exact ``np.mod`` test.
    The margin grows with the largest ``|t|/T``, and past about 2**49 slots,
    where the fraction has no bits left, it covers the whole slot, so every
    tag takes the exact test.  The kept set is the exact test's by
    construction.  The kept tags are taken by one index array, several
    times faster than a boolean mask over a random selection.
    """
    if gate.gate_fraction == 1.0:
        return dc_replace(stream)
    times = stream.times_s
    period = 1.0 / stream.symbol_rate_hz
    distance = _slot_fractions(times, period)
    # fmod as in the oracle's retention; exact, so a phase within one slot stays as given
    phase = gate.slot_phase_s
    phase = _circular_mean_phase(distance, period) if phase is None else math.fmod(phase, period)
    # the fraction less the phase's lies in [-1, 1], with the gate centre at
    # |difference| = 1/2; distance ends as slots outside the gate edge
    np.subtract(distance, (phase / period) % 1.0, out=distance)
    np.abs(distance, out=distance)
    np.subtract(distance, 0.5, out=distance)
    np.abs(distance, out=distance)
    np.subtract(distance, gate.gate_fraction / 2.0, out=distance)
    keep = distance <= 0.0
    np.abs(distance, out=distance)
    reach = (max(times.max(initial=0.0), -times.min(initial=0.0)) + abs(phase)) / period
    near = np.flatnonzero(distance <= _EDGE_MARGIN * (reach + 2.0))
    del distance
    offset = np.mod(times[near] - phase, period) - period / 2.0
    keep[near] = np.abs(offset) <= gate.gate_fraction * period / 2.0
    kept = np.flatnonzero(keep)
    return dc_replace(
        stream,
        times_s=times[kept],
        ports=stream.ports[kept],
        origins=stream.origins[kept],
        gated_rejected=stream.gated_rejected + len(stream) - len(kept),
    )


def sift_and_score(stream: TimeTagStream) -> QberReport:
    """Score a (gated) stream against the truth pattern.

    Each tag maps to its symbol slot.  Under single-port monitoring every
    click decodes bit 0 and clicks landing on slots whose truth bit is 1
    count as errors; with both ports monitored the port itself is the
    decoded bit.  The truth pattern extends cyclically, so any tag inside
    the run duration, where :func:`simulate_timetags` puts every tag, is
    covered.  The tags are scored a block at a time, so
    the slot arithmetic allocates no temporary as long as the stream.
    """
    times = stream.times_s
    errors = 0
    for a in range(0, len(times), _BLOCK):
        b = a + _BLOCK
        slots = np.floor(times[a:b] * stream.symbol_rate_hz).astype(np.int64)
        truth_at_tag = stream.truth_bits[pattern_index(slots, stream.pattern_period)]
        if stream.monitored_ports == "one":  # every click decodes bit 0
            errors += int(np.count_nonzero(truth_at_tag))
        else:
            decoded = (stream.ports[a:b] != PORT_CONSTRUCTIVE).astype(np.uint8)
            errors += int(np.count_nonzero(decoded != truth_at_tag))
    sifted = len(times)
    return QberReport(
        qber=errors / sifted if sifted else 0.0,
        raw_rate=sifted / stream.duration_s,
        sifted_bits=sifted,
        error_bits=errors,
        gated_rejected=stream.gated_rejected,
        duration_s=stream.duration_s,
    )
