"""Link statistics: oracle decomposition, saturation, Monte Carlo stream."""

import hashlib
import heapq
import math
import tracemalloc

import numpy as np
import pytest

from ponqkd import montecarlo
from ponqkd.dpslink import DetectorModel, TransmitterConfig, click_rate_oracle
from ponqkd.montecarlo import (
    MC_BYTES_PER_EVENT,
    ORIGIN_AFTERPULSE,
    ORIGIN_DARK,
    ORIGIN_RAMAN,
    ORIGIN_SIGNAL,
    _dead_time_pass,
    _time_order,
    expected_events,
    simulate_timetags,
)
from ponqkd.raman import odn_noise_at_bob
from ponqkd.scenario import parse_scenario
from ponqkd.scenarios import bundled_scenario


def simulate(tx, budget, det, noise, duration_s, seed):
    """``simulate_timetags`` handed the ``p_eff`` of the oracle's solve at its
    point, as a run hands it."""
    p_eff = click_rate_oracle(tx, budget, det, noise_rate=noise).afterpulse_probability_effective
    return simulate_timetags(tx, budget, det, noise, duration_s, seed, p_eff=p_eff)


def test_intrinsic_error_from_visibility():
    assert TransmitterConfig(visibility=0.99).intrinsic_error == pytest.approx(0.005)
    assert TransmitterConfig(visibility=1.0).intrinsic_error == 0.0


def test_oracle_decomposition_without_saturation():
    tx = TransmitterConfig()
    det = DetectorModel(dead_time_s=0.0, afterpulse_probability=0.0)
    budget, noise, gate = 18.0, 100.0, 0.30
    rates = click_rate_oracle(tx, budget, det, noise_rate=noise, gate_fraction=gate)
    p_click = 1.0 - math.exp(-0.1 * 10.0 ** (-(budget + det.excess_loss_db) / 10.0) * 0.1)
    assert rates.live_fraction == 1.0
    assert rates.afterpulse_rate == 0.0
    assert rates.signal_rate == pytest.approx(1e9 * p_click * 0.5, rel=1e-12)
    assert rates.background_rate == pytest.approx((520.0 + noise) * gate, rel=1e-12)


def test_oracle_live_fraction_closed_form():
    tx = TransmitterConfig()
    det = DetectorModel(afterpulse_probability=0.0)
    rates = click_rate_oracle(tx, 18.0, det, gate_fraction=0.30)
    p_click = 1.0 - math.exp(-0.1 * 10.0 ** (-(18.0 + det.excess_loss_db) / 10.0) * 0.1)
    arrivals = 1e9 * p_click * 0.5 + 520.0
    assert rates.live_fraction == pytest.approx(1.0 / (1.0 + arrivals * 1e-5), rel=1e-12)
    assert rates.registered_rate == pytest.approx(arrivals * rates.live_fraction, rel=1e-12)


def test_oracle_afterpulse_balance_identities():
    rates = click_rate_oracle(TransmitterConfig(), 18.0, DetectorModel(), gate_fraction=0.30)
    det = DetectorModel()
    # trap pile-up: p_eff = p_ap (R * memory)^2 at the solved R
    expected_p = det.afterpulse_probability * (
        rates.registered_rate * det.afterpulse_memory_s
    ) ** 2
    assert rates.afterpulse_probability_effective == pytest.approx(expected_p, rel=1e-9)
    assert 0.0 < rates.live_fraction < 1.0


def test_oracle_gate_trims_background_not_signal():
    tx = TransmitterConfig(carve_duty=0.2)
    det = DetectorModel(afterpulse_probability=0.0, dead_time_s=0.0)
    wide = click_rate_oracle(tx, 18.0, det, gate_fraction=1.0)
    gated = click_rate_oracle(tx, 18.0, det, gate_fraction=0.30)
    assert gated.signal_rate == pytest.approx(wide.signal_rate, rel=1e-12)
    assert gated.background_rate == pytest.approx(0.30 * wide.background_rate, rel=1e-12)


def test_oracle_gate_narrower_than_carve_cuts_signal():
    tx = TransmitterConfig(carve_duty=0.2)
    det = DetectorModel(afterpulse_probability=0.0, dead_time_s=0.0)
    rates = click_rate_oracle(tx, 18.0, det, gate_fraction=0.10)
    assert rates.signal_retention == pytest.approx(0.5)


def test_oracle_centred_gate_keeps_gate_over_carve():
    # a phase of 0 or None (automatic) leaves the retention exactly min(1, g/d)
    det = DetectorModel()
    for duty in (0.05, 0.1, 0.2, 0.3, 0.5, 1.0):
        tx = TransmitterConfig(carve_duty=duty)
        for gate in (0.05, 0.1, 0.2, 0.3, 0.7, 1.0):
            for phase in (None, 0.0):
                rates = click_rate_oracle(tx, 18.0, det, gate_fraction=gate, slot_phase_s=phase)
                assert rates.signal_retention == min(1.0, gate / duty)


@pytest.mark.parametrize(
    "duty, phase_ns, retention",
    [
        # 1 GHz slots, gate 0.3 ns: the carve +-d/2 ns against the gate phase +- 0.15 ns
        (0.2, 0.05, 1.0),
        (0.2, 0.1, 0.75),
        (0.2, -0.1, 0.75),
        (0.2, 0.2, 0.25),
        (0.2, 0.3, 0.0),
        (0.2, 0.9, 0.75),  # a whole slot away from -0.1 ns
        (0.2, 3.1, 0.75),
        (0.9, 0.5, 0.2 / 0.9),  # the gate straddles the slot edge: 0.1 ns on each side
    ],
)
def test_oracle_gate_phase_keeps_the_window_overlap(duty, phase_ns, retention):
    tx = TransmitterConfig(carve_duty=duty)
    det = DetectorModel()
    centred = click_rate_oracle(tx, 18.0, det, gate_fraction=0.3)
    shifted = click_rate_oracle(tx, 18.0, det, gate_fraction=0.3, slot_phase_s=phase_ns * 1e-9)
    assert shifted.signal_retention == pytest.approx(retention, abs=1e-12)
    assert shifted.signal_rate == pytest.approx(
        retention / centred.signal_retention * centred.signal_rate, rel=1e-12, abs=1e-9
    )
    # backgrounds and afterpulses arrive uniformly: the phase does not move them
    assert shifted.background_rate == centred.background_rate
    assert shifted.afterpulse_rate == centred.afterpulse_rate
    assert shifted.live_fraction == centred.live_fraction


def test_oracle_both_ports_doubles_counts():
    one = click_rate_oracle(TransmitterConfig(), 18.0, DetectorModel(), gate_fraction=0.3)
    both = click_rate_oracle(
        TransmitterConfig(), 18.0, DetectorModel(monitored_ports="both"), gate_fraction=0.3
    )
    assert both.signal_rate == pytest.approx(2.0 * one.signal_rate, rel=1e-12)
    assert both.background_rate == pytest.approx(2.0 * one.background_rate, rel=1e-12)


def test_oracle_saturation_bounds():
    det = DetectorModel()
    rates = click_rate_oracle(TransmitterConfig(), 0.0, det, noise_rate=1e12)
    assert 0.0 < rates.live_fraction < 1e-4
    assert rates.registered_rate <= 1.0 / det.dead_time_s


def test_oracle_input_validation():
    with pytest.raises(ValueError):
        click_rate_oracle(TransmitterConfig(), -1.0, DetectorModel())
    with pytest.raises(ValueError):
        click_rate_oracle(TransmitterConfig(), 18.0, DetectorModel(), gate_fraction=0.0)
    with pytest.raises(ValueError):
        click_rate_oracle(TransmitterConfig(), 18.0, DetectorModel(), noise_rate=-5.0)


@pytest.mark.parametrize("size", [1, 2, 3, 7, 8, 9, 31, 1000, 12345, 2**20])
def test_truth_pattern_matches_generator_integers(size):
    # the raw-bit read must give what Generator.integers draws, bit for bit;
    # a numpy release that changes the bounded draw fails here
    for seed in range(200):
        expected = np.random.default_rng(seed).integers(0, 2, size=size, dtype=np.uint8)
        pattern = montecarlo._truth_pattern(np.random.default_rng(seed), size)
        assert pattern.dtype == np.uint8
        np.testing.assert_array_equal(pattern, expected)


@pytest.mark.parametrize("period", [1, 2, 3, 7, 8, 1000, 2**20, 2**20 - 1])
def test_pattern_index_is_slot_modulo_period(period):
    slots = np.concatenate([np.arange(5000), np.random.default_rng(1).integers(0, 2**40, 5000)])
    np.testing.assert_array_equal(montecarlo.pattern_index(slots, period), slots % period)


def test_simulation_deterministic_per_seed():
    args = (TransmitterConfig(), 18.0, DetectorModel(), 300.0, 0.5)
    a = simulate(*args, seed=42)
    b = simulate(*args, seed=42)
    c = simulate(*args, seed=43)
    assert np.array_equal(a.times_s, b.times_s)
    assert np.array_equal(a.ports, b.ports)
    assert np.array_equal(a.origins, b.origins)
    assert not np.array_equal(a.times_s, c.times_s)


def test_simulation_tags_sorted_and_in_range():
    stream = simulate(TransmitterConfig(), 18.0, DetectorModel(), 500.0, 1.0, seed=5)
    assert np.all(np.diff(stream.times_s) >= 0.0)
    assert stream.times_s[0] >= 0.0
    assert stream.times_s[-1] < stream.duration_s


def test_simulation_dead_time_gap_per_port():
    det = DetectorModel(monitored_ports="both")
    stream = simulate(TransmitterConfig(), 16.0, det, 2000.0, 1.0, seed=9)
    for port in (0, 1):
        times = stream.times_s[stream.ports == port]
        assert np.min(np.diff(times)) >= det.dead_time_s - 1e-12


def test_simulation_single_port_keeps_port_zero_only():
    stream = simulate(TransmitterConfig(), 18.0, DetectorModel(), 100.0, 0.5, seed=2)
    assert set(np.unique(stream.ports)) == {0}


def test_simulation_origins_labelled():
    stream = simulate(TransmitterConfig(), 18.0, DetectorModel(), 400.0, 2.0, seed=3)
    kinds = set(np.unique(stream.origins))
    assert kinds <= {ORIGIN_SIGNAL, ORIGIN_DARK, ORIGIN_RAMAN, ORIGIN_AFTERPULSE}
    assert ORIGIN_SIGNAL in kinds
    assert ORIGIN_DARK in kinds
    assert ORIGIN_RAMAN in kinds


def test_simulation_no_afterpulses_when_disabled():
    det = DetectorModel(afterpulse_probability=0.0)
    stream = simulate(TransmitterConfig(), 14.0, det, 0.0, 1.0, seed=8)
    assert ORIGIN_AFTERPULSE not in set(np.unique(stream.origins))


def test_simulation_afterpulses_present_at_defaults():
    stream = simulate(TransmitterConfig(), 14.0, DetectorModel(), 0.0, 2.0, seed=8)
    assert int(np.count_nonzero(stream.origins == ORIGIN_AFTERPULSE)) > 0


def test_simulation_counts_match_oracle_three_sigma():
    tx, det = TransmitterConfig(), DetectorModel()
    duration = 4.0
    stream = simulate(tx, 18.0, det, 360.0, duration, seed=21)
    rates = click_rate_oracle(tx, 18.0, det, noise_rate=360.0, gate_fraction=1.0)
    expected = rates.total_rate * duration
    assert abs(len(stream) - expected) <= 3.0 * math.sqrt(expected)


@pytest.mark.parametrize(
    "kwargs, message",
    [({"duration_s": 0.0}, "duration_s must be > 0"), ({"noise_rate": -1.0}, "noise_rate must be >= 0")],
)
def test_simulate_timetags_input_validation(kwargs, message):
    args = {"noise_rate": 0.0, "duration_s": 1e-3, "seed": 1, "p_eff": 0.0} | kwargs
    with pytest.raises(ValueError, match=message):
        simulate_timetags(TransmitterConfig(), 18.0, DetectorModel(), **args)


def test_config_validation():
    with pytest.raises(ValueError):
        TransmitterConfig(visibility=1.2)
    with pytest.raises(ValueError):
        TransmitterConfig(carve_duty=0.0)
    with pytest.raises(ValueError):
        DetectorModel(efficiency=1.5)
    with pytest.raises(ValueError):
        DetectorModel(monitored_ports="three")


def test_time_order_is_stable_sort_with_and_without_ties():
    rng = np.random.default_rng(2)
    for times in (rng.random(5000), rng.integers(0, 500, size=5000) * 0.25):
        labels = np.arange(len(times))
        ordered, got = _time_order(times, labels)
        want = np.argsort(times, kind="stable")
        assert np.array_equal(got, want)
        assert np.array_equal(ordered, times[want])


def reference_dead_time_loop(times, ports, origins, fires, delays, dead_time_s, duration_s):
    """Event-by-event dead-time pass: the merged timeline walked in order.

    Pending afterpulses sit on a heap keyed by (time, port); a primary goes
    first at equal times.  A registered primary with ``fires`` set queues
    its afterpulse with the next of the pre-drawn delays of firing primaries.
    The clicks are returned in (time, port) order, each port's in walk order.
    """
    rank = np.cumsum(fires) - 1
    free_at = [-math.inf, -math.inf]
    pending: list[tuple[float, int]] = []
    out_t, out_port, out_origin = [], [], []
    i, n = 0, len(times)
    while i < n or pending:
        if pending and (i >= n or pending[0][0] < times[i]):
            t, port = heapq.heappop(pending)
            origin, parent = ORIGIN_AFTERPULSE, None
        else:
            t, port, origin, parent = float(times[i]), int(ports[i]), int(origins[i]), i
            i += 1
        if t >= duration_s or t < free_at[port]:
            continue
        free_at[port] = t + dead_time_s
        out_t.append(t)
        out_port.append(port)
        out_origin.append(origin)
        if parent is not None and fires[parent]:
            delay = float(delays[rank[parent]])
            heapq.heappush(pending, (t + dead_time_s + delay, port))
    out_t = np.asarray(out_t, dtype=np.float64)
    out_port = np.asarray(out_port, dtype=np.uint8)
    order = np.lexsort((out_port, out_t))
    return out_t[order], out_port[order], np.asarray(out_origin, dtype=np.uint8)[order]


def run_pass(times, ports, origins, fires, delays, dead_time_s, duration_s):
    """``_dead_time_pass`` on the reference loop's arguments; the pass
    empties the list it is handed but writes into none of its arrays."""
    return _dead_time_pass([times, ports, origins, fires, delays], dead_time_s, duration_s)


def spy_on_pass(monkeypatch):
    """The list that each later ``simulate_timetags`` call appends its pass
    inputs to, as the reference loop's arguments, before the pass runs."""
    captured = []

    def spy(events, dead_time_s, duration_s):
        captured.append((*events, dead_time_s, duration_s))
        return _dead_time_pass(events, dead_time_s, duration_s)

    monkeypatch.setattr(montecarlo, "_dead_time_pass", spy)
    return captured


def assert_pass_matches_reference(*args):
    inputs = [a.copy() for a in args[:5]]
    fast = run_pass(*args)
    for got, want in zip(args[:5], inputs):  # the pass writes into none of its inputs
        assert np.array_equal(got, want)
    slow = reference_dead_time_loop(*args)
    for got, want in zip(fast, slow):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


# (monitored ports, budget, afterpulse probability): the corners, and the
# budget sweep's heaviest point, one port at 10 dB with the default detector
PASS_CASES = [
    (ports, budget, p_ap)
    for p_ap in (0.0, 1.0)
    for budget in (8.0, 14.0, 18.0)
    for ports in ("one", "both")
] + [("one", 10.0, DetectorModel.afterpulse_probability)]


@pytest.mark.parametrize(
    "ports, budget, p_ap", PASS_CASES, ids=[f"{p}-{b}-{m}" for m, b, p in PASS_CASES]
)
def test_dead_time_pass_matches_reference_loop(monkeypatch, ports, budget, p_ap):
    captured = spy_on_pass(monkeypatch)
    det = DetectorModel(monitored_ports=ports, afterpulse_probability=p_ap)
    stream = simulate(TransmitterConfig(), budget, det, 2500.0, 0.3, seed=17)
    (args,) = captured
    fires = args[3]
    assert fires.any() == (p_ap > 0.0)
    assert len(stream) > 1000
    if budget == 10.0:
        assert clustered_share(*args[:2], *args[3:]) > 0.4
    if ports == "one":
        assert stream.ports.dtype == np.uint8
        assert not stream.ports.any()
    assert_pass_matches_reference(*args)


def test_dead_time_pass_matches_reference_loop_when_saturated(monkeypatch):
    # 3 dB at efficiency 0.5 on both ports: every primary fires, and clusters
    # thousands of events long cover both detectors; more of them than the
    # lockstep threshold over both ports, fewer on each
    captured = spy_on_pass(monkeypatch)
    det = DetectorModel(monitored_ports="both", efficiency=0.5)
    simulate(TransmitterConfig(), 3.0, det, 2500.0, 0.2, seed=17)
    (args,) = captured
    times, ports, fires = args[0], args[1], args[3]
    assert fires.all()
    assert np.bincount(ports, minlength=2).min() > len(times) // 3
    assert clustered_share(*args[:2], *args[3:]) > 0.99
    n_clusters = count_clusters(*args[:2], *args[3:])
    assert montecarlo._SERIAL_CLUSTERS < n_clusters < len(times) / 1000
    for close in close_flags(*args[:2], *args[3:]):
        starts = np.count_nonzero(close[:1]) + np.count_nonzero(close[1:] & ~close[:-1])
        assert starts < montecarlo._SERIAL_CLUSTERS
    assert_pass_matches_reference(*args)


def test_dead_time_pass_without_primaries():
    empty, none = np.empty(0), np.empty(0, dtype=np.uint8)
    assert_pass_matches_reference(empty, none, none, np.empty(0, dtype=bool), empty, 1e-5, 1.0)


def test_dead_time_pass_drops_afterpulses_past_duration():
    # every primary fires; half the delays push the afterpulse past the end,
    # where it must not block the primaries still arriving
    rng = np.random.default_rng(3)
    n = 4000
    times = np.sort(rng.random(n)) * 0.1
    ports = rng.integers(0, 2, size=n, dtype=np.uint8)
    origins = rng.integers(0, 3, size=n, dtype=np.uint8)
    delays = np.where(rng.random(n) < 0.5, rng.exponential(5e-6, size=n), 0.2)
    args = (times, ports, origins, np.ones(n, dtype=bool), delays, 1e-5, 0.1)
    out_t, _, out_origin = run_pass(*args)
    assert out_t[-1] < 0.1
    assert np.count_nonzero(out_origin == ORIGIN_AFTERPULSE) > 0
    assert_pass_matches_reference(*args)


@pytest.mark.parametrize("past_end", [False, True], ids=["alone", "with-one-past-end"])
@pytest.mark.parametrize("lands", ["at-end", "below-end"])
def test_dead_time_pass_candidate_at_the_end_of_the_run(lands, past_end):
    # one port, run of 1 s: every time lies on the 2**-53 grid of [0.5, 1),
    # so each candidate lands exactly where it is aimed: on duration_s
    # (dropped) or one ulp below it (kept), its parent long registered and
    # nothing else within the dead time; optionally a second candidate
    # lands past the end
    duration, tau = 1.0, 2.0**-17
    target = duration if lands == "at-end" else np.nextafter(duration, 0.0)
    times = 0.5 + np.arange(200) * 2.0**-10
    fires = np.zeros(len(times), dtype=bool)
    fires[100], fires[150] = True, past_end
    aims = [target, duration + 2.0**-20] if past_end else [target]
    delays = np.array([aim - t - tau for aim, t in zip(aims, times[fires])])
    assert np.array_equal(times[fires] + tau + delays, aims)
    origins = np.zeros(len(times), dtype=np.uint8)
    args = (times, origins, origins, fires, delays, tau, duration)
    out_t, _, out_origin = reference_dead_time_loop(*args)
    assert np.count_nonzero(out_origin == ORIGIN_AFTERPULSE) == (lands == "below-end")
    assert out_t[-1] == (target if lands == "below-end" else times[-1])
    assert_pass_matches_reference(*args)


def tie_case(seed, n, span, max_delay, paired):
    """Primaries and delays on a binary grid, so every sum is exact.

    ``paired`` repeats each primary time once, on a random port each.
    """
    rng = np.random.default_rng(seed)
    tick = 2.0**-20
    base = np.sort(rng.integers(0, span, size=n))
    times = (np.repeat(base, 2) if paired else base) * tick
    m = len(times)
    ports = rng.integers(0, 2, size=m, dtype=np.uint8)
    origins = rng.integers(0, 3, size=m, dtype=np.uint8)
    fires = rng.random(m) < 0.5
    delays = rng.integers(0, max_delay, size=int(fires.sum())) * tick
    return times, ports, origins, fires, delays, 8 * tick, span * tick


@pytest.mark.parametrize(
    "case",
    [tie_case(5, 3000, 12000, 12, paired=False), tie_case(6, 1500, 24000, 4, paired=True)],
    ids=["dense", "paired"],
)
def test_dead_time_pass_exact_time_ties(case):
    # primaries repeat within and across ports; afterpulses land exactly on
    # primaries, on each other and on their detector's free_at
    times, ports, origins, fires, delays, tau, duration = case
    out_t, out_port, out_origin = reference_dead_time_loop(*case)
    ap = out_origin == ORIGIN_AFTERPULSE
    assert np.count_nonzero(times[1:] == times[:-1]) > 50
    assert len(np.intersect1d(out_t[ap], out_t[~ap])) > 5
    ap_t, ap_port = out_t[ap], out_port[ap]
    assert np.any((ap_t[1:] == ap_t[:-1]) & (ap_port[1:] != ap_port[:-1]))
    assert_pass_matches_reference(*case)
    one_port = np.zeros(len(times), dtype=np.uint8)
    assert_pass_matches_reference(times, one_port, origins, fires, delays, tau, duration)


def test_dead_time_pass_puts_port_0_first_at_equal_times():
    # a port-1 primary with the lower input index and a port-0 primary at
    # one exact time, both firing with one delay, so their afterpulses tie too
    tau, delay = 2.0**-8, 2.0**-10
    times = np.array([0.25, 0.25])
    ports = np.array([1, 0], dtype=np.uint8)
    origins = np.array([ORIGIN_DARK, ORIGIN_SIGNAL], dtype=np.uint8)
    args = (times, ports, origins, np.ones(2, dtype=bool), np.full(2, delay), tau, 1.0)
    out_t, out_port, out_origin = run_pass(*args)
    assert np.array_equal(out_t, [0.25, 0.25, 0.25 + tau + delay, 0.25 + tau + delay])
    assert np.array_equal(out_port, [0, 1, 0, 1])
    ap = ORIGIN_AFTERPULSE
    assert np.array_equal(out_origin, [ORIGIN_SIGNAL, ORIGIN_DARK, ap, ap])
    assert_pass_matches_reference(*args)


def close_flags(times, ports, fires, delays, dead_time_s, duration_s):
    """Per port, with primaries and the candidates inside the run on one
    sorted timeline: whether each event after the first arrives within the
    dead time of the one before."""
    ap_times = times[fires] + dead_time_s + delays
    inside = ap_times < duration_s
    ap_ports = ports[fires][inside]
    for port in (0, 1):
        t = np.sort(np.concatenate([times[ports == port], ap_times[inside][ap_ports == port]]))
        yield t[1:] < t[:-1] + dead_time_s


def count_clusters(*case):
    """Runs of events closer together than the dead time, over both ports."""
    return sum(
        int(np.count_nonzero(close[:1])) + int(np.count_nonzero(close[1:] & ~close[:-1]))
        for close in close_flags(*case)
    )


def clustered_share(*case):
    """Share of the events that sit in a cluster, over both ports."""
    clustered = sum(
        int(np.count_nonzero(np.append(close, False) | np.insert(close, 0, False)))
        for close in close_flags(*case)
    )
    times, _, fires, delays, dead_time_s, duration_s = case
    candidates = np.count_nonzero(times[fires] + dead_time_s + delays < duration_s)
    return clustered / (len(times) + candidates)


def burst_case(seed, lengths, two_ports):
    """One cluster per entry of ``lengths``: a run of primaries one tick apart.

    Runs start ``max(lengths) + 128`` ticks apart, each on one port.  Only
    primaries at least 12 ticks before the end of their run fire with short
    delays, so their afterpulses land inside the run; the last primary of
    each run also fires, 64 ticks late, so a lone afterpulse follows every
    cluster.
    """
    rng = np.random.default_rng(seed)
    tick = 2.0**-20
    lengths = np.asarray(lengths)
    period = int(lengths.max()) + 128
    offsets = np.concatenate([np.arange(n) for n in lengths])
    times = (np.repeat(np.arange(len(lengths)) * period, lengths) + offsets) * tick
    m = len(times)
    to_end = np.repeat(lengths, lengths) - 1 - offsets
    fires = ((to_end >= 12) & (rng.random(m) < 0.5)) | (to_end == 0)
    delays = np.where(to_end[fires] == 0, 64, rng.integers(0, 4, size=int(fires.sum()))) * tick
    run_ports = rng.integers(0, 2, size=len(lengths)) if two_ports else np.zeros(len(lengths))
    ports = np.repeat(run_ports, lengths).astype(np.uint8)
    origins = rng.integers(0, 3, size=m, dtype=np.uint8)
    return times, ports, origins, fires, delays, 8 * tick, len(lengths) * period * tick


@pytest.mark.parametrize(
    "n_clusters, two_ports",
    [(1, False), (montecarlo._SERIAL_CLUSTERS - 1, True), (montecarlo._SERIAL_CLUSTERS + 1, True)],
    ids=["one-cluster", "below-serial-threshold", "above-serial-threshold"],
)
def test_dead_time_pass_around_the_serial_threshold(n_clusters, two_ports):
    # the lockstep rounds run only while at least _SERIAL_CLUSTERS clusters
    # are open: a single cluster spanning the run and one cluster fewer than
    # that go straight to the one-event-at-a-time finish, one more starts in
    # rounds
    rng = np.random.default_rng(n_clusters)
    lengths = [6000] if n_clusters == 1 else rng.integers(2, 40, size=n_clusters)
    case = burst_case(n_clusters, lengths, two_ports)
    assert count_clusters(*case[:2], *case[3:]) == n_clusters
    assert len(np.unique(case[1])) == (2 if two_ports else 1)
    assert_pass_matches_reference(*case)


def share_case(n_ap):
    """2000 one-port primaries at about two per dead time, ``n_ap`` of them
    firing candidates that all land inside the run.

    Times lie on the binary grid of ``tie_case``, so candidates land exactly
    on primaries one, two or more places past their parents.
    """
    rng = np.random.default_rng(n_ap)
    tick, n, span = 2.0**-20, 2000, 8000
    times = np.sort(rng.integers(0, span, size=n)) * tick
    fires = np.zeros(n, dtype=bool)
    fires[rng.choice(np.flatnonzero(times < (span - 64) * tick), size=n_ap, replace=False)] = True
    delays = rng.integers(0, 4, size=n_ap) * tick
    origins = rng.integers(0, 3, size=n, dtype=np.uint8)
    return times, np.zeros(n, dtype=np.uint8), origins, fires, delays, 8 * tick, span * tick


@pytest.mark.parametrize("n_ap", [60, 1000, 1900], ids=["share-0.03", "share-0.5", "share-0.95"])
def test_dead_time_pass_merges_candidates_onto_tied_primaries(n_ap):
    # one port: the candidates are merged into the sorted primaries, many of
    # them landing exactly on a primary, which comes first on the timeline
    case = share_case(n_ap)
    times, fires, delays, tau = case[0], case[3], case[4], case[5]
    assert count_clusters(*case[:2], *case[3:]) > 20
    assert np.count_nonzero(np.isin(times[fires] + tau + delays, times)) > n_ap // 10
    assert_pass_matches_reference(*case)


def test_dead_time_pass_merges_candidates_far_past_their_parents(monkeypatch):
    # a long afterpulse delay at a high primary rate: most candidates land
    # two or more primaries after their parent, past the forward steps, so
    # the binary search places them; the rest are placed by the steps
    captured = spy_on_pass(monkeypatch)
    det = DetectorModel(afterpulse_probability=1e-3, afterpulse_decay_s=1e-4)
    simulate(TransmitterConfig(), 6.0, det, 2500.0, 0.3, seed=17)
    ((times, ports, origins, fires, delays, tau, duration),) = captured
    parent = np.flatnonzero(fires)
    ap_times = times[parent] + tau + delays
    inside = ap_times < duration
    steps = np.searchsorted(times, ap_times[inside], side="right") - parent[inside] - 1
    assert 1000 < np.count_nonzero(steps >= 2) < len(steps)
    assert_pass_matches_reference(times, ports, origins, fires, delays, tau, duration)


def monte_carlo_peak(tx, budget, det, noise, duration_s):
    """(tracemalloc peak bytes of one seeded run, its expected_events)."""
    p_eff = click_rate_oracle(tx, budget, det, noise_rate=noise).afterpulse_probability_effective
    events = expected_events(tx, budget, det, noise, duration_s, p_eff)
    # numpy's lazy imports, once
    simulate_timetags(tx, budget, det, noise, 0.01, seed=1, p_eff=p_eff)
    tracemalloc.start()
    try:
        simulate_timetags(tx, budget, det, noise, duration_s, seed=1, p_eff=p_eff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, events


def test_monte_carlo_peak_memory_within_estimate():
    # the worst one-port and two-port points of the memory grid behind
    # MC_BYTES_PER_EVENT (2 s runs of 1e5 events or more), and the heaviest
    # point of the perfbench budget sweep (one port, 10 dB, 20 s): the peak
    # the run allocates stays within the estimate the runner refuses long
    # runs by
    tx = TransmitterConfig()
    for ports, budget, p_ap, noise, duration_s in (
        ("one", 20.0, 0.02, 2e5, 2.0),
        ("both", 14.0, 0.0, 2e4, 2.0),
        ("one", 10.0, DetectorModel.afterpulse_probability, 0.0, 20.0),
    ):
        det = DetectorModel(monitored_ports=ports, afterpulse_probability=p_ap)
        peak, events = monte_carlo_peak(tx, budget, det, noise, duration_s)
        assert events >= 1e5
        assert peak <= MC_BYTES_PER_EVENT * events, (ports, budget, peak / events)


def test_monte_carlo_frees_each_array_at_its_last_use():
    # the budget sweep's heaviest point (one port, 10 dB, default detector,
    # 20 s) peaked at 22.2 bytes per event (28.2 MiB) while the dead-time
    # pass held every input of the run to its end; freeing each full-length
    # array at its last use brought it to about 13.7, and the bound sits 25 %
    # below the old reading
    peak, events = monte_carlo_peak(TransmitterConfig(), 10.0, DetectorModel(), 0.0, 20.0)
    assert peak <= 0.75 * 22.2 * events, peak / events


# sha256 over the bytes of times_s, ports and origins; a change to the draw
# order, the afterpulse law or the dead-time rules moves these
STREAM_PINS = {
    "pon-us-20": "bcdaead098a0bef7e39f10a3c12eaa47fce51e485b0154008914f3ab2926e520",
    "both-ports-10dB-ap1": "9f9091f4c13ade521bf98bd0820b6ed678a607a64074b8c4cc05d7f74872b87d",
    "both-ports-10dB-v0.9": "ff7d298cd69c40d822521943758b7d5fe780f50223d099ddfff80efc6ffa2d3e",
    "one-port-10dB": "908010b6638225a5d733e9e2a34e7c1b831a3705ebb45c601de3b40a673be69f",
}


def pinned_stream(name):
    if name == "pon-us-20":
        scn = parse_scenario(bundled_scenario("pon-us-20"))
        noise = odn_noise_at_bob(scn.plan, scn.topology, scn.rx_filter, scn.profile)
        return simulate(
            scn.transmitter,
            scn.quantum_path_loss_db,
            scn.detector,
            noise.total_at_receiver,
            0.5,
            seed=7,
        )
    if name == "both-ports-10dB-ap1":
        det = DetectorModel(monitored_ports="both", afterpulse_probability=1.0)
        return simulate(TransmitterConfig(), 10.0, det, 2500.0, 0.2, seed=11)
    if name == "both-ports-10dB-v0.9":
        # wrong-port draws come true only below visibility 1
        det = DetectorModel(monitored_ports="both")
        return simulate(TransmitterConfig(visibility=0.9), 10.0, det, 2500.0, 0.2, seed=19)
    return simulate(TransmitterConfig(), 10.0, DetectorModel(), 2500.0, 0.2, seed=13)


@pytest.mark.parametrize("name", sorted(STREAM_PINS))
def test_stream_is_pinned(name):
    stream = pinned_stream(name)
    digest = hashlib.sha256()
    for array in (stream.times_s, stream.ports, stream.origins):
        digest.update(np.ascontiguousarray(array).tobytes())
    assert np.count_nonzero(stream.origins == ORIGIN_AFTERPULSE) > 0
    assert digest.hexdigest() == STREAM_PINS[name]
