"""Gating and sifting behaviour on synthetic and simulated streams."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ponqkd.dpslink import DetectorModel, GateConfig, TransmitterConfig, oracle_qber_report
from ponqkd.montecarlo import TimeTagStream, apply_gate, estimate_slot_phase, sift_and_score
from ponqkd.runner import run_scenario
from ponqkd.scenario import parse_scenario
from ponqkd.scenarios import bundled_scenario
from test_dpslink import simulate


def make_stream(times, ports=None, truth=(0, 1), duration=10.0, monitored="one", rate=1.0):
    times = np.asarray(times, dtype=np.float64)
    if ports is None:
        ports = np.zeros(len(times), dtype=np.uint8)
    return TimeTagStream(
        times_s=times,
        ports=np.asarray(ports, dtype=np.uint8),
        origins=np.zeros(len(times), dtype=np.uint8),
        duration_s=duration,
        symbol_rate_hz=rate,
        truth_bits=np.asarray(truth, dtype=np.uint8),
        pattern_period=len(truth),
        monitored_ports=monitored,
    )


def test_gate_window_is_closed_interval():
    # period 1 s, 50% gate centred mid-slot: window [0.25, 0.75]
    gate = GateConfig(gate_fraction=0.5, slot_phase_s=0.0)
    stream = make_stream([0.25, 0.75, 0.2499, 0.7501, 1.5])
    kept = apply_gate(stream, gate)
    assert kept.times_s.tolist() == [0.25, 0.75, 1.5]
    assert kept.gated_rejected == 2


def test_gate_full_width_is_identity():
    stream = make_stream([0.1, 0.9, 3.7])
    kept = apply_gate(stream, GateConfig(gate_fraction=1.0))
    assert kept.times_s.tolist() == stream.times_s.tolist()
    assert kept.gated_rejected == 0


def test_gate_is_idempotent():
    gate = GateConfig(gate_fraction=0.3, slot_phase_s=0.0)
    stream = make_stream(np.linspace(0.0, 9.99, 500))
    once = apply_gate(stream, gate)
    twice = apply_gate(once, gate)
    assert np.array_equal(once.times_s, twice.times_s)
    assert twice.gated_rejected == once.gated_rejected


def test_slot_phase_estimate_recovers_offset():
    rng = np.random.default_rng(4)
    period = 1e-9
    offset = 0.25 * period
    slots = rng.integers(0, 1000, size=4000)
    times = (slots + 0.5) * period + offset + (rng.random(4000) - 0.5) * 0.1 * period
    estimate = estimate_slot_phase(times, period)
    distance = abs((estimate - offset + period / 2.0) % period - period / 2.0)
    assert distance <= period / 64.0 + 1e-15


def test_auto_phase_gate_keeps_clustered_tags():
    rng = np.random.default_rng(7)
    period = 1e-9
    slots = rng.integers(0, 10000, size=2000)
    times = np.sort((slots + 0.5) * period + 0.31 * period)
    stream = make_stream(times, truth=(0,) * 64, duration=1e-5, rate=1.0 / period)
    gated = apply_gate(stream, GateConfig(gate_fraction=0.3, slot_phase_s=None))
    assert len(gated.times_s) == len(times)


def test_slot_phase_lands_on_pulse_center_under_background():
    # pon-us-20: about three background tags per signal tag, spread
    # uniformly over the slot; the carve-window pulse sits at the slot center
    scn = parse_scenario(bundled_scenario("pon-us-20"))
    noise = run_scenario(scn, mode="oracle").raman.total_at_receiver
    stream = simulate(
        scn.transmitter,
        scn.quantum_path_loss_db,
        scn.detector,
        noise,
        30.0,
        scn.run.seed,
    )
    assert abs(estimate_slot_phase(stream.times_s, scn.transmitter.symbol_period_s)) <= 2e-12


def test_slot_phase_of_empty_stream_is_zero():
    assert estimate_slot_phase(np.empty(0), 1e-9) == 0.0


def reference_estimate_slot_phase(times_s, period_s):
    """The circular mean in float64 throughout: the reference for estimate_slot_phase."""
    if not len(times_s):
        return 0.0
    angle = np.mod(times_s, period_s) * (2.0 * np.pi / period_s)
    mean = np.arctan2(np.sin(angle).sum(), np.cos(angle).sum())
    return float(np.mod(mean * period_s / (2.0 * np.pi), period_s) - period_s / 2.0)


def reference_apply_gate(stream, gate):
    """The gate by boolean mask with the float64 phase: the reference for apply_gate."""
    if gate.gate_fraction == 1.0:
        return dataclasses.replace(stream)
    period = 1.0 / stream.symbol_rate_hz
    phase = gate.slot_phase_s
    if phase is None:
        phase = reference_estimate_slot_phase(stream.times_s, period)
    offset = np.mod(stream.times_s - phase, period) - period / 2.0
    mask = np.abs(offset) <= gate.gate_fraction * period / 2.0
    return dataclasses.replace(
        stream,
        times_s=stream.times_s[mask],
        ports=stream.ports[mask],
        origins=stream.origins[mask],
        gated_rejected=stream.gated_rejected + int(np.count_nonzero(~mask)),
    )


def assert_same_stream(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert type(a) is type(b), field.name
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


MC_SEEDS = (1, 2, 3)


@pytest.fixture(scope="module")
def mc_streams():
    """5 s Monte Carlo streams at each of MC_SEEDS: pon-baseline and pon-us-20,
    and pon-baseline with both ports monitored, so the ports vary too."""
    streams = {}
    for name, ports in (("pon-baseline", "one"), ("pon-us-20", "one"), ("pon-baseline", "both")):
        raw = bundled_scenario(name)
        raw["detector"]["monitored_ports"] = ports
        scn = parse_scenario(raw)
        noise = run_scenario(scn, mode="oracle").raman.total_at_receiver
        for seed in MC_SEEDS:
            streams[name, ports, seed] = simulate(
                scn.transmitter, scn.quantum_path_loss_db, scn.detector, noise, 5.0, seed
            )
    return streams


def test_slot_phase_equals_the_float64_reference(mc_streams):
    for stream in mc_streams.values():
        period = 1.0 / stream.symbol_rate_hz
        got = estimate_slot_phase(stream.times_s, period)
        assert abs(got - reference_estimate_slot_phase(stream.times_s, period)) <= 1e-7 * period


@pytest.mark.parametrize(
    "gate",
    [
        GateConfig(gate_fraction=0.3, slot_phase_s=0.0),
        GateConfig(gate_fraction=0.3, slot_phase_s=1e-10),
        GateConfig(gate_fraction=0.3, slot_phase_s=-1e-10),
        GateConfig(gate_fraction=0.3, slot_phase_s=3e-10),
        GateConfig(gate_fraction=0.3, slot_phase_s=None),
        GateConfig(gate_fraction=1.0, slot_phase_s=None),
    ],
    ids=["phase-0", "phase+0.1ns", "phase-0.1ns", "phase+0.3ns", "auto", "ungated"],
)
def test_gate_equals_the_boolean_mask_reference(mc_streams, gate):
    for stream in mc_streams.values():
        once = apply_gate(stream, gate)
        assert_same_stream(once, reference_apply_gate(stream, gate))
        # a second pass adds to the rejected count the first one left
        assert_same_stream(apply_gate(once, gate), reference_apply_gate(once, gate))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    rate=st.sampled_from([1e9, 1.25e9, 1.0]),
    phase_slots=st.floats(-0.5, 0.5, exclude_max=True),
    gate_fraction=st.sampled_from([0.01, 0.3, 0.5, 0.75, 0.999]),
    span_s=st.sampled_from([1e-6, 1.0, 30.0, 1e7, 1e15]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gate_equals_the_reference_within_ulps_of_every_edge(
    rate, phase_slots, gate_fraction, span_s, seed
):
    # tags a few ulps either side of both edges of random slots up to span_s;
    # at 1e15 s the fraction t/T has no bits left below the slot
    period = 1.0 / rate
    phase = phase_slots * period
    rng = np.random.default_rng(seed)
    slots = np.floor(rng.random(16) * (span_s / period))
    edges = np.concatenate(
        [(slots + 0.5 + side * gate_fraction / 2.0) * period + phase for side in (-1.0, 1.0)]
    )
    times = [edges]
    for _ in range(3):
        times = [np.nextafter(times[0], -np.inf), *times, np.nextafter(times[-1], np.inf)]
    stream = make_stream(np.concatenate(times + [[span_s]]), rate=rate, duration=span_s)
    gate = GateConfig(gate_fraction=gate_fraction, slot_phase_s=phase)
    assert_same_stream(apply_gate(stream, gate), reference_apply_gate(stream, gate))


def test_auto_phase_gate_at_bench_scale_equals_the_reference():
    # 30 s of auto-phase pon-us-20, as the mc-run benchmark workload runs it
    raw = bundled_scenario("pon-us-20")
    raw["gate"]["slot_phase_s"] = "auto"
    scn = parse_scenario(raw)
    noise = run_scenario(scn, mode="oracle").raman.total_at_receiver
    stream = simulate(
        scn.transmitter, scn.quantum_path_loss_db, scn.detector, noise, 30.0, scn.run.seed
    )
    gate = scn.gate
    assert gate.slot_phase_s is None
    assert stream.times_s.max() * stream.symbol_rate_hz > 2.9e10
    period = 1.0 / stream.symbol_rate_hz
    got = estimate_slot_phase(stream.times_s, period)
    assert abs(got - reference_estimate_slot_phase(stream.times_s, period)) <= 1e-7 * period
    assert_same_stream(apply_gate(stream, gate), reference_apply_gate(stream, gate))


@pytest.mark.parametrize(
    "times, phase",
    [
        # 1 Hz slots, every tag on a slot edge, outside a 30 % gate centred at 0.5 + phase
        ([0.0, 1.0, 2.0, 3.0, 4.0], 0.0),
        ([0.0, 1.0, 2.0, 3.0, 4.0], 0.2),
        ([], 0.0),
        ([], None),
    ],
    ids=["all-rejected", "all-rejected-shifted", "empty", "empty-auto"],
)
def test_gate_keeping_no_tag_equals_the_reference(times, phase):
    stream = make_stream(times)
    gate = GateConfig(gate_fraction=0.3, slot_phase_s=phase)
    got = apply_gate(stream, gate)
    assert len(got) == 0 and got.gated_rejected == len(times)
    assert_same_stream(got, reference_apply_gate(stream, gate))


def test_sift_counts_single_port():
    # truth pattern 0,1 over 1 Hz slots; single port decodes everything as 0,
    # so tags in odd slots are errors
    stream = make_stream([0.5, 1.5, 2.5, 3.5, 4.5, 5.5], truth=(0, 1), duration=6.0)
    report = sift_and_score(stream)
    assert report.sifted_bits == 6
    assert report.error_bits == 3
    assert report.qber == 0.5
    assert report.raw_rate == pytest.approx(1.0)


def test_sift_counts_both_ports():
    # decoded bit equals the port index when both ports are watched
    stream = make_stream(
        [0.5, 1.5, 2.5, 3.5],
        ports=[0, 1, 1, 0],
        truth=(0, 1),
        duration=4.0,
        monitored="both",
    )
    report = sift_and_score(stream)
    assert report.error_bits == 2  # slots 2 and 3 decode 1,0 against truth 0,1
    assert report.qber == 0.5


def test_sift_noiseless_perfect_visibility_is_error_free():
    tx = TransmitterConfig(visibility=1.0)
    stream = simulate(
        tx, 14.0,
        DetectorModel(dark_rate_hz=0.0, afterpulse_probability=0.0),
        0.0, 0.5, seed=31,
    )
    report = sift_and_score(stream)
    assert report.error_bits == 0
    assert report.qber == 0.0


def test_sift_planted_error_arithmetic():
    # 38 tags on wrong-truth slots out of 1000 total
    times = [k + 0.5 for k in range(962)] + [k + 0.5 for k in range(1000, 1038)]
    truth = np.zeros(2048, dtype=np.uint8)
    truth[1000:1038] = 1
    stream = make_stream(times, truth=truth, duration=2048.0)
    report = sift_and_score(stream)
    assert report.sifted_bits == 1000
    assert report.error_bits == 38
    assert report.qber == pytest.approx(0.038)


def test_report_ratio_invariants_on_simulated_stream():
    stream = simulate(
        TransmitterConfig(), 18.0, DetectorModel(), 500.0, 1.0, seed=13
    )
    gated = apply_gate(stream, GateConfig(gate_fraction=0.3, slot_phase_s=0.0))
    report = sift_and_score(gated)
    assert report.qber == report.error_bits / report.sifted_bits
    assert report.raw_rate == report.sifted_bits / report.duration_s


def test_composition_oracle_limits():
    assert oracle_qber_report(1000.0, 0.02, 0.0).qber == 0.02
    assert oracle_qber_report(0.0, 0.02, 77.0).qber == 0.5


def test_composition_oracle_frozen_example():
    # 2592 c/s at e_int 0.0377 plus a 108 c/s gated background
    value = oracle_qber_report(2592.0, 0.0377, 108.0).qber
    assert value == pytest.approx(0.056192, abs=1e-6)


def test_composition_oracle_rejects_empty():
    # no clicks at all score QBER 0, as sift_and_score does an empty stream
    assert oracle_qber_report(0.0, 0.1, 0.0).qber == 0.0
    with pytest.raises(ValueError):
        oracle_qber_report(-1.0, 0.1, 10.0)


def test_oracle_report_invariants():
    report = oracle_qber_report(2592.0, 0.0377, 108.0)
    assert report.raw_rate == pytest.approx(2700.0)
    assert report.sifted_bits == pytest.approx(2700.0)
    assert report.qber == pytest.approx(report.error_bits / report.sifted_bits, rel=1e-12)


def test_sifted_qber_converges_to_composition_oracle():
    # synthetic stream drawn from known rates and an exactly balanced truth
    # pattern, scored blind
    rng = np.random.default_rng(17)
    duration, period = 2e-4, 1e-9
    n_slots = int(duration / period)
    truth = np.tile(np.array([0, 1, 1, 0], dtype=np.uint8), 1024)
    e_int, signal_rate, bg_rate = 0.03, 8e8, 2e8
    n_sig = rng.poisson(signal_rate * duration)
    slots = rng.integers(0, n_slots, size=n_sig)
    wrong = rng.random(n_sig) < e_int
    keep = (truth[slots % 4096] ^ wrong) == 0  # single port keeps decoded-0 clicks
    sig_times = (slots[keep] + 0.5) * period
    n_bg = rng.poisson(bg_rate * duration)
    bg_times = rng.random(n_bg) * duration
    times = np.sort(np.concatenate([sig_times, bg_times]))
    stream = make_stream(times, truth=truth, duration=duration, rate=1.0 / period)
    report = sift_and_score(stream)
    # kept signal rate is half the generated rate; backgrounds all survive
    expected = oracle_qber_report(signal_rate * 0.5, e_int, bg_rate).qber
    sd = np.sqrt(expected * (1.0 - expected) / report.sifted_bits)
    assert report.sifted_bits > 1e5
    assert abs(report.qber - expected) <= 3.0 * sd
