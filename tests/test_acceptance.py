"""End-to-end acceptance: calibrated reproduction targets plus property suites.

One test function per criterion, so ``pytest -v tests/test_acceptance.py``
prints one pass/fail line for each.  Criteria 1-5 check that the toolkit,
calibrated on its three anchors (Raman scale, receiver excess loss,
interferometer visibility), predicts the remaining reference figures;
6-9 are closed-form and statistical property checks.
"""

import dataclasses
import math
from itertools import product

import numpy as np
import pytest

from ponqkd.dpslink import (
    DetectorModel,
    GateConfig,
    QberReport,
    TransmitterConfig,
    click_rate_oracle,
    oracle_qber_report,
)
from ponqkd.keyrate import binary_entropy, dps_shrink_factor, positivity_threshold, secure_rate
from ponqkd.montecarlo import TimeTagStream, apply_gate, sift_and_score, simulate_timetags
from ponqkd.raman import equivalent_dwdm_power_dbm, filter_noise_rejection_db, odn_noise_at_bob
from ponqkd.runner import run_scenario, run_sweep
from ponqkd.scenario import parse_scenario
from ponqkd.scenarios import bundled_scenario, downstream_c_channels
from ponqkd.topology import (
    UPSTREAM_QUANTUM_PATH,
    FilterProfile,
    equivalent_noise_bandwidth_nm,
)
from test_dpslink import simulate


def scenario(name):
    return parse_scenario(bundled_scenario(name))


def qber_pct(name):
    return run_scenario(scenario(name)).qber_report.qber * 100.0


def z_scores(oracle_report, scored):
    """Poisson z for the sifted count, binomial z for the error count."""
    expected_bits = oracle_report.raw_rate * scored.duration_s
    z_bits = (scored.sifted_bits - expected_bits) / math.sqrt(expected_bits)
    expected_errors = oracle_report.qber * scored.sifted_bits
    z_err = (scored.error_bits - expected_errors) / math.sqrt(
        expected_errors * (1.0 - oracle_report.qber)
    )
    return z_bits, z_err


def test_criterion_1_baseline_oracle_and_monte_carlo():
    oracle = run_scenario(scenario("pon-baseline"))
    raw = oracle.qber_report.raw_rate
    qber = oracle.qber_report.qber
    assert abs(raw - 2700.0) <= 0.01 * 2700.0
    assert abs(qber * 100.0 - 3.77) <= 0.05

    mc = run_scenario(scenario("pon-baseline"), mode="monte_carlo")
    assert mc.seed == 7
    assert mc.qber_report.duration_s == pytest.approx(30.0, rel=1e-9)
    z_bits, z_err = z_scores(oracle.qber_report, mc.qber_report)
    assert abs(z_bits) <= 3.0
    assert abs(z_err) <= 3.0


def test_criterion_2_back_to_back_budget_sweep():
    scn = scenario("b2b-budget-sweep")
    values = scn.sweep["values"]
    results = run_sweep(scn)
    raw_at_26 = results[values.index(26.0)].qber_report.raw_rate
    assert 700.0 <= raw_at_26 <= 1300.0
    qbers = [res.qber_report.qber for res in results]
    best_budget = values[int(np.argmin(qbers))]
    assert 15.0 <= best_budget <= 19.0


def test_criterion_3_raman_reach_flattening_and_split_scaling():
    anchor = run_scenario(scenario("pon-us-1")).raman.total_at_receiver
    assert anchor == pytest.approx(360.0, abs=0.01)

    reach_scn = scenario("odn-reach-sweep")
    reaches = reach_scn.sweep["values"]
    noise = [res.raman.total_at_receiver for res in run_sweep(reach_scn)]
    step = reaches[1] - reaches[0]
    slopes = [(b - a) / step for a, b in zip(noise, noise[1:])]
    threshold = 0.2 * slopes[0]  # 20% of the 5 km slope
    flattening_reach = next(r for r, s in zip(reaches, slopes) if s < threshold)
    assert 13.0 <= flattening_reach <= 18.0

    split_scn = scenario("odn-split-sweep")
    ports = split_scn.sweep["values"]
    split_noise = [res.raman.total_at_receiver for res in run_sweep(split_scn)]
    assert all(a > b for a, b in zip(split_noise, split_noise[1:]))
    halving = split_noise[ports.index(32)] / split_noise[ports.index(16)]
    assert 0.4 <= halving <= 0.6


def test_criterion_4_downstream_coexistence_ladder():
    base = qber_pct("pon-baseline")
    with_l = qber_pct("pon-ds-l")
    with_lc = qber_pct("pon-ds-lc")
    with_lcw = qber_pct("pon-ds-lcw")
    delta_l = with_l - base
    delta_c = with_lc - with_l
    delta_w = with_lcw - with_lc
    assert 0.0 < delta_l <= 0.1
    assert 0.45 <= delta_c <= 1.9
    assert 0.39 <= delta_w <= 1.56
    assert base < with_l < with_lc < with_lcw


def test_criterion_5_upstream_dominance():
    base = qber_pct("pon-baseline")
    deltas = {n: qber_pct(f"pon-us-{n}") - base for n in (1, 2, 4)}
    assert 0.55 <= deltas[1] <= 2.2
    assert deltas[1] < deltas[2] < deltas[4]
    assert abs(deltas[2] / (2.0 * deltas[1]) - 1.0) <= 0.30
    assert abs(deltas[4] / (4.0 * deltas[1]) - 1.0) <= 0.30

    upstream_noise = run_scenario(scenario("pon-us-1")).raman.total_at_receiver
    raw = bundled_scenario("pon-baseline")
    raw["channels"]["classical"] = downstream_c_channels()
    downstream_noise = run_scenario(parse_scenario(raw)).raman.total_at_receiver
    assert upstream_noise > downstream_noise


def test_criterion_6_secure_key_figures():
    report = QberReport(
        qber=0.0377,
        raw_rate=2700.0,
        sifted_bits=81000.0,
        error_bits=0.0377 * 81000.0,
        gated_rejected=0.0,
        duration_s=30.0,
    )
    out = secure_rate(report, f_ec=1.45, symbol_rate_hz=1e9)
    assert 460.0 <= out.secure_rate <= 520.0
    assert 4.6e-7 <= out.secure_bits_per_pulse <= 5.2e-7
    assert 0.045 <= positivity_threshold(1.45) <= 0.055


def test_criterion_7_oracle_equivalence_property_suite():
    budgets = (14.0, 18.0, 22.0)
    noises = (0.0, 360.0, 1440.0)
    visibilities = (0.90, 0.95, 1.00)
    duration = 8.0
    det = DetectorModel()
    gate = GateConfig(gate_fraction=0.3, slot_phase_s=0.0)
    cells = list(product(budgets, noises, visibilities))
    children = np.random.SeedSequence(11).spawn(len(cells))
    worst = 0.0
    for child, (budget, noise, vis) in zip(children, cells):
        tx = TransmitterConfig(visibility=vis)
        rates = click_rate_oracle(tx, budget, det, noise_rate=noise, gate_fraction=0.3)
        oracle = oracle_qber_report(
            rates.signal_rate, tx.intrinsic_error, rates.background_rate + rates.afterpulse_rate
        )
        stream = simulate_timetags(
            tx, budget, det, noise, duration, child, p_eff=rates.afterpulse_probability_effective
        )
        scored = sift_and_score(apply_gate(stream, gate))
        z_bits, z_err = z_scores(oracle, scored)
        worst = max(worst, abs(z_bits), abs(z_err))
    assert worst <= 3.0

    # gating retains the stated fraction of a uniform background
    rng = np.random.default_rng(123)
    n_tags = 100_000
    duration = 1e-4
    times = np.sort(rng.random(n_tags) * duration)
    stream = TimeTagStream(
        times_s=times,
        ports=np.zeros(n_tags, dtype=np.uint8),
        origins=np.ones(n_tags, dtype=np.uint8),
        duration_s=duration,
        symbol_rate_hz=1e9,
        truth_bits=np.array([0, 1], dtype=np.uint8),
        pattern_period=2,
        monitored_ports="one",
    )
    gated = apply_gate(stream, GateConfig(gate_fraction=0.3, slot_phase_s=0.0))
    retained = len(gated.times_s) / n_tags
    assert abs(retained - 0.30) <= 0.005


def test_criterion_8_determinism_and_invariants():
    # fixed seed, bit-identical tag streams
    tx = TransmitterConfig()
    det = DetectorModel()
    first = simulate(tx, 18.0, det, 360.0, 1.0, 97)
    second = simulate(tx, 18.0, det, 360.0, 1.0, 97)
    assert np.array_equal(first.times_s, second.times_s)
    assert np.array_equal(first.ports, second.ports)
    assert np.array_equal(first.origins, second.origins)

    # path loss is additive over the quantum path elements
    scn = scenario("pon-baseline")
    parts = sum(
        scn.topology.element_loss_db(element, 1310.0) for element in UPSTREAM_QUANTUM_PATH
    )
    assert abs(scn.quantum_path_loss_db - parts) <= 1e-9

    # every simulated stream honours the dead time, per detector
    for monitored in ("one", "both"):
        det_m = dataclasses.replace(det, monitored_ports=monitored)
        stream = simulate(tx, 14.0, det_m, 2000.0, 1.0, 5)
        assert len(stream) > 0
        for port in np.unique(stream.ports):
            gaps = np.diff(stream.times_s[stream.ports == port])
            assert gaps.size > 0
            assert gaps.min() >= det.dead_time_s - 1e-12

    # analytic spot values
    assert abs(binary_entropy(0.5) - 1.0) <= 1e-12
    assert abs(dps_shrink_factor(0.0) - 1.0) <= 1e-12


def test_criterion_9_equivalent_dwdm_power_consistency():
    scn = scenario("pon-us-1")
    narrow = scn.rx_filter
    wide = FilterProfile(
        center_nm=narrow.center_nm,
        fwhm_nm=equivalent_noise_bandwidth_nm(narrow) * 10.0 ** 1.19,
        insertion_loss_db=narrow.insertion_loss_db,
    )
    rejection = filter_noise_rejection_db(wide, narrow)
    assert rejection == pytest.approx(11.9, abs=1e-9)

    direct = odn_noise_at_bob(scn.plan, scn.topology, narrow, scn.profile).total_at_receiver
    lowered = equivalent_dwdm_power_dbm(scn.plan.channels[0].launch_power_dbm, wide, narrow)
    emulated_plan = dataclasses.replace(
        scn.plan,
        channels=tuple(
            dataclasses.replace(ch, launch_power_dbm=lowered) for ch in scn.plan.channels
        ),
    )
    emulated = odn_noise_at_bob(emulated_plan, scn.topology, wide, scn.profile).total_at_receiver
    assert emulated == pytest.approx(direct, rel=1e-9)
