"""Orchestration: single runs, sweeps, report emission, calibration."""

import hashlib
import json

import numpy as np
import pytest

from ponqkd.errors import CalibrationError, ConfigError
from ponqkd.runner import (
    SWEEP_COLUMNS,
    VERSION,
    calibrate,
    emit_report,
    run_scenario,
    run_sweep,
    sweep_csv,
    sweep_rows,
)
from ponqkd.scenario import apply_axis, parse_scenario
from ponqkd.scenarios import CAL_RAMAN_SCALE, CAL_VISIBILITY, bundled_names, bundled_scenario
from test_acceptance import z_scores


def scenario(name):
    return parse_scenario(bundled_scenario(name))


def monte_carlo_raw(duration_s=0.5, seed=3):
    raw = bundled_scenario("pon-baseline")
    raw["run"] = {"mode": "monte_carlo", "duration_s": duration_s, "seed": seed}
    return raw


def test_oracle_baseline_hits_calibration_anchors():
    res = run_scenario(scenario("pon-baseline"))
    assert res.mode == "oracle"
    assert res.seed is None
    assert res.path_loss_db == pytest.approx(17.998199826559247, rel=1e-12)
    assert res.raman.total_at_receiver == 0.0
    assert res.qber_report.raw_rate == pytest.approx(2700.0, rel=1e-9)
    assert res.qber_report.qber == pytest.approx(0.0377, abs=1e-9)
    assert res.keyrate_report.secure_rate == pytest.approx(486.934762258637, rel=1e-9)
    assert res.dark_rate_hz == 520.0
    assert len(res.config_hash) == 16


def test_oracle_single_upstream_hits_raman_anchor():
    res = run_scenario(scenario("pon-us-1"))
    assert res.raman.total_at_receiver == pytest.approx(360.0, rel=1e-9)
    assert res.raman.upstream_copropagating > 0.0


def test_mode_override_wins_over_config():
    res = run_scenario(parse_scenario(monte_carlo_raw()), mode="oracle")
    assert res.mode == "oracle"
    assert res.seed is None


def test_monte_carlo_bit_identical_per_seed():
    scn = parse_scenario(monte_carlo_raw(duration_s=1.0, seed=5))
    first = run_scenario(scn)
    second = run_scenario(scn)
    assert first.seed == second.seed == 5
    assert first.qber_report == second.qber_report
    other = run_scenario(scn, seed=6)
    assert other.qber_report != first.qber_report


def test_transmitter_key_the_oracle_cannot_see_is_ignored():
    # the oracle assumes a balanced seeded truth pattern; an explicit pattern
    # key would let the Monte Carlo leave it, so the section ignores it
    raw = monte_carlo_raw(duration_s=10.0)
    raw["transmitter"]["pattern_bits"] = [0]
    scn = parse_scenario(raw)
    scored = run_scenario(scn).qber_report
    oracle = run_scenario(scn, mode="oracle").qber_report
    assert all(abs(z) <= 3.0 for z in z_scores(oracle, scored))


def test_run_sweep_uses_config_sweep_in_order():
    scn = scenario("b2b-budget-sweep")
    values = scn.sweep["values"]
    results = run_sweep(scn)
    assert len(results) == len(values)
    assert [r.path_loss_db for r in results] == list(values)


def test_run_sweep_explicit_axis_overrides():
    scn = scenario("pon-baseline")
    results = run_sweep(scn, axis="topology.splitter.port_count", values=[8, 16, 32])
    # splitter loss steps by 3.01 dB per doubling
    losses = [r.path_loss_db for r in results]
    assert losses[1] - losses[0] == pytest.approx(3.0102999566398116, rel=1e-9)
    assert losses[2] - losses[1] == pytest.approx(3.0102999566398116, rel=1e-9)


def test_run_sweep_scheduling_independent():
    # the pooled sweep equals one run per point, in order, each point seeded
    # with its own child of the master seed
    raw = monte_carlo_raw(duration_s=0.2, seed=11)
    axis, values = "topology.reach_km", [14.0, 16.0, 18.0]
    pooled = run_sweep(parse_scenario(raw), axis=axis, values=values)
    children = np.random.SeedSequence(11).spawn(len(values))
    serial = [
        run_scenario(parse_scenario(apply_axis(raw, axis, v)), seed=children[i])
        for i, v in enumerate(values)
    ]
    assert pooled == serial


def test_run_sweep_without_sweep_section():
    scn = scenario("pon-baseline")
    with pytest.raises(ConfigError):
        run_sweep(scn)
    with pytest.raises(ConfigError):
        run_sweep(scn, axis="topology.reach_km", values=[])


def test_sweep_table_rendering():
    scn = scenario("pon-baseline")
    values = [10.0, 16.0]
    results = run_sweep(scn, axis="topology.reach_km", values=values)
    rows = sweep_rows(values, results)
    assert [row["axis_value"] for row in rows] == values
    assert all(set(row) == set(SWEEP_COLUMNS) for row in rows)
    text = sweep_csv(values, results)
    lines = text.splitlines()
    assert lines[0] == "axis_value,path_loss_db,raman_counts_s,dark_counts_s,raw_rate_bs,qber,secure_rate_bs,secure_bits_per_pulse"
    assert len(lines) == 1 + len(values)
    assert lines[1].split(",")[0] == repr(10.0)
    assert text.endswith("\n")


def test_emit_report_deterministic():
    res = run_scenario(scenario("pon-baseline"))
    first = emit_report(res)
    assert first == emit_report(res)
    payload = json.loads(first)
    assert payload["toolkit_version"] == VERSION
    assert payload["scenario"] == "pon-baseline"
    assert payload["qber"]["raw_rate"] == pytest.approx(2700.0, rel=1e-9)
    assert payload["link"]["total_rate"] > 0.0
    pair = json.loads(emit_report([res, res]))
    assert isinstance(pair, list) and len(pair) == 2


def test_emit_report_csv_and_bad_format():
    res = run_scenario(scenario("pon-baseline"))
    lines = emit_report(res, fmt="csv").splitlines()
    assert lines[0] == "scenario,mode,path_loss_db,raw_rate_bs,qber,secure_rate_bs"
    assert lines[1].startswith("pon-baseline,oracle,")
    with pytest.raises(ValueError):
        emit_report(res, fmt="yaml")
    with pytest.raises(ValueError):
        emit_report([], fmt="json")


def test_calibrate_recovers_raman_scale():
    raw = bundled_scenario("pon-us-1")
    raw["raman"]["scale"] = 1.0
    result, fitted = calibrate(raw, "raman.scale", "raman_total", 360.0)
    assert result.value == pytest.approx(CAL_RAMAN_SCALE, rel=1e-6)
    assert abs(result.residual) < 1e-6
    assert result.observable == "raman_total"
    assert result.target == 360.0
    assert result.iterations >= 1
    assert fitted["raman"]["scale"] == result.value


def test_calibrate_recovers_visibility():
    raw = bundled_scenario("pon-baseline")
    raw["transmitter"]["visibility"] = 0.95
    result, fitted = calibrate(raw, "transmitter.visibility", "qber", 0.0377)
    assert result.value == pytest.approx(CAL_VISIBILITY, rel=1e-6)
    assert fitted["transmitter"]["visibility"] == result.value


def test_calibrate_unreachable_target_reports_bracket():
    raw = bundled_scenario("pon-baseline")
    with pytest.raises(CalibrationError) as exc:
        calibrate(raw, "transmitter.visibility", "qber", 0.9)
    message = str(exc.value)
    assert "no sign change" in message
    assert "transmitter.visibility" in message
    assert "0.9" in message


def test_calibrate_rejects_unknown_names():
    raw = bundled_scenario("pon-baseline")
    with pytest.raises(ConfigError):
        calibrate(raw, "detector.efficiency", "qber", 0.03)
    with pytest.raises(ConfigError):
        calibrate(raw, "raman.scale", "secure_rate", 400.0)


# sha256 over every bundled oracle report, each bundled sweep table right
# after its scenario's report, then 2 s Monte Carlo reports of pon-baseline
# and pon-us-20 (seed 5); any change to a user-visible number moves it
BUNDLED_OUTPUT_PIN = "d53fb39b12061c901a64fc003bf2debb5032b9855325d9678e6f2797a7d629e7"


def test_bundled_outputs_are_pinned():
    digest = hashlib.sha256()
    for name in bundled_names():
        scn = scenario(name)
        digest.update(emit_report(run_scenario(scn, mode="oracle")).encode())
        if scn.sweep:
            digest.update(sweep_csv(scn.sweep["values"], run_sweep(scn)).encode())
    for name in ("pon-baseline", "pon-us-20"):
        res = run_scenario(scenario(name), mode="monte_carlo", duration_s=2.0, seed=5)
        digest.update(emit_report(res).encode())
    assert digest.hexdigest() == BUNDLED_OUTPUT_PIN


def test_abstract_figures_are_pinned():
    # the model's values for the three figures the paper's abstract gives
    # (5e-7 secure bits/pulse, +0.93 pp and +1.1 pp QBER); see the README
    def oracle(name):
        return run_scenario(scenario(name))

    baseline = oracle("pon-baseline")
    assert baseline.keyrate_report.secure_bits_per_pulse == pytest.approx(
        4.869347622586347e-07, rel=1e-9
    )
    downstream = oracle("pon-ds-lc").qber_report.qber - oracle("pon-ds-l").qber_report.qber
    assert downstream == pytest.approx(0.01271793867366066, rel=1e-9)
    upstream = oracle("pon-us-1").qber_report.qber - baseline.qber_report.qber
    assert upstream == pytest.approx(0.018979205957071234, rel=1e-9)
