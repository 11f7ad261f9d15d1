"""Orchestration: single runs, sweeps, report emission, calibration."""

import hashlib
import json
import math
import os
import sys

import numpy as np
import pytest

from ponqkd import runner
from ponqkd.cli import EXIT_CONFIG, main
from ponqkd.errors import CalibrationError, ConfigError
from ponqkd.raman import odn_noise_at_bob
from ponqkd.runner import (
    CALIBRATION_PARAMETERS,
    SWEEP_COLUMNS,
    VERSION,
    calibrate,
    emit_report,
    run_scenario,
    run_sweep,
    sweep_csv,
    sweep_rows,
)
from ponqkd.scenario import apply_axis, config_hash, parse_scenario
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


@pytest.mark.parametrize("duration_s", [0.0, -1.0, math.nan, math.inf, "1", True])
def test_duration_override_must_be_finite_and_positive(duration_s):
    # only None means "use the config's duration"
    with pytest.raises(ConfigError, match="run.duration_s"):
        run_scenario(scenario("pon-baseline"), mode="monte_carlo", duration_s=duration_s)


def test_monte_carlo_draw_is_bounded_by_physical_memory(monkeypatch, capsys):
    # the run's peak bytes are estimated before anything is drawn; here the
    # machine's memory is patched down to that estimate and just below it
    class Drawn(Exception):
        pass

    calls = []

    def simulate(*args, **kwargs):
        calls.append(args)
        raise Drawn

    monkeypatch.setattr(runner, "simulate_timetags", simulate)
    scn = scenario("pon-baseline")
    oracle = run_scenario(scn)
    need = runner.MC_BYTES_PER_EVENT * runner.expected_events(
        scn.transmitter,
        scn.quantum_path_loss_db,
        scn.detector,
        oracle.raman.total_at_receiver,
        30.0,
        oracle.link_rates.afterpulse_probability_effective,
    )
    assert 2e6 < need < 2e7  # about 1.6e5 events of 64 bytes
    monkeypatch.setattr(runner, "_physical_memory_bytes", lambda: need * (1.0 - 1e-9))
    with pytest.raises(ConfigError, match=r"run.duration_s: 30.0 s of Monte Carlo needs about"):
        run_scenario(scn, mode="monte_carlo", duration_s=30.0)
    argv = ["run", "--config", "pon-baseline", "--mode", "monte_carlo", "--duration", "30"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: run.duration_s: 30.0 s")
    assert calls == []
    monkeypatch.setattr(runner, "_physical_memory_bytes", lambda: need)
    with pytest.raises(Drawn):
        run_scenario(scn, mode="monte_carlo", duration_s=30.0)
    assert len(calls) == 1


GIB = 2**30
UNLIMITED_V1 = "9223372036854771712\n"  # what cgroup v1 reads without a limit


@pytest.mark.parametrize(
    "cgroup, files, limit",
    [
        ("0::/jobs/a\n", {"jobs/a/memory.max": "1073741824\n"}, GIB),
        ("0::/jobs/a\n", {"jobs/a/memory.max": "max\n"}, math.inf),
        ("0::/\n", {}, math.inf),  # the root has no memory.max
        (
            "5:cpu,cpuacct:/c\n4:memory:/docker/c\n0::/\n",
            {"memory/docker/c/memory.limit_in_bytes": "536870912\n"},
            GIB / 2,
        ),
        ("4:memory:/docker/c\n", {"memory/docker/c/memory.limit_in_bytes": UNLIMITED_V1}, None),
        ("4:memory:/docker/c\n", {"memory/other/memory.limit_in_bytes": "536870912\n"}, math.inf),
        (None, {"memory.max": "1073741824\n"}, math.inf),  # no /proc/self/cgroup
        # every ancestor's limit holds too: the smallest one on the way up counts
        ("0::/jobs/a\n", {"jobs/memory.max": "1073741824\n", "jobs/a/memory.max": "max\n"}, GIB),
        (
            "0::/jobs/a/b\n",
            {"jobs/memory.max": "1073741824\n", "jobs/a/b/memory.max": "2147483648\n"},
            GIB,
        ),
        (
            "4:memory:/docker/c\n",
            {
                "memory/docker/memory.limit_in_bytes": "536870912\n",
                "memory/docker/c/memory.limit_in_bytes": UNLIMITED_V1,
            },
            GIB / 2,
        ),
    ],
    ids=[
        "v2",
        "v2-max",
        "v2-root",
        "v1-hybrid",
        "v1-unlimited",
        "v1-elsewhere",
        "no-cgroup-file",
        "v2-ancestor",
        "v2-ancestor-below-leaf",
        "v1-ancestor",
    ],
)
def test_memory_bound_respects_the_cgroup_limit(tmp_path, monkeypatch, cgroup, files, limit):
    physical = float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    mount = tmp_path / "sys" / "fs" / "cgroup"
    for name, text in files.items():
        (mount / name).parent.mkdir(parents=True, exist_ok=True)
        (mount / name).write_text(text)
    own = tmp_path / "proc" / "self" / "cgroup"
    own.parent.mkdir(parents=True)
    if cgroup is not None:
        own.write_text(cgroup)
    monkeypatch.setattr(runner, "_CGROUP_FILE", str(own))
    monkeypatch.setattr(runner, "_CGROUP_MOUNT", str(mount))
    if limit is None:  # v1's "unlimited" is a number larger than any memory
        assert runner._cgroup_memory_limit_bytes() > 2.0**62
    else:
        assert runner._cgroup_memory_limit_bytes() == limit
    assert runner._physical_memory_bytes() == min(physical, runner._cgroup_memory_limit_bytes())


@pytest.mark.parametrize(
    "override, field",
    [
        ({"mode": "oracel"}, "run.mode"),
        ({"mode": ""}, "run.mode"),
        ({"seed": -1}, "run.seed"),
        ({"seed": 1.5}, "run.seed"),
        ({"seed": True}, "run.seed"),
        ({"seed": "3"}, "run.seed"),
    ],
)
def test_mode_and_seed_overrides_obey_the_run_section(override, field):
    # "oracel" used to run a Monte Carlo simulation; -1 and 1.5 ended in numpy errors
    kwargs = {"mode": "monte_carlo", "duration_s": 0.01, **override}
    with pytest.raises(ConfigError, match=field):
        run_scenario(scenario("pon-baseline"), **kwargs)


def test_seed_override_takes_integers_and_seed_sequences():
    scn = scenario("pon-baseline")
    (child,) = np.random.SeedSequence(3).spawn(1)
    for seed in (0, np.int64(7), child):
        res = run_scenario(scn, seed=seed, mode="monte_carlo", duration_s=0.01)
        assert res.mode == "monte_carlo"


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
    raw = bundled_scenario("pon-baseline")
    raw["sweep"] = {"axis": "topology.splitter.port_count", "values": [8, 16, 32]}
    results = run_sweep(parse_scenario(raw))
    # splitter loss steps by 3.01 dB per doubling
    losses = [r.path_loss_db for r in results]
    assert losses[1] - losses[0] == pytest.approx(3.0102999566398116, rel=1e-9)
    assert losses[2] - losses[1] == pytest.approx(3.0102999566398116, rel=1e-9)


def test_run_sweep_scheduling_independent():
    # the pooled sweep equals one run per point, in order, each point seeded
    # with its own child of the master seed
    raw = monte_carlo_raw(duration_s=0.2, seed=11)
    axis, values = "topology.reach_km", [14.0, 16.0, 18.0]
    raw["sweep"] = {"axis": axis, "values": values}
    pooled = run_sweep(parse_scenario(raw))
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
    raw = bundled_scenario("pon-baseline")
    raw["sweep"] = {"axis": "topology.reach_km", "values": []}
    with pytest.raises(ConfigError):
        run_sweep(parse_scenario(raw))


def test_refused_sweep_value_runs_no_point(monkeypatch):
    # every point is built before any runs, so the last value's refusal
    # comes before the first simulation
    calls = []
    monkeypatch.setattr(runner, "simulate_timetags", lambda *args, **kwargs: calls.append(args))
    raw = bundled_scenario("b2b-budget-sweep")
    raw["run"].update(mode="monte_carlo", duration_s=100.0)
    raw["sweep"]["values"] = [10, 11, 12, 13, -1]
    with pytest.raises(ConfigError, match="topology.budget_db: -1.0 below minimum"):
        run_sweep(parse_scenario(raw))
    assert calls == []


def test_sweep_table_rendering():
    raw = bundled_scenario("pon-baseline")
    values = [10.0, 16.0]
    raw["sweep"] = {"axis": "topology.reach_km", "values": values}
    results = run_sweep(parse_scenario(raw))
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


def test_config_hash_is_computed_only_for_reports(monkeypatch):
    calls = []

    def counting(raw):
        calls.append(raw)
        return config_hash(raw)

    monkeypatch.setattr(runner, "config_hash", counting)
    calibrate(bundled_scenario("pon-baseline"), "detector.excess_loss_db", "raw_rate", 2700.0)
    run_sweep(scenario("odn-reach-sweep"))
    run_sweep(scenario("b2b-budget-sweep"))
    assert calls == []

    raw = bundled_scenario("pon-us-1")
    res = run_scenario(parse_scenario(raw))
    assert json.loads(emit_report(res))["config_hash"] == config_hash(raw)
    assert json.loads(emit_report(res))["config_hash"] == config_hash(raw)
    assert len(calls) == 1  # kept after the first read


def test_parse_checks_the_plan_and_a_run_sums_it_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return odn_noise_at_bob(*args)

    # every module global that names the sum, wherever it was imported to
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "ponqkd"]:
        for attr, value in list(vars(module).items()):
            if value is odn_noise_at_bob:
                monkeypatch.setattr(module, attr, counting)
    scn = scenario("pon-us-20")
    assert calls == []
    res = run_scenario(scn)
    assert len(calls) == 1
    assert res.raman == odn_noise_at_bob(scn.plan, scn.topology, scn.rx_filter, scn.profile)


@pytest.mark.parametrize(
    "phase_ns, raw_rate_bs", [(0.05, 2700.0), (0.1, 2069.7), (0.3, 178.9)]
)
def test_fixed_gate_phase_oracle_agrees_with_monte_carlo(phase_ns, raw_rate_bs):
    # a fixed gate phase off the pulse centre cuts the signal in both modes
    raw = bundled_scenario("pon-baseline")
    raw["gate"]["slot_phase_s"] = phase_ns * 1e-9
    scn = parse_scenario(raw)
    oracle = run_scenario(scn, mode="oracle")
    assert oracle.qber_report.raw_rate == pytest.approx(raw_rate_bs, rel=1e-4)
    mc = run_scenario(scn, mode="monte_carlo", duration_s=10.0, seed=3)
    z_bits, z_err = z_scores(oracle.qber_report, mc.qber_report)
    assert abs(z_bits) <= 3.0
    assert abs(z_err) <= 3.0


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


# parameter -> (scenario, observable, target) of its calibration anchor
ANCHORS = {
    "raman.scale": ("pon-us-1", "raman_total", 360.0),
    "detector.excess_loss_db": ("pon-baseline", "raw_rate", 2700.0),
    "transmitter.visibility": ("pon-baseline", "qber", 0.0377),
}


@pytest.mark.parametrize("parameter", sorted(CALIBRATION_PARAMETERS))
def test_calibrate_leaves_its_input_alone(parameter):
    name, observable, target = ANCHORS[parameter]
    raw = bundled_scenario(name)
    before = config_hash(raw)
    first, _ = calibrate(raw, parameter, observable, target)
    assert config_hash(raw) == before
    second, _ = calibrate(raw, parameter, observable, target)
    assert repr(second) == repr(first)


@pytest.mark.parametrize("parameter", sorted(CALIBRATION_PARAMETERS))
def test_calibration_points_equal_a_parse_of_their_config(monkeypatch, parameter):
    points = []
    observe = runner._observe

    def keep(scn, observable):
        points.append(scn)
        return observe(scn, observable)

    monkeypatch.setattr(runner, "_observe", keep)
    name, observable, target = ANCHORS[parameter]
    calibrate(bundled_scenario(name), parameter, observable, target)
    assert points and all(parse_scenario(point.raw) == point for point in points)


def test_calibrate_expands_the_raman_scale_bracket(monkeypatch):
    # 1e12 counts/s needs a scale above the bracket's first high end of 1;
    # the Raman total is linear in the scale, so the fit is exact
    points = []
    observe = runner._observe

    def keep(scn, observable):
        points.append(scn)
        return observe(scn, observable)

    monkeypatch.setattr(runner, "_observe", keep)
    result, fitted = calibrate(bundled_scenario("pon-us-1"), "raman.scale", "raman_total", 1e12)
    assert result.value == pytest.approx(1e12 / 360.0 * CAL_RAMAN_SCALE, rel=1e-12)
    assert result.iterations == 2
    assert fitted["raman"]["scale"] == result.value
    assert max(point.profile.scale for point in points) > 1.0
    assert all(parse_scenario(point.raw) == point for point in points)
    with pytest.raises(CalibrationError, match=r"no sign change on \[0\.0, 1000000000000\.0\]"):
        calibrate(bundled_scenario("pon-us-1"), "raman.scale", "raman_total", 1e24)


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
def test_calibrate_rejects_a_non_finite_target(target):
    with pytest.raises(ConfigError, match="target: expected a finite number"):
        calibrate(bundled_scenario("pon-us-1"), "raman.scale", "raman_total", target)


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


# sha256 over 2 s Monte Carlo reports of pon-baseline and pon-us-20 (seed 5)
# with the gate phase found by estimate_slot_phase ("auto")
AUTO_PHASE_OUTPUT_PIN = "21751cd49b6fe4d2775e8c315fedf22eedcb93e723fb396bd990ecb35d42abdf"


def test_auto_phase_outputs_are_pinned():
    digest = hashlib.sha256()
    for name in ("pon-baseline", "pon-us-20"):
        raw = bundled_scenario(name)
        raw["gate"]["slot_phase_s"] = "auto"
        res = run_scenario(parse_scenario(raw), mode="monte_carlo", duration_s=2.0, seed=5)
        digest.update(emit_report(res).encode())
    assert digest.hexdigest() == AUTO_PHASE_OUTPUT_PIN


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
