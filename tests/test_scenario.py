"""Config schema round trips, validation error collection, sweep axes."""

import copy
import json
import math
import re
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from ponqkd.dpslink import DetectorModel, GateConfig, TransmitterConfig
from ponqkd.errors import ConfigError
from ponqkd.raman import ChannelPlan, WavelengthChannel, default_raman_profile
from ponqkd.scenario import (
    SWEEP_AXES,
    RunSettings,
    Scenario,
    apply_axis,
    config_hash,
    parse_scenario,
    reread,
    sweep_point,
)
from ponqkd.scenarios import (
    CAL_EXCESS_LOSS_DB,
    CAL_VISIBILITY,
    bundled_names,
    bundled_scenario,
    downstream_c_channels,
    upstream_c_channels,
)
from ponqkd.topology import FilterProfile, OdnTopology, gaussian_transmission_table, path_loss_db


def test_parse_bundled_baseline_fields():
    scn = parse_scenario(bundled_scenario("pon-baseline"))
    assert scn.name == "pon-baseline"
    assert scn.budget_db is None
    assert scn.topology.splitter.port_count == 16
    assert scn.topology.feeder_down_km == 13.2
    assert scn.topology.feeder_up_km == 15.1
    assert scn.topology.drop_km == 1.0
    assert scn.plan.quantum_center_nm == 1310.0
    assert scn.plan.channels == ()
    assert scn.transmitter.visibility == CAL_VISIBILITY
    assert scn.detector.excess_loss_db == CAL_EXCESS_LOSS_DB
    assert scn.detector.monitored_ports == "one"
    assert scn.gate.gate_fraction == 0.30
    assert scn.transmitter.symbol_period_s == 1e-9
    assert scn.f_ec == 1.45
    assert (scn.run.mode, scn.run.duration_s, scn.run.seed) == ("oracle", 30.0, 7)


def test_quantum_path_loss_property():
    scn = parse_scenario(bundled_scenario("pon-baseline"))
    assert scn.quantum_path_loss_db == pytest.approx(
        path_loss_db(scn.topology, 1310.0), rel=1e-15
    )
    assert scn.quantum_path_loss_db == pytest.approx(17.998199826559247, rel=1e-12)


def test_parse_attenuator_topology():
    raw = bundled_scenario("pon-baseline")
    raw["topology"] = {"kind": "attenuator", "budget_db": 21.5}
    scn = parse_scenario(raw)
    assert scn.topology is None
    assert scn.budget_db == 21.5
    assert scn.quantum_path_loss_db == 21.5


def test_parse_collects_every_error():
    raw = {
        "schema": 99,
        "bogus": {},
        "topology": {"kind": "odn", "port_count": 12},
        "detector": {"efficiency": "high"},
        "run": {"mode": "sideways"},
    }
    with pytest.raises(ConfigError) as exc:
        parse_scenario(raw)
    text = "; ".join(exc.value.errors)
    assert len(exc.value.errors) >= 5
    for fragment in ("schema", "bogus", "port", "efficiency", "mode"):
        assert fragment in text


def test_parse_rejects_non_object():
    with pytest.raises(ConfigError):
        parse_scenario(["schema", 1])


def test_slot_phase_auto_and_null():
    raw = bundled_scenario("pon-baseline")
    raw["gate"]["slot_phase_s"] = "auto"
    assert parse_scenario(raw).gate.slot_phase_s is None
    raw["gate"]["slot_phase_s"] = None  # "auto" is the one spelling of the automatic phase
    with pytest.raises(ConfigError, match="gate.slot_phase_s: expected a finite number or 'auto'"):
        parse_scenario(raw)
    raw["gate"]["slot_phase_s"] = 2.5e-10
    assert parse_scenario(raw).gate.slot_phase_s == 2.5e-10
    raw["gate"]["slot_phase_s"] = "later"
    with pytest.raises(ConfigError):
        parse_scenario(raw)


def test_config_hash_key_order_independent():
    raw = bundled_scenario("pon-baseline")
    reordered = {key: raw[key] for key in reversed(list(raw))}
    assert config_hash(raw) == config_hash(reordered)
    changed = copy.deepcopy(raw)
    changed["detector"]["dark_rate_hz"] = 521.0
    assert config_hash(changed) != config_hash(raw)


def test_apply_axis_budget_db():
    raw = bundled_scenario("b2b-budget-sweep")
    out = apply_axis(raw, "topology.budget_db", 26)
    assert out["topology"]["budget_db"] == 26.0
    assert raw["topology"]["budget_db"] == 18.0  # input dict untouched
    with pytest.raises(ConfigError):
        apply_axis(bundled_scenario("pon-baseline"), "topology.budget_db", 26)


def test_apply_axis_reach_sets_both_feeders():
    out = apply_axis(bundled_scenario("pon-baseline"), "topology.reach_km", 16.0)
    assert out["topology"]["feeder_down_km"] == 15.0
    assert out["topology"]["feeder_up_km"] == 15.0
    with pytest.raises(ConfigError):
        apply_axis(bundled_scenario("pon-baseline"), "topology.reach_km", 0.5)


def test_apply_axis_port_count():
    out = apply_axis(bundled_scenario("pon-baseline"), "topology.splitter.port_count", 32)
    assert parse_scenario(out).topology.splitter.port_count == 32


def test_apply_axis_upstream_count_keeps_plan_order():
    raw = bundled_scenario("pon-baseline")
    raw["channels"]["classical"] = downstream_c_channels()[:2] + upstream_c_channels(4)
    out = apply_axis(raw, "channels.upstream_count", 2)
    kept = out["channels"]["classical"]
    directions = [spec["direction"] for spec in kept]
    assert directions == ["downstream", "downstream", "upstream", "upstream"]
    # first two upstream entries of the original plan survive
    assert [spec["center_nm"] for spec in kept[2:]] == [
        spec["center_nm"] for spec in upstream_c_channels(2)
    ]
    with pytest.raises(ConfigError):
        apply_axis(raw, "channels.upstream_count", 8)


# one in-range value per axis, and the scenario it applies to
AXIS_CASES = {
    "topology.budget_db": ("b2b-budget-sweep", 26),
    "topology.reach_km": ("odn-upstream-sweep", 9.0),
    "topology.splitter.port_count": ("odn-upstream-sweep", 4),
    "channels.upstream_count": ("odn-upstream-sweep", 3),
}


@pytest.mark.parametrize("axis", SWEEP_AXES)
def test_apply_axis_leaves_its_input_alone(axis):
    name, value = AXIS_CASES[axis]
    raw = bundled_scenario(name)
    before = config_hash(raw)
    out = apply_axis(raw, axis, value)
    assert config_hash(raw) == before
    assert config_hash(out) != before


def sweep_point_and_parse(raw, axis, value):
    """One sweep value built from the parsed scenario and parsed afresh.

    Each comes back as a :class:`Scenario`, or as the message list of the
    ConfigError it raised.
    """

    def outcome(build):
        try:
            return build()
        except ConfigError as exc:
            return exc.errors

    scn = parse_scenario(raw)
    built = outcome(lambda: sweep_point(scn, axis, value))
    parsed = outcome(lambda: parse_scenario(apply_axis(raw, axis, value)))
    return built, parsed


@pytest.mark.parametrize("name", [n for n in bundled_names() if "sweep" in bundled_scenario(n)])
def test_sweep_point_equals_parsed_point_on_bundled_sweeps(name):
    raw = bundled_scenario(name)
    for value in raw["sweep"]["values"]:
        built, parsed = sweep_point_and_parse(raw, raw["sweep"]["axis"], value)
        assert isinstance(parsed, Scenario)
        assert built == parsed


@pytest.mark.parametrize(
    "axis, value, message",
    [
        ("topology.budget_db", -0.5, "topology.budget_db: -0.5 below minimum 0.0"),
        ("topology.splitter.port_count", 12, "topology.port_count: must be a power of two >= 1"),
    ],
)
def test_sweep_point_reports_the_parsers_messages(axis, value, message):
    name = AXIS_CASES[axis][0]
    built, parsed = sweep_point_and_parse(bundled_scenario(name), axis, value)
    assert built == parsed
    (error,) = built
    assert error.startswith(message)


# (section, its new content on pon-us-1), keeping the plant kind, the fibre
# table and the Raman table: some parse, some break a rule of their section
REREAD_CASES = [
    ("topology", {"kind": "odn", "port_count": 4, "feeder_up_km": 3.0, "directivity_db": 40.0}),
    ("topology", {"kind": "odn", "port_count": 3}),
    ("topology", {"kind": "odn", "drop_km": -1.0, "excess_loss_db": "x"}),
    ("raman", {"scale": 2.5, "temperature_k": 250.0}),
    ("raman", {"scale": -1.0}),
    ("raman", {"temperature_k": 2.5}),
    ("detector", {"efficiency": 0.5, "dark_rate_hz": 40.0}),
    ("detector", {"efficiency": 2.0}),
    ("transmitter", {"visibility": 0.9}),
    ("transmitter", {"visibility": "high"}),
]


@pytest.mark.parametrize(
    "section, content", REREAD_CASES, ids=[f"{s}-{c}"[:48] for s, c in REREAD_CASES]
)
def test_reread_equals_a_parse_of_its_config(section, content):
    def outcome(build):
        try:
            return build()
        except ConfigError as exc:
            return exc.errors

    scn = parse_scenario(bundled_scenario("pon-us-1"))
    raw = {**scn.raw, section: content}
    built = outcome(lambda: reread(scn, raw, section))
    parsed = outcome(lambda: parse_scenario(raw))
    assert built == parsed


def test_apply_axis_unknown_axis():
    with pytest.raises(ConfigError):
        apply_axis(bundled_scenario("pon-baseline"), "detector.efficiency", 0.2)


def test_apply_axis_refuses_a_non_finite_value():
    with pytest.raises(ConfigError, match="^sweep.values: nan is not a finite number$"):
        apply_axis(bundled_scenario("pon-baseline"), "topology.reach_km", math.nan)


@pytest.mark.parametrize("count", [0, 21])
def test_upstream_block_holds_one_to_twenty_channels(count):
    with pytest.raises(ValueError, match="between 1 and 20"):
        upstream_c_channels(count)


def test_sweep_block_validation():
    raw = bundled_scenario("pon-baseline")
    raw["sweep"] = {"axis": "topology.reach_km", "values": [5.0, 10.0]}
    assert parse_scenario(raw).sweep == raw["sweep"]
    raw["sweep"] = {"axis": "detector.efficiency", "values": [0.1]}
    with pytest.raises(ConfigError):
        parse_scenario(raw)
    raw["sweep"] = {"axis": "topology.reach_km", "values": []}
    with pytest.raises(ConfigError):
        parse_scenario(raw)


def test_bundled_library_parses_clean():
    names = bundled_names()
    assert "pon-baseline" in names
    for name in names:
        scn = parse_scenario(bundled_scenario(name))
        assert scn.name == name
    sweep_axes = {
        parse_scenario(bundled_scenario(name)).sweep["axis"]
        for name in names
        if parse_scenario(bundled_scenario(name)).sweep
    }
    assert sweep_axes <= set(SWEEP_AXES)


def test_bundled_scenarios_are_isolated_copies():
    first = bundled_scenario("pon-baseline")
    first["detector"]["dark_rate_hz"] = 0.0
    second = bundled_scenario("pon-baseline")
    assert second["detector"]["dark_rate_hz"] == 520.0
    with pytest.raises(KeyError):
        bundled_scenario("no-such-scenario")


def test_defaults_live_on_the_dataclasses():
    scn = parse_scenario({"schema": 1, "channels": {"classical": [{}]}})
    assert scn.transmitter == TransmitterConfig()
    assert scn.detector == DetectorModel()
    assert scn.gate == GateConfig()
    assert scn.run == RunSettings()
    assert scn.topology == OdnTopology()
    assert scn.plan == ChannelPlan(channels=(WavelengthChannel(),))
    gaussian = gaussian_transmission_table(FilterProfile.center_nm, FilterProfile.fwhm_nm)
    assert scn.rx_filter == replace(FilterProfile(), transmission_db=gaussian)
    assert scn.profile == default_raman_profile()


def _fields(scn) -> dict:
    """(section, field) -> value over every parsed section of a scenario."""
    out = {}
    for section, value in asdict(scn).items():
        if section != "raw":
            items = value.items() if isinstance(value, dict) else [(None, value)]
            out.update({(section, key): v for key, v in items})
    return out


def test_readme_config_block_shows_the_defaults():
    # the block shows the bundled values of four fields, as its sentence says
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## Configuration.*?```json\n(.*?)```", readme, re.S).group(1)
    shown = _fields(parse_scenario(json.loads(block)))
    default = _fields(parse_scenario({"schema": 1, "name": "example"}))
    assert {key for key, value in shown.items() if value != default[key]} == {
        ("profile", "scale"),
        ("transmitter", "visibility"),
        ("run", "seed"),
        ("plan", "channels"),
    }
