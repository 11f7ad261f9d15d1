"""Command line interface: verbs, overrides, output files, exit codes."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys

import pytest

import ponqkd
from ponqkd.cli import EXIT_CALIBRATION, EXIT_CONFIG, EXIT_OK, main
from ponqkd.scenarios import CAL_RAMAN_SCALE, bundled_names, bundled_scenario


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_scenarios_verb_lists_library(capsys):
    assert main(["scenarios"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("pon-baseline", "b2b-budget-sweep", "odn-reach-sweep"):
        assert name in out


def test_module_entry_point_lists_the_library(capsys):
    # python -m ponqkd.cli, the module run as a script, exits with main()'s code
    src = os.path.dirname(os.path.dirname(ponqkd.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, "-m", "ponqkd.cli", "scenarios"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == EXIT_OK, child.stderr
    assert main(["scenarios"]) == EXIT_OK
    assert child.stdout == capsys.readouterr().out


def test_run_bundled_scenario_json(capsys):
    assert main(["run", "--config", "pon-baseline"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"] == "pon-baseline"
    assert payload["mode"] == "oracle"
    assert payload["qber"]["raw_rate"] == pytest.approx(2700.0, rel=1e-9)
    assert payload["qber"]["qber"] == pytest.approx(0.0377, abs=1e-9)


@pytest.mark.parametrize("monitored_ports", ["one", "both"])
def test_run_mode_seed_duration_overrides(tmp_path, capsys, monitored_ports):
    # the bundled baseline monitors one port; a written copy monitors both
    config = "pon-baseline"
    if monitored_ports == "both":
        raw = bundled_scenario(config)
        raw["detector"]["monitored_ports"] = monitored_ports
        config = write_config(tmp_path, raw)
    rc = main(
        [
            "run",
            "--config",
            config,
            "--mode",
            "monte_carlo",
            "--duration",
            "0.2",
            "--seed",
            "42",
        ]
    )
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "monte_carlo"
    assert payload["seed"] == 42
    assert payload["qber"]["sifted_bits"] > 0


def test_run_csv_format(capsys):
    assert main(["run", "--config", "pon-baseline", "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "scenario,mode,path_loss_db,raw_rate_bs,qber,secure_rate_bs"
    assert lines[1].startswith("pon-baseline,")


def test_run_writes_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["run", "--config", "pon-baseline", "--out", str(out_path)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    payload = json.loads(out_path.read_text())
    assert payload["scenario"] == "pon-baseline"


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--config", "pon-baseline"],
        ["sweep", "--config", "odn-split-sweep"],
        ["calibrate", "--config", "pon-us-1", "--param", "raman.scale"]
        + ["--observable", "raman_total", "--target", "360"],
    ],
    ids=["run", "sweep", "calibrate"],
)
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_exits_config(tmp_path, capsys, argv, where):
    # a path that cannot be opened for writing is a config error naming
    # --out; calibrate writes its file before it prints the fit, so a
    # failed write prints nothing
    out = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: --out: cannot write {str(out)!r} (")
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("name", bundled_names())
def test_validate_prints_name_and_hash(capsys, name):
    assert main(["validate", "--config", name]) == EXIT_OK
    assert re.fullmatch(f"ok {re.escape(name)} [0-9a-f]{{16}}\n", capsys.readouterr().out)


def test_validate_reports_every_config_error(tmp_path, capsys):
    raw = bundled_scenario("pon-baseline")
    raw["schema"] = 99
    raw["detector"]["efficiency"] = "high"
    path = write_config(tmp_path, raw)
    assert main(["validate", "--config", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "schema" in err and "efficiency" in err


def test_run_zero_duration_exits_config(capsys):
    rc = main(["run", "--config", "pon-baseline", "--mode", "monte_carlo", "--duration", "0"])
    assert rc == EXIT_CONFIG
    assert "run.duration_s" in capsys.readouterr().err


def test_quantum_wavelength_outside_fibre_table_exits_config(tmp_path, capsys):
    raw = bundled_scenario("pon-baseline")
    raw["channels"]["quantum_center_nm"] = 1700.0
    path = write_config(tmp_path, raw)
    for verb in ("validate", "run"):
        assert main([verb, "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "1700" in err


def test_raman_shift_outside_profile_exits_config(tmp_path, capsys):
    # 1625 nm pumping 1260 nm is a shift of about 53 THz; the profile ends at 45
    raw = bundled_scenario("pon-us-1")
    raw["channels"]["quantum_center_nm"] = 1260.0
    raw["channels"]["classical"][0]["center_nm"] = 1625.0
    path = write_config(tmp_path, raw)
    for verb in ("validate", "run"):
        assert main([verb, "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "1625" in err and "profile hull" in err


def test_attenuator_with_classical_channels_exits_config(tmp_path, capsys):
    # an attenuator link has no plant for Raman to act in; the channels
    # would otherwise be dropped without a word
    raw = bundled_scenario("b2b-budget-sweep")
    raw["channels"]["classical"] = bundled_scenario("pon-us-1")["channels"]["classical"]
    path = write_config(tmp_path, raw)
    for verb in ("validate", "run"):
        assert main([verb, "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "attenuator" in err


NAN_TABLE = [[1260.0, 0.42], [1310.0, math.nan], [1625.0, 0.24]]

# the messages for a filter table and an inline Raman table, both refused formats
FILTER_TABLE_REFUSED = "channels.rx_filter.transmission_db: not a setting"
RAMAN_TABLE_REFUSED = "raman.profile: expected 'default', got {'shifts_thz'"

# (path into odn-split-sweep, value, text the error must name)
MALFORMED = [
    (("raman", "scale"), math.nan, "raman.scale"),
    (("transmitter", "mean_photon_number"), math.nan, "transmitter.mean_photon_number"),
    (("channels", "classical", 0, "launch_power_dbm"), math.nan, "classical[0].launch_power_dbm"),
    (("run", "duration_s"), math.inf, "run.duration_s"),
    (("gate", "slot_phase_s"), math.nan, "gate.slot_phase_s"),
    (("gate", "slot_phase_s"), None,
     "gate.slot_phase_s: expected a finite number or 'auto', got None"),
    (("topology", "attenuation_db_per_km"), NAN_TABLE, "topology.attenuation_db_per_km"),
    # a filter table or an inline Raman table is refused as a format, before
    # any rule on its entries: every table below, well formed or not, exits 2
    # naming the key it sets
    (("channels", "rx_filter", "transmission_db"), NAN_TABLE, FILTER_TABLE_REFUSED),
    (("raman", "profile"), {"shifts_thz": [-1.0, 1.0], "coefficients": [math.inf, 0.1]}, RAMAN_TABLE_REFUSED),
    (("transmitter",), [1], "transmitter: expected an object"),
    (("channels", "rx_filter"), [1], "channels.rx_filter: expected an object"),
    (("channels", "classical"), 5, "channels.classical: expected a list"),
    (("channels", "rx_filter", "transmission_db"), [[1309.0, -4e3], [1310.0, -4e3], [1311.0, -4e3]],
     FILTER_TABLE_REFUSED),
    (("sweep", "values"), ["x"], "sweep.values"),
    (("sweep", "values"), [2, math.nan], "sweep.values"),
    (("run", "seed"), -1, "run.seed"),
    (("raman", "temperature_k"), 2.5, "raman.profile"),
    (("topology", "drop_km"), -1, "topology.drop_km"),
    (("topology", "port_count"), 12, "topology.port_count"),
    (("topology", "port_count"), 2**1100, "topology.port_count"),
    (("transmitter", "symbol_rate_hz"), 0.5, "transmitter.symbol_rate_hz"),
    (("detector", "dark_rate_hz"), -1, "detector.dark_rate_hz"),
    (("detector", "monitored_ports"), "three", "detector.monitored_ports"),
    (("run", "mode"), "sideways", "run.mode"),
    (("channels", "classical", 0, "band_tag"), [1, 2], "channels.classical[0].band_tag: expected a string"),
    # one rule, one message, whatever side of zero the width falls
    (("channels", "rx_filter", "fwhm_nm"), 0, "channels.rx_filter.fwhm_nm: must be > 0, got"),
    (("channels", "rx_filter", "fwhm_nm"), -1, "channels.rx_filter.fwhm_nm: must be > 0, got"),
    (("channels", "classical", 0, "launch_power_dbm"), 1e308,
     "channels.classical[0].launch_power_dbm: 1e+308 overflows"),
    # a gaussian passband four widths wide does not fit in a float
    (("channels", "rx_filter", "fwhm_nm"), 1e308, "channels.rx_filter.fwhm_nm: 1e+308 nm too wide"),
    # a width so small that the samples around the centre repeat as floats
    (("channels", "rx_filter", "fwhm_nm"), 1e-13,
     "channels.rx_filter.fwhm_nm: 1e-13 nm too narrow to sample a gaussian passband at 1310.0 nm"),
    # a width that fits, on a centre so large that the passband's upper end does not
    (("channels", "rx_filter"), {"center_nm": 1.7e308, "fwhm_nm": 1e307},
     "channels.rx_filter.center_nm: 1.7e+308 nm with fwhm_nm 1e+307 nm"),
    (("raman", "profile"), {"csv": "profile.csv"},
     "raman.profile: expected 'default', got {'csv'"),
    (("topology", "attenuation_db_per_km"), [[10**400, 0.3]],
     "topology.attenuation_db_per_km: expected a list"),
    (("keyrate", "f_ec"), "high", "keyrate.f_ec: expected a finite number"),
    (("raman", "temperature_k"), math.nan, "raman.temperature_k: expected a finite number"),
    (("topology", "kind"), "mesh", "topology.kind: 'mesh' not one of"),
    (("channels", "rx_filter", "shape"), "round", "channels.rx_filter.shape: 'round' not one of"),
    (("channels", "classical"), [5], "channels.classical[0]: expected an object"),
    (("raman", "profile"), 7, "raman.profile: expected 'default', got 7"),
    (("sweep",), [], "sweep: expected an object"),
    # the table follows the shape: a config that sets one is refused, not run
    (("channels", "rx_filter", "transmission_db"), "x",
     "channels.rx_filter.transmission_db: not a setting"),
    (("detector", "afterpulse_probability"), 2, "detector.afterpulse_probability: must be in"),
    (("channels", "quantum_center_nm"), 0.5, "channels.quantum_center_nm: must be >= 1"),
    (("raman", "profile"), {"shifts_thz": [1.0, -1.0], "coefficients": [0.1, 0.1]}, RAMAN_TABLE_REFUSED),
    (("raman", "profile"), {"shifts_thz": [-1.0, 1.0], "coefficients": [0.1]}, RAMAN_TABLE_REFUSED),
    (("raman", "scale"), -1, "raman.scale: must be >= 0"),
    (("gate", "gate_fraction"), 0, "gate.gate_fraction: must be in (0, 1]"),
    (("gate", "gate_fraction"), 1.5, "gate.gate_fraction: must be in (0, 1]"),
    (("topology", "excess_loss_db"), -1, "topology.excess_loss_db: must be >= 0"),
    (("topology", "directivity_db"), -1, "topology.directivity_db: must be >= 0"),
    (("channels", "rx_filter", "center_nm"), 0.5, "channels.rx_filter.center_nm: must be >= 1"),
    (("channels", "rx_filter", "transmission_db"), [[1311.0, -3.0], [1310.0, 0.0], [1309.0, -3.0]],
     FILTER_TABLE_REFUSED),
    (("topology", "attenuation_db_per_km"), [], "topology.attenuation_db_per_km: must not be empty"),
    (("raman", "profile"), {"shifts_thz": [1.0], "coefficients": [0.1]}, RAMAN_TABLE_REFUSED),
    (("raman", "profile"), {"shifts_thz": [-60.0, 60.0], "coefficients": [-0.1, 0.1]}, RAMAN_TABLE_REFUSED),
    # a table entry follows the number rule of a scalar: no strings, no bools
    (("topology", "attenuation_db_per_km"), [["1260", "0.42"], ["1625", "0.24"]],
     "topology.attenuation_db_per_km: expected a list"),
    (("topology", "attenuation_db_per_km"), [[1260, True], [1625, 0.24]],
     "topology.attenuation_db_per_km: expected a list"),
    (("topology", "attenuation_db_per_km"), ["13", "69"],
     "topology.attenuation_db_per_km: expected a list"),
    (("channels", "rx_filter", "transmission_db"), [["1309", "-3"], ["1310", "0"], ["1311", "-3"]],
     FILTER_TABLE_REFUSED),
    (("channels", "rx_filter", "transmission_db"), [[1309.0, -3.0], [1310.0, True], [1311.0, -3.0]],
     FILTER_TABLE_REFUSED),
    (("channels", "rx_filter", "transmission_db"), ["13", "10", "11"], FILTER_TABLE_REFUSED),
    (("raman", "profile"), {"shifts_thz": ["-60", "60"], "coefficients": [0.1, 0.1]}, RAMAN_TABLE_REFUSED),
    (("raman", "profile"), {"shifts_thz": [-60.0, 60.0], "coefficients": [True, 0.1]}, RAMAN_TABLE_REFUSED),
    (("raman", "profile"), {"shifts_thz": [-60.0, 60.0], "coefficients": ["01", "02"]}, RAMAN_TABLE_REFUSED),
    (("topology", "attenuation_db_per_km"), [[1310.0]],
     "topology.attenuation_db_per_km: expected a list"),
    # the receiver filter must pass the 1310 nm quantum channel: a flat top
    # 2 nm off centre, and a gaussian at 1550 nm (its table ends near 1552 nm)
    (("channels", "rx_filter"), {"shape": "flat", "center_nm": 1312.0, "fwhm_nm": 1.22},
     "channels.rx_filter: the 1310.0 nm quantum channel lies outside the 3 dB passband"),
    (("channels", "rx_filter", "center_nm"), 1550.0,
     "channels.rx_filter: the 1310.0 nm quantum channel lies outside the 3 dB passband"),
    # well-formed tables, a filter 6 dB down at 1310 nm and a flat Raman
    # shape over the default hull: refused for their keys, not run with the
    # gaussian filter or the default profile in their place
    (("channels", "rx_filter", "transmission_db"), [[1309.0, -9.0], [1310.0, -6.0], [1311.0, 0.0]],
     FILTER_TABLE_REFUSED),
    (("raman", "profile"), {"shifts_thz": [-45.0, 45.0], "coefficients": [0.1, 0.1]},
     RAMAN_TABLE_REFUSED),
]


@pytest.mark.parametrize(
    "path, value, field",
    MALFORMED,
    ids=[f"{'.'.join(map(str, path))}={value!r}"[:48] for path, value, _ in MALFORMED],
)
@pytest.mark.parametrize("verb", ["validate", "run", "sweep"])
def test_malformed_config_exits_config_from_every_verb(tmp_path, capsys, verb, path, value, field):
    raw = bundled_scenario("odn-split-sweep")
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert main([verb, "--config", write_config(tmp_path, raw)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err


def test_flag_on_a_section_not_an_object_exits_config(tmp_path, capsys):
    # --seed leaves the broken run section as it is, and the parser reports
    # it with every other failure
    raw = bundled_scenario("pon-baseline")
    raw["run"] = [1]
    raw["detector"]["efficiency"] = "high"
    assert main(["run", "--config", write_config(tmp_path, raw), "--seed", "3"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "run: expected an object" in err
    assert "detector.efficiency: expected a finite number, got 'high'" in err


@pytest.mark.parametrize("verb", ["validate", "run", "sweep"])
def test_config_not_an_object_exits_config_from_every_verb(tmp_path, capsys, verb):
    assert main([verb, "--config", write_config(tmp_path, [])]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: configuration must be a JSON object\n"


@pytest.mark.parametrize("verb", ["validate", "run", "sweep"])
def test_malformed_budget_exits_config_from_every_verb(tmp_path, capsys, verb):
    raw = bundled_scenario("b2b-budget-sweep")
    raw["topology"]["budget_db"] = "x"
    assert main([verb, "--config", write_config(tmp_path, raw)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: topology.budget_db: expected a finite")


# (scenario, sweep section) pairs that parse but hold a value no sweep point takes
BROKEN_SWEEPS = [
    ("odn-split-sweep", {"axis": "topology.splitter.port_count", "values": [2, 12]}),
    ("odn-split-sweep", {"axis": "topology.splitter.port_count", "values": [2.5]}),
    ("odn-reach-sweep", {"axis": "topology.reach_km", "values": [0.5]}),
    ("odn-split-sweep", {"axis": "topology.budget_db", "values": [20]}),
    ("odn-upstream-sweep", {"axis": "channels.upstream_count", "values": [30]}),
    ("b2b-budget-sweep", {"axis": "topology.budget_db", "values": [-1]}),
]


@pytest.mark.parametrize(
    "name, sweep", BROKEN_SWEEPS, ids=[f"{n}-{s['values']}" for n, s in BROKEN_SWEEPS]
)
def test_validate_refuses_what_sweep_refuses(tmp_path, capsys, name, sweep):
    raw = {**bundled_scenario(name), "sweep": sweep}
    config = write_config(tmp_path, raw)
    assert main(["sweep", "--config", config]) == EXIT_CONFIG
    refused = capsys.readouterr().err
    assert main(["validate", "--config", config]) == EXIT_CONFIG
    assert capsys.readouterr().err == refused
    assert refused.startswith("config error:")
    assert main(["run", "--config", config]) == EXIT_OK  # a single run takes no sweep value


@pytest.mark.parametrize("pumps_nm", [(1262.0, 1625.0), (1625.0, 1262.0)])
def test_validate_and_run_name_the_first_out_of_hull_channel(tmp_path, capsys, pumps_nm):
    # with a fibre table from 1270 nm, 1262 nm is outside it; 1625 nm pumping
    # 1280 nm is a shift of about 50 THz, outside the 45 THz profile
    table = [[1270.0, 0.41], [1310.0, 0.37], [1550.0, 0.21], [1625.0, 0.24]]
    raw = bundled_scenario("pon-us-1")
    raw["topology"]["attenuation_db_per_km"] = table
    raw["channels"]["quantum_center_nm"] = 1280.0
    raw["channels"]["rx_filter"]["center_nm"] = 1280.0  # the filter follows the channel
    raw["channels"]["classical"] = [
        {"center_nm": nm, "launch_power_dbm": 2.5, "direction": "upstream"} for nm in pumps_nm
    ]
    path = write_config(tmp_path, raw)
    errors = []
    for verb in ("validate", "run"):
        assert main([verb, "--config", path]) == EXIT_CONFIG
        errors.append(capsys.readouterr().err)
    first = (
        "1262.0 nm outside attenuation hull [1270.0, 1625.0] nm"
        if pumps_nm[0] == 1262.0
        else "1625.0 nm pumping 1280.0 nm: shift -49.73 THz outside profile hull [-45.0, 45.0] THz"
    )
    assert errors == [f"config error: channels: {first}\n"] * 2


LINK_OVERFLOW = "link: the detector balance overflows"

# (path into pon-us-1, value, rx_filter shape, text the error must name): each
# passes validate; the first rows leave the detector balance no finite steady
# state, the last two hold more symbols than a Monte Carlo run can count
ABSURD_MAGNITUDES = [
    (("detector", "afterpulse_memory_s"), 1e308, "gaussian", LINK_OVERFLOW),
    (("detector", "dark_rate_hz"), 1e308, "gaussian", LINK_OVERFLOW),
    (("detector", "dead_time_s"), 1e308, "gaussian", LINK_OVERFLOW),
    # the balance's quadratic overflows, and its live fraction reads 0
    (("detector", "dead_time_s"), 1e160, "gaussian", LINK_OVERFLOW),
    (("transmitter", "symbol_rate_hz"), 1e308, "gaussian", LINK_OVERFLOW),
    (("channels", "classical", 0, "launch_power_dbm"), 2000, "gaussian", LINK_OVERFLOW),
    (("raman", "scale"), 1e308, "gaussian", LINK_OVERFLOW),
    (("raman", "temperature_k"), 1e308, "gaussian", LINK_OVERFLOW),
    (("detector", "afterpulse_decay_s"), 1e308, "gaussian", LINK_OVERFLOW),
    (("channels", "classical", 0, "launch_power_dbm"), 3080, "gaussian", LINK_OVERFLOW),
    (("channels", "rx_filter", "fwhm_nm"), 1e200, "flat", LINK_OVERFLOW),
    (("channels", "rx_filter", "fwhm_nm"), 1e308, "flat", LINK_OVERFLOW),
    (("channels", "rx_filter", "fwhm_nm"), 1e200, "gaussian", LINK_OVERFLOW),
    (("channels", "rx_filter", "fwhm_nm"), 1e307, "gaussian", LINK_OVERFLOW),
    (("run", "duration_s"), 1e12, "gaussian", "run.duration_s: 1000000000000.0 s holds more"),
    (("run", "duration_s"), 1e308, "gaussian", "run.duration_s: 1e+308 s holds more"),
]


@pytest.mark.parametrize(
    "path, value, shape, field",
    ABSURD_MAGNITUDES,
    ids=[f"{'.'.join(map(str, path))}={value!r}-{shape}" for path, value, shape, _ in ABSURD_MAGNITUDES],
)
def test_absurd_magnitude_exits_config_from_run(tmp_path, capsys, path, value, shape, field):
    raw = bundled_scenario("pon-us-1")
    raw["channels"]["rx_filter"]["shape"] = shape
    raw["run"]["duration_s"] = 0.05
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    config = write_config(tmp_path, raw)
    assert main(["validate", "--config", config]) == EXIT_OK
    # only a Monte Carlo run counts symbols
    modes = ["monte_carlo"] if path == ("run", "duration_s") else ["oracle", "monte_carlo"]
    for mode in modes:
        assert main(["run", "--config", config, "--mode", mode]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {field}")


# (path into pon-us-1, value, rx_filter shape): each passes validate and runs
# in oracle mode, drowned in Raman noise, but a Monte Carlo run would have to
# draw more clicks than numpy can count
ABSURD_RAMAN_RATES = [
    (("channels", "classical", 0, "launch_power_dbm"), 500, "gaussian"),
    (("channels", "rx_filter", "fwhm_nm"), 1e60, "flat"),
]


@pytest.mark.parametrize(
    "path, value, shape",
    ABSURD_RAMAN_RATES,
    ids=[f"{'.'.join(map(str, path))}={value!r}-{shape}" for path, value, shape in ABSURD_RAMAN_RATES],
)
def test_absurd_raman_rate_exits_config_from_monte_carlo_run(tmp_path, capsys, path, value, shape):
    raw = bundled_scenario("pon-us-1")
    raw["channels"]["rx_filter"]["shape"] = shape
    raw["run"]["duration_s"] = 0.05
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    config = write_config(tmp_path, raw)
    assert main(["validate", "--config", config]) == EXIT_OK
    capsys.readouterr()
    assert main(["run", "--config", config, "--mode", "oracle"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["qber"]["qber"] == 0.5
    assert main(["run", "--config", config, "--mode", "monte_carlo"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: link: up to") and "more than a Monte Carlo run" in err


def test_link_with_no_clicks_scores_qber_zero_in_both_modes(tmp_path, capsys):
    raw = bundled_scenario("pon-baseline")
    raw["detector"].update(efficiency=0.0, dark_rate_hz=0.0)
    path = write_config(tmp_path, raw)
    for mode in ("oracle", "monte_carlo"):
        assert main(["run", "--config", path, "--mode", mode, "--duration", "1"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["qber"]["sifted_bits"] == 0
        assert payload["qber"]["qber"] == 0.0
        assert payload["keyrate"]["secure_rate"] == 0.0


@pytest.mark.parametrize(
    "argv, field",
    [
        (["run", "--config", "pon-baseline", "--mode", "monte_carlo", "--duration", "inf"],
         "run.duration_s"),
        (["run", "--config", "pon-baseline", "--mode", "monte_carlo", "--duration", "nan"],
         "run.duration_s"),
        (["sweep", "--config", "odn-split-sweep", "--duration", "inf"], "run.duration_s"),
        (["sweep", "--config", "odn-split-sweep", "--values", "4,nan"], "sweep.values"),
        (["sweep", "--config", "odn-split-sweep", "--values", "inf"], "sweep.values"),
        (["sweep", "--config", "odn-split-sweep", "--values", "2.5"], "whole numbers"),
        (["sweep", "--config", "odn-upstream-sweep", "--values", "1.5"], "whole numbers"),
        (["sweep", "--config", "odn-upstream-sweep", "--values=-1,1"], "upstream channels"),
        (["sweep", "--config", "odn-split-sweep", "--values", "abc"], "--values: could not parse"),
        (["sweep", "--config", "odn-split-sweep", "--values", ","], "--values: expected at least"),
        (["sweep", "--config", "odn-split-sweep", "--values", ""], "--values: expected at least"),
        # a flag sets its key of the sweep section, which the parser reads whole
        (["sweep", "--config", "pon-baseline", "--axis", "topology.reach_km"], "sweep.values"),
        # a plant axis on an attenuator link would sweep nothing
        (["sweep", "--config", "b2b-budget-sweep", "--axis", "topology.reach_km",
          "--values", "5,25"], "reach_km applies to odn topologies only"),
        (["sweep", "--config", "b2b-budget-sweep", "--axis", "topology.splitter.port_count",
          "--values", "4,16"], "port_count applies to odn topologies only"),
    ],
)
def test_non_finite_or_fractional_flags_exit_config(capsys, argv, field):
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err


def test_missing_config_path_exits_config(capsys):
    assert main(["run", "--config", "/no/such/file.json"]) == EXIT_CONFIG
    assert "neither a bundled scenario nor a readable file" in capsys.readouterr().err


def test_invalid_json_exits_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert "invalid JSON" in capsys.readouterr().err


UNREADABLE = [
    # json.load raises ValueError for an integer literal of over 4300 digits
    ("long-integer", "integer", "invalid JSON"),
    ("utf-16-bytes", "bytes", "not UTF-8 text"),
    ("directory", "directory", "neither a bundled scenario nor a readable file"),
    ("deep-nesting", "nesting", "invalid JSON (nested too deeply)"),
]


@pytest.mark.parametrize(
    "kind, message", [row[1:] for row in UNREADABLE], ids=[row[0] for row in UNREADABLE]
)
@pytest.mark.parametrize("verb", ["validate", "run", "sweep"])
def test_unreadable_config_file_exits_config_from_every_verb(tmp_path, capsys, verb, kind, message):
    path = tmp_path / "config.json"
    if kind == "integer":
        text = json.dumps(bundled_scenario("odn-split-sweep"))
        path.write_text(text.replace('"port_count": 16', '"port_count": 1' + "0" * 5000))
        assert "0" * 5000 in path.read_text()
    elif kind == "bytes":
        path.write_bytes(json.dumps(bundled_scenario("odn-split-sweep")).encode("utf-16"))
    elif kind == "directory":
        path.mkdir()
    else:
        path.write_text("[" * 100_000 + "]" * 100_000)
    assert main([verb, "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: --config:") and message in err


def test_sweep_explicit_axis_and_values(capsys):
    rc = main(
        [
            "sweep",
            "--config",
            "pon-baseline",
            "--axis",
            "topology.reach_km",
            "--values",
            "14,16,18",
        ]
    )
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "axis_value,path_loss_db,raman_counts_s,dark_counts_s,raw_rate_bs,qber,secure_rate_bs,secure_bits_per_pulse"
    assert len(lines) == 4
    assert [line.split(",")[0] for line in lines[1:]] == ["14", "16", "18"]


def test_sweep_needs_axis_or_sweep_section(capsys):
    assert main(["sweep", "--config", "pon-baseline"]) == EXIT_CONFIG
    assert "provide --axis and --values" in capsys.readouterr().err


def test_sweep_bundled_sweep_section_json(capsys):
    assert main(["sweep", "--config", "odn-split-sweep", "--format", "json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert [row["axis_value"] for row in rows] == [2, 4, 8, 16, 32]
    noise = [row["raman_counts_s"] for row in rows]
    assert all(a > b for a, b in zip(noise, noise[1:]))


def test_calibrate_writes_fitted_config(tmp_path, capsys):
    raw = bundled_scenario("pon-us-1")
    raw["raman"]["scale"] = 1.0
    config_path = write_config(tmp_path, raw)
    fitted_path = tmp_path / "fitted.json"
    rc = main(
        [
            "calibrate",
            "--config",
            config_path,
            "--param",
            "raman.scale",
            "--observable",
            "raman_total",
            "--target",
            "360",
            "--out",
            str(fitted_path),
        ]
    )
    assert rc == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["parameter"] == "raman.scale"
    assert summary["value"] == pytest.approx(CAL_RAMAN_SCALE, rel=1e-6)
    fitted = json.loads(fitted_path.read_text())
    assert fitted["raman"]["scale"] == summary["value"]
    assert main(["validate", "--config", str(fitted_path)]) == EXIT_OK


@pytest.mark.parametrize("target", ["nan", "inf", "1e400"])
def test_calibrate_non_finite_target_exits_config(capsys, target):
    argv = ["--param", "raman.scale", "--observable", "raman_total", "--target", target]
    assert main(["calibrate", "--config", "pon-us-1", *argv]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: target: expected a finite number")


def test_calibrate_unreachable_target_exits_calibration(capsys):
    rc = main(
        [
            "calibrate",
            "--config",
            "pon-baseline",
            "--param",
            "transmitter.visibility",
            "--observable",
            "qber",
            "--target",
            "0.9",
        ]
    )
    assert rc == EXIT_CALIBRATION
    assert capsys.readouterr().err.startswith("calibration error:")


@pytest.mark.parametrize(
    "raw, field",
    [
        ({**bundled_scenario("pon-us-1"), "raman": [1]}, "raman: expected an object"),
        ([1], "configuration must be a JSON object"),
    ],
    ids=["section-not-object", "config-not-object"],
)
def test_calibrate_malformed_config_exits_config(tmp_path, capsys, raw, field):
    argv = ["--param", "raman.scale", "--observable", "raman_total", "--target", "360"]
    assert main(["calibrate", "--config", write_config(tmp_path, raw), *argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err


# sha256 over what the command line prints for `run --format csv` on every
# bundled scenario, `sweep --format json` right after each bundled sweep's
# row, a 0.2 s Monte Carlo `run --format csv` of pon-baseline, and the
# pon-us-1 Raman calibration: its summary, then the bytes of its --out file;
# with BUNDLED_OUTPUT_PIN in test_runner, every output format is pinned
CLI_FORMAT_PIN = "f0561223893cb6947c8382f7588cabeaaabc9508192a9b18ef38e9a7a1555ce3"


def test_cli_output_formats_are_pinned(tmp_path, capsys):
    digest = hashlib.sha256()

    def printed(*argv):
        assert main(list(argv)) == EXIT_OK
        digest.update(capsys.readouterr().out.encode())

    for name in bundled_names():
        printed("run", "--config", name, "--format", "csv")
        if "sweep" in bundled_scenario(name):
            printed("sweep", "--config", name, "--format", "json")
    printed("run", "--config", "pon-baseline", "--mode", "monte_carlo", "--duration", "0.2",
            "--format", "csv")
    fitted = tmp_path / "fitted.json"
    printed("calibrate", "--config", "pon-us-1", "--param", "raman.scale", "--observable",
            "raman_total", "--target", "360", "--out", str(fitted))
    digest.update(fitted.read_bytes())
    assert digest.hexdigest() == CLI_FORMAT_PIN
