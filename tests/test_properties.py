"""Property tests: what ``validate`` accepts, ``run`` and ``sweep`` complete;
the time order agrees with a stable argsort, the dead-time pass with the
plain event-by-event loop, the Raman sum with the plain per-channel loop, and
the plant check with the rule that looks up the shortest and longest pump
only."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ponqkd import runner  # noqa: E402
from ponqkd.montecarlo import _time_order, simulate_timetags  # noqa: E402
from ponqkd.errors import ConfigError, ShiftRangeError, WavelengthRangeError  # noqa: E402
from ponqkd.raman import ChannelPlan, WavelengthChannel, default_raman_profile  # noqa: E402
from ponqkd.raman import odn_noise_at_bob, raman_coefficient  # noqa: E402
from ponqkd.runner import run_scenario, run_sweep, sweep_rows  # noqa: E402
from ponqkd.scenario import SWEEP_AXES, parse_scenario  # noqa: E402
from ponqkd.scenarios import bundled_names, bundled_scenario  # noqa: E402
from ponqkd.topology import (  # noqa: E402
    FilterProfile,
    OdnTopology,
    attenuation_at,
    gaussian_transmission_table,
)
from test_dpslink import assert_pass_matches_reference  # noqa: E402
from test_raman import (  # noqa: E402
    NARROW_PROFILE,
    NARROW_TOPOLOGY,
    noise_or_error,
    reference_odn_noise_at_bob,
)
from test_scenario import sweep_point_and_parse  # noqa: E402

# a little beyond the 1260-1625 nm plant window, so rejections get exercised
wavelengths = st.floats(min_value=1200.0, max_value=1700.0, allow_nan=False)
channels = st.lists(
    st.tuples(wavelengths, st.sampled_from(["upstream", "downstream"])), max_size=4
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(quantum_nm=wavelengths, classical=channels)
def test_validated_odn_config_completes_oracle_run(quantum_nm, classical):
    raw = bundled_scenario("pon-us-1")
    raw["channels"]["quantum_center_nm"] = quantum_nm
    raw["channels"]["rx_filter"]["center_nm"] = quantum_nm  # the filter follows the channel
    raw["channels"]["classical"] = [
        {"center_nm": nm, "launch_power_dbm": 2.5, "direction": direction}
        for nm, direction in classical
    ]
    try:
        scn = parse_scenario(raw)
    except ConfigError:
        return
    res = run_scenario(scn, mode="oracle")
    assert math.isfinite(res.raman.total_at_receiver)
    assert math.isfinite(res.qber_report.qber)


# not finite at all or out of range, so rejections get exercised
bad_entries = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0])


@st.composite
def plant_configs(draw):
    """``pon-us-1`` or ``pon-ds-lcw`` with the plant and filter redrawn.

    Each number now and then leaves its accepted range or is not finite.
    The fibre table has one to six points and usually spans the 1260-1625
    nm window the bundled channels need; the filter is flat or gaussian.
    """

    def number(good):
        return draw(bad_entries) if draw(st.integers(0, 9)) == 0 else draw(good)

    raw = bundled_scenario(draw(st.sampled_from(["pon-us-1", "pon-ds-lcw"])))
    topology = raw["topology"]
    topology.update(
        feeder_down_km=number(st.floats(0.0, 100.0)),
        feeder_up_km=number(st.floats(0.0, 100.0)),
        drop_km=number(st.floats(0.0, 20.0)),
        port_count=draw(st.sampled_from([1, 2, 16, 64, 1024, 3])),
        excess_loss_db=number(st.floats(0.0, 10.0)),
        directivity_db=number(st.floats(0.0, 80.0)),
    )
    if draw(st.booleans()):
        nms = draw(st.lists(st.floats(1200.0, 1700.0), min_size=1, max_size=4))
        if draw(st.integers(0, 3)):
            nms += [1260.0, 1625.0]
        nms.sort(reverse=draw(st.integers(0, 15)) == 0)
        topology["attenuation_db_per_km"] = [[nm, number(st.floats(0.01, 2.0))] for nm in nms]
    center = draw(st.floats(1250.0, 1700.0))
    rx_filter = {
        "shape": draw(st.sampled_from(["gaussian", "flat"])),
        "center_nm": center,
        "fwhm_nm": number(st.floats(0.01, 20.0)),
        "insertion_loss_db": number(st.floats(0.0, 30.0)),
    }
    raw["channels"]["rx_filter"] = rx_filter
    return raw


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(raw=plant_configs())
def test_validated_plant_and_filter_complete_oracle_run(raw):
    try:
        scn = parse_scenario(raw)
    except ConfigError:
        return
    res = run_scenario(scn, mode="oracle")
    assert math.isfinite(res.raman.total_at_receiver)
    assert math.isfinite(res.qber_report.qber)


@st.composite
def time_arrays(draw):
    """Times for ``_time_order``, each drawn from one of five families.

    Exact ties from a few values; neighbouring doubles that share their top
    bits, so their sort keys tie; subnormals; +0.0, -0.0 and the smallest
    subnormal; any non-negative double.  Now and then two NaNs.  Lengths 0, 1,
    a power of two, one past it, or anything up to 300.
    """
    k = draw(st.integers(0, 10))
    n = draw(st.sampled_from([0, 1, 2**k, 2**k + 1]) | st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = np.float64(draw(st.floats(0.0, 1e6)))
    spread = np.uint64(1) << np.uint64(draw(st.integers(0, 16)))
    families = [
        rng.choice(rng.random(draw(st.integers(1, 4))) * base, size=n),
        (base.view(np.uint64) + rng.integers(0, spread, size=n, dtype=np.uint64)).view(np.float64),
        rng.integers(0, 1 << 52, size=n, dtype=np.uint64).view(np.float64),
        rng.choice(np.array([0.0, -0.0, 5e-324]), size=n),
        rng.random(n) * base,
    ]
    weights = np.array(draw(st.lists(st.integers(0, 3), min_size=5, max_size=5))) + 1e-9
    pick = rng.choice(len(families), size=n, p=weights / weights.sum())
    times = np.choose(pick, families)
    if n and draw(st.integers(0, 9)) == 0:
        # NaNs of three payloads: argsort puts them all last, in index order
        nans = np.array([0x7FF8000000000000, 0x7FF0000000000001, 0x7FF8000000000123], np.uint64)
        times[rng.integers(0, n, size=2)] = rng.choice(nans.view(np.float64), size=2)
    return times


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(times=time_arrays())
def test_time_order_is_the_stable_argsort(times):
    index = np.arange(len(times))
    labels = (index % 7).astype(np.uint8)
    ordered, got_index, got_labels = _time_order(times, index, labels)
    want = np.argsort(times, kind="stable")
    # bit patterns, so -0.0 against +0.0 and NaN count as written
    assert np.array_equal(ordered.view(np.uint64), times[want].view(np.uint64))
    assert np.array_equal(got_index, want)
    assert np.array_equal(got_labels, labels[want])


@st.composite
def pass_inputs(draw):
    """Dead-time pass inputs on the binary time grid of ``tie_case``.

    From sparse runs with no cluster at all to one cluster over the whole
    run; one port, either port alone, or both; no afterpulses up to every
    primary firing; a dead time of zero up to 64 ticks.
    """
    tick = 2.0**-20
    n = draw(st.integers(0, 600))
    span = draw(st.integers(1, 40000))
    dead_ticks = draw(st.integers(0, 64))
    port_one_share = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    fire_share = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    max_delay = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = np.sort(rng.integers(0, span, size=n)) * tick
    ports = (rng.random(n) < port_one_share).astype(np.uint8)
    origins = rng.integers(0, 3, size=n, dtype=np.uint8)
    fires = rng.random(n) < fire_share
    delays = rng.integers(0, max_delay, size=int(fires.sum())) * tick
    return times, ports, origins, fires, delays, dead_ticks * tick, span * tick


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(args=pass_inputs())
def test_dead_time_pass_matches_reference_on_random_inputs(args):
    assert_pass_matches_reference(*args)


@st.composite
def mc_configs(draw):
    """A bundled link with detector, source and gate fields redrawn.

    Some draws leave the accepted range (efficiency above 1, zero decay or
    photon number, a negative budget), so rejections get exercised too.
    """
    name = draw(st.sampled_from(["pon-baseline", "pon-us-20", "b2b-budget-sweep"]))
    raw = bundled_scenario(name)
    raw.pop("sweep", None)
    if raw["topology"].get("kind") == "attenuator":
        raw["topology"]["budget_db"] = draw(st.floats(-1.0, 40.0))
    raw["detector"].update(
        efficiency=draw(st.floats(0.0, 1.2)),
        dark_rate_hz=draw(st.floats(0.0, 1e5)),
        dead_time_s=draw(st.floats(0.0, 1e-4)),
        afterpulse_probability=draw(st.floats(0.0, 1.0)),
        afterpulse_decay_s=draw(st.floats(0.0, 2e-5)),
        afterpulse_memory_s=draw(st.floats(0.0, 1e-3)),
        monitored_ports=draw(st.sampled_from(["one", "both"])),
    )
    raw["transmitter"].update(
        mean_photon_number=draw(st.floats(0.0, 0.5)),
        visibility=draw(st.floats(0.5, 1.0)),
    )
    raw["gate"].update(
        gate_fraction=draw(st.floats(0.05, 1.0)),
        slot_phase_s=draw(st.sampled_from([0.0, "auto"])),
    )
    return raw


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(raw=mc_configs())
def test_validated_config_completes_monte_carlo_run(raw):
    try:
        scn = parse_scenario(raw)
    except ConfigError:
        return
    streams = []

    def keep(*args, **kwargs):
        streams.append(simulate_timetags(*args, **kwargs))
        return streams[-1]

    with mock.patch.object(runner, "simulate_timetags", keep):
        res = run_scenario(scn, mode="monte_carlo", duration_s=0.02)
    assert math.isfinite(res.qber_report.qber)
    oracle = run_scenario(scn, mode="oracle")
    assert math.isfinite(oracle.qber_report.qber)
    assert math.isfinite(oracle.keyrate_report.secure_rate)
    (stream,) = streams
    times = stream.times_s
    assert np.all((times >= 0.0) & (times <= stream.duration_s))
    dead_time_s = scn.detector.dead_time_s
    for port in (0, 1):
        on_port = times[stream.ports == port]
        # the simulator's own rule: a click at or after the last one plus tau
        assert np.all(on_port[1:] >= on_port[:-1] + dead_time_s)


IN_RANGE = {
    "topology.budget_db": st.floats(0.0, 40.0),
    "topology.reach_km": st.floats(1.0, 40.0),
    "topology.splitter.port_count": st.sampled_from([1, 2, 8, 32, 1024]),
    "channels.upstream_count": st.integers(0, 20),
}
# zero, negatives, a fraction for the counting axes, a split or channel count
# past any plant and a magnitude past any float product
OFF_RANGE = st.sampled_from([0, -3, -0.5, 2.5, 2**40, 1e308])


@st.composite
def sweeps(draw):
    """A bundled scenario in either mode, any sweep axis and one to three values."""
    axis = draw(st.sampled_from(SWEEP_AXES))
    names = st.sampled_from(bundled_names())
    if axis == "topology.budget_db":  # which only the one attenuator link takes
        names = st.just("b2b-budget-sweep") | names
    raw = bundled_scenario(draw(names))
    raw["run"].update(mode=draw(st.sampled_from(["oracle", "monte_carlo"])), duration_s=0.02)
    values = draw(st.lists(IN_RANGE[axis] | OFF_RANGE, min_size=1, max_size=3))
    return raw, axis, values


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=sweeps())
def test_sweep_completes_or_exits_config(case):
    raw, axis, values = case
    raw["sweep"] = {"axis": axis, "values": values}
    scn = parse_scenario(raw)
    try:
        rows = sweep_rows(values, run_sweep(scn))
    except ConfigError:
        return
    assert len(rows) == len(values)
    for row in rows:
        assert math.isfinite(row["qber"]) and math.isfinite(row["secure_rate_bs"])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=sweeps())
def test_sweep_point_equals_parsed_point(case):
    raw, axis, values = case
    for value in values:
        built, parsed = sweep_point_and_parse(raw, axis, value)
        assert built == parsed


# every classical channel the plant window allows, as the Raman sum sees it
classical_channels = st.builds(
    WavelengthChannel,
    center_nm=st.floats(min_value=1260.0, max_value=1625.0),
    launch_power_dbm=st.floats(min_value=-30.0, max_value=20.0),
    direction=st.sampled_from(["upstream", "downstream"]),
)


@st.composite
def rx_filters(draw):
    """A flat or a tabulated gaussian receiver filter around 1310 nm."""
    fwhm = draw(st.floats(min_value=0.05, max_value=20.0))
    loss = draw(st.floats(min_value=0.0, max_value=6.0))
    table = gaussian_transmission_table(1310.0, fwhm) if draw(st.booleans()) else None
    return FilterProfile(1310.0, fwhm, insertion_loss_db=loss, transmission_db=table)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    channels=st.lists(classical_channels, max_size=12),
    rx_filter=rx_filters(),
    scale=st.floats(min_value=0.0, max_value=1e-3),
)
def test_raman_sum_equals_the_per_channel_loop(channels, rx_filter, scale):
    plan = ChannelPlan(tuple(channels))
    profile = dataclasses.replace(default_raman_profile(), scale=scale)
    args = (plan, OdnTopology(), rx_filter, profile)
    assert odn_noise_at_bob(*args) == reference_odn_noise_at_bob(*args)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    channels=st.lists(classical_channels, min_size=1, max_size=8),
    data=st.data(),
)
def test_raman_sum_raises_what_the_per_channel_loop_raises(channels, data):
    # the narrow tables leave channels outside the plant table (below 1270
    # nm), the Raman profile (beyond about 1613 nm) or both (beyond 1615 nm);
    # the first such channel in plan order decides the error
    bad_nm = data.draw(st.sampled_from([1262.0, 1614.0, 1620.0]))
    channels.insert(data.draw(st.integers(0, len(channels))), WavelengthChannel(bad_nm))
    args = (ChannelPlan(tuple(channels)), NARROW_TOPOLOGY, FilterProfile(), NARROW_PROFILE)
    got = noise_or_error(odn_noise_at_bob, *args)
    assert isinstance(got, tuple) and got[0] in (ShiftRangeError, WavelengthRangeError)
    assert got == noise_or_error(reference_odn_noise_at_bob, *args)


def extreme_pump_rule(quantum_nm, pumps):
    """Whether a plan passes on the narrow plant table and the default Raman
    profile by the shortest and longest pump.

    Both tables span one interval and the shift falls as the pump
    wavelength grows, so those two pumps stand for all of them.
    """
    ends = (min(pumps), max(pumps)) if pumps else ()
    try:
        for nm in (quantum_nm, *ends):
            attenuation_at(NARROW_TOPOLOGY, nm)
        for nm in ends:
            raman_coefficient(default_raman_profile(), nm, quantum_nm)
    except (ShiftRangeError, WavelengthRangeError):
        return False
    return True


# the channel window, and a little past the narrow plant table at each end;
# the default profile's ±45 THz hull leaves out a pump far enough from the
# quantum channel at either end of the window
window_nm = st.floats(1260.0, 1625.0) | st.sampled_from([1260.0, 1269.9, 1270.0, 1615.0, 1615.1])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(quantum_nm=window_nm, pumps=st.lists(window_nm, max_size=5))
def test_plant_check_gives_the_extreme_pump_verdict(quantum_nm, pumps):
    raw = bundled_scenario("pon-us-1")
    table = NARROW_TOPOLOGY.attenuation_db_per_km
    raw["topology"]["attenuation_db_per_km"] = [list(row) for row in table]
    raw["channels"]["quantum_center_nm"] = quantum_nm
    raw["channels"]["rx_filter"]["center_nm"] = quantum_nm  # the filter follows the channel
    raw["channels"]["classical"] = [
        {"center_nm": nm, "launch_power_dbm": 2.5, "direction": "upstream"} for nm in pumps
    ]
    try:
        parse_scenario(raw)
    except ConfigError as exc:
        assert not extreme_pump_rule(quantum_nm, pumps)
        assert [message.split(":")[0] for message in exc.errors] == ["channels"]
    else:
        assert extreme_pump_rule(quantum_nm, pumps)
