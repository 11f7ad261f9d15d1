"""Plant model: attenuation tables, splitter, filters, loss budgets."""

import math
import struct

import numpy as np
import pytest

from ponqkd.errors import PathElementError, WavelengthRangeError
from ponqkd.topology import (
    UPSTREAM_QUANTUM_PATH,
    FilterProfile,
    OdnTopology,
    Splitter,
    attenuation_at,
    equivalent_noise_bandwidth_nm,
    gaussian_transmission_table,
    interp,
    path_loss_db,
)
from ponqkd.runner import run_scenario, run_sweep
from ponqkd.scenario import parse_scenario
from ponqkd.scenarios import bundled_scenario


def test_attenuation_at_anchor_points():
    plant = OdnTopology()
    assert attenuation_at(plant, 1260.0) == 0.42
    assert attenuation_at(plant, 1310.0) == 0.37
    assert attenuation_at(plant, 1550.0) == 0.21
    assert attenuation_at(plant, 1625.0) == 0.24


def test_attenuation_interpolates_linearly():
    plant = OdnTopology()
    # midpoint of the 1310-1550 segment
    assert attenuation_at(plant, 1430.0) == pytest.approx(0.29, abs=1e-12)


def test_attenuation_outside_hull_raises():
    plant = OdnTopology()
    with pytest.raises(WavelengthRangeError):
        attenuation_at(plant, 1259.9)
    with pytest.raises(WavelengthRangeError):
        attenuation_at(plant, 1625.1)
    # a one-point table is a hull of one wavelength
    single = OdnTopology(attenuation_db_per_km=((1310.0, 0.37),))
    assert attenuation_at(single, 1310.0) == 0.37
    with pytest.raises(WavelengthRangeError):
        attenuation_at(single, 1310.1)


def test_interp_matches_numpy_bit_for_bit():
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    finite = st.floats(allow_nan=False, allow_infinity=False)

    @st.composite
    def table_and_points(draw):
        xs = sorted(draw(st.lists(finite, min_size=1, max_size=100, unique=True)))
        ys = draw(st.lists(finite, min_size=len(xs), max_size=len(xs)))
        inside = st.floats(min_value=xs[0], max_value=xs[-1])
        points = draw(st.lists(inside | st.sampled_from(xs), max_size=20))
        return xs, ys, [xs[0], xs[-1], *points]

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(table_and_points())
    # spans past the largest float: a zero slope times an infinite offset,
    # which numpy retries from the right-hand node, and an infinite slope
    @example(([-1e308, 1e308], [1.0, 2.0], [0.9e308, -0.9e308]))
    @example(([-1e308, 1e308], [-1e308, 1e308], [0.9e308]))
    def check(case):
        xs, ys, points = case
        for x in points:
            got, want = interp(x, tuple(xs), tuple(ys)), float(np.interp(x, xs, ys))
            assert struct.pack("<d", got) == struct.pack("<d", want), (x, got, want)

    check()


def test_span_loss_is_length_times_attenuation():
    plant = OdnTopology(feeder_up_km=16.0)
    assert plant.element_loss_db("feeder_up", 1310.0) == pytest.approx(5.92, abs=1e-12)


def test_span_validation():
    with pytest.raises(ValueError):
        OdnTopology(drop_km=-1.0)
    with pytest.raises(ValueError):
        OdnTopology(attenuation_db_per_km=((1550.0, 0.21), (1310.0, 0.37)))
    with pytest.raises(ValueError):
        OdnTopology(attenuation_db_per_km=((1310.0, 0.0),))


@pytest.mark.parametrize("entry", [True, "0.42"])
def test_table_entries_follow_the_number_rule_when_built_directly(entry):
    def build(entry):  # a valid table with ``entry`` in one place; a number there would pass
        return OdnTopology(attenuation_db_per_km=((1260.0, entry), (1625.0, 0.24)))

    build(0.42)
    with pytest.raises(ValueError, match="^attenuation_db_per_km: expected a list of"):
        build(entry)


def test_splitter_port_count_must_fit_in_a_float():
    assert Splitter(port_count=2**1023).loss_db == pytest.approx(1023 * 10.0 * math.log10(2.0))
    with pytest.raises(ValueError, match="^port_count: must fit in a float"):
        Splitter(port_count=2**1024)


def test_splitter_loss():
    assert Splitter(port_count=16).loss_db == pytest.approx(10.0 * math.log10(16.0))
    assert Splitter(port_count=8, excess_loss_db=0.5).loss_db == pytest.approx(
        10.0 * math.log10(8.0) + 0.5
    )


def test_splitter_rejects_non_power_of_two():
    for bad in (0, 3, 12, -4):
        with pytest.raises(ValueError):
            Splitter(port_count=bad)


def test_flat_filter_enb_equals_fwhm():
    assert equivalent_noise_bandwidth_nm(FilterProfile(center_nm=1310.0, fwhm_nm=1.22)) == 1.22


def test_gaussian_table_enb_matches_analytic():
    # analytic gaussian ENB: fwhm/2 * sqrt(pi/ln 2)
    table = gaussian_transmission_table(1310.0, 1.22)
    enb = equivalent_noise_bandwidth_nm(FilterProfile(1310.0, 1.22, transmission_db=table))
    assert enb == pytest.approx(1.298649763706096, rel=1e-3)


def test_gaussian_table_enb_scales_exactly_with_fwhm():
    ratio = 10.0**1.19
    narrow = gaussian_transmission_table(1310.0, 1.22)
    wide = gaussian_transmission_table(1310.0, 1.22 * ratio)
    enb_n = equivalent_noise_bandwidth_nm(FilterProfile(1310.0, 1.22, transmission_db=narrow))
    enb_w = equivalent_noise_bandwidth_nm(
        FilterProfile(1310.0, 1.22 * ratio, transmission_db=wide)
    )
    assert enb_w / enb_n == pytest.approx(ratio, rel=1e-12)


def test_filter_noise_bandwidth_is_computed_once(monkeypatch):
    calls = []
    trapezoid = np.trapezoid

    def counting(*args, **kwargs):
        calls.append(args)
        return trapezoid(*args, **kwargs)

    monkeypatch.setattr(np, "trapezoid", counting)
    raw = bundled_scenario("odn-reach-sweep")
    scn = parse_scenario(raw)
    assert scn.rx_filter.transmission_db is not None
    for _ in range(3):
        run_scenario(scn)
    run_sweep(scn)  # every point shares the parsed filter
    assert len(calls) == 1
    assert equivalent_noise_bandwidth_nm(scn.rx_filter) == pytest.approx(1.22 * 1.0645, rel=1e-3)


def test_filter_passband_edges():
    flat = FilterProfile(center_nm=1310.0, fwhm_nm=1.0)
    assert flat.in_passband(1310.5) and flat.in_passband(1309.5)
    assert not flat.in_passband(1310.5 + 1e-9) and not flat.in_passband(1309.5 - 1e-9)
    # a table passes down to 3 dB below its peak, here +1 dB, and nothing past its ends
    table = ((1309.0, -5.0), (1310.0, 1.0), (1311.0, -2.0), (1312.0, -2.0))
    tabulated = FilterProfile(center_nm=1310.0, fwhm_nm=1.0, transmission_db=table)
    assert tabulated.in_passband(1309.5)  # -2 dB interpolated, 3 below the peak
    assert not tabulated.in_passband(1309.5 - 1e-9) and tabulated.in_passband(1312.0)
    assert not tabulated.in_passband(1308.999) and not tabulated.in_passband(1312.001)
    # the gaussian's half-power points sit 3.01 dB down, a hair outside
    gaussian = FilterProfile(1310.0, 1.0, transmission_db=gaussian_transmission_table(1310.0, 1.0))
    assert gaussian.in_passband(1310.49) and not gaussian.in_passband(1310.5)


def test_path_loss_matches_reference_plant():
    topo = OdnTopology()
    # 0.37 + 12.04 + 15.1 * 0.37 for the 2:16 plant
    assert path_loss_db(topo, 1310.0) == pytest.approx(17.998199826559247, rel=1e-12)
    assert path_loss_db(topo, 1310.0) == pytest.approx(18.0, abs=0.05)


def test_path_loss_is_additive():
    topo = OdnTopology()
    total = path_loss_db(topo, 1310.0)
    parts = sum(topo.element_loss_db(name, 1310.0) for name in UPSTREAM_QUANTUM_PATH)
    assert abs(total - parts) <= 1e-9


def test_unknown_path_element_raises():
    topo = OdnTopology()
    with pytest.raises(PathElementError):
        topo.element_loss_db("amplifier", 1310.0)


def test_missing_filter_element_raises():
    # filter insertion losses live in the receiver excess loss, not the path
    topo = OdnTopology()
    with pytest.raises(PathElementError):
        topo.element_loss_db("onu_filter", 1310.0)


def test_default_odn_geometry():
    topo = OdnTopology()
    assert topo.feeder_down_km == 13.2
    assert topo.feeder_up_km == 15.1
    assert topo.drop_km == 1.0
    assert topo.splitter.port_count == 16
    assert topo.splitter.directivity_db == 55.0
