"""Raman crosstalk: profile, conversion geometry, plant composition.

Frozen values were derived with a standalone composition of the same
physics (closed-form span integrals, tabulated coefficient interpolation,
photon-energy conversion) outside the package.
"""

import dataclasses
import math

import pytest

from ponqkd.errors import ShiftRangeError, WavelengthRangeError
from ponqkd.raman import (
    _C_M_PER_S,
    _H_J_S,
    C_NM_THZ,
    ChannelPlan,
    RamanContribution,
    RamanProfile,
    WavelengthChannel,
    backward_conversion_km,
    default_raman_profile,
    equivalent_dwdm_power_dbm,
    filter_noise_rejection_db,
    forward_conversion_km,
    frequency_thz,
    odn_noise_at_bob,
    raman_coefficient,
    thermal_occupation,
)
from ponqkd.topology import (
    NEPER_PER_DB,
    FilterProfile,
    OdnTopology,
    Splitter,
    attenuation_at,
    equivalent_noise_bandwidth_nm,
    gaussian_transmission_table,
)
from ponqkd.scenario import parse_scenario
from ponqkd.scenarios import bundled_names, bundled_scenario

ANCHOR_NM = C_NM_THZ / 193.9  # 1546.12 nm upstream transmitter


def reference_odn_noise_at_bob(plan, topology, rx_filter, profile):
    """``odn_noise_at_bob`` as a plain loop: both table lookups per channel, one at a time."""

    def transmission(loss_db):
        return 10.0 ** (-loss_db / 10.0)

    bandwidth = equivalent_noise_bandwidth_nm(rx_filter)
    rx_t = transmission(rx_filter.insertion_loss_db)
    quantum_nm = plan.quantum_center_nm
    quantum_db = attenuation_at(topology, quantum_nm)
    q = quantum_db * NEPER_PER_DB
    down_km, up_km, drop_km = topology.feeder_down_km, topology.feeder_up_km, topology.drop_km
    split_t = transmission(topology.splitter.loss_db)
    feeder_up_t = transmission(up_km * quantum_db)
    leak_t = transmission(topology.splitter.directivity_db)
    per_mw = 1e-3 / (_H_J_S * _C_M_PER_S / (quantum_nm * 1e-9))

    upstream = 0.0
    drops = 0.0
    leakage = 0.0
    for channel in plan.channels:
        pump_nm = channel.center_nm
        coeff = raman_coefficient(profile, pump_nm, quantum_nm)
        power = channel.launch_power_mw
        pump_db = attenuation_at(topology, pump_nm)
        a = pump_db * NEPER_PER_DB
        if channel.direction == "upstream":
            drop_part = power * coeff * bandwidth * forward_conversion_km(a, q, drop_km)
            pump_at_feeder = power * transmission(drop_km * pump_db) * split_t
            feeder_part = pump_at_feeder * coeff * bandwidth * forward_conversion_km(a, q, up_km)
            upstream += drop_part * per_mw * (split_t * feeder_up_t) + feeder_part * per_mw
        else:
            pump_at_drop = power * transmission(down_km * pump_db) * split_t
            per_drop = (
                pump_at_drop * coeff * bandwidth * backward_conversion_km(a, q, drop_km) * per_mw
            )
            drops += topology.splitter.port_count * per_drop * (split_t * feeder_up_t)
            leak = power * coeff * bandwidth * forward_conversion_km(a, q, down_km)
            leakage += leak * per_mw * leak_t * feeder_up_t
    return RamanContribution(upstream * rx_t, drops * rx_t, leakage * rx_t)


def noise_or_error(fn, *args):
    """What ``fn`` returns, or the type and text of the range error it raises."""
    try:
        return fn(*args)
    except (ShiftRangeError, WavelengthRangeError) as exc:
        return type(exc), str(exc)


# a plant table and a Raman profile narrower than the 1260-1625 nm window,
# so channels can fall outside either hull
NARROW_TOPOLOGY = OdnTopology(
    attenuation_db_per_km=((1270.0, 0.41), (1310.0, 0.37), (1550.0, 0.21), (1615.0, 0.24))
)
NARROW_PROFILE = RamanProfile(
    tuple(s for s in default_raman_profile().shifts_thz if abs(s) <= 43.0),
    tuple(
        c
        for s, c in zip(default_raman_profile().shifts_thz, default_raman_profile().coefficients)
        if abs(s) <= 43.0
    ),
)


def np_per_km(wavelength_nm):
    """Attenuation of the default fibre table in Np/km."""
    return attenuation_at(OdnTopology(), wavelength_nm) * NEPER_PER_DB


def test_channel_wavelength_range():
    WavelengthChannel(1260.0, 0.0, "downstream")
    WavelengthChannel(1625.0, 0.0, "upstream")
    with pytest.raises(ValueError):
        WavelengthChannel(1259.9, 0.0, "downstream")
    with pytest.raises(ValueError):
        WavelengthChannel(1625.1, 0.0, "downstream")
    with pytest.raises(ValueError):
        WavelengthChannel(1550.0, 0.0, "sideways")


def test_thermal_occupation_frozen():
    # Bose factor at the profile peak shift, room temperature
    assert thermal_occupation(13.2, 295.0) == pytest.approx(0.13222156689623124, rel=1e-12)


def test_thermal_occupation_needs_a_positive_shift():
    with pytest.raises(ValueError, match="positive shifts"):
        thermal_occupation(0.0)


@pytest.mark.parametrize("shift", [math.nan, math.inf])
def test_thermal_occupation_refuses_a_shift_that_is_not_finite_and_positive(shift):
    with pytest.raises(ValueError, match="positive shifts"):
        thermal_occupation(shift)


@pytest.mark.parametrize("temperature", [math.nan, math.inf, 0.0, -10.0])
def test_thermal_occupation_refuses_a_temperature_that_is_not_finite_and_positive(temperature):
    with pytest.raises(ValueError, match="positive temperatures"):
        thermal_occupation(13.2, temperature)


def test_thermal_occupation_decreases_with_shift():
    values = [thermal_occupation(s) for s in (1.0, 5.0, 13.2, 25.0, 40.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_anti_stokes_never_exceeds_stokes():
    profile = default_raman_profile()
    for shift in [s / 2.0 for s in range(2, 90)]:
        stokes = raman_coefficient(profile, 1400.0, C_NM_THZ / (frequency_thz(1400.0) - shift))
        anti = raman_coefficient(profile, 1400.0, C_NM_THZ / (frequency_thz(1400.0) + shift))
        assert anti <= stokes


def test_coefficient_shift_sign_convention():
    profile = default_raman_profile()
    # 1546 nm pump scattering into 1310 nm sits on the anti-Stokes side
    assert frequency_thz(ANCHOR_NM) - frequency_thz(1310.0) < 0.0
    assert raman_coefficient(profile, ANCHOR_NM, 1310.0) == pytest.approx(
        0.0001636879975534285, rel=1e-12
    )


def test_coefficient_outside_hull_raises():
    profile = default_raman_profile()
    with pytest.raises(ShiftRangeError):
        raman_coefficient(profile, 1625.0, 1260.0)  # ~53 THz separation


def test_profile_scaling():
    profile = default_raman_profile()
    doubled = dataclasses.replace(profile, scale=2.0 * profile.scale)
    assert raman_coefficient(doubled, ANCHOR_NM, 1310.0) == pytest.approx(
        2.0 * raman_coefficient(profile, ANCHOR_NM, 1310.0), rel=1e-12
    )


def test_forward_conversion_frozen():
    a, q = np_per_km(ANCHOR_NM), np_per_km(1310.0)
    assert forward_conversion_km(a, q, 16.0) == pytest.approx(
        5.547776883733019, rel=1e-12
    )


def test_backward_conversion_frozen():
    a, q = np_per_km(ANCHOR_NM), np_per_km(1310.0)
    assert backward_conversion_km(a, q, 16.0) == pytest.approx(
        6.583048752336385, rel=1e-12
    )


def test_forward_conversion_degenerate_limit():
    # equal attenuations collapse the integral to L e^(-a L)
    alpha = 0.30 * math.log(10.0) / 10.0
    assert forward_conversion_km(alpha, alpha, 12.0) == pytest.approx(
        12.0 * math.exp(-alpha * 12.0), rel=1e-12
    )


def test_backward_conversion_lossless_limit():
    # with no attenuation every kilometre counts in full
    assert backward_conversion_km(0.0, 0.0, 16.0) == 16.0


def test_backward_conversion_saturates():
    long = backward_conversion_km(np_per_km(ANCHOR_NM), np_per_km(1310.0), 400.0)
    s = (0.21258738868832733 + 0.37) * math.log(10.0) / 10.0
    assert long == pytest.approx(1.0 / s, rel=1e-9)


def test_upstream_composition_frozen():
    plan = ChannelPlan((WavelengthChannel(ANCHOR_NM, 2.5, "upstream"),))
    noise = odn_noise_at_bob(plan, OdnTopology(), FilterProfile(1310.0, 1.22), default_raman_profile())
    assert noise.upstream_copropagating == pytest.approx(811781359265.8605, rel=1e-12)
    assert noise.drop_backscatter == 0.0
    assert noise.feeder_leakage == 0.0


def test_downstream_composition_frozen():
    plan = ChannelPlan((WavelengthChannel(C_NM_THZ / 196.0, 2.5, "downstream"),))
    noise = odn_noise_at_bob(plan, OdnTopology(), FilterProfile(1310.0, 1.22), default_raman_profile())
    assert noise.drop_backscatter == pytest.approx(30344041212.753654, rel=1e-12)
    assert noise.feeder_leakage == pytest.approx(17501805.676037602, rel=1e-12)
    assert noise.upstream_copropagating == 0.0


def test_noise_linear_in_launch_power():
    topo = OdnTopology()
    flat = FilterProfile(1310.0, 1.22)
    prof = default_raman_profile()
    one = odn_noise_at_bob(
        ChannelPlan((WavelengthChannel(ANCHOR_NM, 0.0, "upstream"),)), topo, flat, prof
    )
    three_db = odn_noise_at_bob(
        ChannelPlan((WavelengthChannel(ANCHOR_NM, 3.0, "upstream"),)), topo, flat, prof
    )
    assert three_db.total_at_receiver / one.total_at_receiver == pytest.approx(
        10.0**0.3, rel=1e-12
    )


def test_upstream_noise_scales_inverse_with_split():
    flat = FilterProfile(1310.0, 1.22)
    prof = default_raman_profile()
    plan = ChannelPlan((WavelengthChannel(ANCHOR_NM, 2.5, "upstream"),))
    n16 = odn_noise_at_bob(plan, OdnTopology(splitter=Splitter(16)), flat, prof).total_at_receiver
    n32 = odn_noise_at_bob(plan, OdnTopology(splitter=Splitter(32)), flat, prof).total_at_receiver
    assert n16 / n32 == pytest.approx(2.0, rel=1e-12)


def test_drop_backscatter_sum_cancels_one_splitter_pass():
    # summed over N drops the backscatter keeps only one net 1/N pass
    flat = FilterProfile(1310.0, 1.22)
    prof = default_raman_profile()
    plan = ChannelPlan((WavelengthChannel(C_NM_THZ / 196.0, 2.5, "downstream"),))
    d16 = odn_noise_at_bob(plan, OdnTopology(splitter=Splitter(16)), flat, prof).drop_backscatter
    d32 = odn_noise_at_bob(plan, OdnTopology(splitter=Splitter(32)), flat, prof).drop_backscatter
    assert d16 / d32 == pytest.approx(2.0, rel=1e-12)


def test_feeder_leakage_follows_directivity():
    flat = FilterProfile(1310.0, 1.22)
    prof = default_raman_profile()
    plan = ChannelPlan((WavelengthChannel(C_NM_THZ / 196.0, 2.5, "downstream"),))
    weak = odn_noise_at_bob(
        plan, OdnTopology(splitter=Splitter(directivity_db=30.0)), flat, prof
    ).feeder_leakage
    strong = odn_noise_at_bob(
        plan, OdnTopology(splitter=Splitter(directivity_db=40.0)), flat, prof
    ).feeder_leakage
    assert weak / strong == pytest.approx(10.0, rel=1e-12)


WITH_CHANNELS = [n for n in bundled_names() if bundled_scenario(n)["channels"].get("classical")]


@pytest.mark.parametrize("name", WITH_CHANNELS)
def test_noise_equals_the_per_channel_loop_on_bundled_plans(name):
    scn = parse_scenario(bundled_scenario(name))
    args = (scn.plan, scn.topology, scn.rx_filter, scn.profile)
    assert odn_noise_at_bob(*args) == reference_odn_noise_at_bob(*args)


@pytest.mark.parametrize(
    "bad_nm, error",
    [
        (1265.0, WavelengthRangeError),  # below the plant table, shift inside the profile
        (1614.0, ShiftRangeError),  # inside the plant table, shift beyond 43 THz
        (1620.0, ShiftRangeError),  # outside both: the shift is looked up first
    ],
)
def test_out_of_hull_channel_raises_what_the_loop_raises(bad_nm, error):
    good = [WavelengthChannel(1550.0, 0.0, "upstream"), WavelengthChannel(1490.0, 0.0)]
    flat = FilterProfile(1310.0, 1.22)
    for at in range(len(good) + 1):
        channels = list(good)
        channels.insert(at, WavelengthChannel(bad_nm, 0.0, "downstream"))
        args = (ChannelPlan(tuple(channels)), NARROW_TOPOLOGY, flat, NARROW_PROFILE)
        got = noise_or_error(odn_noise_at_bob, *args)
        assert got[0] is error
        assert got == noise_or_error(reference_odn_noise_at_bob, *args)


def test_rx_insertion_loss_applies_to_noise():
    topo = OdnTopology()
    prof = default_raman_profile()
    plan = ChannelPlan((WavelengthChannel(ANCHOR_NM, 2.5, "upstream"),))
    lossless = odn_noise_at_bob(plan, topo, FilterProfile(1310.0, 1.22), prof)
    lossy = odn_noise_at_bob(
        plan, topo, FilterProfile(1310.0, 1.22, insertion_loss_db=3.0), prof
    )
    assert lossy.total_at_receiver / lossless.total_at_receiver == pytest.approx(
        10.0**-0.3, rel=1e-12
    )


def test_flat_rejection_reference_pair():
    wide = FilterProfile(1310.0, 13.0)
    narrow = FilterProfile(1310.0, 1.22)
    assert filter_noise_rejection_db(wide, narrow) == pytest.approx(10.2758, abs=5e-4)


def test_measured_rejection_pair_is_exact():
    ratio = 10.0**1.19
    narrow = FilterProfile(
        1310.0, 1.22, transmission_db=gaussian_transmission_table(1310.0, 1.22)
    )
    wide = FilterProfile(
        1310.0,
        1.22 * ratio,
        transmission_db=gaussian_transmission_table(1310.0, 1.22 * ratio),
    )
    assert filter_noise_rejection_db(wide, narrow) == pytest.approx(11.9, abs=1e-9)


def test_equivalent_dwdm_power_subtracts_rejection():
    wide = FilterProfile(1310.0, 13.0)
    narrow = FilterProfile(1310.0, 1.22)
    rejection = filter_noise_rejection_db(wide, narrow)
    assert equivalent_dwdm_power_dbm(2.5, wide, narrow) == pytest.approx(2.5 - rejection)


def test_equivalent_dwdm_same_received_noise():
    topo = OdnTopology()
    prof = default_raman_profile()
    narrow = FilterProfile(
        1310.0, 1.22, transmission_db=gaussian_transmission_table(1310.0, 1.22)
    )
    wide_fwhm = 1.22 * 10.0**1.19
    wide = FilterProfile(
        1310.0, wide_fwhm, transmission_db=gaussian_transmission_table(1310.0, wide_fwhm)
    )
    channel = WavelengthChannel(ANCHOR_NM, 2.5, "upstream")
    direct = odn_noise_at_bob(ChannelPlan((channel,)), topo, narrow, prof)
    emulated = odn_noise_at_bob(
        ChannelPlan(
            (
                dataclasses.replace(
                    channel,
                    launch_power_dbm=equivalent_dwdm_power_dbm(2.5, wide, narrow),
                ),
            )
        ),
        topo,
        wide,
        prof,
    )
    assert abs(direct.total_at_receiver - emulated.total_at_receiver) <= 1e-9 * max(
        1.0, direct.total_at_receiver
    )
