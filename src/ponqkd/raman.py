"""Spontaneous Raman crosstalk from classical channels into the quantum band.

Classical WDM traffic sharing the plant with the quantum channel scatters a
small amount of power across tens of THz; the part landing inside the
receiver passband arrives as an irreducible background.  The model works in
the spontaneous (linear-in-pump) regime: scattered power is proportional to
launch power, scattering coefficient at the pump/quantum frequency offset,
receiver noise bandwidth and a span geometry factor.

Directional accounting at the receiver, which sits at the central-office
end of the upstream feeder:

* upstream channels co-propagate with the quantum signal, so their forward
  scattering over drop + upstream feeder dominates;
* downstream channels pump each of the N drop fibres through one splitter
  pass, and the backward-scattered light returns through a second pass;
  summing the N drops cancels one ideal pass, leaving a net
  single-splitter-loss contribution (plus twice the excess loss);
* forward scattering inside the downstream feeder can only reach the
  upstream feeder through the splitter's same-side leakage and is
  suppressed by the directivity.

The scattering coefficient table is a relative shape; its absolute scale is
a calibration parameter fitted to a measured count-rate anchor, and
therefore absorbs detection efficiency and receiver insertion loss.  The
returned rates are detected counts/s, directly comparable to a dark rate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ShiftRangeError
from .topology import (
    NEPER_PER_DB,
    FilterProfile,
    OdnTopology,
    attenuation_at,
    equivalent_noise_bandwidth_nm,
    finite_floats,
)

_C_M_PER_S = 299792458.0  # exact SI values of c, h and k
_H_J_S = 6.62607015e-34
_K_J_PER_K = 1.380649e-23

C_NM_THZ = _C_M_PER_S * 1e-3  # so that frequency_thz = C_NM_THZ / wavelength_nm

ROOM_TEMPERATURE_K = 295.0

# Relative Stokes-branch scattering shape for silica fibre, peak-normalised,
# versus frequency shift in THz.  Coarse tabulation of the usual measured
# curve: main peak near 13 THz, shoulder at ~15 THz, secondary bumps near 24
# and 33 THz, negligible beyond ~43 THz.
_SILICA_STOKES_SHAPE: tuple[tuple[float, float], ...] = (
    (0.0, 0.0),
    (1.0, 0.028),
    (2.0, 0.060),
    (3.0, 0.095),
    (4.0, 0.130),
    (5.0, 0.170),
    (6.0, 0.210),
    (7.0, 0.260),
    (8.0, 0.330),
    (9.0, 0.420),
    (10.0, 0.520),
    (11.0, 0.660),
    (12.0, 0.840),
    (13.2, 1.000),
    (14.0, 0.820),
    (14.7, 0.620),
    (15.5, 0.640),
    (16.5, 0.380),
    (17.5, 0.220),
    (18.5, 0.130),
    (19.5, 0.095),
    (21.0, 0.075),
    (22.5, 0.088),
    (24.0, 0.135),
    (25.0, 0.115),
    (26.0, 0.075),
    (27.0, 0.050),
    (28.0, 0.035),
    (29.5, 0.025),
    (31.0, 0.035),
    (32.5, 0.052),
    (33.5, 0.058),
    (34.5, 0.052),
    (35.5, 0.042),
    (36.5, 0.026),
    (37.5, 0.015),
    (38.5, 0.009),
    (40.0, 0.0045),
    (41.5, 0.0022),
    (43.0, 0.0011),
    (45.0, 0.0004),
)


def frequency_thz(wavelength_nm: float) -> float:
    return C_NM_THZ / wavelength_nm


def thermal_occupation(shift_thz: float, temperature_k: float = ROOM_TEMPERATURE_K) -> float:
    """Bose-Einstein phonon occupation at a frequency shift."""
    if shift_thz <= 0.0:
        raise ValueError("occupation defined for positive shifts")
    x = _H_J_S * shift_thz * 1e12 / (_K_J_PER_K * temperature_k)
    return 1.0 / math.expm1(x)


@dataclass(frozen=True)
class WavelengthChannel:
    """One classical channel co-existing with the quantum signal."""

    center_nm: float = 1550.0
    launch_power_dbm: float = 0.0
    direction: str = "downstream"  # CO -> subscribers, or "upstream"
    band_tag: str = ""
    tdma_member: bool = False

    def __post_init__(self) -> None:
        if not (1260.0 <= self.center_nm <= 1625.0):
            raise ValueError(f"center_nm: {self.center_nm} nm outside the 1260-1625 nm window")
        try:
            self.launch_power_mw  # the Raman sum scales with it
        except OverflowError:
            raise ValueError(f"launch_power_dbm: {self.launch_power_dbm} overflows in mW")
        if self.direction not in ("downstream", "upstream"):
            raise ValueError(f"direction: must be downstream or upstream, got {self.direction!r}")

    @property
    def launch_power_mw(self) -> float:
        return 10.0 ** (self.launch_power_dbm / 10.0)


@dataclass(frozen=True)
class ChannelPlan:
    """All classical channels plus the quantum channel placement."""

    channels: tuple[WavelengthChannel, ...] = ()
    quantum_center_nm: float = 1310.0

    def __post_init__(self) -> None:
        if self.quantum_center_nm < 1.0:
            raise ValueError(f"quantum_center_nm: must be >= 1, got {self.quantum_center_nm}")
        object.__setattr__(self, "channels", tuple(self.channels))


@dataclass(frozen=True)
class RamanProfile:
    """Signed-shift scattering coefficient table.

    ``shifts_thz`` is sorted and signed: positive shifts are the Stokes
    branch (scattered light red of the pump), negative shifts anti-Stokes.
    ``coefficients`` are relative values >= 0; ``scale`` converts the
    relative shape into detected counts/s per (mW pump x nm bandwidth x km
    geometry factor) and is the calibration target.
    """

    shifts_thz: tuple[float, ...]
    coefficients: tuple[float, ...]
    scale: float = 1.0

    def __post_init__(self) -> None:
        shifts = finite_floats(self.shifts_thz, "shifts_thz")
        coeffs = finite_floats(self.coefficients, "coefficients")
        if len(shifts) < 2:
            raise ValueError("shifts_thz: needs at least 2 points")
        if list(shifts) != sorted(shifts):
            raise ValueError("shifts_thz: must be sorted ascending")
        if len(coeffs) != len(shifts):
            raise ValueError(f"coefficients: needs one value per shift, got {len(coeffs)}")
        if min(coeffs) < 0.0:
            raise ValueError("coefficients: must be >= 0")
        if self.scale < 0.0:
            raise ValueError(f"scale: must be >= 0, got {self.scale}")
        object.__setattr__(self, "shifts_thz", shifts)
        object.__setattr__(self, "coefficients", coeffs)


@functools.lru_cache(maxsize=16)
def default_raman_profile(temperature_k: float = ROOM_TEMPERATURE_K) -> RamanProfile:
    """Two-branch profile built from the silica Stokes shape, at scale 1.

    Stokes coefficients carry the (n+1) emission factor, anti-Stokes the
    thermal occupation n, so the anti-Stokes branch is always the weaker
    one at equal shift magnitude.  Profiles are immutable, so one is kept
    per temperature.
    """
    shifts: list[float] = []
    coeffs: list[float] = []
    for shift, shape in reversed(_SILICA_STOKES_SHAPE):
        if shift == 0.0:
            continue
        shifts.append(-shift)
        coeffs.append(shape * thermal_occupation(shift, temperature_k))
    shifts.append(0.0)
    coeffs.append(0.0)
    for shift, shape in _SILICA_STOKES_SHAPE:
        if shift == 0.0:
            continue
        shifts.append(shift)
        coeffs.append(shape * (thermal_occupation(shift, temperature_k) + 1.0))
    return RamanProfile(tuple(shifts), tuple(coeffs))


def raman_coefficient(profile: RamanProfile, pump_nm: float, signal_nm: float) -> float:
    """Scaled scattering coefficient for pump -> signal conversion.

    The signed shift is pump frequency minus signal frequency, so a signal
    blue of the pump (for example 1550 nm pumping the 1310 nm band) lands on
    the negative, anti-Stokes branch.  Shifts outside the table hull raise
    :class:`ShiftRangeError`.
    """
    shift = frequency_thz(pump_nm) - frequency_thz(signal_nm)
    lo, hi = profile.shifts_thz[0], profile.shifts_thz[-1]
    if not (lo <= shift <= hi):
        raise ShiftRangeError(
            f"{pump_nm} nm pumping {signal_nm} nm: "
            f"shift {shift:.2f} THz outside profile hull [{lo}, {hi}] THz"
        )
    value = float(np.interp(shift, profile.shifts_thz, profile.coefficients))
    return value * profile.scale


def forward_conversion_km(a: float, q: float, length: float) -> float:
    """Geometry factor (km) for scattering that co-propagates with the pump.

    Exact integral of pump decay at the pump attenuation ``a`` and
    scattered-light decay at the quantum-band attenuation ``q`` (both in
    Np/km) over a span of ``length`` km:
    ``(e^(-a L) - e^(-q L)) / (q - a)``, degenerating to ``L e^(-a L)`` when
    the two attenuations coincide.
    """
    if math.isclose(a, q, rel_tol=1e-12, abs_tol=1e-15):
        return length * math.exp(-a * length)
    return (math.exp(-a * length) - math.exp(-q * length)) / (q - a)


def backward_conversion_km(a: float, q: float, length: float) -> float:
    """Geometry factor (km) for scattering that counter-propagates.

    Both decays act over the same distance from the launch end, giving
    ``(1 - e^(-(a+q) L)) / (a + q)``; saturates at ``1/(a+q)`` for long
    spans.
    """
    s = a + q
    if s == 0.0:
        return length
    return (1.0 - math.exp(-s * length)) / s


@dataclass(frozen=True)
class RamanContribution:
    """Received crosstalk split by origin, all in detected counts/s."""

    upstream_copropagating: float
    drop_backscatter: float
    feeder_leakage: float

    @property
    def total_at_receiver(self) -> float:
        return self.upstream_copropagating + self.drop_backscatter + self.feeder_leakage


def _transmission(loss_db: float) -> float:
    return 10.0 ** (-loss_db / 10.0)


def plan_lookups(
    plan: ChannelPlan, topology: OdnTopology, profile: RamanProfile
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled scattering coefficient and pump attenuation (dB/km) per channel.

    Both are arrays in plan order, each looked up with one ``np.interp``
    over the whole plan.  A channel outside either table's hull raises the
    error :func:`raman_coefficient` or :func:`attenuation_at` would raise
    for it, the first such channel in plan order deciding.  With the
    quantum channel's attenuation, which the path loss reads too, these
    are all of the Raman sum that can fail, so the parser checks a plan
    with them alone.
    """
    quantum_nm = plan.quantum_center_nm
    pumps = np.array([channel.center_nm for channel in plan.channels])
    shifts = C_NM_THZ / pumps - frequency_thz(quantum_nm)
    wavelengths, values = zip(*topology.attenuation_db_per_km)
    inside = (profile.shifts_thz[0] <= shifts) & (shifts <= profile.shifts_thz[-1])
    inside &= (wavelengths[0] <= pumps) & (pumps <= wavelengths[-1])
    if not inside.all():  # raise what the lookups of the first such channel raise
        pump_nm = float(pumps[inside.argmin()])
        raman_coefficient(profile, pump_nm, quantum_nm)
        attenuation_at(topology, pump_nm)
    coeffs = np.interp(shifts, profile.shifts_thz, profile.coefficients) * profile.scale
    return coeffs, np.interp(pumps, wavelengths, values)


def odn_noise_at_bob(
    plan: ChannelPlan,
    topology: OdnTopology,
    rx_filter: FilterProfile,
    profile: RamanProfile,
) -> RamanContribution:
    """Total Raman crosstalk reaching the quantum receiver.

    Upstream channels flagged ``tdma_member`` share the medium in time, so
    the group contributes the average of its members' individual rates
    (at most one member transmits at any instant) instead of the sum.
    The per-channel values come from :func:`plan_lookups`, which raises
    for a channel outside either table's hull.
    """
    bandwidth = equivalent_noise_bandwidth_nm(rx_filter)
    rx_t = _transmission(rx_filter.insertion_loss_db)
    quantum_nm = plan.quantum_center_nm
    quantum_db = attenuation_at(topology, quantum_nm)
    q = quantum_db * NEPER_PER_DB
    down_km, up_km, drop_km = topology.feeder_down_km, topology.feeder_up_km, topology.drop_km
    split_t = _transmission(topology.splitter.loss_db)
    feeder_up_t = _transmission(up_km * quantum_db)
    leak_t = _transmission(topology.splitter.directivity_db)
    per_mw = 1e-3 / (_H_J_S * _C_M_PER_S / (quantum_nm * 1e-9))  # photon rate of 1 mW, 1/s

    coeffs, pump_dbs = plan_lookups(plan, topology, profile)

    upstream = 0.0
    drops = 0.0
    leakage = 0.0
    tdma_rates: list[float] = []
    for channel, coeff, pump_db in zip(plan.channels, coeffs.tolist(), pump_dbs.tolist()):
        power = channel.launch_power_mw
        a = pump_db * NEPER_PER_DB
        if channel.direction == "upstream":
            # generated in the drop, then attenuated through splitter and
            # feeder at the quantum wavelength
            drop_part = power * coeff * bandwidth * forward_conversion_km(a, q, drop_km)
            # the pump reaches the feeder attenuated at its own wavelength and
            # scatters there alongside the quantum signal
            pump_at_feeder = power * _transmission(drop_km * pump_db) * split_t
            feeder_part = pump_at_feeder * coeff * bandwidth * forward_conversion_km(a, q, up_km)
            rate = drop_part * per_mw * (split_t * feeder_up_t) + feeder_part * per_mw
            if channel.tdma_member:
                tdma_rates.append(rate)
            else:
                upstream += rate
        else:
            # backscatter of each drop, pumped through one feeder and one
            # splitter pass; the N identical drops cancel one ideal pass
            pump_at_drop = power * _transmission(down_km * pump_db) * split_t
            per_drop = (
                pump_at_drop * coeff * bandwidth * backward_conversion_km(a, q, drop_km) * per_mw
            )
            drops += topology.splitter.port_count * per_drop * (split_t * feeder_up_t)
            # downstream-feeder scattering reaches the upstream feeder only
            # through the splitter's same-side leakage
            leak = power * coeff * bandwidth * forward_conversion_km(a, q, down_km)
            leakage += leak * per_mw * leak_t * feeder_up_t
    if tdma_rates:
        upstream += sum(tdma_rates) / len(tdma_rates)

    return RamanContribution(
        upstream_copropagating=upstream * rx_t,
        drop_backscatter=drops * rx_t,
        feeder_leakage=leakage * rx_t,
    )


def filter_noise_rejection_db(wide: FilterProfile, narrow: FilterProfile) -> float:
    """Broadband-noise advantage of ``narrow`` over ``wide`` in dB.

    Ratio of equivalent noise bandwidths; two flat tops of 13 nm and
    1.22 nm give 10 log10(13/1.22) ~ 10.3 dB.
    """
    return 10.0 * math.log10(
        equivalent_noise_bandwidth_nm(wide) / equivalent_noise_bandwidth_nm(narrow)
    )


def equivalent_dwdm_power_dbm(
    launch_power_dbm: float, wide: FilterProfile, narrow: FilterProfile
) -> float:
    """Launch power that emulates the narrow filter behind the wide one.

    Reducing the channel power by the noise-rejection ratio makes the
    broadband crosstalk received through the wide filter equal to what the
    narrow filter would pass at full power.
    """
    return launch_power_dbm - filter_noise_rejection_db(wide, narrow)
