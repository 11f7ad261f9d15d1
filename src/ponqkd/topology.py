"""Optical distribution network model.

Represents the passive plant between the transmitter at the subscriber side
and the receiver at the central office: two feeder fibres (one per
direction), a symmetric 2:N power splitter and a short drop fibre, plus the
receiver's bandpass filter.  All losses are expressed in dB and compose
additively along a path.

The three fibres are one fibre type, whose wavelength-dependent attenuation
is carried as one small sorted table of (nm, dB/km) anchor points and
interpolated linearly in between; lookups outside the tabulated hull raise
:class:`WavelengthRangeError` rather than extrapolating.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PathElementError, WavelengthRangeError

# dB/km -> nepers/km conversion: alpha_np = alpha_db * ln(10) / 10
NEPER_PER_DB = math.log(10.0) / 10.0

# Typical G.652 attenuation curve; the 1310 nm value is the measured plant
# average, the rest are generic single-mode figures and are configurable.
DEFAULT_ATTENUATION_DB_PER_KM: tuple[tuple[float, float], ...] = (
    (1260.0, 0.42),
    (1310.0, 0.37),
    (1550.0, 0.21),
    (1625.0, 0.24),
)

# Elements traversed by the upstream quantum channel on its way to the
# receiver.  Filter insertion losses are lumped into the calibrated receiver
# excess loss, so the quantum budget counts only the passive plant.
UPSTREAM_QUANTUM_PATH: tuple[str, ...] = ("drop", "splitter", "feeder_up")


def finite(value) -> bool:
    """A real number that is neither a bool, NaN nor infinite: every config number's rule."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def finite_floats(values, name: str, kind: str = "finite numbers") -> tuple[float, ...]:
    """``values`` as floats, or ValueError naming ``name`` unless each is :func:`finite`.

    C-level passes over the whole list, not a call per entry; a tuple of
    floats comes back as it is.
    """
    try:
        values = tuple(values)
        types = set(map(type, values))
        if bool not in types and all(map(math.isfinite, values)):
            return values if types <= {float} else tuple(map(float, values))
    except (TypeError, OverflowError):
        pass
    raise ValueError(f"{name}: expected a list of {kind}")


def finite_pairs(pairs, name: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The nm column and the value column of a table of pairs, as :func:`finite_floats`."""
    try:
        pairs = tuple(pairs)
        xs, ys = zip(*pairs, strict=True) if pairs else ((), ())
    except (TypeError, ValueError):
        xs = ys = None
    kind = "[nm, value] pairs of finite numbers"
    return finite_floats(xs, name, kind), finite_floats(ys, name, kind)


@functools.lru_cache(maxsize=256)
def attenuation_at(topology: OdnTopology, wavelength_nm: float) -> float:
    """Interpolated fibre attenuation of the plant at ``wavelength_nm`` in dB/km.

    Linear interpolation between table anchors; a query outside the table
    hull raises :class:`WavelengthRangeError`.  The plant is immutable, so
    the value is kept per plant and wavelength: a run reads the quantum
    band's three times, for two path elements and the Raman sum.
    """
    wavelengths, values = zip(*topology.attenuation_db_per_km)
    if not (wavelengths[0] <= wavelength_nm <= wavelengths[-1]):
        raise WavelengthRangeError(
            f"{wavelength_nm} nm outside attenuation hull [{wavelengths[0]}, {wavelengths[-1]}] nm"
        )
    return float(np.interp(wavelength_nm, wavelengths, values))


@dataclass(frozen=True)
class Splitter:
    """Symmetric 2:N power splitter.

    ``port_count`` is the subscriber-side port count N and must be a power
    of two.  The drop<->feeder insertion loss is ``10 log10 N`` plus excess;
    ``directivity_db`` is the same-side port-to-port isolation that
    suppresses feeder-to-feeder leakage.
    """

    port_count: int = 16
    excess_loss_db: float = 0.0
    directivity_db: float = 55.0

    def __post_init__(self) -> None:
        n = self.port_count
        if n < 1 or (n & (n - 1)) != 0:
            raise ValueError(f"port_count: must be a power of two >= 1, got {n}")
        try:
            float(n)  # the Raman sum scales with it
        except OverflowError:
            raise ValueError("port_count: must fit in a float")
        for name in ("excess_loss_db", "directivity_db"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name}: must be >= 0")

    @property
    def loss_db(self) -> float:
        return 10.0 * math.log10(self.port_count) + self.excess_loss_db


@dataclass(frozen=True)
class FilterProfile:
    """Bandpass filter seen by the quantum receiver or a classical channel.

    A filter is either an idealised flat top described by ``fwhm_nm`` alone,
    or carries a measured transmission table ``transmission_db`` of
    ``((nm, dB), ...)`` points relative to the passband peak.  The
    equivalent noise bandwidth used for broadband-noise integration follows
    from whichever description is present; it is computed on first use
    and kept, since the filter never changes.
    """

    center_nm: float = 1310.0  # the default quantum channel
    fwhm_nm: float = 1.22
    insertion_loss_db: float = 0.0
    transmission_db: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.center_nm < 1.0:
            raise ValueError(f"center_nm: must be >= 1, got {self.center_nm}")
        if self.fwhm_nm <= 0.0:
            raise ValueError(f"fwhm_nm: must be > 0, got {self.fwhm_nm}")
        if self.insertion_loss_db < 0.0:
            raise ValueError(f"insertion_loss_db: must be >= 0, got {self.insertion_loss_db}")
        if self.transmission_db is not None:
            wavelengths, levels = finite_pairs(self.transmission_db, "transmission_db")
            if len(wavelengths) < 3:
                raise ValueError("transmission_db: needs at least 3 points")
            if sorted(wavelengths) != list(wavelengths):
                raise ValueError("transmission_db: must be sorted by wavelength")
            if not (wavelengths[0] <= self.center_nm <= wavelengths[-1]):
                raise ValueError("transmission_db: must contain center_nm")
            with np.errstate(over="ignore"):
                peak = np.power(10.0, max(levels) / 10.0)
            if not 0.0 < peak < math.inf:  # the noise bandwidth divides by the peak
                raise ValueError("transmission_db: has no passband")
            object.__setattr__(self, "transmission_db", tuple(zip(wavelengths, levels)))

    def in_passband(self, wavelength_nm: float) -> bool:
        """Whether ``wavelength_nm`` lies in the filter's 3 dB passband.

        A flat top passes ``center_nm +- fwhm_nm / 2``.  A table passes where
        its interpolated transmission is at most 3 dB below its peak, and
        nothing outside the wavelengths it covers.
        """
        if self.transmission_db is None:
            return abs(wavelength_nm - self.center_nm) <= self.fwhm_nm / 2.0
        wavelengths, levels = zip(*self.transmission_db)
        if not wavelengths[0] <= wavelength_nm <= wavelengths[-1]:
            return False
        return float(np.interp(wavelength_nm, wavelengths, levels)) >= max(levels) - 3.0

    @functools.cached_property
    def noise_bandwidth_nm(self) -> float:
        """Equivalent noise bandwidth in nm.

        With a transmission table: integral of the peak-normalised linear
        transmission over wavelength (trapezoid rule).  Without one the
        filter is treated as an ideal flat top of width ``fwhm_nm``.
        """
        if self.transmission_db is None:
            return self.fwhm_nm
        wavelengths = np.array([w for w, _ in self.transmission_db])
        linear = 10.0 ** (np.array([t for _, t in self.transmission_db]) / 10.0)
        return float(np.trapezoid(linear / linear.max(), wavelengths))


def equivalent_noise_bandwidth_nm(profile: FilterProfile) -> float:
    """Equivalent noise bandwidth of a filter in nm (:attr:`FilterProfile.noise_bandwidth_nm`)."""
    return profile.noise_bandwidth_nm


def gaussian_transmission_table(
    center_nm: float, fwhm_nm: float, points: int = 81, span_fwhm: float = 4.0
) -> tuple[tuple[float, float], ...]:
    """Sampled Gaussian passband, in dB relative to peak.

    Utility for building bundled filter profiles.  Scaling ``fwhm_nm`` at a
    fixed ``points``/``span_fwhm`` scales the sampled equivalent noise
    bandwidth exactly proportionally, which the bundled wide/narrow filter
    pair relies on.  A span too wide for a float raises ValueError.
    """
    if not math.isfinite(span_fwhm * fwhm_nm):
        raise ValueError(f"fwhm_nm: {fwhm_nm} nm too wide to sample a gaussian passband")
    offsets = np.linspace(-span_fwhm * fwhm_nm / 2.0, span_fwhm * fwhm_nm / 2.0, points)
    rel_db = -10.0 * math.log10(2.0) * (2.0 * offsets / fwhm_nm) ** 2
    return tuple((float(center_nm + o), float(t)) for o, t in zip(offsets, rel_db))


@dataclass(frozen=True)
class OdnTopology:
    """Dual-feeder splitter ODN: two feeders, one 2:N splitter, one drop.

    All three fibres are one fibre type, so the plant carries one sorted
    ``((nm, dB/km), ...)`` attenuation table of finite, positive values.
    The defaults are the deployed-plant geometry of the bundled scenarios.
    """

    feeder_down_km: float = 13.2
    feeder_up_km: float = 15.1
    drop_km: float = 1.0
    splitter: Splitter = Splitter()
    attenuation_db_per_km: tuple[tuple[float, float], ...] = DEFAULT_ATTENUATION_DB_PER_KM

    def __post_init__(self) -> None:
        for name in ("feeder_down_km", "feeder_up_km", "drop_km"):
            length = getattr(self, name)
            if not math.isfinite(length) or length < 0.0:
                raise ValueError(f"{name}: must be finite and >= 0, got {length}")
        wavelengths, values = finite_pairs(self.attenuation_db_per_km, "attenuation_db_per_km")
        if not wavelengths:
            raise ValueError("attenuation_db_per_km: must not be empty")
        if sorted(wavelengths) != list(wavelengths) or len(set(wavelengths)) != len(wavelengths):
            raise ValueError("attenuation_db_per_km: must be sorted, with no repeated wavelength")
        if min(values) <= 0.0:
            raise ValueError("attenuation_db_per_km: values must be positive")
        object.__setattr__(self, "attenuation_db_per_km", tuple(zip(wavelengths, values)))

    def element_loss_db(self, name: str, wavelength_nm: float) -> float:
        if name in ("feeder_down", "feeder_up", "drop"):
            return getattr(self, f"{name}_km") * attenuation_at(self, wavelength_nm)
        if name == "splitter":
            return self.splitter.loss_db
        raise PathElementError(f"unknown path element {name!r}")


def path_loss_db(topology: OdnTopology, wavelength_nm: float) -> float:
    """Insertion loss of the upstream quantum path at one wavelength, in dB.

    The loss is the plain sum of the element losses along
    :data:`UPSTREAM_QUANTUM_PATH`.
    """
    return float(
        sum(topology.element_loss_db(name, wavelength_nm) for name in UPSTREAM_QUANTUM_PATH)
    )

