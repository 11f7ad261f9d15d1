"""Scenario configuration: JSON schema, validation, sweep axes, hashing.

Schema version 1.  Sections: ``topology``, ``channels``, ``transmitter``,
``detector``, ``raman``, ``gate``, ``keyrate``, ``run``; optional ``name``
and ``sweep``.  Validation collects every failing field before raising so
one round trip reports the whole damage.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field

from .dpslink import DetectorModel, TransmitterConfig
from .errors import ConfigError, ShiftRangeError, WavelengthRangeError
from .keyrate import DEFAULT_F_EC
from .raman import (
    ChannelPlan,
    RamanProfile,
    WavelengthChannel,
    default_raman_profile,
    raman_coefficient,
)
from .sifting import GateConfig
from .topology import (
    FilterProfile,
    OdnTopology,
    attenuation_at,
    default_odn,
    gaussian_transmission_table,
    path_loss_db,
)

SCHEMA_VERSION = 1
SECTIONS = ("topology", "channels", "transmitter", "detector", "raman", "gate", "keyrate", "run")
SWEEP_AXES = (
    "topology.budget_db",
    "topology.reach_km",
    "topology.splitter.port_count",
    "channels.upstream_count",
)


@dataclass(frozen=True)
class RunSettings:
    mode: str = "oracle"
    duration_s: float = 30.0
    seed: int = 1


@dataclass(frozen=True)
class Scenario:
    """Validated, object-level view of one configuration."""

    name: str
    topology: OdnTopology | None  # None for a plain attenuator link
    budget_db: float | None
    plan: ChannelPlan
    rx_filter: FilterProfile
    profile: RamanProfile
    transmitter: TransmitterConfig
    detector: DetectorModel
    gate: GateConfig
    f_ec: float
    run: RunSettings
    sweep: dict | None
    raw: dict = field(repr=False)

    @property
    def quantum_path_loss_db(self) -> float:
        if self.topology is None:
            return float(self.budget_db)
        return path_loss_db(self.topology, self.plan.quantum_center_nm)


def config_hash(raw: dict) -> str:
    """Stable digest of a config dict (key order independent)."""
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _finite(value) -> bool:
    """A real number that is neither a bool, NaN nor infinite."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


class _Collector:
    def __init__(self) -> None:
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.errors.append(message)

    def section(self, parent: dict, key: str, where: str | None = None) -> dict:
        value = parent.get(key, {})
        if not isinstance(value, dict):
            self.fail(f"{where or key}: expected an object")
            return {}
        return value

    def number(self, section: dict, key: str, default, where: str, minimum=None):
        value = section.get(key, default)
        if not _finite(value):
            self.fail(f"{where}.{key}: expected a finite number, got {value!r}")
            return default
        if minimum is not None and value < minimum:
            self.fail(f"{where}.{key}: {value} below minimum {minimum}")
            return default
        return float(value)

    def integer(self, section: dict, key: str, default, where: str, minimum=None):
        value = section.get(key, default)
        if not isinstance(value, int) or isinstance(value, bool):
            self.fail(f"{where}.{key}: expected an integer, got {value!r}")
            return default
        if minimum is not None and value < minimum:
            self.fail(f"{where}.{key}: {value} below minimum {minimum}")
            return default
        return int(value)

    def choice(self, section: dict, key: str, default, where: str, allowed):
        value = section.get(key, default)
        if value not in allowed:
            self.fail(f"{where}.{key}: {value!r} not one of {sorted(allowed)}")
            return default
        return value


def _parse_filter(spec: dict, col: _Collector, where: str) -> FilterProfile:
    center = col.number(spec, "center_nm", 1310.0, where, minimum=1.0)
    insertion = col.number(spec, "insertion_loss_db", 0.0, where, minimum=0.0)
    table = spec.get("transmission_db")
    shape = col.choice(spec, "shape", "gaussian", where, ("gaussian", "flat"))
    fwhm = col.number(spec, "fwhm_nm", 1.22, where, minimum=0.0)
    if fwhm <= 0.0:
        col.fail(f"{where}.fwhm_nm: must be > 0")
        fwhm = 1.22
    try:
        if table is not None:
            points = tuple((float(a), float(b)) for a, b in table)
        elif shape == "gaussian":
            points = gaussian_transmission_table(center, fwhm)
        else:
            points = None
        return FilterProfile(
            center_nm=center, fwhm_nm=fwhm, insertion_loss_db=insertion, transmission_db=points
        )
    except (ValueError, TypeError) as exc:
        col.fail(f"{where}: {exc}")
        return FilterProfile(center_nm=1310.0, fwhm_nm=1.22)


def _parse_topology(raw: dict, col: _Collector) -> tuple[OdnTopology | None, float | None]:
    section = col.section(raw, "topology")
    kind = col.choice(section, "kind", "odn", "topology", ("odn", "attenuator"))
    if kind == "attenuator":
        return None, col.number(section, "budget_db", 18.0, "topology", minimum=0.0)
    attenuation = None
    if "attenuation_db_per_km" in section:
        try:
            attenuation = tuple(
                (float(wl), float(a)) for wl, a in section["attenuation_db_per_km"]
            )
        except (TypeError, ValueError):
            col.fail("topology.attenuation_db_per_km: expected [[nm, dB/km], ...]")
    port_count = col.integer(section, "port_count", 16, "topology", minimum=1)
    try:
        topo = default_odn(
            port_count=port_count,
            feeder_down_km=col.number(section, "feeder_down_km", 13.2, "topology", minimum=0.0),
            feeder_up_km=col.number(section, "feeder_up_km", 15.1, "topology", minimum=0.0),
            drop_km=col.number(section, "drop_km", 1.0, "topology", minimum=0.0),
            excess_loss_db=col.number(section, "excess_loss_db", 0.0, "topology", minimum=0.0),
            directivity_db=col.number(section, "directivity_db", 55.0, "topology", minimum=0.0),
            attenuation_db_per_km=attenuation,
        )
    except ValueError as exc:
        col.fail(f"topology: {exc}")
        return None, None
    return topo, None


def _parse_channels(raw: dict, col: _Collector) -> tuple[ChannelPlan, FilterProfile]:
    section = col.section(raw, "channels")
    quantum_nm = col.number(section, "quantum_center_nm", 1310.0, "channels", minimum=1.0)
    classical = section.get("classical", [])
    if not isinstance(classical, list):
        col.fail("channels.classical: expected a list")
        classical = []
    channels: list[WavelengthChannel] = []
    for idx, spec in enumerate(classical):
        where = f"channels.classical[{idx}]"
        if not isinstance(spec, dict):
            col.fail(f"{where}: expected an object")
            continue
        try:
            channels.append(
                WavelengthChannel(
                    center_nm=col.number(spec, "center_nm", 1550.0, where),
                    launch_power_dbm=col.number(spec, "launch_power_dbm", 0.0, where),
                    direction=col.choice(
                        spec, "direction", "downstream", where, ("downstream", "upstream")
                    ),
                    band_tag=str(spec.get("band_tag", "")),
                    tdma_member=bool(spec.get("tdma_member", False)),
                )
            )
        except ValueError as exc:
            col.fail(f"{where}: {exc}")
    rx_section = col.section(section, "rx_filter", "channels.rx_filter")
    rx_filter = _parse_filter(rx_section, col, "channels.rx_filter")
    try:
        plan = ChannelPlan(channels=tuple(channels), quantum_center_nm=quantum_nm)
    except ValueError as exc:
        col.fail(f"channels: {exc}")
        plan = ChannelPlan()
    return plan, rx_filter


def _parse_raman(raw: dict, col: _Collector) -> RamanProfile:
    section = col.section(raw, "raman")
    scale = col.number(section, "scale", 1.0, "raman", minimum=0.0)
    temperature = col.number(section, "temperature_k", 295.0, "raman", minimum=1.0)
    spec = section.get("profile", "default")
    try:
        if spec == "default":
            return default_raman_profile(temperature_k=temperature, scale=scale)
        if isinstance(spec, dict) and "csv" in spec:
            return RamanProfile.from_csv(spec["csv"], scale=scale)
        if isinstance(spec, dict):
            return RamanProfile(
                shifts_thz=tuple(spec["shifts_thz"]),
                coefficients=tuple(spec["coefficients"]),
                scale=scale,
            )
    except (KeyError, TypeError) as exc:
        col.fail(f"raman.profile: missing or malformed field ({exc})")
        return default_raman_profile(scale=scale)
    except (ValueError, OSError, OverflowError) as exc:  # overflow: default profile below ~3 K
        col.fail(f"raman.profile: {exc}")
        return default_raman_profile(scale=scale)
    col.fail(f"raman.profile: {spec!r} is not 'default', a table, or a csv reference")
    return default_raman_profile(scale=scale)


def parse_scenario(raw: dict) -> Scenario:
    """Validate a config dict and build the object graph.

    Raises :class:`ConfigError` carrying every failing field.
    """
    col = _Collector()
    if not isinstance(raw, dict):
        raise ConfigError(["configuration must be a JSON object"])
    schema = raw.get("schema")
    if schema != SCHEMA_VERSION:
        col.fail(f"schema: expected {SCHEMA_VERSION}, got {schema!r}")
    for key in raw:
        if key not in SECTIONS and key not in ("schema", "name", "sweep"):
            col.fail(f"{key}: unknown section")

    topology, budget = _parse_topology(raw, col)
    plan, rx_filter = _parse_channels(raw, col)
    profile = _parse_raman(raw, col)
    if budget is not None and plan.channels:  # only an attenuator link has a budget
        col.fail("channels.classical: an attenuator link has no fibre plant to carry them")
    if topology is not None:
        # a run looks every wavelength up in the plant's one fibre table and
        # every pump/quantum shift up in the Raman profile
        try:
            for nm in (plan.quantum_center_nm, *(ch.center_nm for ch in plan.channels)):
                attenuation_at(topology, nm)
        except WavelengthRangeError as exc:
            col.fail(f"channels: {exc}")
        try:
            for ch in plan.channels:
                raman_coefficient(profile, ch.center_nm, plan.quantum_center_nm)
        except ShiftRangeError as exc:
            col.fail(f"channels: {ch.center_nm} nm pumping {plan.quantum_center_nm} nm: {exc}")

    tx_raw, det_raw, gate_raw, key_raw, run_raw = (
        col.section(raw, name) for name in ("transmitter", "detector", "gate", "keyrate", "run")
    )
    bits = tx_raw.get("pattern_bits")  # None: a seeded pattern
    if not (bits is None or (bits and isinstance(bits, list) and all(b in (0, 1) for b in bits))):
        col.fail(f"transmitter.pattern_bits: expected a non-empty list of 0/1, got {bits!r}")
        bits = None

    try:
        transmitter = TransmitterConfig(
            symbol_rate_hz=col.number(tx_raw, "symbol_rate_hz", 1e9, "transmitter", minimum=1.0),
            mean_photon_number=col.number(tx_raw, "mean_photon_number", 0.1, "transmitter"),
            carve_duty=col.number(tx_raw, "carve_duty", 0.2, "transmitter"),
            visibility=col.number(tx_raw, "visibility", 1.0, "transmitter"),
            pattern_bits=None if bits is None else tuple(bits),
        )
    except ValueError as exc:
        col.fail(f"transmitter: {exc}")
        transmitter = TransmitterConfig()
    try:
        detector = DetectorModel(
            efficiency=col.number(det_raw, "efficiency", 0.10, "detector"),
            dark_rate_hz=col.number(det_raw, "dark_rate_hz", 520.0, "detector"),
            dead_time_s=col.number(det_raw, "dead_time_s", 10e-6, "detector"),
            afterpulse_probability=col.number(det_raw, "afterpulse_probability", 0.02, "detector"),
            afterpulse_decay_s=col.number(det_raw, "afterpulse_decay_s", 5e-6, "detector"),
            afterpulse_memory_s=col.number(det_raw, "afterpulse_memory_s", 4e-4, "detector"),
            excess_loss_db=col.number(
                det_raw, "excess_loss_db", DetectorModel.excess_loss_db, "detector"
            ),
            monitored_ports=col.choice(
                det_raw, "monitored_ports", "one", "detector", ("one", "both")
            ),
        )
    except ValueError as exc:
        col.fail(f"detector: {exc}")
        detector = DetectorModel()
    slot_phase = gate_raw.get("slot_phase_s", 0.0)
    if slot_phase == "auto":
        slot_phase = None
    elif slot_phase is not None and not _finite(slot_phase):
        col.fail(f"gate.slot_phase_s: expected a finite number, 'auto' or null, got {slot_phase!r}")
        slot_phase = 0.0
    try:
        gate = GateConfig(
            gate_fraction=col.number(gate_raw, "gate_fraction", 0.30, "gate"),
            slot_phase_s=slot_phase,
        )
    except ValueError as exc:
        col.fail(f"gate: {exc}")
        gate = GateConfig()
    f_ec = col.number(key_raw, "f_ec", DEFAULT_F_EC, "keyrate", minimum=1.0)
    run = RunSettings(
        mode=col.choice(run_raw, "mode", "oracle", "run", ("oracle", "monte_carlo")),
        duration_s=col.number(run_raw, "duration_s", 30.0, "run", minimum=0.0),
        seed=col.integer(run_raw, "seed", 1, "run", minimum=0),
    )
    if run.duration_s <= 0.0:
        col.fail("run.duration_s: must be > 0")

    sweep = raw.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict):
            col.fail("sweep: expected an object")
            sweep = None
        else:
            axis = sweep.get("axis")
            values = sweep.get("values")
            if axis not in SWEEP_AXES:
                col.fail(f"sweep.axis: {axis!r} not one of {list(SWEEP_AXES)}")
            if not isinstance(values, list) or not values:
                col.fail("sweep.values: expected a non-empty list")
            elif not all(_finite(v) for v in values):
                col.fail(f"sweep.values: expected finite numbers, got {values!r}")

    if col.errors:
        raise ConfigError(col.errors)
    return Scenario(
        name=str(raw.get("name", "unnamed")),
        topology=topology,
        budget_db=budget,
        plan=plan,
        rx_filter=rx_filter,
        profile=profile,
        transmitter=transmitter,
        detector=detector,
        gate=gate,
        f_ec=f_ec,
        run=run,
        sweep=copy.deepcopy(sweep),
        raw=copy.deepcopy(raw),
    )


def apply_axis(raw: dict, axis: str, value) -> dict:
    """New config dict with one sweep axis applied.

    ``topology.reach_km`` sets both feeders to reach minus the drop length;
    ``channels.upstream_count`` keeps the first k upstream channels in plan
    order and all downstream ones.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError([f"sweep.axis: {axis!r} not one of {list(SWEEP_AXES)}"])
    if not _finite(value):
        raise ConfigError([f"sweep.values: {value!r} is not a finite number"])
    out = copy.deepcopy(raw)
    topo = out.setdefault("topology", {})
    if axis == "topology.budget_db":
        if topo.get("kind", "odn") != "attenuator":
            raise ConfigError(["sweep.axis: budget_db applies to attenuator topologies only"])
        topo["budget_db"] = float(value)
    elif axis == "topology.reach_km":
        drop = float(topo.get("drop_km", 1.0))
        feeder = float(value) - drop
        if feeder < 0.0:
            raise ConfigError([f"sweep.values: reach {value} km shorter than the {drop} km drop"])
        topo["feeder_down_km"] = feeder
        topo["feeder_up_km"] = feeder
    elif axis == "topology.splitter.port_count":
        topo["port_count"] = _whole(axis, value)
    elif axis == "channels.upstream_count":
        want = _whole(axis, value)
        channels = out.setdefault("channels", {}).get("classical", [])
        kept, seen = [], 0
        for spec in channels:
            if spec.get("direction", "downstream") == "upstream":
                seen += 1
                if seen > want:
                    continue
            kept.append(spec)
        if not 0 <= want <= seen:
            raise ConfigError(
                [f"sweep.values: requested {want} upstream channels, plan has {seen}"]
            )
        out["channels"]["classical"] = kept
    return out


def _whole(axis: str, value) -> int:
    if value != int(value):
        raise ConfigError([f"sweep.values: {axis} takes whole numbers, got {value!r}"])
    return int(value)
