"""Scenario configuration: JSON schema, validation, sweep axes, hashing.

Schema version 1.  Sections: ``topology``, ``channels``, ``transmitter``,
``detector``, ``raman``, ``gate``, ``keyrate``, ``run``; optional ``name``
and ``sweep``.  Validation collects the failures of every section before
raising, so one round trip reports the whole damage.  The plant, source,
detector, gate and run sections are read straight into their dataclasses,
which hold each field's default and range rule; every wrongly typed field
is reported, but a section whose fields all type-check reports only the
first range rule it breaks.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field, fields

from .dpslink import DetectorModel, TransmitterConfig
from .errors import ConfigError, ShiftRangeError, WavelengthRangeError
from .keyrate import DEFAULT_F_EC
from .raman import (
    ROOM_TEMPERATURE_K,
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
    Splitter,
    attenuation_at,
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

    def __post_init__(self) -> None:
        if self.mode not in ("oracle", "monte_carlo"):
            raise ValueError(f"mode: must be 'oracle' or 'monte_carlo', got {self.mode!r}")
        if self.duration_s <= 0.0:
            raise ValueError("duration_s: must be > 0")
        if self.seed < 0:
            raise ValueError("seed: must be >= 0")


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
    raw: dict = field(repr=False)

    @property
    def sweep(self) -> dict | None:
        return self.raw.get("sweep")

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


# JSON type a dataclass field takes, by the type of its default
_JSON_KINDS = {
    str: ("a string", lambda value: isinstance(value, str)),
    int: ("an integer", lambda value: isinstance(value, int) and not isinstance(value, bool)),
    float: ("a finite number", _finite),
}


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

    def choice(self, section: dict, key: str, default, where: str, allowed):
        value = section.get(key, default)
        if value not in allowed:
            self.fail(f"{where}.{key}: {value!r} not one of {sorted(allowed)}")
            return default
        return value

    def build(self, cls, section: dict, where: str, **given):
        """``cls`` read from one config section, or None if it fails.

        Every string, integer or float field not in ``given`` takes the
        section key of the same name, or its own default when the key is
        missing; other fields come from ``given`` or their default.  Only the
        JSON type is checked here: the range rules are the dataclass's own,
        and each of its messages starts with the field name.
        """
        values, typed = dict(given), True
        for spec in fields(cls):
            kind = type(spec.default)
            if spec.name in given or kind not in _JSON_KINDS or spec.name not in section:
                continue
            expected, fits = _JSON_KINDS[kind]
            value = section[spec.name]
            if fits(value):
                values[spec.name] = kind(value)
            else:
                self.fail(f"{where}.{spec.name}: expected {expected}, got {value!r}")
                typed = False
        if not typed:
            return None
        try:
            return cls(**values)
        except ValueError as exc:
            self.fail(f"{where}.{exc}")
            return None


def _parse_filter(spec: dict, col: _Collector, where: str) -> FilterProfile:
    center = col.number(spec, "center_nm", ChannelPlan.quantum_center_nm, where, minimum=1.0)
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
        return FilterProfile(center_nm=ChannelPlan.quantum_center_nm, fwhm_nm=1.22)


def _parse_topology(raw: dict, col: _Collector) -> tuple[OdnTopology | None, float | None]:
    section = col.section(raw, "topology")
    kind = col.choice(section, "kind", "odn", "topology", ("odn", "attenuator"))
    if kind == "attenuator":
        return None, col.number(section, "budget_db", 18.0, "topology", minimum=0.0)
    table = OdnTopology.attenuation_db_per_km
    if "attenuation_db_per_km" in section:
        try:
            table = tuple((float(wl), float(a)) for wl, a in section["attenuation_db_per_km"])
        except (TypeError, ValueError):
            col.fail("topology.attenuation_db_per_km: expected [[nm, dB/km], ...]")
    splitter = col.build(Splitter, section, "topology")
    topology = col.build(
        OdnTopology, section, "topology", splitter=splitter, attenuation_db_per_km=table
    )
    return (None if splitter is None else topology), None


def _parse_channels(raw: dict, col: _Collector) -> tuple[ChannelPlan, FilterProfile]:
    section = col.section(raw, "channels")
    quantum_nm = col.number(
        section, "quantum_center_nm", ChannelPlan.quantum_center_nm, "channels", minimum=1.0
    )
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
                    direction=spec.get("direction", WavelengthChannel.direction),
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
    scale = col.number(section, "scale", RamanProfile.scale, "raman", minimum=0.0)
    temperature = col.number(section, "temperature_k", ROOM_TEMPERATURE_K, "raman", minimum=1.0)
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
    bits = tx_raw.get("pattern_bits", TransmitterConfig.pattern_bits)  # None: a seeded pattern
    if not (bits is None or (bits and isinstance(bits, list) and all(b in (0, 1) for b in bits))):
        col.fail(f"transmitter.pattern_bits: expected a non-empty list of 0/1, got {bits!r}")
        bits = None
    transmitter = col.build(
        TransmitterConfig, tx_raw, "transmitter", pattern_bits=None if bits is None else tuple(bits)
    )
    detector = col.build(DetectorModel, det_raw, "detector")
    slot_phase = gate_raw.get("slot_phase_s", GateConfig.slot_phase_s)
    if slot_phase == "auto":
        slot_phase = None
    elif slot_phase is not None and not _finite(slot_phase):
        col.fail(f"gate.slot_phase_s: expected a finite number, 'auto' or null, got {slot_phase!r}")
    gate = col.build(GateConfig, gate_raw, "gate", slot_phase_s=slot_phase)
    f_ec = col.number(key_raw, "f_ec", DEFAULT_F_EC, "keyrate", minimum=1.0)
    run = col.build(RunSettings, run_raw, "run")

    sweep = raw.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict):
            col.fail("sweep: expected an object")
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
        raw=copy.deepcopy(raw),
    )


def apply_axis(raw: dict, axis: str, value) -> dict:
    """New config dict with one sweep axis applied.

    ``topology.budget_db`` applies to attenuator links only, the other two
    plant axes to fibre plants only.  ``topology.reach_km`` sets both
    feeders to reach minus the drop length; ``channels.upstream_count``
    keeps the first k upstream channels in plan order and all downstream
    ones.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError([f"sweep.axis: {axis!r} not one of {list(SWEEP_AXES)}"])
    if not _finite(value):
        raise ConfigError([f"sweep.values: {value!r} is not a finite number"])
    out = copy.deepcopy(raw)
    topo = out.setdefault("topology", {})
    attenuator = topo.get("kind", "odn") == "attenuator"
    if axis.startswith("topology.") and (axis == "topology.budget_db") != attenuator:
        name, kind = axis.rsplit(".", 1)[1], "odn" if attenuator else "attenuator"
        raise ConfigError([f"sweep.axis: {name} applies to {kind} topologies only"])
    if axis == "topology.budget_db":
        topo["budget_db"] = float(value)
    elif axis == "topology.reach_km":
        drop = float(topo.get("drop_km", OdnTopology.drop_km))
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
            if spec.get("direction", WavelengthChannel.direction) == "upstream":
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
