"""Scenario configuration: JSON schema, validation, sweep axes, hashing.

Schema version 1.  Sections: ``topology``, ``channels``, ``transmitter``,
``detector``, ``raman``, ``gate``, ``keyrate``, ``run``; optional ``name``
and ``sweep``.  Validation collects the failures of every section before
raising, so one round trip reports the whole damage.  The plant, the
classical channels, the quantum channel, the receiver filter, the Raman
profile, source, detector, gate and run are read straight into their
dataclasses, which hold each field's default and range rule; every wrongly
typed field is reported, but a section whose fields all type-check reports
only the first range rule it breaks.

Every number follows :func:`topology.finite`.  The fibre, filter and Raman
tables reach their dataclasses as the JSON holds them, and the dataclass
applies the rule to each entry, however it is built.  A bad table thus counts
as one of its section's range rules: an inline profile whose two lists are
both bad names only ``shifts_thz``.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import itertools
import json
from dataclasses import dataclass, field, fields, replace

from .dpslink import DetectorModel, TransmitterConfig
from .errors import ConfigError, ShiftRangeError, WavelengthRangeError
from .keyrate import DEFAULT_F_EC
from .raman import (
    ROOM_TEMPERATURE_K,
    ChannelPlan,
    RamanProfile,
    WavelengthChannel,
    default_raman_profile,
    plan_lookups,
)
from .sifting import GateConfig
from .topology import (
    FilterProfile,
    OdnTopology,
    Splitter,
    finite,
    gaussian_transmission_table,
    path_loss_db,
)

SCHEMA_VERSION = 1
SECTIONS = ("topology", "channels", "transmitter", "detector", "raman", "gate", "keyrate", "run")
RUN_MODES = ("oracle", "monte_carlo")
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
        if self.mode not in RUN_MODES:
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


# JSON type a dataclass field takes, by the type of its default
_JSON_KINDS = {
    bool: ("true or false", lambda value: isinstance(value, bool)),
    str: ("a string", lambda value: isinstance(value, str)),
    int: ("an integer", lambda value: isinstance(value, int) and not isinstance(value, bool)),
    float: ("a finite number", finite),
}


@functools.cache
def _json_fields(cls) -> tuple:
    """(name, type, expected, fits) of each dataclass field one JSON value fills."""
    kinds = [(f.name, type(f.default)) for f in fields(cls)]
    return tuple((name, kind, *_JSON_KINDS[kind]) for name, kind in kinds if kind in _JSON_KINDS)


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
        if not finite(value):
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

    def build(self, cls, section: dict, where: str, given_at: str | None = None, **given):
        """``cls`` read from one config section, or None if it fails.

        Every bool, string, integer or float field not in ``given`` takes the
        section key of the same name, or its own default when the key is
        missing; other fields come from ``given`` or their default.  Only the
        JSON type is checked here: the range rules are the dataclass's own,
        the number rule of a table's entries among them, and each of its
        messages starts with the field name, which is reported under
        ``where``, or under ``given_at`` for a field in ``given`` that came
        from elsewhere.
        """
        values, typed = dict(given), True
        for name, kind, expected, fits in _json_fields(cls):
            if name in section and name not in given:
                value = section[name]
                if fits(value):
                    values[name] = kind(value)
                else:
                    self.fail(f"{where}.{name}: expected {expected}, got {value!r}")
                    typed = False
        if not typed:
            return None
        try:
            return cls(**values)
        except ValueError as exc:
            name = str(exc).partition(":")[0]
            self.fail(f"{given_at if given_at and name in given else where}.{exc}")
            return None


def _parse_filter(section: dict, col: _Collector, where: str) -> FilterProfile | None:
    shape = col.choice(section, "shape", "gaussian", where, ("gaussian", "flat"))
    table = section.get("transmission_db")  # an explicit table wins over the shape
    if table is None:
        flat = col.build(FilterProfile, section, where)
        if flat is None or shape == "flat":
            return flat
        try:
            table = gaussian_transmission_table(flat.center_nm, flat.fwhm_nm)
        except ValueError as exc:
            col.fail(f"{where}.{exc}")
            return None
    return col.build(FilterProfile, section, where, transmission_db=table)


def _parse_topology(raw: dict, col: _Collector) -> tuple[OdnTopology | None, float | None]:
    section = col.section(raw, "topology")
    kind = col.choice(section, "kind", "odn", "topology", ("odn", "attenuator"))
    if kind == "attenuator":
        return None, col.number(section, "budget_db", 18.0, "topology", minimum=0.0)
    key = "attenuation_db_per_km"  # absent, the plant keeps its own default
    given = {key: section[key]} if key in section else {}
    splitter = col.build(Splitter, section, "topology")
    topology = col.build(OdnTopology, section, "topology", splitter=splitter, **given)
    return (None if splitter is None else topology), None


def _parse_channels(raw: dict, col: _Collector) -> tuple[ChannelPlan | None, FilterProfile | None]:
    section = col.section(raw, "channels")
    classical = section.get("classical", [])
    if not isinstance(classical, list):
        col.fail("channels.classical: expected a list")
        classical = []
    channels: list[WavelengthChannel] = []
    for idx, spec in enumerate(classical):
        where = f"channels.classical[{idx}]"
        if not isinstance(spec, dict):
            col.fail(f"{where}: expected an object")
        elif (channel := col.build(WavelengthChannel, spec, where)) is not None:
            channels.append(channel)
    rx_section = col.section(section, "rx_filter", "channels.rx_filter")
    rx_filter = _parse_filter(rx_section, col, "channels.rx_filter")
    plan = col.build(ChannelPlan, section, "channels", channels=tuple(channels))
    if plan is not None and rx_filter is not None:
        quantum_nm = plan.quantum_center_nm
        if not rx_filter.in_passband(quantum_nm):
            col.fail(
                f"channels.rx_filter: the {quantum_nm} nm quantum channel lies outside "
                f"the 3 dB passband of the filter centred at {rx_filter.center_nm} nm"
            )
    return plan, rx_filter


def _parse_raman(raw: dict, col: _Collector) -> RamanProfile | None:
    section = col.section(raw, "raman")
    temperature = col.number(section, "temperature_k", ROOM_TEMPERATURE_K, "raman", minimum=1.0)
    spec = section.get("profile", "default")
    if spec == "default":
        try:
            default = default_raman_profile(temperature)
        except OverflowError:  # the phonon occupation overflows below ~3 K
            col.fail(f"raman.profile: the default profile overflows at {temperature} K")
            return None
        table = {"shifts_thz": default.shifts_thz, "coefficients": default.coefficients}
    elif isinstance(spec, dict):
        table = {key: spec.get(key) for key in ("shifts_thz", "coefficients")}
    else:
        col.fail(f"raman.profile: expected 'default' or a table, got {spec!r}")
        return None
    return col.build(RamanProfile, section, "raman", given_at="raman.profile", **table)


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
    if budget is not None and plan is not None and plan.channels:  # budget: an attenuator link
        col.fail("channels.classical: an attenuator link has no fibre plant to carry them")
    if plan is not None and topology is not None:
        try:  # the plant and Raman lookups a run makes
            path_loss_db(topology, plan.quantum_center_nm)
            if plan.channels and profile is not None:
                plan_lookups(plan, topology, profile)
        except (ShiftRangeError, WavelengthRangeError) as exc:
            col.fail(f"channels: {exc}")

    tx_raw, det_raw, gate_raw, key_raw, run_raw = (
        col.section(raw, name) for name in ("transmitter", "detector", "gate", "keyrate", "run")
    )
    transmitter = col.build(TransmitterConfig, tx_raw, "transmitter")
    detector = col.build(DetectorModel, det_raw, "detector")
    slot_phase = gate_raw.get("slot_phase_s", GateConfig.slot_phase_s)
    if slot_phase == "auto":
        slot_phase = None
    elif slot_phase is not None and not finite(slot_phase):
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
            elif not all(map(finite, values)):
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
    ones.  Only the section the axis touches is copied; the new dict shares
    every other section with ``raw``, which is left as it was.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError([f"sweep.axis: {axis!r} not one of {list(SWEEP_AXES)}"])
    if not finite(value):
        raise ConfigError([f"sweep.values: {value!r} is not a finite number"])
    out = dict(raw)
    topo = out.setdefault("topology", {})
    attenuator = topo.get("kind", "odn") == "attenuator"
    if axis.startswith("topology."):
        if (axis == "topology.budget_db") != attenuator:
            name, kind = axis.rsplit(".", 1)[1], "odn" if attenuator else "attenuator"
            raise ConfigError([f"sweep.axis: {name} applies to {kind} topologies only"])
        topo = out["topology"] = dict(topo)
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
        section = out["channels"] = dict(out.get("channels", {}))
        specs = section.get("classical", [])
        directions = [spec.get("direction", WavelengthChannel.direction) for spec in specs]
        seen = directions.count("upstream")
        if not 0 <= want <= seen:
            raise ConfigError(
                [f"sweep.values: requested {want} upstream channels, plan has {seen}"]
            )
        section["classical"] = _first_upstream(specs, directions, want)
    return out


def reread(scn: Scenario, raw: dict, section: str) -> Scenario:
    """``parse_scenario(raw)`` for a ``raw`` that differs from ``scn.raw`` in ``section`` only.

    The parser's own reader reads that one section again: ``topology``,
    ``raman``, ``transmitter`` or ``detector``.  Every other object is
    shared with ``scn``, and a broken rule of the section raises
    :class:`ConfigError` with the parser's message.  The rules that tie the
    plant and the Raman profile to the channel plan do not run again, so
    ``raw`` keeps the plant kind, the fibre table and the Raman table of
    ``scn.raw``; no sweep axis or calibration parameter changes them.
    """
    col = _Collector()
    if section == "topology":
        topology, budget = _parse_topology(raw, col)
        changes = {"topology": topology, "budget_db": budget}
    elif section == "raman":
        changes = {"profile": _parse_raman(raw, col)}
    else:
        cls = {"transmitter": TransmitterConfig, "detector": DetectorModel}[section]
        changes = {section: col.build(cls, col.section(raw, section), section)}
    if col.errors:
        raise ConfigError(col.errors)
    return replace(scn, **changes, raw=raw)


def sweep_points(scn: Scenario) -> list[Scenario]:
    """Every point of ``scn``'s sweep section, built by :func:`sweep_point` in axis order."""
    return [sweep_point(scn, scn.sweep["axis"], value) for value in scn.sweep["values"]]


def sweep_point(scn: Scenario, axis: str, value) -> Scenario:
    """``parse_scenario(apply_axis(scn.raw, axis, value))``, built from ``scn``.

    A plant axis has :func:`reread` read the topology section again.
    ``channels.upstream_count`` keeps the first upstream channels of
    ``scn.plan``: fewer pumps break no rule the plan passed.
    """
    raw = apply_axis(scn.raw, axis, value)
    if axis != "channels.upstream_count":
        return reread(scn, raw, "topology")
    directions = [channel.direction for channel in scn.plan.channels]
    channels = _first_upstream(scn.plan.channels, directions, int(value))
    return replace(scn, plan=replace(scn.plan, channels=tuple(channels)), raw=raw)


def _first_upstream(items, directions: list[str], want: int) -> list:
    """``items`` in order, less every upstream one after the first ``want``."""
    rank = itertools.count(1)
    return [item for item, d in zip(items, directions) if d != "upstream" or next(rank) <= want]


def _whole(axis: str, value) -> int:
    if value != int(value):
        raise ConfigError([f"sweep.values: {axis} takes whole numbers, got {value!r}"])
    return int(value)
