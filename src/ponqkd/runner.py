"""Experiment orchestration: single runs, sweeps, reports, and calibration,
which fits one parameter per anchor with :func:`ponqkd.roots.brentq`."""

from __future__ import annotations

import functools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .dpslink import MC_BYTES_PER_EVENT, LinkRates, click_rate_oracle, expected_events
from .dpslink import simulate_timetags
from .errors import CalibrationError, ConfigError
from .keyrate import KeyRateReport, secure_rate
from .raman import RamanContribution, odn_noise_at_bob
from .roots import RootError, brentq
from .scenario import RUN_MODES, Scenario, config_hash, parse_scenario
from .scenario import reread, sweep_points
from .sifting import QberReport, apply_gate, oracle_qber_report, sift_and_score
from .topology import finite

VERSION = "0.1.0"

SWEEP_COLUMNS = (
    "axis_value",
    "path_loss_db",
    "raman_counts_s",
    "dark_counts_s",
    "raw_rate_bs",
    "qber",
    "secure_rate_bs",
    "secure_bits_per_pulse",
)

# "section.key" -> (bracket low, bracket high, limit the high end may grow to)
CALIBRATION_PARAMETERS = {
    "raman.scale": (0.0, 1.0, 1e12),
    "detector.excess_loss_db": (0.0, 60.0, None),
    "transmitter.visibility": (1e-6, 1.0, None),
}

OBSERVABLES = {
    "raman_total": lambda res: res.raman.total_at_receiver,
    "raw_rate": lambda res: res.qber_report.raw_rate,
    "qber": lambda res: res.qber_report.qber,
}


@dataclass(frozen=True)
class RunResult:
    """One run's figures, plus the config that produced them.

    ``raw`` is the run scenario's config dict, which nothing mutates;
    ``config_hash`` digests it on first read, since only emitted reports
    need it.
    """

    scenario_name: str
    mode: str
    path_loss_db: float
    raman: RamanContribution
    dark_rate_hz: float
    qber_report: QberReport
    keyrate_report: KeyRateReport
    link_rates: LinkRates
    raw: dict = field(repr=False, hash=False)
    seed: int | None

    @functools.cached_property
    def config_hash(self) -> str:
        return config_hash(self.raw)


def run_scenario(
    scn: Scenario,
    seed: int | np.random.SeedSequence | None = None,
    mode: str | None = None,
    duration_s: float | None = None,
) -> RunResult:
    """Evaluate one scenario end to end.

    The pipeline is plant -> Raman background -> link statistics -> sifted
    QBER -> secure rate.  Oracle mode is deterministic expectation values;
    Monte Carlo simulates tags and scores them exactly like hardware would.
    ``seed``, ``mode`` and ``duration_s`` override the config's ``run``
    section and obey its rules; None keeps it.  A seed may also be a
    :class:`numpy.random.SeedSequence`, as :func:`run_sweep` passes.
    """
    mode = scn.run.mode if mode is None else mode
    if mode not in RUN_MODES:
        raise ConfigError([f"run.mode: must be 'oracle' or 'monte_carlo', got {mode!r}"])
    seed = scn.run.seed if seed is None else seed
    if not isinstance(seed, np.random.SeedSequence) and not (
        isinstance(seed, (int, np.integer)) and not isinstance(seed, bool) and seed >= 0
    ):
        raise ConfigError([f"run.seed: expected an integer >= 0, got {seed!r}"])
    duration_s = scn.run.duration_s if duration_s is None else duration_s
    if not (finite(duration_s) and duration_s > 0.0):
        raise ConfigError([f"run.duration_s: expected a finite number > 0, got {duration_s!r}"])
    if scn.topology is None or not scn.plan.channels:
        raman = RamanContribution(0.0, 0.0, 0.0)
    else:  # the run's one Raman sum; the parser only checked its lookups
        raman = odn_noise_at_bob(scn.plan, scn.topology, scn.rx_filter, scn.profile)
    budget = scn.quantum_path_loss_db
    try:
        rates = click_rate_oracle(
            scn.transmitter,
            budget,
            scn.detector,
            noise_rate=raman.total_at_receiver,
            gate_fraction=scn.gate.gate_fraction,
            slot_phase_s=scn.gate.slot_phase_s,
        )
        # the live fraction is 1/(1 + ...) > 0, and reads 0 only if the balance overflowed
        solved = rates.live_fraction > 0.0 and all(map(math.isfinite, vars(rates).values()))
    except (RootError, OverflowError):
        solved = False
    if not solved:
        raise ConfigError(
            [
                f"link: the detector balance overflows at {budget!r} dB path loss and "
                f"{raman.total_at_receiver!r} counts/s of Raman noise; a source, "
                "detector, filter or launch magnitude is out of range"
            ]
        )
    run_seed: int | None
    if mode == "oracle":
        qber_report = oracle_qber_report(
            rates.signal_rate,
            scn.transmitter.intrinsic_error,
            rates.background_rate + rates.afterpulse_rate,
        )
        run_seed = None
    else:
        if duration_s * scn.transmitter.symbol_rate_hz >= 2.0**63:  # numpy counts in int64
            raise ConfigError([f"run.duration_s: {duration_s!r} s holds more than 2**63 symbols"])
        # at most one signal primary per symbol; dark and Raman ones on each monitored port
        det = scn.detector
        background = det.detector_count * (det.dark_rate_hz + raman.total_at_receiver)
        primaries = duration_s * (scn.transmitter.symbol_rate_hz + background)
        if not primaries < 2.0**62:  # numpy draws each Poisson count in int64, then adds them
            raise ConfigError(
                [
                    f"link: up to {primaries!r} signal, dark and Raman clicks in "
                    f"{duration_s!r} s, more than a Monte Carlo run can draw; a detector, "
                    "filter or launch magnitude is out of range"
                ]
            )
        need = MC_BYTES_PER_EVENT * expected_events(
            scn.transmitter,
            budget,
            scn.detector,
            raman.total_at_receiver,
            duration_s,
            rates.afterpulse_probability_effective,
        )
        memory = _physical_memory_bytes()
        if need > memory:
            raise ConfigError(
                [
                    f"run.duration_s: {duration_s!r} s of Monte Carlo needs about "
                    f"{need / 2**30:.3g} GiB, more than the {memory / 2**30:.3g} GiB "
                    "of memory this process may use"
                ]
            )
        stream = simulate_timetags(
            scn.transmitter,
            budget,
            det=scn.detector,
            noise_rate=raman.total_at_receiver,
            duration_s=duration_s,
            seed=seed,
        )
        qber_report = sift_and_score(apply_gate(stream, scn.gate))
        run_seed = stream.seed
    key_report = secure_rate(qber_report, scn.f_ec, scn.transmitter.symbol_rate_hz)
    return RunResult(
        scenario_name=scn.name,
        mode=mode,
        path_loss_db=budget,
        raman=raman,
        dark_rate_hz=scn.detector.dark_rate_hz,
        qber_report=qber_report,
        keyrate_report=key_report,
        link_rates=rates,
        raw=scn.raw,
        seed=run_seed,
    )


def _physical_memory_bytes() -> float:
    """The machine's physical memory or this process's cgroup memory limit,
    whichever is smaller; infinite where neither is known."""
    try:
        memory = float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        memory = math.inf
    return min(memory, _cgroup_memory_limit_bytes())


_CGROUP_FILE = "/proc/self/cgroup"
_CGROUP_MOUNT = "/sys/fs/cgroup"


def _cgroup_memory_limit_bytes() -> float:
    """The memory limit of this process's cgroup, infinite if none.

    ``/proc/self/cgroup`` names the cgroup: a v2 line ``0::/path`` gives
    ``<mount>/path/memory.max``, a v1 line with the ``memory`` controller
    ``<mount>/memory/path/memory.limit_in_bytes``.  Every ancestor's limit
    holds too, so the smallest one from the cgroup up to the mount counts.
    ``max``, or a file that cannot be read or parsed, is no limit; v1's
    "unlimited" is a number above any machine's memory.
    """
    try:
        with open(_CGROUP_FILE) as handle:
            lines = handle.read().splitlines()
    except OSError:
        return math.inf
    limit = math.inf
    for line in lines:
        hierarchy, _, rest = line.partition(":")
        controllers, _, path = rest.partition(":")
        if hierarchy == "0" and not controllers:
            root, leaf = _CGROUP_MOUNT, "memory.max"
        elif "memory" in controllers.split(","):
            root, leaf = os.path.join(_CGROUP_MOUNT, "memory"), "memory.limit_in_bytes"
        else:
            continue
        parts = [part for part in path.split("/") if part]
        for depth in range(len(parts), -1, -1):
            try:
                with open(os.path.join(root, *parts[:depth], leaf)) as handle:
                    limit = min(limit, float(int(handle.read())))
            except (OSError, ValueError):  # unreadable, or "max"
                pass
    return limit


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def run_sweep(scn: Scenario) -> list[RunResult]:
    """One run per value of ``scn``'s sweep section, in axis order.

    :func:`~ponqkd.scenario.sweep_points` builds every point from the parsed
    ``scn`` before any runs, so a value no point takes is refused first.
    Every Monte Carlo point draws from its own child of the master seed, so
    results do not depend on scheduling.  The run mode picks the schedule.
    Monte Carlo points run on a thread pool of one thread per usable CPU, at
    most one per point: the draws and the dead-time pass run in numpy
    without the interpreter lock, and a 20 s budget sweep runs about 2x
    faster on two threads than on one.  Oracle points run one after another
    in the calling thread: each takes well under a millisecond, so the pool
    costs more than it saves.
    """
    if scn.sweep is None:
        raise ConfigError(["sweep: provide --axis and --values or a config with a sweep section"])
    points = sweep_points(scn)
    seeds = np.random.SeedSequence(scn.run.seed).spawn(len(points))
    if scn.run.mode == "oracle":
        return list(map(run_scenario, points, seeds))
    with ThreadPoolExecutor(max_workers=min(_usable_cpus(), len(points))) as pool:
        return list(pool.map(run_scenario, points, seeds))


def sweep_rows(values: Sequence, results: Sequence[RunResult]) -> list[dict]:
    rows = []
    for value, res in zip(values, results):
        rows.append(
            {
                "axis_value": value,
                "path_loss_db": res.path_loss_db,
                "raman_counts_s": res.raman.total_at_receiver,
                "dark_counts_s": res.dark_rate_hz,
                "raw_rate_bs": res.qber_report.raw_rate,
                "qber": res.qber_report.qber,
                "secure_rate_bs": res.keyrate_report.secure_rate,
                "secure_bits_per_pulse": res.keyrate_report.secure_bits_per_pulse,
            }
        )
    return rows


def sweep_csv(values: Sequence, results: Sequence[RunResult]) -> str:
    """Render the fixed-column sweep table."""
    lines = [",".join(SWEEP_COLUMNS)]
    for row in sweep_rows(values, results):
        lines.append(",".join(_format_number(row[col]) for col in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


def _format_number(value) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def report_dict(res: RunResult) -> dict:
    """Plain-dict view of a result with stable content."""
    return {
        "toolkit_version": VERSION,
        "config_hash": res.config_hash,
        "scenario": res.scenario_name,
        "mode": res.mode,
        "seed": res.seed,
        "path_loss_db": res.path_loss_db,
        "raman": asdict(res.raman) | {"total_at_receiver": res.raman.total_at_receiver},
        "link": asdict(res.link_rates) | {"total_rate": res.link_rates.total_rate},
        "qber": asdict(res.qber_report),
        "keyrate": asdict(res.keyrate_report),
    }


def emit_report(results: RunResult | Sequence[RunResult], fmt: str = "json") -> str:
    """Serialize results deterministically (same input, same bytes)."""
    if isinstance(results, RunResult):
        results = [results]
    if not results:
        raise ValueError("no results to emit")
    if fmt == "json":
        payload = [report_dict(r) for r in results]
        return json.dumps(payload[0] if len(payload) == 1 else payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        keys = ("scenario", "mode", "path_loss_db", "raw_rate_bs", "qber", "secure_rate_bs")
        lines = [",".join(keys)]
        for r in results:
            lines.append(
                ",".join(
                    [
                        r.scenario_name,
                        r.mode,
                        repr(r.path_loss_db),
                        repr(r.qber_report.raw_rate),
                        repr(r.qber_report.qber),
                        repr(r.keyrate_report.secure_rate),
                    ]
                )
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


@dataclass(frozen=True)
class CalibrationResult:
    parameter: str
    value: float
    residual: float
    observable: str
    target: float
    iterations: int


def _set_parameter(raw: dict, parameter: str, value: float) -> dict:
    """``raw`` with one parameter set; only the section holding it is copied."""
    section, key = parameter.split(".")
    if not isinstance(raw, dict):
        raise ConfigError(["configuration must be a JSON object"])
    target = raw.get(section, {})
    if not isinstance(target, dict):
        raise ConfigError([f"{section}: expected an object"])
    return {**raw, section: {**target, key: float(value)}}


def _observe(scn: Scenario, observable: str) -> float:
    return OBSERVABLES[observable](run_scenario(scn, mode="oracle"))


def calibrate(
    raw: dict, parameter: str, observable: str, target: float
) -> tuple[CalibrationResult, dict]:
    """Fit one scalar parameter so the oracle observable meets its anchor.

    Brent's method (:func:`ponqkd.roots.brentq`) on an expanding bracket;
    no sign change, or no convergence within ``roots.MAX_ITER`` iterations,
    raises :class:`CalibrationError` carrying the bracket diagnostics.  The
    config is parsed once, with the parameter at the bracket's low end; each
    objective call then has :func:`~ponqkd.scenario.reread` read the one
    section that holds the parameter.  A non-finite ``target`` raises
    :class:`ConfigError`.  Returns the result plus the calibrated config
    dict for persistence, which shares every section but the fitted one with
    ``raw``; ``raw`` itself is left as it was.
    """
    if parameter not in CALIBRATION_PARAMETERS:
        raise ConfigError(
            [f"parameter: {parameter!r} not one of {sorted(CALIBRATION_PARAMETERS)}"]
        )
    if observable not in OBSERVABLES:
        raise ConfigError([f"observable: {observable!r} not one of {list(OBSERVABLES)}"])
    if not math.isfinite(target):
        raise ConfigError([f"target: expected a finite number, got {target!r}"])

    lo, hi, limit = CALIBRATION_PARAMETERS[parameter]
    section = parameter.split(".")[0]
    base = parse_scenario(_set_parameter(raw, parameter, lo))

    def objective(p: float) -> float:
        point = reread(base, _set_parameter(base.raw, parameter, p), section)
        return _observe(point, observable) - target

    f_lo, f_hi = objective(lo), objective(hi)
    while limit is not None and f_lo * f_hi > 0.0 and hi < limit:
        hi = min(limit, hi * 10.0)
        f_hi = objective(hi)
    try:
        root, iterations = brentq(objective, lo, hi)
    except RootError as exc:
        raise CalibrationError(f"{parameter} against {observable} target {target}: {exc}") from exc
    residual = objective(root)
    result = CalibrationResult(
        parameter=parameter,
        value=root,
        residual=residual,
        observable=observable,
        target=target,
        iterations=iterations,
    )
    return result, _set_parameter(raw, parameter, root)
