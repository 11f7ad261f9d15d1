"""Experiment orchestration: single runs, sweeps, reports, and calibration,
which fits one parameter per anchor with :func:`ponqkd.roots.brentq`."""

from __future__ import annotations

import copy
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .dpslink import click_rate_oracle, simulate_timetags, LinkRates
from .errors import CalibrationError, ConfigError
from .keyrate import KeyRateReport, secure_rate
from .raman import RamanContribution, odn_noise_at_bob
from .roots import RootError, brentq
from .scenario import Scenario, apply_axis, config_hash, parse_scenario
from .sifting import QberReport, apply_gate, oracle_qber_report, sift_and_score

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
    scenario_name: str
    mode: str
    path_loss_db: float
    raman: RamanContribution
    dark_rate_hz: float
    qber_report: QberReport
    keyrate_report: KeyRateReport
    link_rates: LinkRates
    config_hash: str
    seed: int | None


def _noise_contribution(scn: Scenario) -> RamanContribution:
    if scn.topology is None or not scn.plan.channels:
        return RamanContribution(0.0, 0.0, 0.0)
    return odn_noise_at_bob(scn.plan, scn.topology, scn.rx_filter, scn.profile)


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
    """
    mode = mode or scn.run.mode
    raman = _noise_contribution(scn)
    budget = scn.quantum_path_loss_db
    try:
        rates = click_rate_oracle(
            scn.transmitter,
            budget,
            scn.detector,
            noise_rate=raman.total_at_receiver,
            gate_fraction=scn.gate.gate_fraction,
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
        use_seed = scn.run.seed if seed is None else seed
        duration_s = duration_s or scn.run.duration_s
        if duration_s * scn.transmitter.symbol_rate_hz >= 2.0**63:  # numpy counts in int64
            raise ConfigError([f"run.duration_s: {duration_s!r} s holds more than 2**63 symbols"])
        stream = simulate_timetags(
            scn.transmitter,
            budget,
            det=scn.detector,
            noise_rate=raman.total_at_receiver,
            duration_s=duration_s,
            seed=use_seed,
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
        config_hash=config_hash(scn.raw),
        seed=run_seed,
    )


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def run_sweep(
    scn: Scenario,
    axis: str | None = None,
    values: Sequence | None = None,
) -> list[RunResult]:
    """One run per axis value, in axis order regardless of completion order.

    Every Monte Carlo point draws from its own child of the master seed, so
    results do not depend on scheduling.  Points run on a thread pool of one
    thread per usable CPU, at most one per point.
    """
    if axis is None or values is None:
        if scn.sweep is None:
            raise ConfigError(["sweep: scenario carries no sweep section and none was given"])
        axis = axis or scn.sweep["axis"]
        values = values if values is not None else scn.sweep["values"]
    if not values:
        raise ConfigError(["sweep.values: expected a non-empty list"])
    children = np.random.SeedSequence(scn.run.seed).spawn(len(values))

    def one(item: tuple[int, float]) -> RunResult:
        index, value = item
        point = parse_scenario(apply_axis(scn.raw, axis, value))
        return run_scenario(point, seed=children[index])

    with ThreadPoolExecutor(max_workers=min(_usable_cpus(), len(values))) as pool:
        return list(pool.map(one, enumerate(values)))


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
    section, key = parameter.split(".")
    if not isinstance(raw, dict):
        raise ConfigError(["configuration must be a JSON object"])
    out = copy.deepcopy(raw)
    target = out.setdefault(section, {})
    if not isinstance(target, dict):
        raise ConfigError([f"{section}: expected an object"])
    target[key] = float(value)
    return out


def _observe(raw: dict, observable: str) -> float:
    return OBSERVABLES[observable](run_scenario(parse_scenario(raw), mode="oracle"))


def calibrate(
    raw: dict, parameter: str, observable: str, target: float
) -> tuple[CalibrationResult, dict]:
    """Fit one scalar parameter so the oracle observable meets its anchor.

    Brent's method (:func:`ponqkd.roots.brentq`) on an expanding bracket;
    no sign change, or no convergence within ``roots.MAX_ITER`` iterations,
    raises :class:`CalibrationError` carrying the bracket diagnostics.  Returns
    the result plus the calibrated config dict for persistence.
    """
    if parameter not in CALIBRATION_PARAMETERS:
        raise ConfigError(
            [f"parameter: {parameter!r} not one of {sorted(CALIBRATION_PARAMETERS)}"]
        )
    if observable not in OBSERVABLES:
        raise ConfigError([f"observable: {observable!r} not one of {list(OBSERVABLES)}"])

    def objective(p: float) -> float:
        return _observe(_set_parameter(raw, parameter, p), observable) - target

    lo, hi, limit = CALIBRATION_PARAMETERS[parameter]
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
