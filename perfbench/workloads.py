"""The three benchmark workloads: inputs from the seed, one op, output checks.

Each workload builds its config dicts from the bundled scenarios and the
benchmark seed, parses them once (set-up), and then runs ops through the
public ``ponqkd`` API.  ``run`` is the timed op; ``check`` verifies its
output afterwards and returns a list of problems (empty when correct).
``run`` also returns the op's output bytes (reports, CSV tables) for the
determinism checks.
"""

from __future__ import annotations

import copy
import hashlib
import importlib
import math
import threading

import numpy as np

import ponqkd
import ponqkd.runner
import ponqkd.scenarios

Z_LIMIT = 5.0
MC_RUN_DURATION_S = 30.0
MC_SWEEP_DURATION_S = 20.0
KNOWN_GAP_BUDGETS_DB = (10.0, 11.0, 12.0)  # afterpulse-law gap; must stay in the sweep


def op_seed(seed: int, *index: int) -> int:
    """Seed of one op (and one call within it), fixed by the benchmark seed."""
    key = ":".join(str(v) for v in (seed, *index)).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "little")


def z_scores(oracle_q, mc_q) -> tuple[float, float]:
    """Poisson z of the sifted count and binomial z of the error count.

    The formula of the acceptance suite's oracle-equivalence checks.
    """
    expected_bits = oracle_q.raw_rate * mc_q.duration_s
    z_bits = (mc_q.sifted_bits - expected_bits) / math.sqrt(expected_bits)
    expected_errors = oracle_q.qber * mc_q.sifted_bits
    z_err = (mc_q.error_bits - expected_errors) / math.sqrt(
        expected_errors * (1.0 - oracle_q.qber)
    )
    return z_bits, z_err


def stream_problems(stream, dead_time_s: float) -> list[str]:
    """Tags inside [0, duration] and, per port, no two closer than the dead time."""
    times = np.asarray(stream.times_s)
    if not len(times):
        return []
    problems = []
    if times.min() < 0.0 or times.max() > stream.duration_s:
        problems.append("tag outside the simulated span")
    ports = np.asarray(stream.ports)
    for port in np.unique(ports):
        gaps = np.diff(times[ports == port])
        # registering t blocks the port until t + tau; allow rounding of that sum
        if len(gaps) and gaps.min() < dead_time_s * (1.0 - 1e-9):
            problems.append(
                f"port {int(port)}: clicks {gaps.min():.3e} s apart, dead time {dead_time_s:.3e} s"
            )
    return problems


class Capture:
    """Checks every stream the runner gets back, while the op runs.

    Wraps ``simulate_timetags`` and ``apply_gate`` as the runner calls them
    (the stream checks are a few vectorised passes, well under 1 % of an op,
    and keep no stream alive past its run), and ``run_sweep`` plus
    ``run_scenario`` to see which threads ran the sweep points.  A name that
    is gone is left out and listed in ``missing``.
    """

    def __init__(self) -> None:
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.problems: list[str] = []
        self.streams = 0
        self.sweep_threads: set[int] = set()
        self._in_sweep = 0

    def _checked(self, stream, dead_time_s: float) -> None:
        problems = stream_problems(stream, dead_time_s)
        with self._lock:
            self.problems.extend(problems)
            self.streams += 1

    def _simulate(self, fn):
        def simulate(*args, **kwargs):
            stream = fn(*args, **kwargs)
            det = args[3] if len(args) > 3 else kwargs["det"]
            self._checked(stream, det.dead_time_s)
            return stream

        return simulate

    def _gate(self, fn):
        def gate(*args, **kwargs):
            stream = fn(*args, **kwargs)
            self._checked(stream, 0.0)  # dead time was checked on the way in
            return stream

        return gate

    def _sweep(self, fn):
        def sweep(*args, **kwargs):
            self._in_sweep += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_sweep -= 1

        return sweep

    def _point(self, fn):
        def point(*args, **kwargs):
            if self._in_sweep:
                self.sweep_threads.add(threading.get_ident())
            return fn(*args, **kwargs)

        return point

    def install(self) -> None:
        self._lock = threading.Lock()
        self.missing = []
        for site, make in (
            ("ponqkd.runner:simulate_timetags", self._simulate),
            ("ponqkd.runner:apply_gate", self._gate),
            ("ponqkd:run_sweep", self._sweep),
            ("ponqkd.runner:run_scenario", self._point),
        ):
            module_name, attr = site.split(":")
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(site)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, make(fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


class Workload:
    name = ""
    compare_every_op = False  # oracle: every op must emit op 0's bytes

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.z: list[tuple[int, str, float, float]] = []  # (op, point, z_bits, z_err)

    def parse(self) -> None:
        """Set-up: parse the workload's scenarios."""

    def reference(self) -> None:
        """Untimed oracle values the checks compare against."""

    def prepare(self, op: int):
        """Untimed per-op input."""
        return op

    def run(self, inp) -> tuple[object, str]:
        raise NotImplementedError

    def check(self, op: int, inp, results) -> list[str]:
        return []

    def record_z(self, op: int, point: str, oracle_res, mc_res) -> None:
        z_bits, z_err = z_scores(oracle_res.qber_report, mc_res.qber_report)
        self.z.append((op, point, z_bits, z_err))

    def outliers(self) -> tuple[int, int]:
        """(points with |z| > Z_LIMIT, points run)."""
        bad = sum(1 for _, _, zb, ze in self.z if max(abs(zb), abs(ze)) > Z_LIMIT)
        return bad, len(self.z)


class McRun(Workload):
    name = "mc-run"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        us20 = ponqkd.bundled_scenario("pon-us-20")
        us20["gate"]["slot_phase_s"] = "auto"
        self.raw = {"pon-baseline": ponqkd.bundled_scenario("pon-baseline"), "pon-us-20": us20}

    def parse(self) -> None:
        self.scn = {name: ponqkd.parse_scenario(raw) for name, raw in self.raw.items()}

    def reference(self) -> None:
        self.oracle = {name: ponqkd.run_scenario(s, mode="oracle") for name, s in self.scn.items()}

    def prepare(self, op: int) -> list[int]:
        return [op_seed(self.seed, op, k) for k in range(len(self.scn))]

    def run(self, seeds):
        results = [
            ponqkd.run_scenario(s, seed=seed, mode="monte_carlo", duration_s=MC_RUN_DURATION_S)
            for s, seed in zip(self.scn.values(), seeds)
        ]
        return results, ponqkd.emit_report(results)

    def check(self, op, seeds, results) -> list[str]:
        problems = []
        for name, seed, res in zip(self.scn, seeds, results):
            if res.seed != seed or res.mode != "monte_carlo":
                problems.append(f"{name}: seed {res.seed}, mode {res.mode}; asked {seed}")
            if abs(res.qber_report.duration_s - MC_RUN_DURATION_S) > 1e-9 * MC_RUN_DURATION_S:
                problems.append(f"{name}: simulated {res.qber_report.duration_s} s")
            self.record_z(op, name, self.oracle[name], res)
        return problems


class McBudgetSweep(Workload):
    name = "mc-budget-sweep"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        raw = ponqkd.bundled_scenario("b2b-budget-sweep")
        raw["run"].update(mode="monte_carlo", duration_s=MC_SWEEP_DURATION_S)
        self.raw = raw
        self.axis = raw["sweep"]["axis"]
        self.values = list(raw["sweep"]["values"])
        missing = [b for b in KNOWN_GAP_BUDGETS_DB if b not in self.values]
        if missing:
            raise ValueError(f"b2b-budget-sweep lost the budgets {missing}")

    def parse(self) -> None:
        self.scn = ponqkd.parse_scenario(self.raw)

    def reference(self) -> None:
        self.oracle = [
            ponqkd.run_scenario(
                ponqkd.parse_scenario(ponqkd.apply_axis(self.raw, self.axis, v)), mode="oracle"
            )
            for v in self.values
        ]

    def prepare(self, op: int):
        raw = copy.deepcopy(self.raw)
        raw["run"]["seed"] = op_seed(self.seed, op)
        return ponqkd.parse_scenario(raw)

    def run(self, scn):
        results = ponqkd.run_sweep(scn)
        return results, ponqkd.sweep_csv(self.values, results)

    def check(self, op, scn, results) -> list[str]:
        problems = []
        if len(results) != len(self.values):
            return [f"{len(results)} sweep rows for {len(self.values)} budgets"]
        for value, res, oracle in zip(self.values, results, self.oracle):
            # on an attenuator link the path loss is the axis value itself
            if res.path_loss_db != value or res.mode != "monte_carlo":
                problems.append(f"row for {value} dB reads {res.path_loss_db} dB ({res.mode})")
                continue
            self.record_z(op, f"{value:g} dB", oracle, res)
        return problems


# (parameter, constant baked into ponqkd.scenarios) in chain order
CAL_CHAIN = (
    ("raman.scale", "CAL_RAMAN_SCALE"),
    ("detector.excess_loss_db", "CAL_EXCESS_LOSS_DB"),
    ("transmitter.visibility", "CAL_VISIBILITY"),
)


class OracleCalibrate(Workload):
    name = "oracle-calibrate"
    compare_every_op = True

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        run_seed = op_seed(seed, 0)  # one seed per run keeps every op's bytes equal
        self.raw = {}
        for name in ponqkd.bundled_names():
            raw = ponqkd.bundled_scenario(name)
            raw["run"]["seed"] = run_seed
            self.raw[name] = raw
        self.sweeps = [n for n, raw in self.raw.items() if "sweep" in raw]
        self.runs = [n for n, raw in self.raw.items() if "sweep" not in raw]

    def parse(self) -> None:
        self.scn = {name: ponqkd.parse_scenario(raw) for name, raw in self.raw.items()}

    def reference(self) -> None:
        """Sweep tables built point by point, in axis order, without the pool."""
        self.serial_csv = {}
        for name in self.sweeps:
            raw = self.raw[name]
            axis, values = raw["sweep"]["axis"], raw["sweep"]["values"]
            points = [
                ponqkd.run_scenario(
                    ponqkd.parse_scenario(ponqkd.apply_axis(raw, axis, v)), mode="oracle"
                )
                for v in values
            ]
            self.serial_csv[name] = ponqkd.sweep_csv(values, points)

    def _chain(self):
        """The three anchors, in order; later fits start from earlier ones."""
        scale, _ = ponqkd.calibrate(
            copy.deepcopy(self.raw["pon-us-1"]), "raman.scale", "raman_total", 360.0
        )
        base = copy.deepcopy(self.raw["pon-baseline"])
        base["raman"]["scale"] = scale.value
        loss, fitted = ponqkd.calibrate(base, "detector.excess_loss_db", "raw_rate", 2700.0)
        visibility, fitted = ponqkd.calibrate(fitted, "transmitter.visibility", "qber", 0.0377)
        return [scale, loss, visibility], fitted

    def run(self, _):
        fits, fitted = self._chain()
        parts = [f"{f.parameter}={f.value!r} iterations={f.iterations}\n" for f in fits]
        sweeps = {}
        for name in self.sweeps:
            scn = self.scn[name]
            results = ponqkd.run_sweep(scn)
            sweeps[name] = ponqkd.sweep_csv(scn.sweep["values"], results)
            parts.append(sweeps[name])
        for name in self.runs:
            parts.append(ponqkd.emit_report(ponqkd.run_scenario(self.scn[name], mode="oracle")))
        return (fits, fitted, sweeps), "".join(parts)

    def check(self, op, _, results) -> list[str]:
        fits, fitted, sweeps = results
        problems = []
        for fit, (parameter, constant) in zip(fits, CAL_CHAIN):
            baked = getattr(ponqkd.scenarios, constant)
            if abs(fit.value - baked) > 1e-9 * abs(baked):
                problems.append(f"{parameter} fit {fit.value!r}, {constant} = {baked!r}")
        scale_raw = copy.deepcopy(self.raw["pon-us-1"])
        scale_raw["raman"]["scale"] = fits[0].value
        raman = ponqkd.run_scenario(ponqkd.parse_scenario(scale_raw), mode="oracle")
        base = ponqkd.run_scenario(ponqkd.parse_scenario(fitted), mode="oracle").qber_report
        # acceptance criteria 3 (Raman anchor) and 1 (rate and QBER anchors)
        if abs(raman.raman.total_at_receiver - 360.0) > 0.01:
            problems.append(f"raman anchor {raman.raman.total_at_receiver} counts/s")
        if abs(base.raw_rate - 2700.0) > 0.01 * 2700.0:
            problems.append(f"raw-rate anchor {base.raw_rate} bit/s")
        if abs(base.qber * 100.0 - 3.77) > 0.05:
            problems.append(f"QBER anchor {base.qber * 100.0} %")
        for name, csv in sweeps.items():
            if csv != self.serial_csv[name]:
                problems.append(f"{name}: sweep table differs from the serial, in-order table")
        return problems


WORKLOADS = {w.name: w for w in (McRun, McBudgetSweep, OracleCalibrate)}
