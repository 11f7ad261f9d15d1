"""The ponqkd layers the traced run wraps, and the per-layer metrics built from them.

Each site is a module-level name the program looks up at call time, so the
wrapper sees calls made inside ponqkd (``runner.run_scenario`` calling
``simulate_timetags``) as well as calls made by the benchmark through the
package namespace.
"""

from __future__ import annotations

from statistics import fmean

from tracer import Layer, Tracer, busy_times_ns, children_of, layer_metrics

ORIGIN_AFTERPULSE = 3  # ponqkd.dpslink.ORIGIN_AFTERPULSE


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _raman_counts(args, kwargs, result) -> dict[str, float]:
    return {"raman.noise.channels": len(_arg(args, kwargs, 0, "plan").channels)}


def _simulate_counts(args, kwargs, stream) -> dict[str, float]:
    return {
        "dpslink.simulate.tags": len(stream.times_s),
        "dpslink.simulate.afterpulses": int((stream.origins == ORIGIN_AFTERPULSE).sum()),
    }


def _gate_counts(args, kwargs, stream) -> dict[str, float]:
    return {
        "sifting.gate.tags_in": len(_arg(args, kwargs, 0, "stream").times_s),
        "sifting.gate.tags_kept": len(stream.times_s),
    }


def _calibrate_counts(args, kwargs, result) -> dict[str, float]:
    iterations = getattr(result[0], "iterations", None)
    return {} if iterations is None else {"runner.calibrate.iterations": iterations}


LAYERS = (
    Layer("scenario.parse", ("ponqkd:parse_scenario", "ponqkd.runner:parse_scenario")),
    Layer("scenario.apply_axis", ("ponqkd:apply_axis", "ponqkd.runner:apply_axis")),
    Layer("topology.path_loss", ("ponqkd.scenario:path_loss_db",)),
    Layer("raman.noise", ("ponqkd.runner:odn_noise_at_bob",), _raman_counts),
    Layer("dpslink.oracle", ("ponqkd.runner:click_rate_oracle",)),
    Layer("dpslink.saturation_solve", ("ponqkd.dpslink:_saturation_fixed_point",)),
    Layer("dpslink.simulate", ("ponqkd.runner:simulate_timetags",), _simulate_counts),
    Layer("sifting.gate", ("ponqkd.runner:apply_gate",), _gate_counts),
    Layer("sifting.sift", ("ponqkd.runner:sift_and_score",)),
    Layer("keyrate.secure_rate", ("ponqkd.runner:secure_rate",)),
    Layer("runner.run_scenario", ("ponqkd:run_scenario", "ponqkd.runner:run_scenario")),
    Layer("runner.sweep", ("ponqkd:run_sweep", "ponqkd.runner:run_sweep")),
    Layer(
        "runner.report",
        (
            "ponqkd:emit_report",
            "ponqkd.runner:emit_report",
            "ponqkd:sweep_csv",
            "ponqkd.runner:sweep_csv",
        ),
    ),
    Layer("runner.root_find", ("ponqkd.runner:brentq",)),
    Layer("runner.calibrate", ("ponqkd:calibrate", "ponqkd.runner:calibrate"), _calibrate_counts),
    Layer("runner.calibrate.objective", ("ponqkd.runner:_observe",), timed=False),
)


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when the layer saw no work at all."""
    return num / den if den else 0.0


def derived_metrics(tracer: Tracer, n_ops: int) -> dict[str, float | None]:
    """Counts and ratios measured at the layer boundaries, per traced op."""
    c = tracer.counters
    spans = tracer.spans
    here = tracer.present.__contains__
    out: dict[str, float | None] = {}

    raman_calls = sum(1 for s in spans if s.name == "raman.noise")
    out["raman.noise.channels"] = (
        _ratio(c["raman.noise.channels"], raman_calls) if here("raman.noise") else None
    )

    if here("dpslink.simulate"):
        busy_ns = busy_times_ns(spans)
        sim_ns = sum(busy_ns[s.id] for s in spans if s.name == "dpslink.simulate")
        tags = c["dpslink.simulate.tags"]
        out["dpslink.simulate.tags_out"] = tags / n_ops
        out["dpslink.simulate.ns_per_tag"] = _ratio(sim_ns, tags)
        out["dpslink.simulate.afterpulse_share"] = _ratio(c["dpslink.simulate.afterpulses"], tags)
    else:
        out["dpslink.simulate.tags_out"] = None
        out["dpslink.simulate.ns_per_tag"] = None
        out["dpslink.simulate.afterpulse_share"] = None

    out["sifting.gate.kept_frac"] = (
        _ratio(c["sifting.gate.tags_kept"], c["sifting.gate.tags_in"])
        if here("sifting.gate")
        else None
    )
    out["runner.calibrate.iterations"] = (
        c["runner.calibrate.iterations"] / n_ops if here("runner.calibrate") else None
    )
    out["runner.calibrate.objective_evals"] = (
        sum(1 for s in spans if s.name == "runner.calibrate.objective") / n_ops
        if here("runner.calibrate.objective")
        else None
    )

    if here("runner.sweep"):
        children = children_of(spans)
        threads, overlap = [], []
        for sweep in (s for s in spans if s.name == "runner.sweep"):
            points = children.get(sweep.id, [])
            threads.append(len({p.thread for p in points}))
            wall = sweep.end_ns - sweep.start_ns
            overlap.append(_ratio(sum(p.end_ns - p.start_ns for p in points), wall))
        out["runner.sweep.threads"] = fmean(threads) if threads else 0.0
        out["runner.sweep.overlap"] = fmean(overlap) if overlap else 0.0
    else:
        out["runner.sweep.threads"] = None
        out["runner.sweep.overlap"] = None
    return out


def per_layer(tracer: Tracer, n_ops: int) -> dict[str, float | None]:
    return layer_metrics(tracer, n_ops) | derived_metrics(tracer, n_ops)
