"""Command line front end.

Exit codes: 0 success, 2 configuration problem, 3 calibration failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CalibrationError, ConfigError
from .runner import (
    OBSERVABLES,
    CALIBRATION_PARAMETERS,
    _json,
    calibrate,
    emit_report,
    run_scenario,
    run_sweep,
    sweep_csv,
    sweep_rows,
)
from .scenario import RUN_MODES, SWEEP_AXES, parse_scenario, sweep_points
from .scenarios import DESCRIPTIONS, bundled_names, bundled_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CALIBRATION = 3


def _load_config(ref: str) -> dict:
    if ref in bundled_names():
        return bundled_scenario(ref)
    try:
        with open(ref, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError:  # no such file, a directory, no permission
        raise ConfigError(
            [f"--config: {ref!r} is neither a bundled scenario nor a readable file"]
        )
    except UnicodeDecodeError as exc:
        raise ConfigError([f"--config: {ref}: not UTF-8 text ({exc})"])
    except RecursionError:
        raise ConfigError([f"--config: {ref}: invalid JSON (nested too deeply)"])
    except ValueError as exc:  # json.JSONDecodeError, or an integer of over 4300 digits
        raise ConfigError([f"--config: {ref}: invalid JSON ({exc})"])


def _apply_overrides(raw: dict, args: argparse.Namespace) -> dict:
    """``raw`` with the flags given written into its ``run`` and ``sweep`` sections."""
    if not isinstance(raw, dict):
        return raw  # parse_scenario reports the malformed config
    values = getattr(args, "values", None)
    flags = (
        ("run", "mode", args.mode),
        ("run", "seed", args.seed),
        ("run", "duration_s", args.duration),
        ("sweep", "axis", getattr(args, "axis", None)),
        ("sweep", "values", None if values is None else _parse_values(values)),
    )
    for name, key, value in flags:
        if value is not None and isinstance(raw.setdefault(name, {}), dict):
            raw[name][key] = value
    return raw


def _write(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as handle:
            handle.write(text)
    except OSError as exc:  # no such directory, a directory, no permission
        raise ConfigError([f"--out: cannot write {out!r} ({exc.strerror})"])


def _cmd_run(args: argparse.Namespace) -> int:
    raw = _apply_overrides(_load_config(args.config), args)
    result = run_scenario(parse_scenario(raw))
    _write(emit_report(result, fmt=args.format), args.out)
    return EXIT_OK


def _parse_values(text: str) -> list[float]:
    try:
        values = [float(item) for item in text.split(",") if item.strip()]
    except ValueError:
        raise ConfigError([f"--values: could not parse {text!r} as comma separated numbers"])
    if not values:
        raise ConfigError(["--values: expected at least one number"])
    return [int(v) if float(v).is_integer() else v for v in values]


def _cmd_sweep(args: argparse.Namespace) -> int:
    scn = parse_scenario(_apply_overrides(_load_config(args.config), args))
    results = run_sweep(scn)
    values = scn.sweep["values"]
    if args.format == "json":
        text = _json(sweep_rows(values, results))
    else:
        text = sweep_csv(values, results)
    _write(text, args.out)
    return EXIT_OK


def _cmd_calibrate(args: argparse.Namespace) -> int:
    raw = _load_config(args.config)
    result, fitted = calibrate(raw, args.param, args.observable, args.target)
    if args.out:  # first, so that a path it cannot write leaves no fit printed
        _write(_json(fitted), args.out)
    _write(_json(vars(result)), None)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    raw = _load_config(args.config)
    scn = parse_scenario(raw)
    if scn.sweep is not None:
        sweep_points(scn)  # each point is built, none is run
    sys.stdout.write(f"ok {scn.name} {scn.config_hash}\n")
    return EXIT_OK


def _cmd_scenarios(args: argparse.Namespace) -> int:
    for name in bundled_names():
        sys.stdout.write(f"{name:20s} {DESCRIPTIONS.get(name, '')}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ponqkd",
        description="Quantum/classical PON coexistence link simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="bundled scenario name or JSON path")
        p.add_argument("--mode", choices=RUN_MODES)
        p.add_argument("--seed", type=int)
        p.add_argument("--duration", type=float, help="Monte Carlo duration in seconds")
        p.add_argument("--out", help="write output here instead of stdout")

    p_run = sub.add_parser("run", help="evaluate one scenario")
    common(p_run)
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="evaluate a scenario along one axis")
    common(p_sweep)
    p_sweep.add_argument("--axis", choices=SWEEP_AXES)
    p_sweep.add_argument("--values", help="comma separated axis values")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cal = sub.add_parser("calibrate", help="fit one scalar parameter to an anchor")
    p_cal.add_argument("--config", required=True)
    p_cal.add_argument("--param", required=True, choices=sorted(CALIBRATION_PARAMETERS))
    p_cal.add_argument("--observable", required=True, choices=OBSERVABLES)
    p_cal.add_argument("--target", required=True, type=float)
    p_cal.add_argument("--out", help="write the calibrated config here")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_val = sub.add_parser("validate", help="check a config and print its hash")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=_cmd_validate)

    p_ls = sub.add_parser("scenarios", help="list bundled scenarios")
    p_ls.set_defaults(func=_cmd_scenarios)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except CalibrationError as exc:
        sys.stderr.write(f"calibration error: {exc}\n")
        return EXIT_CALIBRATION


if __name__ == "__main__":
    sys.exit(main())
