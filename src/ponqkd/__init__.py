"""Quantum/classical coexistence simulator for splitter based optical access.

Models a differential phase shift quantum link sharing a passive optical
distribution network with classical WDM traffic: loss budgets, spontaneous
Raman scattering into the quantum band, detection statistics, sifted error
rates and secure key throughput.

The package root exports what the command line verbs run: bundled
scenarios, the parser, single runs, sweeps, reports and calibration, and
the two errors they raise.  Every other name lives in its submodule and is
not a stable surface.
"""

from .errors import CalibrationError, ConfigError
from .runner import VERSION as __version__
from .runner import calibrate, emit_report, run_scenario, run_sweep, sweep_csv
from .scenario import apply_axis, parse_scenario
from .scenarios import bundled_names, bundled_scenario

__all__ = [
    "__version__",
    "CalibrationError",
    "ConfigError",
    "apply_axis",
    "bundled_names",
    "bundled_scenario",
    "calibrate",
    "emit_report",
    "parse_scenario",
    "run_scenario",
    "run_sweep",
    "sweep_csv",
]
