"""Quantum/classical coexistence simulator for splitter based optical access.

Models a differential phase shift quantum link sharing a passive optical
distribution network with classical WDM traffic: loss budgets, spontaneous
Raman scattering into the quantum band, detection statistics, sifted error
rates and secure key throughput.
"""

from .dpslink import (
    DetectorModel,
    LinkRates,
    TimeTagStream,
    TransmitterConfig,
    click_rate_oracle,
    simulate_timetags,
)
from .errors import (
    CalibrationError,
    ConfigError,
    DataError,
    PathElementError,
    ShiftRangeError,
    WavelengthRangeError,
)
from .keyrate import (
    KeyRateReport,
    binary_entropy,
    collision_probability,
    dps_shrink_factor,
    positivity_threshold,
    secure_rate,
)
from .raman import (
    ChannelPlan,
    RamanContribution,
    RamanProfile,
    WavelengthChannel,
    default_raman_profile,
    equivalent_dwdm_power_dbm,
    filter_noise_rejection_db,
    odn_noise_at_bob,
)
from .runner import (
    CalibrationResult,
    RunResult,
    calibrate,
    emit_report,
    run_scenario,
    run_sweep,
    sweep_csv,
    VERSION as __version__,
)
from .scenario import Scenario, apply_axis, config_hash, parse_scenario
from .scenarios import bundled_names, bundled_scenario
from .sifting import (
    GateConfig,
    QberReport,
    apply_gate,
    estimate_slot_phase,
    oracle_qber_report,
    sift_and_score,
)
from .topology import (
    FilterProfile,
    OdnTopology,
    Splitter,
    path_loss_db,
)

__all__ = [
    "__version__",
    "CalibrationError",
    "CalibrationResult",
    "ChannelPlan",
    "ConfigError",
    "DataError",
    "DetectorModel",
    "FilterProfile",
    "GateConfig",
    "KeyRateReport",
    "LinkRates",
    "OdnTopology",
    "PathElementError",
    "QberReport",
    "RamanContribution",
    "RamanProfile",
    "RunResult",
    "Scenario",
    "ShiftRangeError",
    "Splitter",
    "TimeTagStream",
    "TransmitterConfig",
    "WavelengthChannel",
    "WavelengthRangeError",
    "apply_axis",
    "apply_gate",
    "binary_entropy",
    "bundled_names",
    "bundled_scenario",
    "calibrate",
    "click_rate_oracle",
    "collision_probability",
    "config_hash",
    "default_raman_profile",
    "dps_shrink_factor",
    "emit_report",
    "equivalent_dwdm_power_dbm",
    "estimate_slot_phase",
    "filter_noise_rejection_db",
    "odn_noise_at_bob",
    "oracle_qber_report",
    "parse_scenario",
    "path_loss_db",
    "positivity_threshold",
    "run_scenario",
    "run_sweep",
    "secure_rate",
    "sift_and_score",
    "simulate_timetags",
    "sweep_csv",
]
