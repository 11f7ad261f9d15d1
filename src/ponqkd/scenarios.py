"""Bundled scenario library.

Every entry is a complete, validated config dict.  Wavelength grids are
defined on frequency so channel spacing is exact; power levels and the
three calibrated constants below pin the library to the reference plant
(2:16 split, 16.1/14.2 km quantum reach, 1310 nm quantum channel).
"""

from __future__ import annotations

import copy

from .raman import C_NM_THZ

# Fitted with runner.calibrate against the reference anchors:
#   raman scale   -> 360 counts/s at the receiver with one upstream channel
#   excess loss   -> 2700 bit/s raw rate for the gated quiet baseline
#   visibility    -> 3.77 % QBER for the same baseline
CAL_RAMAN_SCALE = 4.16612525071873e-10
CAL_EXCESS_LOSS_DB = 14.838063413592717
CAL_VISIBILITY = 0.9902152013692966

UPSTREAM_POWER_DBM = 2.5
DOWNSTREAM_C_POWER_DBM = 2.5
DOWNSTREAM_L_POWER_DBM = -1.9
CWDM_POWER_DBM = -0.7

CWDM_GRID_NM = (1431.0, 1451.0, 1471.0, 1491.0, 1511.0)


def _grid_thz(start_thz: float, count: int) -> list[float]:
    """``count`` frequencies down from ``start_thz`` on the 100 GHz grid."""
    return [start_thz - i * 0.1 for i in range(count)]


def _channel(center_nm: float, power_dbm: float, direction: str, tag: str) -> dict:
    return {
        "center_nm": center_nm,
        "launch_power_dbm": power_dbm,
        "direction": direction,
        "band_tag": tag,
    }


def upstream_c_channels(count: int) -> list[dict]:
    """Upstream block, red side of the C band, 100 GHz spacing.

    The first entry (193.9 THz) is the single-transmitter anchor used for
    the Raman scale calibration.
    """
    if not 1 <= count <= 20:
        raise ValueError("upstream count must be between 1 and 20")
    return [
        _channel(C_NM_THZ / f, UPSTREAM_POWER_DBM, "upstream", "c-up")
        for f in _grid_thz(193.9, count)
    ]


def downstream_c_channels() -> list[dict]:
    """Downstream block, blue side of the C band, 20 channels."""
    return [
        _channel(C_NM_THZ / f, DOWNSTREAM_C_POWER_DBM, "downstream", "c-down")
        for f in _grid_thz(196.0, 20)
    ]


def downstream_l_channels() -> list[dict]:
    """Downstream L band video/data overlay, 32 channels."""
    return [
        _channel(C_NM_THZ / f, DOWNSTREAM_L_POWER_DBM, "downstream", "l-down")
        for f in _grid_thz(190.1, 32)
    ]


def cwdm_channels() -> list[dict]:
    """Coarse downstream overlay closest to the quantum band."""
    return [_channel(nm, CWDM_POWER_DBM, "downstream", "cwdm") for nm in CWDM_GRID_NM]


def _base(name: str) -> dict:
    return {
        "schema": 1,
        "name": name,
        "topology": {
            "kind": "odn",
            "port_count": 16,
            "feeder_down_km": 13.2,
            "feeder_up_km": 15.1,
            "drop_km": 1.0,
            "excess_loss_db": 0.0,
            "directivity_db": 55.0,
        },
        "channels": {
            "quantum_center_nm": 1310.0,
            "rx_filter": {"shape": "gaussian", "center_nm": 1310.0, "fwhm_nm": 1.22},
            "classical": [],
        },
        "raman": {"profile": "default", "scale": CAL_RAMAN_SCALE, "temperature_k": 295.0},
        "transmitter": {
            "symbol_rate_hz": 1.0e9,
            "mean_photon_number": 0.1,
            "carve_duty": 0.2,
            "visibility": CAL_VISIBILITY,
        },
        "detector": {
            "efficiency": 0.10,
            "dark_rate_hz": 520.0,
            "dead_time_s": 1.0e-5,
            "afterpulse_probability": 0.02,
            "afterpulse_decay_s": 5.0e-6,
            "afterpulse_memory_s": 4.0e-4,
            "excess_loss_db": CAL_EXCESS_LOSS_DB,
            "monitored_ports": "one",
        },
        "gate": {"gate_fraction": 0.30, "slot_phase_s": 0.0},
        "keyrate": {"f_ec": 1.45},
        "run": {"mode": "oracle", "duration_s": 30.0, "seed": 7},
    }


def _with_channels(name: str, channels: list[dict]) -> dict:
    cfg = _base(name)
    cfg["channels"]["classical"] = channels
    return cfg


def _build_library() -> dict[str, dict]:
    lib: dict[str, dict] = {}
    lib["pon-baseline"] = _base("pon-baseline")

    ladder = downstream_l_channels()
    lib["pon-ds-l"] = _with_channels("pon-ds-l", list(ladder))
    ladder = ladder + downstream_c_channels()
    lib["pon-ds-lc"] = _with_channels("pon-ds-lc", list(ladder))
    ladder = ladder + cwdm_channels()
    lib["pon-ds-lcw"] = _with_channels("pon-ds-lcw", list(ladder))

    for count in (1, 2, 4, 20):
        lib[f"pon-us-{count}"] = _with_channels(f"pon-us-{count}", upstream_c_channels(count))

    b2b = _base("b2b-budget-sweep")
    b2b["topology"] = {"kind": "attenuator", "budget_db": 18.0}
    b2b["gate"] = {"gate_fraction": 1.0, "slot_phase_s": 0.0}
    b2b["sweep"] = {
        "axis": "topology.budget_db",
        "values": [float(b) for b in range(10, 31)],
    }
    lib["b2b-budget-sweep"] = b2b

    reach = _with_channels("odn-reach-sweep", upstream_c_channels(1))
    reach["sweep"] = {
        "axis": "topology.reach_km",
        "values": [float(r) for r in range(5, 26, 2)],
    }
    lib["odn-reach-sweep"] = reach

    split = _with_channels("odn-split-sweep", upstream_c_channels(1))
    split["sweep"] = {"axis": "topology.splitter.port_count", "values": [2, 4, 8, 16, 32]}
    lib["odn-split-sweep"] = split

    upstream = _with_channels("odn-upstream-sweep", upstream_c_channels(20))
    upstream["sweep"] = {
        "axis": "channels.upstream_count",
        "values": [1, 2, 4, 8, 12, 16, 20],
    }
    lib["odn-upstream-sweep"] = upstream
    return lib


_LIBRARY = _build_library()

DESCRIPTIONS = {
    "pon-baseline": "quiet 2:16 plant, no classical channels, gated receiver",
    "pon-ds-l": "baseline plus 32 downstream L-band channels",
    "pon-ds-lc": "baseline plus downstream L and C blocks",
    "pon-ds-lcw": "baseline plus downstream L, C and coarse overlay",
    "pon-us-1": "one upstream C-band transmitter (Raman calibration anchor)",
    "pon-us-2": "two upstream C-band transmitters",
    "pon-us-4": "four upstream C-band transmitters",
    "pon-us-20": "fully loaded upstream C block",
    "b2b-budget-sweep": "attenuator link, ungated, budget swept 10-30 dB",
    "odn-reach-sweep": "one upstream channel, reach swept 5-25 km",
    "odn-split-sweep": "one upstream channel, split ratio swept 2-32",
    "odn-upstream-sweep": "upstream transmitter count swept 1-20",
}


def bundled_names() -> tuple[str, ...]:
    return tuple(_LIBRARY)


def bundled_scenario(name: str) -> dict:
    """Deep copy of a bundled config dict."""
    if name not in _LIBRARY:
        raise KeyError(f"no bundled scenario named {name!r}; see bundled_names()")
    return copy.deepcopy(_LIBRARY[name])
