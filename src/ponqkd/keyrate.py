"""Secure-key accounting for DPS-QKD under individual attacks.

The privacy-amplification compression per sifted bit is tau = -log2(p_c)
with the eavesdropper collision probability

    p_c = 1 - e^2 - (1 - 6 e)^2 / 2

as a function of the QBER e.  At e = 0 this gives p_c = 1/2 and tau = 1
bit per bit; p_c reaches zero near e = 0.384, beyond which no key
survives.  Error correction leaks f_ec * h(e) bits per bit, so

    secure_rate = max(0, raw_rate * (tau - f_ec * h(e))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .roots import brentq
from .sifting import QberReport

DEFAULT_F_EC = 1.45


def binary_entropy(e: float) -> float:
    """Shannon entropy of a bit with bias ``e``, in bits."""
    if not (0.0 <= e <= 1.0):
        raise ValueError(f"entropy argument {e} outside [0, 1]")
    if e == 0.0 or e == 1.0:
        return 0.0
    return -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)


def collision_probability(e: float) -> float:
    if not (0.0 <= e <= 1.0):
        raise ValueError(f"QBER {e} outside [0, 1]")
    return 1.0 - e * e - (1.0 - 6.0 * e) ** 2 / 2.0


def dps_shrink_factor(e: float) -> float:
    """Privacy-amplification bits removed per sifted bit, tau = -log2(p_c)."""
    p_c = collision_probability(e)
    if p_c <= 0.0 or p_c >= 1.0:
        raise ValueError(f"collision probability {p_c:.4f} at QBER {e} leaves no key bound")
    return -math.log2(p_c)


@dataclass(frozen=True)
class KeyRateReport:
    secure_rate: float  # bits/s
    secure_bits_per_pulse: float
    shrink_factor: float  # tau, bits/bit; 0 when the bound yields nothing
    h_e: float
    ec_leakage: float  # f_ec * h(e), bits/bit
    f_ec: float


def secure_rate(
    report: QberReport, f_ec: float = DEFAULT_F_EC, symbol_rate_hz: float = 1e9
) -> KeyRateReport:
    """Secure bits/s and bits/pulse from a sifted-key report.

    Clamped at zero whenever the shrink factor does not exceed the error
    correction leakage, including QBER beyond the collision bound's
    validity where no key can be claimed at all.
    """
    if f_ec < 1.0:
        raise ValueError("f_ec must be >= 1")
    if symbol_rate_hz <= 0.0:
        raise ValueError("symbol_rate_hz must be > 0")
    e = report.qber
    h_e = binary_entropy(e)
    p_c = collision_probability(e)
    tau = -math.log2(p_c) if 0.0 < p_c < 1.0 else 0.0
    rate = max(0.0, report.raw_rate * (tau - f_ec * h_e))
    if report.raw_rate == 0.0:
        rate, tau, h_e = 0.0, 0.0, 0.0
    return KeyRateReport(
        secure_rate=rate,
        secure_bits_per_pulse=rate / symbol_rate_hz,
        shrink_factor=tau,
        h_e=h_e,
        ec_leakage=f_ec * h_e,
        f_ec=f_ec,
    )


def positivity_threshold(f_ec: float = DEFAULT_F_EC) -> float:
    """QBER above which the secure rate is clamped to zero.

    The collision probability peaks at e = 6/38, where the shrink factor
    is smallest; the physical threshold is the first zero of
    tau - f_ec * h(e), so the bracket stops there.
    """
    e_tau_min = 6.0 / 38.0
    f = lambda e: dps_shrink_factor(e) - f_ec * binary_entropy(e)
    return brentq(f, 1e-9, e_tau_min)[0]
