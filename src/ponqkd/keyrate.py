"""Secure-key accounting for DPS-QKD under individual attacks.

The privacy-amplification compression per sifted bit is tau = -log2(p_c)
with the eavesdropper collision probability

    p_c = 1 - e^2 - (1 - 6 e)^2 / 2

as a function of the QBER e.  At e = 0 this gives p_c = 1/2 and tau = 1
bit per bit.  Error correction leaks f_ec * h(e) bits per bit, so below
e = 6/38

    secure_rate = max(0, raw_rate * (tau - f_ec * h(e))).

p_c peaks at e = 6/38, so tau - f_ec * h(e) falls on [0, 6/38] and is
negative there for every f_ec >= 1; beyond it tau grows again, as p_c falls
toward its zero near e = 0.384, but the bound claims no key.  The rate is 0
from 6/38 on, which is the same as clamping it at
:func:`positivity_threshold`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dpslink import QberReport
from .roots import brentq

DEFAULT_F_EC = 1.45
E_TAU_MIN = 6.0 / 38.0  # where p_c peaks and tau is smallest


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
    shrink_factor: float  # tau = -log2(p_c), bits/bit; 0 where p_c <= 0
    h_e: float
    ec_leakage: float  # f_ec * h(e), bits/bit
    f_ec: float


def secure_rate(
    report: QberReport, f_ec: float = DEFAULT_F_EC, symbol_rate_hz: float = 1e9
) -> KeyRateReport:
    """Secure bits/s and bits/pulse from a sifted-key report.

    Clamped at zero whenever the shrink factor does not exceed the error
    correction leakage, and from e = 6/38 on, where no key can be claimed.
    ``shrink_factor`` still reports tau = -log2(p_c) for every QBER with
    0 < p_c < 1, past 6/38 too, and 0 beyond the zero of p_c.
    """
    if f_ec < 1.0:
        raise ValueError("f_ec must be >= 1")
    if symbol_rate_hz <= 0.0:
        raise ValueError("symbol_rate_hz must be > 0")
    e = report.qber
    h_e = binary_entropy(e)
    p_c = collision_probability(e)
    tau = -math.log2(p_c) if 0.0 < p_c < 1.0 else 0.0
    rate = max(0.0, report.raw_rate * (tau - f_ec * h_e)) if e < E_TAU_MIN else 0.0
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
    tau - f_ec * h(e), so the bracket stops there.  Like
    :func:`secure_rate`, refuses ``f_ec`` below 1.
    """
    if f_ec < 1.0:
        raise ValueError("f_ec must be >= 1")
    f = lambda e: dps_shrink_factor(e) - f_ec * binary_entropy(e)
    return brentq(f, 1e-9, E_TAU_MIN)[0]
