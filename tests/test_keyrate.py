"""Secure-key arithmetic: entropy, collision bound, shrink factor, thresholds.

Frozen values were evaluated independently from the closed-form
expressions (tau = -log2(1 - e^2 - (1 - 6e)^2 / 2), Shannon entropy)
outside the package.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from ponqkd.dpslink import QberReport
from ponqkd.keyrate import (
    DEFAULT_F_EC,
    binary_entropy,
    collision_probability,
    dps_shrink_factor,
    positivity_threshold,
    secure_rate,
)


def make_report(qber, raw_rate, duration_s=30.0):
    sifted = raw_rate * duration_s
    return QberReport(
        qber=qber,
        raw_rate=raw_rate,
        sifted_bits=sifted,
        error_bits=qber * sifted,
        gated_rejected=0.0,
        duration_s=duration_s,
    )


def test_binary_entropy_exact_points():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - 1.0) <= 1e-12


def test_binary_entropy_symmetry():
    for e in (0.01, 0.0377, 0.11, 0.3):
        assert binary_entropy(e) == pytest.approx(binary_entropy(1.0 - e), rel=1e-14)


def test_binary_entropy_frozen():
    assert binary_entropy(0.0377) == pytest.approx(0.23164552244621314, rel=1e-12)


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


def test_collision_probability_at_zero_error():
    assert collision_probability(0.0) == 0.5


def test_collision_probability_domain():
    with pytest.raises(ValueError, match="outside"):
        collision_probability(1.5)


def test_shrink_factor_exact_at_zero():
    assert abs(dps_shrink_factor(0.0) - 1.0) <= 1e-12


def test_shrink_factor_frozen():
    assert dps_shrink_factor(0.0377) == pytest.approx(0.5162322157920132, rel=1e-12)


def test_shrink_factor_u_shape_around_collision_peak():
    # p_c peaks at e = 6/38, so tau is smallest there
    pivot = 6.0 / 38.0
    left = [dps_shrink_factor(e) for e in (0.02, 0.06, 0.10, 0.14, pivot)]
    right = [dps_shrink_factor(e) for e in (pivot, 0.20, 0.25, 0.30)]
    assert all(a > b for a, b in zip(left, left[1:]))
    assert all(a < b for a, b in zip(right, right[1:]))


def test_shrink_factor_invalid_beyond_bound():
    # p_c crosses zero at e = (6 + sqrt(74)) / 38
    edge = (6.0 + math.sqrt(74.0)) / 38.0
    dps_shrink_factor(edge - 1e-6)
    with pytest.raises(ValueError):
        dps_shrink_factor(edge + 1e-6)
    with pytest.raises(ValueError):
        dps_shrink_factor(0.5)


def test_secure_rate_frozen_operating_point():
    out = secure_rate(make_report(0.0377, 2700.0), f_ec=1.45, symbol_rate_hz=1e9)
    assert out.secure_rate == pytest.approx(486.93476226151114, rel=1e-12)
    assert out.secure_bits_per_pulse == pytest.approx(4.8693476226151114e-07, rel=1e-12)
    assert out.h_e == pytest.approx(0.23164552244621314, rel=1e-12)
    assert out.shrink_factor == pytest.approx(0.5162322157920132, rel=1e-12)
    assert out.ec_leakage == pytest.approx(1.45 * out.h_e, rel=1e-14)
    assert out.f_ec == 1.45


def test_secure_rate_decomposition_identity():
    out = secure_rate(make_report(0.021, 5400.0), f_ec=1.2)
    assert out.secure_rate == pytest.approx(
        5400.0 * (out.shrink_factor - out.ec_leakage), rel=1e-12
    )


def test_secure_rate_clamps_to_zero_above_threshold():
    out = secure_rate(make_report(0.08, 2700.0))
    assert out.secure_rate == 0.0
    assert out.secure_bits_per_pulse == 0.0
    # components still reported for diagnostics
    assert out.shrink_factor > 0.0
    assert out.ec_leakage > out.shrink_factor


def test_secure_rate_zero_beyond_collision_validity():
    out = secure_rate(make_report(0.45, 2700.0))
    assert out.secure_rate == 0.0
    assert out.shrink_factor == 0.0


def test_secure_rate_zero_raw_rate():
    out = secure_rate(make_report(0.0, 0.0))
    assert out.secure_rate == 0.0
    assert out.secure_bits_per_pulse == 0.0
    assert out.shrink_factor == 0.0


def test_secure_rate_validation():
    report = make_report(0.03, 1000.0)
    with pytest.raises(ValueError):
        secure_rate(report, f_ec=0.99)
    with pytest.raises(ValueError):
        secure_rate(report, symbol_rate_hz=0.0)


def test_positivity_threshold_frozen():
    assert positivity_threshold(1.45) == pytest.approx(0.0496413144288647, rel=1e-12)
    assert positivity_threshold() == positivity_threshold(DEFAULT_F_EC)


def test_positivity_threshold_refuses_f_ec_below_one():
    with pytest.raises(ValueError, match="f_ec must be >= 1"):
        positivity_threshold(0.5)


def test_positivity_threshold_brackets_sign_change():
    root = positivity_threshold(1.45)
    margin = lambda e: dps_shrink_factor(e) - 1.45 * binary_entropy(e)
    assert margin(root - 1e-4) > 0.0
    assert margin(root + 1e-4) < 0.0


def test_positivity_threshold_decreases_with_f_ec():
    thresholds = [positivity_threshold(f) for f in (1.0, 1.2, 1.45, 1.8)]
    assert all(a > b for a, b in zip(thresholds, thresholds[1:]))


# the Brent root lands within about 1e-12 of the zero of tau - f_ec * h(e),
# and the rounded margin may take either sign that close to it, so the
# property leaves out a band of 1e-9 on each side of the threshold
THRESHOLD_BAND = 1e-9
# two QBERs one ulp apart may round tau - f_ec * h(e) the wrong way round,
# by a few ulps of 1; the rate may rise by this share of the raw rate
ROUNDING = 1e-12


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    f_ec=st.floats(min_value=1.0, max_value=2.0),
    raw_rate=st.floats(min_value=1e-6, max_value=1e9),
    qbers=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=2),
)
def test_secure_rate_is_positive_exactly_below_the_threshold(f_ec, raw_rate, qbers):
    low, high = sorted(qbers)
    threshold = positivity_threshold(f_ec)
    rates = [secure_rate(make_report(e, raw_rate), f_ec=f_ec).secure_rate for e in (low, high)]
    for e, rate in zip((low, high), rates):
        if abs(e - threshold) > THRESHOLD_BAND:
            assert (rate > 0.0) == (e < threshold)
        assert 0.0 <= rate <= raw_rate
    assert rates[1] <= rates[0] + ROUNDING * raw_rate
