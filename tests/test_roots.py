"""Root finder and the detector saturation solve built on it."""

import copy
import math

import numpy as np
import pytest

from ponqkd.dpslink import DetectorModel, _saturation_fixed_point
from ponqkd.roots import MAX_ITER, RootError, brentq
from ponqkd.runner import calibrate
from ponqkd.scenarios import CAL_EXCESS_LOSS_DB, CAL_RAMAN_SCALE, CAL_VISIBILITY, bundled_scenario


def test_brentq_finds_known_roots():
    root, iterations = brentq(lambda x: x * x - 2.0, 0.0, 2.0)
    assert abs(root - math.sqrt(2.0)) <= 2e-12
    assert 0 < iterations < MAX_ITER
    root, _ = brentq(lambda x: x**3 - 2.0 * x - 5.0, 3.0, 2.0)  # reversed bracket
    assert root == pytest.approx(2.0945514815423265, abs=2e-12)


# roots and iteration counts of the reference brentq (scipy 1.17) on the
# same brackets; the port reproduces them exactly
REFERENCE = [
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0, 2.094551481542327, 7),
    (lambda x: math.cos(x) - x, 0.0, 1.0, 0.7390851332151559, 7),
    (lambda x: math.exp(x) - 1e3, 0.0, 20.0, 6.907755278982137, 15),
    (lambda x: math.tanh(50.0 * (x - 0.3)), -1.0, 1.0, 0.29999999999999993, 12),
    (lambda x: x**9 - 1e-3, 0.0, 4.0, 0.46415888336116345, 17),
]


@pytest.mark.parametrize("f, a, b, root, iterations", REFERENCE)
def test_brentq_reproduces_reference_iterates(f, a, b, root, iterations):
    assert brentq(f, a, b) == (root, iterations)


def test_brentq_relative_tolerance_resolves_tiny_roots():
    root, _ = brentq(lambda x: x - 1e-12, 0.0, 1.0, xtol=0.0)
    assert root == pytest.approx(1e-12, rel=1e-14)


def test_brentq_endpoint_root_takes_no_iterations():
    assert brentq(lambda x: x, 0.0, 1.0) == (0.0, 0)
    assert brentq(lambda x: x - 1.0, 0.0, 1.0) == (1.0, 0)


def test_brentq_raises_without_sign_change():
    with pytest.raises(RootError, match="no sign change"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_brentq_raises_at_iteration_cap(monkeypatch):
    monkeypatch.setattr("ponqkd.roots.MAX_ITER", 10)
    calls = []

    def step(x):
        calls.append(x)
        return -1.0 if x < 1.0 / 3.0 else 1.0

    # bisecting a step function for 10 iterations leaves the bracket far
    # wider than the purely relative tolerance
    with pytest.raises(RootError, match="no convergence in 10 iterations"):
        brentq(step, 0.0, 1.0, xtol=0.0)
    assert len(calls) == 10 + 2


def test_calibration_chain_reproduces_baked_constants():
    scale, _ = calibrate(bundled_scenario("pon-us-1"), "raman.scale", "raman_total", 360.0)
    base = bundled_scenario("pon-baseline")
    base["raman"]["scale"] = scale.value
    loss, fitted = calibrate(copy.deepcopy(base), "detector.excess_loss_db", "raw_rate", 2700.0)
    vis, _ = calibrate(fitted, "transmitter.visibility", "qber", 0.0377)
    assert scale.value == pytest.approx(CAL_RAMAN_SCALE, rel=1e-12)
    assert loss.value == pytest.approx(CAL_EXCESS_LOSS_DB, rel=1e-12)
    assert vis.value == pytest.approx(CAL_VISIBILITY, rel=1e-12)
    assert (scale.iterations, loss.iterations, vis.iterations) == (3, 17, 3)


DETECTORS = {
    "default": DetectorModel(),
    "strong-afterpulsing": DetectorModel(afterpulse_probability=0.2),
    "short-dead-long-memory": DetectorModel(dead_time_s=1e-6, afterpulse_memory_s=1e-3),
}


@pytest.mark.parametrize("name", sorted(DETECTORS))
def test_saturation_solve_satisfies_balance(name):
    det = DETECTORS[name]
    tau, theta = det.dead_time_s, det.afterpulse_decay_s
    kappa = det.afterpulse_probability * det.afterpulse_memory_s**2
    for p in np.logspace(2.0, 7.0, 201):
        live, reg, ap_in, surv, q = _saturation_fixed_point(p, det)
        assert 0.0 < q <= 1.0
        assert live == pytest.approx(1.0 / (1.0 + p * tau * (1.0 + q * surv)), rel=1e-14)
        assert surv == pytest.approx(1.0 / (1.0 + (p + ap_in) * theta), rel=1e-14)
        assert q == pytest.approx(min(1.0, kappa * reg * reg), rel=1e-14)
        assert ap_in == pytest.approx(q * p * live, rel=1e-15)
        assert reg == pytest.approx(p * live + ap_in * surv, rel=1e-15)


def test_saturation_without_afterpulsing_has_zero_probability():
    det = DetectorModel(afterpulse_probability=0.0)
    live, reg, ap_in, surv, q = _saturation_fixed_point(5e4, det)
    assert q == 0.0 and ap_in == 0.0
    assert live == pytest.approx(1.0 / (1.0 + 5e4 * det.dead_time_s), rel=1e-15)


def test_saturation_clamps_probability_at_one():
    # far above ~1.2e4 counts/s the pile-up law saturates
    for p in (1e5, 1e7):
        assert _saturation_fixed_point(p, DetectorModel())[4] == 1.0
    assert _saturation_fixed_point(0.0, DetectorModel()) == (1.0, 0.0, 0.0, 1.0, 0.0)

