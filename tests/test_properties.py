"""Property tests: what ``validate`` accepts, ``run`` completes."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ponqkd.errors import ConfigError  # noqa: E402
from ponqkd.runner import run_scenario  # noqa: E402
from ponqkd.scenario import parse_scenario  # noqa: E402
from ponqkd.scenarios import bundled_scenario  # noqa: E402

# a little beyond the 1260-1625 nm plant window, so rejections get exercised
wavelengths = st.floats(min_value=1200.0, max_value=1700.0, allow_nan=False)
channels = st.lists(
    st.tuples(wavelengths, st.sampled_from(["upstream", "downstream"])), max_size=4
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(quantum_nm=wavelengths, classical=channels)
def test_validated_odn_config_completes_oracle_run(quantum_nm, classical):
    raw = bundled_scenario("pon-us-1")
    raw["channels"]["quantum_center_nm"] = quantum_nm
    raw["channels"]["classical"] = [
        {"center_nm": nm, "launch_power_dbm": 2.5, "direction": direction}
        for nm, direction in classical
    ]
    try:
        scn = parse_scenario(raw)
    except ConfigError:
        return
    res = run_scenario(scn, mode="oracle")
    assert math.isfinite(res.raman.total_at_receiver)
    assert math.isfinite(res.qber_report.qber)
