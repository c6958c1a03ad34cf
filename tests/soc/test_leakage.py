"""Ground-truth leakage physics tests (Equation 5)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.soc.leakage import LeakageParameters, nexus5_leakage_parameters


@pytest.fixture(scope="module")
def params():
    return nexus5_leakage_parameters()


class TestShape:
    def test_positive_everywhere_reasonable(self, params):
        for voltage in (0.8, 0.95, 1.15):
            for temperature in (10.0, 40.0, 80.0):
                assert params.power_w(voltage, temperature) > 0

    def test_increases_with_temperature(self, params):
        cool = params.power_w(1.0, 30.0)
        hot = params.power_w(1.0, 70.0)
        assert hot > cool

    def test_increases_with_voltage(self, params):
        low = params.power_w(0.85, 50.0)
        high = params.power_w(1.15, 50.0)
        assert high > low

    def test_superlinear_in_temperature(self, params):
        """Each +20 C step adds more leakage than the previous one."""
        p30 = params.power_w(1.1, 30.0)
        p50 = params.power_w(1.1, 50.0)
        p70 = params.power_w(1.1, 70.0)
        assert (p70 - p50) > (p50 - p30)

    def test_calibrated_magnitudes(self, params):
        """Low corner ~0.1-0.3 W, hot high corner ~0.6-1.2 W."""
        assert 0.05 < params.power_w(0.85, 40.0) < 0.35
        assert 0.5 < params.power_w(1.15, 65.0) < 1.3

    @given(
        voltage=st.floats(0.7, 1.3),
        t_low=st.floats(0.0, 50.0),
        delta=st.floats(1.0, 40.0),
    )
    def test_monotone_in_temperature_property(self, params, voltage, t_low, delta):
        assert params.power_w(voltage, t_low + delta) > params.power_w(
            voltage, t_low
        )

    @given(
        temperature=st.floats(0.0, 90.0),
        v_low=st.floats(0.7, 1.1),
        delta=st.floats(0.01, 0.3),
    )
    def test_monotone_in_voltage_property(self, params, temperature, v_low, delta):
        assert params.power_w(v_low + delta, temperature) > params.power_w(
            v_low, temperature
        )


class TestValidation:
    def test_zero_voltage_rejected(self, params):
        with pytest.raises(ValueError):
            params.power_w(0.0, 40.0)

    def test_below_absolute_zero_rejected(self, params):
        with pytest.raises(ValueError):
            params.power_w(1.0, -300.0)

    def test_as_tuple_round_trip(self, params):
        rebuilt = LeakageParameters(*params.as_tuple())
        assert rebuilt.power_w(1.0, 50.0) == params.power_w(1.0, 50.0)

