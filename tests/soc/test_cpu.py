"""CPI model tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.soc.cpu import (
    L2_HIT_CYCLES,
    cpi_equation,
    instructions_retired,
    mpki,
    time_for_instructions,
)


class TestEffectiveCpi:
    def test_no_l2_traffic_means_base_cpi(self):
        assert cpi_equation(
            cpi_base=1.2, l2_apki=0.0, miss_ratio=0.0,
            miss_penalty_cycles=200.0, mlp=1.0,
        ) == pytest.approx(1.2)

    def test_hits_cost_hit_latency(self):
        assert cpi_equation(
            cpi_base=1.0, l2_apki=10.0, miss_ratio=0.0,
            miss_penalty_cycles=200.0, mlp=1.0,
        ) == pytest.approx(1.0 + 0.01 * L2_HIT_CYCLES)

    def test_misses_cost_penalty_divided_by_mlp(self):
        assert cpi_equation(
            cpi_base=1.0, l2_apki=10.0, miss_ratio=1.0,
            miss_penalty_cycles=200.0, mlp=2.0,
        ) == pytest.approx(1.0 + 0.01 * 200.0 / 2.0)

    def test_higher_miss_ratio_raises_cpi(self):
        low = cpi_equation(1.0, 20.0, 0.1, 200.0, 1.5)
        high = cpi_equation(1.0, 20.0, 0.4, 200.0, 1.5)
        assert high > low

    def test_mlp_hides_part_of_the_penalty(self):
        serial = cpi_equation(1.0, 20.0, 0.3, 200.0, 1.0)
        overlapped = cpi_equation(1.0, 20.0, 0.3, 200.0, 2.0)
        assert overlapped < serial

    @given(
        cpi_base=st.floats(0.5, 3.0),
        apki=st.floats(0.0, 100.0),
        ratio=st.floats(0.0, 1.0),
        penalty=st.floats(0.0, 500.0),
        mlp_value=st.floats(1.0, 4.0),
    )
    def test_cpi_never_below_base(self, cpi_base, apki, ratio, penalty, mlp_value):
        assert cpi_equation(cpi_base, apki, ratio, penalty, mlp_value) >= cpi_base


class TestInstructionAccounting:
    def test_retired_matches_frequency_and_cpi(self):
        assert instructions_retired(1.0, 2e9, 2.0) == pytest.approx(1e9)

    def test_utilization_scales_retirement(self):
        full = instructions_retired(1.0, 2e9, 2.0, utilization=1.0)
        half = instructions_retired(1.0, 2e9, 2.0, utilization=0.5)
        assert half == pytest.approx(full / 2)

    def test_time_for_instructions_inverts_retirement(self):
        retired = instructions_retired(0.5, 1.5e9, 1.8)
        assert time_for_instructions(retired, 1.5e9, 1.8) == pytest.approx(0.5)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            instructions_retired(-1.0, 1e9, 1.0)
        with pytest.raises(ValueError):
            instructions_retired(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            instructions_retired(1.0, 1e9, 0.0)
        with pytest.raises(ValueError):
            instructions_retired(1.0, 1e9, 1.0, utilization=2.0)
        with pytest.raises(ValueError):
            time_for_instructions(-1.0, 1e9, 1.0)


class TestMpki:
    def test_mpki_is_apki_times_miss_ratio(self):
        assert mpki(40.0, 0.25) == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            mpki(-1.0, 0.5)
        with pytest.raises(ValueError):
            mpki(1.0, 2.0)
