"""Lumped-RC thermal model tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.soc.leakage import nexus5_leakage_parameters
from repro.soc.power import PowerBreakdown
from repro.soc.thermal import (
    AmbientScenario,
    ThermalModel,
    low_ambient,
    room_temperature,
    warm_device,
)


class TestSteadyState:
    def test_steady_state_is_ambient_plus_power_times_resistance(self):
        model = ThermalModel(r_th_c_per_w=9.0, ambient_c=25.0)
        assert model.steady_state_c(4.0) == pytest.approx(25.0 + 36.0)

    def test_zero_power_steady_state_is_ambient(self):
        model = ThermalModel(ambient_c=20.0)
        assert model.steady_state_c(0.0) == pytest.approx(20.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            ThermalModel().steady_state_c(-1.0)

    def test_long_run_converges_to_steady_state(self):
        model = ThermalModel(soc_temperature_c=30.0, ambient_c=25.0)
        for _ in range(10000):
            model.step(3.0, 0.01)
        assert model.soc_temperature_c == pytest.approx(
            model.steady_state_c(3.0), abs=0.01
        )


class TestStepIntegration:
    def test_heating_moves_toward_target_without_overshoot(self):
        model = ThermalModel(soc_temperature_c=40.0, ambient_c=25.0)
        target = model.steady_state_c(5.0)
        previous = model.soc_temperature_c
        for _ in range(50):
            current = model.step(5.0, 0.1)
            assert previous <= current <= target + 1e-9
            previous = current

    def test_cooling_when_power_drops(self):
        model = ThermalModel(soc_temperature_c=70.0, ambient_c=25.0)
        after = model.step(0.5, 1.0)
        assert after < 70.0

    def test_exact_integration_is_step_size_invariant(self):
        """One 1 s step equals ten 0.1 s steps (exact exponential)."""
        coarse = ThermalModel(soc_temperature_c=40.0)
        fine = ThermalModel(soc_temperature_c=40.0)
        coarse.step(4.0, 1.0)
        for _ in range(10):
            fine.step(4.0, 0.1)
        assert coarse.soc_temperature_c == pytest.approx(
            fine.soc_temperature_c, abs=1e-9
        )

    def test_zero_dt_is_identity(self):
        model = ThermalModel(soc_temperature_c=44.0)
        assert model.step(5.0, 0.0) == pytest.approx(44.0)

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            ThermalModel().step(1.0, -0.1)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            ThermalModel().step(-1.0, 0.1)

    @given(
        power=st.floats(0.0, 8.0),
        start=st.floats(10.0, 90.0),
        dt=st.floats(0.001, 5.0),
    )
    def test_temperature_stays_between_start_and_target(self, power, start, dt):
        model = ThermalModel(soc_temperature_c=start, ambient_c=25.0)
        target = model.steady_state_c(power)
        result = model.step(power, dt)
        low, high = sorted((start, target))
        assert low - 1e-9 <= result <= high + 1e-9


def _hex(values):
    return [float.hex(value) for value in values]


class TestIntegrateRegime:
    """``integrate_regime`` against the per-step computations it fuses.

    The oracle is the engine's reference step: a breakdown with leakage
    at the pre-step temperature, one :meth:`ThermalModel.step` on its
    SoC power, then ``energy += total_w * dt`` and
    ``integral += T * dt`` at the post-step temperature.
    """

    @staticmethod
    def _reference(start_c, steps, dt, dynamic_w, memory_w, rest_w,
                   voltage_v, energy_j, integral):
        leakage = nexus5_leakage_parameters()
        model = ThermalModel(soc_temperature_c=start_c)
        leak_w, total_w, temp_c = [], [], []
        for _ in range(steps):
            breakdown = PowerBreakdown(
                core_dynamic_w=dynamic_w,
                memory_w=memory_w,
                leakage_w=leakage.power_w(voltage_v, model.soc_temperature_c),
                rest_of_device_w=rest_w,
            )
            model.step(breakdown.soc_w, dt)
            energy_j += breakdown.total_w * dt
            integral += model.soc_temperature_c * dt
            leak_w.append(breakdown.leakage_w)
            total_w.append(breakdown.total_w)
            temp_c.append(model.soc_temperature_c)
        return energy_j, integral, model.soc_temperature_c, (leak_w, total_w, temp_c)

    @given(
        start_c=st.floats(20.0, 90.0),
        steps=st.integers(0, 60),
        dt=st.sampled_from([0.0005, 0.001, 0.002, 0.005]),
        dynamic_w=st.floats(0.0, 4.0),
        memory_w=st.floats(0.0, 1.0),
        rest_w=st.floats(0.0, 2.0),
        voltage_v=st.floats(0.7, 1.1),
        energy_j=st.floats(0.0, 50.0),
        integral=st.floats(0.0, 3000.0),
    )
    def test_matches_per_step_reference_bit_for_bit(
        self, start_c, steps, dt, dynamic_w, memory_w, rest_w, voltage_v,
        energy_j, integral,
    ):
        want_energy, want_integral, want_c, want_series = self._reference(
            start_c, steps, dt, dynamic_w, memory_w, rest_w, voltage_v,
            energy_j, integral,
        )
        for series in (None, ([], [], [])):
            model = ThermalModel(soc_temperature_c=start_c)
            got_energy, got_integral = model.integrate_regime(
                steps, dt, dynamic_w + memory_w, rest_w,
                nexus5_leakage_parameters().bound_evaluator(voltage_v),
                energy_j, integral, series=series,
            )
            assert _hex([got_energy, got_integral, model.soc_temperature_c]) == (
                _hex([want_energy, want_integral, want_c])
            )
            if series is not None:
                assert [_hex(column) for column in series] == (
                    [_hex(column) for column in want_series]
                )

    def test_zero_steps_return_the_totals_unchanged(self):
        model = ThermalModel(soc_temperature_c=61.5)
        series = ([], [], [])
        totals = model.integrate_regime(
            0, 0.002, 1.5, 0.8,
            nexus5_leakage_parameters().bound_evaluator(0.9),
            12.375, 456.25, series=series,
        )
        assert _hex(totals) == _hex([12.375, 456.25])
        assert model.soc_temperature_c == 61.5
        assert series == ([], [], [])

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            ThermalModel().integrate_regime(
                1, -0.002, 1.0, 0.5, lambda _c: 0.1, 0.0, 0.0
            )


class TestCoreSensors:
    def test_core_sensor_adds_local_hotspot(self):
        model = ThermalModel(soc_temperature_c=50.0, core_r_th_c_per_w=2.0)
        model.step(3.0, 0.1, per_core_power_w={0: 1.5, 1: 0.0})
        assert model.core_temperature_c(0) > model.core_temperature_c(1)
        assert model.core_temperature_c(1) == pytest.approx(
            model.soc_temperature_c
        )

    def test_unknown_core_reads_package_temperature(self):
        model = ThermalModel(soc_temperature_c=55.0)
        assert model.core_temperature_c(7) == pytest.approx(55.0)


class TestScenarios:
    def test_room_temperature_scenario(self):
        scenario = room_temperature()
        assert scenario.ambient_c == pytest.approx(25.0)
        assert scenario.initial_junction_c > scenario.ambient_c

    def test_low_ambient_is_cooler_than_room(self):
        assert low_ambient().ambient_c < room_temperature().ambient_c
        assert low_ambient().initial_junction_c < room_temperature().initial_junction_c

    def test_warm_device_matches_paper_observation(self):
        """The paper observes 58-65 C junctions while browsing."""
        assert 55.0 <= warm_device().initial_junction_c <= 65.0

    def test_for_scenario_initialises_state(self):
        model = ThermalModel.for_scenario(low_ambient())
        assert model.ambient_c == low_ambient().ambient_c
        assert model.soc_temperature_c == low_ambient().initial_junction_c

    def test_reset_restores_scenario(self):
        model = ThermalModel.for_scenario(room_temperature())
        model.step(6.0, 10.0, per_core_power_w={0: 2.0})
        model.reset(room_temperature())
        assert model.soc_temperature_c == room_temperature().initial_junction_c
        assert model.core_temperature_c(0) == pytest.approx(
            model.soc_temperature_c
        )

    def test_custom_scenario(self):
        scenario = AmbientScenario(name="sauna", ambient_c=40.0, initial_junction_c=60.0)
        model = ThermalModel.for_scenario(scenario)
        assert model.steady_state_c(0.0) == pytest.approx(40.0)
