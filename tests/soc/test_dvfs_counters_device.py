"""DVFS actuator, counter bank, and device facade tests."""

import pytest

from repro.soc.counters import CounterBank, CoreCounters, CounterSample
from repro.soc.device import Device, DeviceConfig
from repro.soc.dvfs import DvfsActuator, SwitchCost
from repro.soc.specs import nexus5_spec
from repro.soc.thermal import low_ambient


class TestDvfsActuator:
    @pytest.fixture()
    def actuator(self, spec):
        return DvfsActuator(spec=spec, cost=SwitchCost(stall_s=1e-4, energy_j=2e-4))

    def test_starts_at_max_state(self, actuator, spec):
        assert actuator.state == spec.max_state

    def test_switch_changes_state_and_charges_cost(self, actuator):
        stall = actuator.set_frequency(960e6)
        assert actuator.state.freq_hz == pytest.approx(960e6)
        assert stall == pytest.approx(1e-4)
        assert actuator.switch_count == 1
        assert actuator.total_switch_energy_j == pytest.approx(2e-4)

    def test_no_op_switch_is_free(self, actuator):
        actuator.set_frequency(960e6)
        stall = actuator.set_frequency(960e6)
        assert stall == 0.0
        assert actuator.switch_count == 1

    def test_unknown_frequency_rejected(self, actuator):
        with pytest.raises(KeyError):
            actuator.set_frequency(1.0e9)

    def test_reset_clears_accounting(self, actuator, spec):
        actuator.set_frequency(960e6)
        actuator.reset()
        assert actuator.state == spec.max_state
        assert actuator.switch_count == 0
        assert actuator.total_stall_s == 0.0

    def test_reset_to_specific_state(self, actuator, spec):
        actuator.reset(spec.min_state)
        assert actuator.state == spec.min_state


class TestCounterBank:
    def test_accumulate_and_drain(self):
        bank = CounterBank()
        bank.add(core=0, busy_s=0.01, instructions=1e7, l2_accesses=1e5, l2_misses=2e4)
        bank.add(core=0, busy_s=0.01, instructions=1e7, l2_accesses=1e5, l2_misses=2e4)
        bank.advance(0.02)
        sample = bank.drain(freq_hz=1e9, soc_temperature_c=50.0,
                            core_temperatures_c={0: 52.0})
        assert sample.window_s == pytest.approx(0.02)
        assert sample.per_core[0].instructions == pytest.approx(2e7)
        assert sample.utilization(0) == pytest.approx(1.0)
        assert sample.mpki(0) == pytest.approx(2.0)

    def test_drain_resets_the_window(self):
        bank = CounterBank()
        bank.add(0, 0.01, 1e6, 1e4, 1e3)
        bank.advance(0.01)
        bank.drain(1e9, 50.0, {})
        empty = bank.drain(1e9, 50.0, {})
        assert empty.window_s == 0.0
        assert empty.per_core == {}

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            CounterBank().advance(-0.01)

    def test_every_bank_shares_one_zero_window(self):
        """Untouched cores of every bank read one shared instance, so it
        must stay all zero whatever a run accumulates."""
        first, second = CounterBank(), CounterBank()
        zero = first.window(0)
        assert second.window(3) is zero
        first.add(0, 0.01, 1e6, 1e4, 1e3)
        first.install_window(0.02, {1: CoreCounters(1.0, 2.0, 3.0, 4.0)})
        assert second.window(0) is zero
        assert zero == CoreCounters(0.0, 0.0, 0.0, 0.0)


class TestCounterSample:
    def _sample(self):
        return CounterSample(
            window_s=0.1,
            per_core={
                0: CoreCounters(busy_s=0.1, instructions=2e8, l2_accesses=4e6, l2_misses=1e6),
                2: CoreCounters(busy_s=0.05, instructions=5e7, l2_accesses=4e6, l2_misses=6e5),
            },
            freq_hz=1.5e9,
            soc_temperature_c=55.0,
            core_temperatures_c={0: 57.0, 2: 56.0},
        )

    def test_utilization_per_core(self):
        sample = self._sample()
        assert sample.utilization(0) == pytest.approx(1.0)
        assert sample.utilization(2) == pytest.approx(0.5)
        assert sample.utilization(3) == 0.0

    def test_max_utilization(self):
        assert self._sample().max_utilization() == pytest.approx(1.0)

    def test_mpki_aggregation_over_cores(self):
        sample = self._sample()
        expected = (1e6 + 6e5) / ((2e8 + 5e7) / 1000.0)
        assert sample.mpki_of_cores([0, 2]) == pytest.approx(expected)

    def test_mpki_of_idle_cores_is_zero(self):
        assert self._sample().mpki_of_cores([3]) == 0.0

    def test_utilization_of_cores_is_mean(self):
        assert self._sample().utilization_of_cores([0, 2]) == pytest.approx(0.75)

    def test_utilization_of_no_cores_is_zero(self):
        assert self._sample().utilization_of_cores([]) == 0.0

    def test_empty_sample(self):
        sample = CounterSample(0.0, {}, 1e9, 40.0, {})
        assert sample.max_utilization() == 0.0
        assert sample.mpki(0) == 0.0

    def test_refuses_attribute_assignment(self):
        sample = self._sample()
        with pytest.raises(AttributeError):
            sample.window_s = 1.0
        with pytest.raises(AttributeError):
            sample.per_core = {}
        with pytest.raises(AttributeError):
            sample.extra = 1.0
        assert sample.window_s == 0.1


class TestCoreCounters:
    def test_merge_adds_fields(self):
        merged = CoreCounters(1.0, 2.0, 3.0, 4.0).merged(CoreCounters(1.0, 2.0, 3.0, 4.0))
        assert merged.busy_s == 2.0
        assert merged.l2_misses == 8.0

    def test_mpki_with_no_instructions_is_zero(self):
        assert CoreCounters().mpki() == 0.0

    def test_refuses_attribute_assignment(self):
        counters = CoreCounters(1.0, 2.0, 3.0, 4.0)
        for name in ("busy_s", "instructions", "l2_accesses", "l2_misses",
                     "extra"):
            with pytest.raises(AttributeError):
                setattr(counters, name, 0.0)
        assert counters == CoreCounters(1.0, 2.0, 3.0, 4.0)


class TestDeviceFacade:
    def test_default_device_wires_the_nexus5(self):
        device = Device()
        assert device.spec.name == nexus5_spec().name
        assert device.state == device.spec.max_state

    def test_reset_restores_thermal_and_actuator(self):
        device = Device()
        device.actuator.set_frequency(960e6)
        device.thermal.step(5.0, 10.0)
        device.reset()
        assert device.state == device.spec.max_state
        assert device.thermal.soc_temperature_c == pytest.approx(
            device.config.ambient.initial_junction_c
        )

    def test_reset_to_alternate_ambient(self):
        device = Device()
        device.reset(low_ambient())
        assert device.thermal.ambient_c == low_ambient().ambient_c

    def test_custom_config_is_respected(self):
        config = DeviceConfig(cache_theta=0.9)
        device = Device(config)
        assert device.cache.theta == pytest.approx(0.9)
