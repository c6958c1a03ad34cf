"""Governor unit tests with a deterministic stub predictor."""

import pytest

from repro.browser.dom import PageFeatures
from repro.core.governors import (
    DeadlineGovernor,
    EnergyEfficientGovernor,
    FixedFrequencyGovernor,
    InteractiveGovernor,
    performance_governor,
    powersave_governor,
)
from repro.core.ppw import FrequencyPrediction
from repro.sim.governor import RunContext
from repro.soc.counters import CoreCounters, CounterSample


class StubPredictor:
    """Deterministic prediction tables for governor logic tests.

    Load time scales inversely with frequency and grows with the
    observed MPKI; power grows super-linearly with frequency.  The
    PPW-optimal candidate sits in the interior.
    """

    def __init__(self, freqs_ghz=(0.8, 1.2, 1.5, 1.9, 2.3), work=2.0):
        self.freqs_ghz = freqs_ghz
        self.work = work
        self.leakage_w = 0.5
        self.calls = []

    def prediction_table(
        self,
        page_features,
        corunner_mpki,
        corunner_utilization,
        temperature_c,
        include_leakage=True,
    ):
        self.calls.append((corunner_mpki, corunner_utilization, temperature_c))
        table = []
        for freq in self.freqs_ghz:
            load = self.work * (1.0 + 0.05 * corunner_mpki) / freq + 0.4
            power = 0.9 + 0.45 * freq**2
            if include_leakage:
                power += self.leakage_w * freq / 2.3
            table.append(
                FrequencyPrediction(
                    freq_hz=freq * 1e9, load_time_s=load, power_w=power
                )
            )
        return table


def _context(spec, deadline=3.0):
    return RunContext(
        spec=spec,
        deadline_s=deadline,
        page_features=PageFeatures(1000, 100, 200, 190, 80),
    )


def _sample(freq_hz, busy=1.0, mpki_corunner=0.0, window=0.1, temp=50.0):
    corunner_busy = window if mpki_corunner > 0 else 0.0
    per_core = {
        0: CoreCounters(busy_s=busy * window, instructions=1e8, l2_accesses=1e6,
                        l2_misses=2e5),
        2: CoreCounters(
            busy_s=corunner_busy,
            instructions=5e7,
            l2_accesses=1e6,
            l2_misses=mpki_corunner * 5e7 / 1000.0,
        ),
    }
    return CounterSample(
        window_s=window,
        per_core=per_core,
        freq_hz=freq_hz,
        soc_temperature_c=temp,
        core_temperatures_c={0: temp, 2: temp},
    )


class TestFixedGovernors:
    def test_performance_pins_fmax(self, spec):
        governor = performance_governor(spec.max_state.freq_hz)
        context = _context(spec)
        assert governor.initial_frequency(context) == spec.max_state.freq_hz
        assert governor.decide(_sample(spec.max_state.freq_hz), context) == (
            spec.max_state.freq_hz
        )
        assert governor.name == "performance"

    def test_powersave_pins_fmin(self, spec):
        governor = powersave_governor(spec.min_state.freq_hz)
        assert governor.decide(_sample(300e6), _context(spec)) == 300e6
        assert governor.name == "powersave"

    def test_fixed_label_becomes_name(self, spec):
        governor = FixedFrequencyGovernor(freq_hz=960e6, label="fD")
        assert governor.name == "fD"


class TestInteractive:
    def test_idle_start_frequency_is_low(self, spec):
        governor = InteractiveGovernor()
        assert governor.initial_frequency(_context(spec)) == pytest.approx(300e6)

    def test_busy_core_below_hispeed_jumps_to_hispeed(self, spec):
        governor = InteractiveGovernor()
        governor.reset()
        target = governor.decide(_sample(300e6, busy=1.0), _context(spec))
        assert target == spec.ceil_state(governor.hispeed_freq_hz).freq_hz

    def test_busy_core_above_hispeed_keeps_climbing(self, spec):
        governor = InteractiveGovernor()
        governor.reset()
        target = governor.decide(_sample(1497.6e6, busy=1.0), _context(spec))
        assert target > 1497.6e6

    def test_light_load_scales_down_after_dwell(self, spec):
        governor = InteractiveGovernor()
        governor.reset()
        context = _context(spec)
        context.elapsed_s = 10.0  # past any ramp-up dwell
        target = governor.decide(_sample(2265.6e6, busy=0.2), context)
        assert target < 2265.6e6

    def test_ramp_down_is_blocked_within_min_sample_time(self, spec):
        governor = InteractiveGovernor()
        governor.reset()
        context = _context(spec)
        context.elapsed_s = 0.02
        raised = governor.decide(_sample(300e6, busy=1.0), context)
        context.elapsed_s = 0.04  # still inside min_sample_time
        held = governor.decide(_sample(raised, busy=0.1), context)
        assert held >= raised

    def test_proportional_target(self, spec):
        governor = InteractiveGovernor()
        governor.reset()
        context = _context(spec)
        context.elapsed_s = 10.0
        # 50% load at 2.2656 GHz -> target ~1.26 GHz, rounded up.
        target = governor.decide(_sample(2265.6e6, busy=0.5), context)
        assert target == spec.ceil_state(2265.6e6 * 0.5 / 0.9).freq_hz


class TestDeadlineGovernor:
    def test_picks_lowest_feasible_frequency(self, spec):
        governor = DeadlineGovernor(predictor=StubPredictor())
        # Stub: load(f) = 2/f + 0.4 <= 2.0 -> f >= 1.25 -> 1.5 GHz.
        target = governor.decide(_sample(2265.6e6), _context(spec, deadline=2.0))
        assert target == pytest.approx(1.5e9)

    def test_falls_back_to_fmax_when_infeasible(self, spec):
        governor = DeadlineGovernor(predictor=StubPredictor())
        target = governor.decide(_sample(2265.6e6), _context(spec, deadline=0.5))
        assert target == spec.max_state.freq_hz

    def test_interference_raises_the_choice(self, spec):
        governor = DeadlineGovernor(predictor=StubPredictor())
        quiet = governor.decide(
            _sample(2265.6e6, mpki_corunner=0.0), _context(spec, deadline=2.0)
        )
        noisy = governor.decide(
            _sample(2265.6e6, mpki_corunner=12.0), _context(spec, deadline=2.0)
        )
        assert noisy >= quiet

    def test_requires_page_census(self, spec):
        governor = DeadlineGovernor(predictor=StubPredictor())
        context = RunContext(spec=spec)
        with pytest.raises(ValueError):
            governor.decide(_sample(2265.6e6), context)


class TestEnergyEfficientGovernor:
    def test_picks_the_ppw_max_ignoring_deadline(self, spec):
        governor = EnergyEfficientGovernor(predictor=StubPredictor())
        tight = governor.decide(_sample(2265.6e6), _context(spec, deadline=0.1))
        loose = governor.decide(_sample(2265.6e6), _context(spec, deadline=99.0))
        assert tight == loose  # EE never looks at the deadline

    def test_initial_decision_assumes_no_interference(self, spec):
        stub = StubPredictor()
        governor = EnergyEfficientGovernor(predictor=stub)
        governor.initial_frequency(_context(spec))
        assert stub.calls[-1][0] == 0.0  # MPKI
        assert stub.calls[-1][1] == 0.0  # utilization
