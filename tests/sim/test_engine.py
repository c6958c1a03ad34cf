"""Discrete-time engine tests."""

import pytest

import repro.sim.engine as engine_module
from repro.browser.browser import browser_tasks
from repro.browser.pages import page_by_name
from repro.core.governors import FixedFrequencyGovernor
from repro.sim.engine import Engine, EngineConfig, ReferenceEngine
from repro.sim.governor import RunContext
from repro.soc.device import Device
from repro.workloads.kernels import kernel_by_name, kernel_task


def _engine(page="amazon", kernel=None, freq=None, dt=0.002, max_time=60.0,
            trace=True, governor=None, cls=Engine):
    device = Device()
    spec = device.spec
    page_obj = page_by_name(page)
    tasks = browser_tasks(page_obj).as_list()
    if kernel:
        tasks.append(kernel_task(kernel_by_name(kernel)))
    gov = governor or FixedFrequencyGovernor(
        freq_hz=freq or spec.max_state.freq_hz, label="fixed"
    )
    context = RunContext(spec=spec, page_features=page_obj.features)
    return cls(
        device=device,
        tasks=tasks,
        governor=gov,
        context=context,
        config=EngineConfig(dt_s=dt, max_time_s=max_time, record_trace=trace),
    )


class TestCompletion:
    def test_solo_load_completes(self):
        result = _engine().run()
        assert result.load_time_s is not None
        assert 0.1 < result.load_time_s < 2.0
        assert not result.timed_out

    def test_corunner_is_cancelled_when_page_finishes(self):
        engine = _engine(kernel="bfs")
        result = engine.run()
        kernel_summary = result.summary_for("kernel:bfs")
        assert kernel_summary.finish_time_s == pytest.approx(
            result.duration_s, abs=0.01
        )

    def test_duration_equals_load_time_when_not_timed_out(self):
        result = _engine().run()
        assert result.duration_s == pytest.approx(result.load_time_s, abs=0.01)

    def test_timeout_is_reported(self):
        result = _engine(page="aliexpress", freq=300e6, max_time=1.0).run()
        assert result.timed_out
        assert result.load_time_s is None
        assert result.ppw == 0.0

    def test_duration_bounded_run_without_gating(self):
        device = Device()
        engine = Engine(
            device=device,
            tasks=[kernel_task(kernel_by_name("srad"))],
            governor=FixedFrequencyGovernor(device.spec.max_state.freq_hz, "fixed"),
            context=RunContext(spec=device.spec),
            config=EngineConfig(dt_s=0.002, max_time_s=0.5),
        )
        result = engine.run()
        assert not result.timed_out
        assert result.load_time_s is None
        assert result.duration_s == pytest.approx(0.5, abs=0.01)


class TestPhysicsCoupling:
    def test_interference_slows_the_load(self):
        solo = _engine().run().load_time_s
        contended = _engine(kernel="needleman-wunsch").run().load_time_s
        assert contended > solo * 1.1

    def test_interference_inflates_browser_mpki(self):
        solo = _engine().run().summary_for("browser-main:amazon").mpki
        contended = (
            _engine(kernel="needleman-wunsch")
            .run()
            .summary_for("browser-main:amazon")
            .mpki
        )
        assert contended > solo

    def test_higher_frequency_loads_faster_but_draws_more_power(self):
        slow = _engine(freq=729.6e6).run()
        fast = _engine(freq=2265.6e6).run()
        assert fast.load_time_s < slow.load_time_s
        assert fast.avg_power_w > slow.avg_power_w

    def test_speedup_is_sublinear_in_frequency(self):
        """The memory wall: 3.1x frequency gives less than 3.1x speedup."""
        slow = _engine(page="imgur", kernel="backprop", freq=729.6e6).run()
        fast = _engine(page="imgur", kernel="backprop", freq=2265.6e6).run()
        speedup = slow.load_time_s / fast.load_time_s
        assert speedup < 2265.6 / 729.6

    def test_temperature_rises_during_the_load(self):
        """Sustained load heats the package above its initial 48 C.

        The helper thread finishes before the main thread, so power
        (and temperature) can dip late in the run -- the peak, not the
        final sample, shows the heating.
        """
        result = _engine(page="aliexpress", kernel="backprop").run()
        assert result.trace.max_temperature_c() > 50.0
        assert result.avg_temperature_c > 48.0

    def test_energy_is_positive_and_consistent_with_power(self):
        result = _engine().run()
        assert result.energy_j > 0
        assert result.avg_power_w == pytest.approx(
            result.energy_j / result.duration_s
        )


class TestDeterminismAndRobustness:
    def test_identical_runs_are_identical(self):
        first = _engine().run()
        second = _engine().run()
        assert first.load_time_s == second.load_time_s
        assert first.energy_j == second.energy_j

    def test_step_size_only_perturbs_results_slightly(self):
        coarse = _engine(dt=0.008).run()
        fine = _engine(dt=0.001).run()
        assert coarse.load_time_s == pytest.approx(fine.load_time_s, rel=0.05)
        assert coarse.energy_j == pytest.approx(fine.energy_j, rel=0.05)

    def test_trace_can_be_disabled(self):
        result = _engine(trace=False).run()
        assert len(result.trace) == 0
        assert result.load_time_s is not None

    def test_trace_records_every_step(self):
        result = _engine(dt=0.002).run()
        expected_steps = result.duration_s / 0.002
        assert len(result.trace) == pytest.approx(expected_steps, abs=2)

    def test_counters_match_task_summaries(self):
        """Raw counter totals equal the per-task summaries."""
        engine = _engine()
        result = engine.run()
        main = result.summary_for("browser-main:amazon")
        workload_total = sum(
            p.instructions
            for p in browser_tasks(page_by_name("amazon")).main.phases
        )
        assert main.instructions == pytest.approx(workload_total, rel=1e-6)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(dt_s=0.0)
        with pytest.raises(ValueError):
            EngineConfig(dt_s=1.0, max_time_s=0.5)


class TestGovernorInteraction:
    def test_fixed_governor_never_switches(self):
        result = _engine().run()
        assert result.switch_count == 0
        assert result.switch_stall_s == 0.0

    def test_decisions_are_logged_at_the_interval(self):
        gov = FixedFrequencyGovernor(freq_hz=2265.6e6, label="fixed")
        gov.interval_s = 0.05
        result = _engine(page="msn", governor=gov).run()
        assert len(result.decisions.times_s) == pytest.approx(
            result.duration_s / 0.05, abs=2
        )

    def test_switching_governor_pays_stall_and_energy(self):
        class Alternator(FixedFrequencyGovernor):
            def decide(self, sample, context):
                if sample.freq_hz == 2265.6e6:
                    return 1497.6e6
                return 2265.6e6

        gov = Alternator(freq_hz=2265.6e6, label="alternator")
        result = _engine(page="msn", governor=gov).run()
        assert result.switch_count > 2
        assert result.switch_stall_s > 0.0
        assert result.switch_energy_j > 0.0


class _Unreadable(dict):
    """A cross-run cache that fails the test on any lookup."""

    def get(self, key, default=None):
        raise AssertionError("the cross-run equilibrium cache was read")

    __getitem__ = __contains__ = get


class TestReferenceEngine:
    """The oracle is its own per-step loop, not a flag on the fast path."""

    def test_never_runs_a_regime_or_reads_the_cross_run_cache(self, monkeypatch):
        expected = _engine(kernel="backprop", trace=False).run()

        def no_regimes(self, loop):
            raise AssertionError("a regime was run")

        monkeypatch.setattr(Engine, "_run_regime", no_regimes)
        monkeypatch.setattr(engine_module, "_EQUILIBRIUM_CACHE", _Unreadable())
        result = _engine(kernel="backprop", trace=False, cls=ReferenceEngine).run()
        assert result.load_time_s == expected.load_time_s
        assert result.energy_j == expected.energy_j
        # The same patches do stop the fast path.
        with pytest.raises(AssertionError, match="a regime was run"):
            _engine(kernel="backprop", trace=False).run()
