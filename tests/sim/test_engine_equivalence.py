"""Fast-path vs reference-engine equivalence.

The regime-stepped fast path (:class:`~repro.sim.engine.Engine` with
``engine="fast"``) must be **bit-identical** to the per-step reference
loop (:class:`~repro.sim.engine.ReferenceEngine`): every result scalar,
task summary, governor decision, trace column, completion and phase
stamp compares equal with ``==``, not ``approx``.  That guarantee is
what lets the harness share cached artifacts between the two engines
without a calibration-tag bump.

Two layers of coverage:

* Curated browser workloads across governors x combos x dt x tracing
  (the shapes the experiment campaign actually runs).
* Hypothesis-driven synthetic task sets aimed at the event-snapping
  edge cases: phase boundaries landing mid-regime, switch stalls
  spanning a decision boundary, and the timeout cutting a regime
  short.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.engine as engine_module
from repro.browser.browser import browser_tasks
from repro.browser.pages import page_by_name
from repro.core.governors import (
    FixedFrequencyGovernor,
    InteractiveGovernor,
    OndemandGovernor,
)
from repro.sim.engine import Engine, EngineConfig, ReferenceEngine
from repro.sim.governor import Governor, RunContext
from repro.sim.task import Task, WorkPhase
from repro.soc.device import Device, DeviceConfig
from repro.soc.dvfs import SwitchCost
from repro.workloads.kernels import kernel_by_name, kernel_task

MIB = 1024 * 1024

_RESULT_FIELDS = (
    "load_time_s",
    "had_gating",
    "duration_s",
    "energy_j",
    "switch_count",
    "switch_stall_s",
    "switch_energy_j",
    "final_temperature_c",
    "avg_temperature_c",
)
_SUMMARY_FIELDS = (
    "instructions",
    "l2_accesses",
    "l2_misses",
    "busy_s",
    "finish_time_s",
    "loops_completed",
)
_TRACE_COLUMNS = (
    "times_s",
    "freqs_hz",
    "total_power_w",
    "core_dynamic_w",
    "memory_w",
    "leakage_w",
    "soc_temperature_c",
)


def assert_bit_identical(ref, fast):
    """Every observable of the two runs compares exactly equal."""
    for name in _RESULT_FIELDS:
        assert getattr(ref, name) == getattr(fast, name), name
    assert set(ref.task_summaries) == set(fast.task_summaries)
    for task_id, expected in ref.task_summaries.items():
        actual = fast.task_summaries[task_id]
        for name in _SUMMARY_FIELDS:
            assert getattr(expected, name) == getattr(actual, name), (
                f"{task_id}.{name}"
            )
    assert ref.decisions.times_s == fast.decisions.times_s
    assert ref.decisions.frequencies_hz == fast.decisions.frequencies_hz
    assert len(ref.trace) == len(fast.trace)
    for column in _TRACE_COLUMNS:
        expected = np.asarray(getattr(ref.trace, column))
        actual = np.asarray(getattr(fast.trace, column))
        assert expected.shape == actual.shape, f"trace.{column}"
        assert np.array_equal(expected, actual), f"trace.{column}"
    assert ref.trace.completions == fast.trace.completions
    assert ref.trace.phase_starts == fast.trace.phase_starts


class Alternator(Governor):
    """Flips between two frequencies every decision.

    Forces a DVFS switch (and its stall) at each interval, so stalls
    regularly straddle the following decision boundary -- the hardest
    case for regime-boundary bookkeeping.
    """

    name = "alternator"
    interval_s = 0.02

    def __init__(
        self, high_hz: float = 2265.6e6, low_hz: float = 1497.6e6
    ) -> None:
        self.high_hz = high_hz
        self.low_hz = low_hz
        self._high = True

    def initial_frequency(self, context: RunContext) -> float:
        return self.high_hz

    def decide(self, sample, context: RunContext) -> float:
        self._high = not self._high
        return self.high_hz if self._high else self.low_hz

    def reset(self) -> None:
        self._high = True


def _governor(name: str) -> Governor:
    if name == "perf":
        return FixedFrequencyGovernor(freq_hz=2265.6e6, label="perf")
    if name == "mid":
        return FixedFrequencyGovernor(freq_hz=1190.4e6, label="mid")
    if name == "interactive":
        return InteractiveGovernor()
    if name == "ondemand":
        return OndemandGovernor()
    if name == "alternator":
        return Alternator()
    raise KeyError(name)


def _browser_run(cls, page, kernel, governor, dt, trace, max_time=60.0):
    device = Device()
    page_obj = page_by_name(page)
    tasks = browser_tasks(page_obj).as_list()
    if kernel is not None:
        tasks.append(kernel_task(kernel_by_name(kernel)))
    engine = cls(
        device=device,
        tasks=tasks,
        governor=_governor(governor),
        context=RunContext(spec=device.spec, page_features=page_obj.features),
        config=EngineConfig(
            dt_s=dt, max_time_s=max_time, record_trace=trace
        ),
    )
    return engine.run()


#: (page, kernel, governor, dt_s, record_trace) -- a slice through the
#: governors x combos x dt x tracing space, curated to keep the suite
#: fast while hitting every governor family and both dt values.
BROWSER_CASES = [
    ("amazon", None, "perf", 0.002, True),
    ("amazon", None, "interactive", 0.002, True),
    ("amazon", None, "ondemand", 0.002, False),
    ("amazon", None, "mid", 0.0017, True),
    ("amazon", "backprop", "perf", 0.002, True),
    ("amazon", "backprop", "interactive", 0.002, False),
    ("amazon", "backprop", "alternator", 0.002, True),
    ("espn", "needleman-wunsch", "interactive", 0.002, True),
    ("espn", "needleman-wunsch", "perf", 0.0017, False),
    ("espn", "needleman-wunsch", "mid", 0.002, True),
]
BROWSER_IDS = [
    f"{p}+{k or 'solo'}-{g}-dt{dt * 1e3:g}ms-{'tr' if t else 'notr'}"
    for p, k, g, dt, t in BROWSER_CASES
]

#: Planning horizons short enough that most regimes end at the
#: ``_MAX_REGIME_STEPS`` clamp instead of at an event.
CLAMPED_HORIZONS = (6, 17)


class TestBrowserWorkloadEquivalence:
    @pytest.mark.parametrize(
        "page,kernel,governor,dt,trace", BROWSER_CASES, ids=BROWSER_IDS
    )
    def test_fast_matches_reference(self, page, kernel, governor, dt, trace):
        ref = _browser_run(ReferenceEngine, page, kernel, governor, dt, trace)
        fast = _browser_run(Engine, page, kernel, governor, dt, trace)
        assert ref.load_time_s is not None
        assert_bit_identical(ref, fast)

    @pytest.mark.parametrize("max_steps", CLAMPED_HORIZONS)
    @pytest.mark.parametrize(
        "page,kernel,governor,dt,trace", BROWSER_CASES, ids=BROWSER_IDS
    )
    def test_clamped_horizon_matches_reference(
        self, monkeypatch, page, kernel, governor, dt, trace, max_steps
    ):
        """The clamp is an execution-strategy knob: cutting regimes at
        ``max_steps`` (clamped seals, and the regime attempts right
        after them) must not move a single bit."""
        monkeypatch.setattr(engine_module, "_MAX_REGIME_STEPS", max_steps)
        ref = _browser_run(ReferenceEngine, page, kernel, governor, dt, trace)
        fast = _browser_run(Engine, page, kernel, governor, dt, trace)
        assert_bit_identical(ref, fast)

    def test_timeout_run_matches(self):
        """A run cut off by max_time_s times out identically."""
        ref = _browser_run(
            ReferenceEngine, "aliexpress", None, "mid", 0.002, True,
            max_time=0.5,
        )
        fast = _browser_run(
            Engine, "aliexpress", None, "mid", 0.002, True, max_time=0.5
        )
        assert ref.timed_out and fast.timed_out
        assert_bit_identical(ref, fast)


# ----------------------------------------------------------------------
# Property tests: event snapping on synthetic task sets
# ----------------------------------------------------------------------
phase_strategy = st.builds(
    WorkPhase,
    name=st.just("phase"),
    instructions=st.floats(5e6, 4e8),
    cpi_base=st.floats(0.8, 2.0),
    l2_apki=st.floats(0.0, 60.0),
    solo_miss_ratio=st.floats(0.01, 0.4),
    working_set_bytes=st.floats(0.1 * MIB, 16 * MIB),
    mlp=st.floats(1.0, 2.5),
    capacitance_f=st.floats(0.3e-9, 0.6e-9),
)

#: Small phases finish well inside a 50-step fixed-governor regime, so
#: phase boundaries land mid-regime essentially every run.
small_phase_strategy = st.builds(
    WorkPhase,
    name=st.just("short"),
    instructions=st.floats(2e6, 6e7),
    cpi_base=st.floats(0.8, 2.0),
    l2_apki=st.floats(0.0, 60.0),
    solo_miss_ratio=st.floats(0.01, 0.4),
    working_set_bytes=st.floats(0.1 * MIB, 8 * MIB),
    mlp=st.floats(1.0, 2.5),
    capacitance_f=st.floats(0.3e-9, 0.6e-9),
)


def _synthetic_run(
    cls,
    phases_per_task,
    governor,
    dt=0.002,
    max_time=30.0,
    device_config=None,
    trace=True,
):
    device = Device(device_config) if device_config else Device()
    tasks = [
        Task(
            task_id=f"t{core}",
            core=core,
            phases=tuple(phases),
            gating=(core == 0),
        )
        for core, phases in enumerate(phases_per_task)
    ]
    engine = cls(
        device=device,
        tasks=tasks,
        governor=governor,
        context=RunContext(spec=device.spec),
        config=EngineConfig(
            dt_s=dt, max_time_s=max_time, record_trace=trace
        ),
    )
    return engine.run()


class TestEventSnappingProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        phases=st.lists(small_phase_strategy, min_size=1, max_size=4),
        rival=st.lists(small_phase_strategy, min_size=0, max_size=2),
    )
    def test_phase_boundary_mid_regime(self, phases, rival):
        """Short phases force crossings inside would-be regimes."""
        governor = FixedFrequencyGovernor(freq_hz=2265.6e6, label="fixed")
        tasksets = [phases] + ([rival] if rival else [])
        ref = _synthetic_run(ReferenceEngine, tasksets, governor)
        fast = _synthetic_run(Engine, tasksets, governor)
        assert_bit_identical(ref, fast)

    @settings(max_examples=15, deadline=None)
    @given(
        phases=st.lists(phase_strategy, min_size=1, max_size=3),
        stall_ms=st.floats(0.5, 9.5),
    )
    def test_switch_stall_spanning_decision_boundary(self, phases, stall_ms):
        """Long stalls from an every-interval switcher straddle dt
        boundaries and whole decision intervals."""
        config = DeviceConfig(
            switch_cost=SwitchCost(stall_s=stall_ms * 1e-3, energy_j=250e-6)
        )
        ref = _synthetic_run(
            ReferenceEngine, [phases], Alternator(), device_config=config
        )
        fast = _synthetic_run(
            Engine, [phases], Alternator(), device_config=config
        )
        assert_bit_identical(ref, fast)

    @settings(max_examples=15, deadline=None)
    @given(
        phases=st.lists(phase_strategy, min_size=1, max_size=2),
        max_time=st.floats(0.011, 0.35),
    )
    def test_timeout_mid_regime(self, phases, max_time):
        """max_time_s cuts runs short at arbitrary (non-interval)
        points; the fast path must stop on exactly the same step."""
        governor = FixedFrequencyGovernor(freq_hz=729.6e6, label="slow")
        heavy = [
            WorkPhase(
                name="heavy",
                instructions=5e9,
                cpi_base=phase.cpi_base,
                l2_apki=phase.l2_apki,
                solo_miss_ratio=phase.solo_miss_ratio,
                working_set_bytes=phase.working_set_bytes,
                mlp=phase.mlp,
                capacitance_f=phase.capacitance_f,
            )
            for phase in phases
        ]
        ref = _synthetic_run(
            ReferenceEngine, [heavy], governor, max_time=max_time
        )
        fast = _synthetic_run(Engine, [heavy], governor, max_time=max_time)
        assert ref.timed_out and fast.timed_out
        assert_bit_identical(ref, fast)
