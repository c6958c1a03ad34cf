"""Fast-path vs reference-engine equivalence.

The regime-stepped fast path (:class:`~repro.sim.engine.Engine`) must
be **bit-identical** to the per-step reference loop
(:class:`~repro.sim.engine.ReferenceEngine`): every result scalar,
task summary, governor decision, trace column, completion and phase
stamp compares equal with ``==``, not ``approx``.  That guarantee is
what lets the harness share cached artifacts between the two engines
without a calibration-tag bump.

Three layers of coverage:

* Curated browser workloads across governors x combos x dt x tracing
  (the shapes the experiment campaign actually runs); their reference
  runs are also held to the golden table of ``test_engine_golden``,
  which pins the physics both engines share.
* Deterministic task sets for every exit of the phase-crossing step a
  regime takes (absorbed, inexact, finishing, two tasks at once, on
  the decision step, on the timeout step, after a clamped regime),
  each checking which path took it.
* Hypothesis-driven synthetic task sets aimed at the event-snapping
  edge cases: phase boundaries landing mid-regime, switch stalls
  spanning a decision boundary, and the timeout cutting a regime
  short.
"""

from typing import NamedTuple

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
from tests.sim.test_engine_golden import GOLDEN, GOLDEN_APPLIES, golden_bits

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


def _browser_id(page, kernel, governor, dt, trace):
    tracing = "tr" if trace else "notr"
    return f"{page}+{kernel or 'solo'}-{governor}-dt{dt * 1e3:g}ms-{tracing}"


BROWSER_IDS = [_browser_id(*case) for case in BROWSER_CASES]

#: Planning horizons short enough that most regimes end at the
#: ``_MAX_REGIME_STEPS`` clamp instead of at an event.
CLAMPED_HORIZONS = (6, 17)


class TestBrowserWorkloadEquivalence:
    @pytest.mark.parametrize(
        "page,kernel,governor,dt,trace", BROWSER_CASES, ids=BROWSER_IDS
    )
    def test_fast_matches_reference(self, page, kernel, governor, dt, trace):
        """Equal bits, and the shared physics equals the golden table."""
        ref = _browser_run(ReferenceEngine, page, kernel, governor, dt, trace)
        fast = _browser_run(Engine, page, kernel, governor, dt, trace)
        assert ref.load_time_s is not None
        assert_bit_identical(ref, fast)
        if GOLDEN_APPLIES:
            case_id = _browser_id(page, kernel, governor, dt, trace)
            assert golden_bits(ref) == GOLDEN[case_id]

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
# Crossing steps: every exit of the step a regime takes past its phase
# boundary
# ----------------------------------------------------------------------
_PERF_HZ = 2265.6e6


def _character(name: str, instructions: float, cpi_base: float = 1.2):
    return WorkPhase(
        name=name,
        instructions=instructions,
        cpi_base=cpi_base,
        l2_apki=18.0,
        solo_miss_ratio=0.12,
        working_set_bytes=2 * MIB,
    )


def _fixed_engine(cls, phases_per_task, max_time=30.0):
    """A perf-pinned 2 ms run of one task per core; the core-0 task
    gates."""
    device = Device()
    tasks = [
        Task(
            task_id=f"t{core}", core=core, phases=tuple(phases),
            gating=(core == 0),
        )
        for core, phases in enumerate(phases_per_task)
    ]
    return cls(
        device=device,
        tasks=tasks,
        governor=FixedFrequencyGovernor(freq_hz=_PERF_HZ, label="perf"),
        context=RunContext(spec=device.spec),
        config=EngineConfig(
            dt_s=0.002, max_time_s=max_time, record_trace=True
        ),
    )


def _opening_budgets(phases_per_task):
    """Each task's instruction budget for one full step of its first
    phase: the regime template's, which is what _step grants."""
    engine = _fixed_engine(Engine, phases_per_task)
    loop = engine._begin()
    return engine._build_template(loop, engine.device.state, engine.tasks).budgets


def _crossing_size(budget, plain_steps, exact, follow):
    """Instructions of a first phase whose boundary falls in step
    ``plain_steps + 1``, where ``Task.advance`` then retires exactly the
    budget (``exact``) or a sum that rounds off it.  ``follow`` is the
    phase after it (None: the task finishes on that step).  None when
    no size does."""
    done = 0.0
    for _ in range(plain_steps):
        done += budget
    for thousandths in range(1000, 0, -1):
        size = done + budget * thousandths / 1000
        phases = (_character("probe", size),) + (
            () if follow is None else (follow,)
        )
        probe = Task(task_id="probe", core=0, phases=phases)
        probe.instructions_done_in_phase = done
        retired = probe.advance(budget, 0.0)
        if probe.phase_index == 1 and (retired == budget) == exact:
            return size
    return None


def _inexact_crossing(plain_steps, follow):
    """Phases of a task whose first phase crosses exactly in step
    ``plain_steps + 1``, and whose second, entered with that step's
    spill, crosses in the next step, where ``Task.advance`` retires a
    sum that rounds off the budget.

    Only a phase entered less than a budget ago can round so (after a
    whole step ``left`` is a multiple of the budget's ulp, and
    ``budget - left`` is exact), and only when round-half-even settles
    the final tie away from the budget, which depends on the budget's
    last bit -- so the search also varies the base CPI, which sets it.
    """
    for cpi_base in (1.2, 1.25, 1.3, 1.35, 1.4, 1.45, 1.5, 1.55, 1.6):
        budget = _opening_budgets([[_character("first", 1e9, cpi_base)]])[0]
        done = 0.0
        for _ in range(plain_steps):
            done += budget
        for first_hundredths in range(10, 100, 5):
            first = done + budget * first_hundredths / 100
            for second_thousandths in range(1, 1000):
                phases = [
                    _character("first", first, cpi_base),
                    _character(
                        "second", budget * second_thousandths / 1000, cpi_base
                    ),
                    follow,
                ]
                probe = Task(task_id="probe", core=0, phases=tuple(phases))
                probe.instructions_done_in_phase = done
                if probe.advance(budget, 0.0) != budget \
                        or probe.phase_index != 1:
                    continue
                if probe.advance(budget, 0.0) != budget \
                        and probe.phase_index == 2:
                    return phases
    raise AssertionError("no phase sizes give that crossing")


class _Call(NamedTuple):
    """One ``_run_regime`` or ``_step`` call of a spied run."""

    path: str
    #: Steps taken (``_run_regime``) or whether the run goes on
    #: (``_step``).
    outcome: object
    #: Tasks whose phase index or finished flag the call changed.
    moved: tuple
    decided: bool
    #: ``Task.restore_progress`` calls made inside the call.
    restores: int


class _PathSpy:
    """Records which path took each step of a fast-path run."""

    def __init__(self, monkeypatch):
        self.calls: list[_Call] = []
        self._restores = 0
        spy = self

        def recorded(path, method):
            def wrapper(engine, loop):
                before = [
                    (task.phase_index, task.finished) for task in engine.tasks
                ]
                decisions = len(loop.decisions.times_s)
                restores = spy._restores
                outcome = method(engine, loop)
                moved = tuple(
                    task.task_id
                    for task, saved in zip(engine.tasks, before)
                    if (task.phase_index, task.finished) != saved
                )
                spy.calls.append(_Call(
                    path, outcome, moved,
                    len(loop.decisions.times_s) > decisions,
                    spy._restores - restores,
                ))
                return outcome
            return wrapper

        restore = Task.restore_progress

        def counted_restore(task, saved):
            spy._restores += 1
            restore(task, saved)

        monkeypatch.setattr(
            Engine, "_run_regime", recorded("regime", Engine._run_regime)
        )
        monkeypatch.setattr(Engine, "_step", recorded("step", Engine._step))
        monkeypatch.setattr(Task, "restore_progress", counted_restore)

    def movers(self) -> list[_Call]:
        """The calls that moved some task, in order."""
        return [call for call in self.calls if call.moved]


def _spied_pair(monkeypatch, phases_per_task, **config):
    """The reference run, then the spied fast run, of one task set."""
    ref = _fixed_engine(ReferenceEngine, phases_per_task, **config).run()
    spy = _PathSpy(monkeypatch)
    fast = _fixed_engine(Engine, phases_per_task, **config).run()
    assert_bit_identical(ref, fast)
    return ref, spy


class TestCrossingSteps:
    """The regime takes the step that crosses a phase boundary when
    ``Task.advance`` retires exactly each budget and no task finishes,
    and leaves every other crossing to ``_step``; both outcomes stay
    bit-identical to the reference.  (Each run's last step, the gating
    task's finish, always falls back.)"""

    FOLLOW = _character("follow", 2e8, cpi_base=0.9)

    def _phases(self, plain_steps, exact, follow=FOLLOW):
        budget = _opening_budgets([[_character("open", 1e9)]])[0]
        size = _crossing_size(budget, plain_steps, exact, follow)
        assert size is not None
        return [_character("open", size)] + ([follow] if follow else [])

    def test_exact_crossing_is_absorbed(self, monkeypatch):
        _, spy = _spied_pair(monkeypatch, [self._phases(20, exact=True)])
        crossing, finish = spy.movers()
        assert crossing == _Call("regime", 21, ("t0",), False, 0)
        assert finish.path == "step"

    def test_inexact_crossing_falls_back(self, monkeypatch):
        _, spy = _spied_pair(
            monkeypatch, [_inexact_crossing(20, self.FOLLOW)]
        )
        assert spy.calls[:3] == [
            _Call("regime", 21, ("t0",), False, 0),
            _Call("regime", 0, (), False, 1),
            _Call("step", True, ("t0",), False, 0),
        ]

    def test_gating_task_finishing_on_the_crossing_step(self, monkeypatch):
        # The task's last phase ends exactly at the step's end, so the
        # step retires its whole budget and only the finish sends it
        # to _step.  (That needs ``done + budget`` to round up, which
        # depends on the step count.)
        budget = _opening_budgets([[_character("open", 1e9)]])[0]
        plain_steps, size = next(
            (steps, size)
            for steps in range(1, 49)
            if (size := _crossing_size(budget, steps, True, None))
        )
        ref, spy = _spied_pair(monkeypatch, [[_character("open", size)]])
        assert spy.calls == [
            _Call("regime", plain_steps, (), False, 1),
            _Call("step", False, ("t0",), False, 0),
        ]
        assert ref.load_time_s == ref.trace.times_s[plain_steps]

    def test_two_tasks_crossing_on_one_step(self, monkeypatch):
        rival_follow = _character("rival-follow", 4e8, cpi_base=1.1)
        budgets = _opening_budgets(
            [[_character("open", 1e9)], [_character("rival", 1e9, 1.5)]]
        )
        sizes = [
            _crossing_size(budget, 20, True, follow)
            for budget, follow in zip(budgets, (self.FOLLOW, rival_follow))
        ]
        assert None not in sizes
        _, spy = _spied_pair(monkeypatch, [
            [_character("open", sizes[0]), self.FOLLOW],
            [_character("rival", sizes[1], 1.5), rival_follow],
        ])
        assert spy.movers()[0] == _Call("regime", 21, ("t0", "t1"), False, 0)

    def test_crossing_on_the_decision_step(self, monkeypatch):
        # The perf governor decides every 0.1 s: after step 50 at 2 ms.
        ref, spy = _spied_pair(monkeypatch, [self._phases(49, exact=True)])
        assert spy.movers()[0] == _Call("regime", 50, ("t0",), True, 0)
        assert ref.decisions.times_s[0] == ref.trace.times_s[49]

    def test_crossing_on_the_timeout_step(self, monkeypatch):
        # The time after 21 steps, summed as the engine sums it.
        max_time = 0.0
        for _ in range(21):
            max_time += 0.002
        ref, spy = _spied_pair(
            monkeypatch, [self._phases(20, exact=True)], max_time=max_time
        )
        assert ref.timed_out
        assert spy.calls == [_Call("regime", 21, ("t0",), False, 0)]

    def test_crossing_right_after_a_clamped_regime(self, monkeypatch):
        monkeypatch.setattr(engine_module, "_MAX_REGIME_STEPS", 6)
        _, spy = _spied_pair(monkeypatch, [self._phases(7, exact=True)])
        # Six planned plain steps and the plain step after them, then
        # the crossing as the next regime's only step.
        assert spy.calls[:2] == [
            _Call("regime", 7, (), False, 0),
            _Call("regime", 1, ("t0",), False, 0),
        ]

    def test_browser_cases_take_few_single_steps(self, monkeypatch):
        """The ten curated browser runs took 508 ``_step`` calls when
        every phase crossing went through it; with exact crossings
        absorbed they take 58 (completions, switch stalls and inexact
        crossings)."""
        spy = _PathSpy(monkeypatch)
        for case in BROWSER_CASES:
            _browser_run(Engine, *case)
        steps = sum(1 for call in spy.calls if call.path == "step")
        assert steps <= 64, steps


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
