"""The discrete-time multiprogrammed simulator.

The engine advances the device and its tasks in fixed steps (2 ms by
default).  Each step couples every model in the substrate:

1. **Cache sharing** -- every running task's L2 access stream competes
   for the shared cache; the analytic model returns each task's
   effective miss ratio (interference inflates the browser's MPKI).
2. **Bus contention** -- the aggregate miss rate loads the memory bus;
   the queueing model returns the current miss penalty in core cycles
   (which also grows with core frequency -- the memory wall).
3. **Progress** -- each task retires ``dt * f / CPI`` instructions.
4. **Power and heat** -- the ground-truth power model evaluates the
   operating point and activity; the thermal model integrates it; the
   resulting temperature feeds back into leakage next step.
5. **Counters** -- raw events accumulate in the counter bank.
6. **Governor** -- at its decision interval the governor receives the
   drained counter window and may retarget the frequency; switches
   cost stall time and energy (Section V-H).

A run ends when every gating task (the browser's main thread) has
finished, or at the safety timeout.

Two execution strategies share these semantics:

* The **reference loop** (:class:`ReferenceEngine`) executes one dt
  per iteration, with no cross-run cache -- the original,
  obviously-correct interpreter.
* The **regime-stepped fast path** (:class:`Engine`) observes that between
  *events* -- a task phase boundary or completion, a governor decision
  boundary, a pending switch stall, the safety timeout -- the
  cache/bus/CPI equilibrium and therefore every per-step quantity
  except the thermal/leakage feedback is constant.  It plans the number
  of dt steps to the next event, evaluates progress, counters, and
  energy for the whole regime as resumed cumulative sums, and runs the
  thermal recurrence with per-step constants hoisted.  Events still
  snap to dt boundaries exactly as in the reference, every accumulation
  uses strictly sequential summation, and event-adjacent steps fall
  back to the single-step path -- so results are **bit-identical** to
  the reference loop (asserted by ``tests/sim/test_engine_equivalence``).
"""
# repro: bit-exact -- the fast path must equal ReferenceEngine bit for
# bit (R003 forbids BLAS/pairwise reductions in this module).

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sim.governor import Governor, GovernorDecisionLog, RunContext
from repro.sim.scheduler import CorePlan, plan
from repro.sim.task import Task
from repro.sim.trace import Trace
from repro.soc.cache import CacheDemand
from repro.soc.counters import CoreCounters
from repro.soc.cpu import CpiInputs, effective_cpi
from repro.soc.device import Device
from repro.soc.power import CoreActivity

#: Regimes shorter than this run through the single-step path (the
#: bulk machinery's fixed cost only pays off from a couple of steps).
_MIN_REGIME_STEPS = 2
#: Upper bound on one regime's planning horizon (bounds the working-set
#: of the planning matrix; longer regimes simply split).
_MAX_REGIME_STEPS = 131072
#: Preallocated trace capacity is capped here; longer runs grow.
_MAX_TRACE_PREALLOC = 262144

#: The activity of an online-but-idle core never varies; one frozen
#: instance serves every step of every run.
_IDLE_ACTIVITY = CoreActivity(utilization=0.0, effective_capacitance_f=0.0)

#: Cross-run cache of cache/bus/CPI equilibria, used by the fast path.
#: The equilibrium is a pure function of the (frozen) cache and memory
#: models, the operating point, and the running phases, so solutions
#: transfer between runs -- campaigns re-simulate the same combos over
#: and over.  Values are stored positionally (task ids stripped) and
#: are exactly what :func:`_solve_equilibrium` returns.
_EQUILIBRIUM_CACHE: dict = {}
_EQUILIBRIUM_CACHE_CAP = 4096

class _LruCache:
    """Insertion-ordered LRU cache with hit/miss/evict counters.

    Plain dicts preserve insertion order, so delete-and-reinsert on
    every hit keeps the first key the least recently used one; at
    capacity exactly that key is evicted.  The previous wholesale
    ``clear()``-at-cap policy dropped the entire working set the moment
    a heterogeneous fleet overflowed it, resetting the hit rate to zero
    -- the counters here exist so cache health shows up in telemetry
    instead of only in wall time.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: dict = {}

    def get(self, key):
        entry = self._entries.pop(key, None)
        if entry is None:
            self.misses += 1
            return None
        # Reinsert to mark most-recently-used.
        self._entries[key] = entry
        self.hits += 1
        return entry

    def put(self, key, value) -> None:
        entries = self._entries
        if key in entries:
            del entries[key]
        elif len(entries) >= self.capacity:
            del entries[next(iter(entries))]
            self.evictions += 1
        entries[key] = value

    def stats(self) -> dict[str, int]:
        """Lifetime counters plus the current fill level."""
        return {
            "capacity": self.capacity,
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: Cross-run cache of :class:`_RegimeTemplate` objects.  A template is
#: a pure function of the (frozen) power/cache/memory models, dt, the
#: operating point, the running ``(core, phase)`` placement and the
#: online-core set; everything it holds is read-only once built, so
#: sharing across runs is safe and skips the equilibrium solve *and*
#: the reference breakdown on repeat combos.  LRU-evicted (see
#: :class:`_LruCache`) so heterogeneous fleets shed only the coldest
#: combos instead of thrashing the whole cache.
_TEMPLATE_CACHE_CAP = 2048
_TEMPLATE_CACHE = _LruCache(_TEMPLATE_CACHE_CAP)


def template_cache_stats() -> dict[str, int]:
    """Hit/miss/evict counters of the shared template cache."""
    return _TEMPLATE_CACHE.stats()


@dataclass(frozen=True)
class EngineConfig:
    """Engine tuning knobs.

    Attributes:
        dt_s: Simulation step.
        max_time_s: Safety timeout; a run that has not finished by then
            is reported as timed out.
        record_trace: Whether to keep per-step time series.  Off by
            default: traces exist for figures that plot behaviour over
            time; sweeps, training campaigns and classification never
            read them and opt out of the memory/required bookkeeping.

    The execution strategy is the engine's type (:class:`Engine` or
    :class:`ReferenceEngine`), not a field here.
    """

    dt_s: float = 0.002
    max_time_s: float = 30.0
    record_trace: bool = False

    def __post_init__(self) -> None:
        if self.dt_s <= 0:
            raise ValueError("dt must be positive")
        if self.max_time_s <= self.dt_s:
            raise ValueError("max_time must exceed dt")


@dataclass
class TaskSummary:
    """Aggregate statistics of one task over a run."""

    instructions: float = 0.0
    l2_accesses: float = 0.0
    l2_misses: float = 0.0
    busy_s: float = 0.0
    finish_time_s: float | None = None
    loops_completed: int = 0

    @property
    def mpki(self) -> float:
        """L2 misses per kilo-instruction over the whole run."""
        if self.instructions <= 0:
            return 0.0
        return self.l2_misses / (self.instructions / 1000.0)


@dataclass
class RunResult:
    """Summary of one simulated run.

    Attributes:
        load_time_s: Completion time of the gating task(s), or ``None``
            if the run timed out before the page finished loading.
        duration_s: Total simulated time (== load time unless timed out).
        energy_j: Whole-device energy integrated over the run.
        trace: Per-step time series (empty when tracing is disabled).
        decisions: Frequency decisions the governor made.
        switch_count: DVFS transitions performed.
        switch_stall_s: Total core-stall time spent switching.
        switch_energy_j: Energy spent on transitions (included in
            ``energy_j``).
        task_summaries: Per-task aggregate statistics.
        final_temperature_c: Package temperature at the end of the run.
        governor_name: Name of the governor that ran.
    """

    load_time_s: float | None
    #: Whether the run had gating tasks at all (duration-bounded
    #: measurement runs, e.g. a kernel alone, have none).
    had_gating: bool
    duration_s: float
    energy_j: float
    trace: Trace
    decisions: GovernorDecisionLog
    switch_count: int
    switch_stall_s: float
    switch_energy_j: float
    task_summaries: dict[str, TaskSummary]
    final_temperature_c: float
    #: Time-averaged package temperature over the run (the leakage
    #: models consume this).
    avg_temperature_c: float
    governor_name: str

    @property
    def timed_out(self) -> bool:
        """Whether a page load was expected but never finished."""
        return self.had_gating and self.load_time_s is None

    @property
    def avg_power_w(self) -> float:
        """Mean device power over the run."""
        if self.duration_s <= 0:
            return 0.0
        return self.energy_j / self.duration_s

    @property
    def ppw(self) -> float:
        """Energy efficiency: performance per watt, 1 / (T * P).

        Timed-out runs score 0 (the page never loaded).
        """
        if self.load_time_s is None or self.load_time_s <= 0:
            return 0.0
        power = self.avg_power_w
        if power <= 0:
            return 0.0
        return 1.0 / (self.load_time_s * power)

    def meets_deadline(self, deadline_s: float) -> bool:
        """Whether the load finished within a QoS target."""
        return self.load_time_s is not None and self.load_time_s <= deadline_s

    def summary_for(self, task_id: str) -> TaskSummary:
        """Summary of one task (KeyError if the id is unknown)."""
        return self.task_summaries[task_id]


def _solve_equilibrium(
    device: Device, state, running: list[Task]
) -> tuple[dict[str, tuple[float, float]], float, float]:
    """Solve the coupled cache/bus/CPI fixed point for one step regime.

    Access rates depend on CPI, CPI depends on the miss penalty, the
    miss penalty depends on the aggregate miss rate, and miss ratios
    depend on every sharer's access rate.  A handful of fixed-point
    iterations converges; the result is reused for every step sharing
    the same (frequency, active phases) combination.

    Returns:
        ``(per_task, total_misses_per_s, penalty_cycles)`` where
        ``per_task`` maps task id to its (effective CPI, miss ratio).
    """
    cpi = {task.task_id: task.current_phase.cpi_base for task in running}
    ratios: dict[str, float] = {
        task.task_id: task.current_phase.solo_miss_ratio for task in running
    }
    total_misses_per_s = 0.0
    penalty_cycles = 0.0
    for _ in range(6):
        demands = []
        for task in running:
            phase = task.current_phase
            instr_rate = state.freq_hz / cpi[task.task_id]
            demands.append(
                CacheDemand(
                    task_id=task.task_id,
                    accesses_per_s=instr_rate * phase.l2_apki / 1000.0,
                    working_set_bytes=phase.working_set_bytes,
                    solo_miss_ratio=phase.solo_miss_ratio,
                )
            )
        ratios = device.cache.miss_ratios(demands)
        total_misses_per_s = sum(
            demand.accesses_per_s * ratios[demand.task_id] for demand in demands
        )
        penalty_cycles = device.memory.miss_penalty_cycles(
            total_misses_per_s, state.bus_freq_hz, state.freq_hz
        )
        for task in running:
            phase = task.current_phase
            cpi[task.task_id] = effective_cpi(
                CpiInputs(
                    cpi_base=phase.cpi_base,
                    l2_apki=phase.l2_apki,
                    miss_ratio=ratios[task.task_id],
                    miss_penalty_cycles=penalty_cycles,
                    mlp=phase.mlp,
                )
            )
    per_task = {
        task.task_id: (cpi[task.task_id], ratios[task.task_id])
        for task in running
    }
    return per_task, total_misses_per_s, penalty_cycles


@dataclass
class _LoopState:
    """Mutable run-loop state shared by the step and regime paths."""

    dt: float
    trace: Trace
    decisions: GovernorDecisionLog
    summaries: dict[str, TaskSummary]
    last_phase: dict[str, int]
    equilibrium_memo: dict
    regime_templates: dict
    core_plan: CorePlan
    gating_ids: set[str]
    time_s: float = 0.0
    energy_j: float = 0.0
    temperature_integral: float = 0.0
    pending_stall_s: float = 0.0
    window_s: float = 0.0
    load_time_s: float | None = None
    #: Steps to take through the single-step path before attempting
    #: another regime (set when an event is provably imminent).
    regime_cooldown: int = 0


@dataclass
class _RegimeTemplate:
    """Everything about a (frequency, active phases) regime that does
    not change while the regime holds.

    Built once per combination per run; the fast path then only has to
    resume running totals and integrate the thermal recurrence.  The
    power constants come from one reference ``breakdown()`` call --
    only its leakage term depends on temperature, and the regime
    integrator re-evaluates leakage per step anyway.
    """

    budgets: list[float]
    instructions: list[float]
    #: Per-step increments of the running totals, as a column vector
    #: ready to broadcast into the planning table without a per-regime
    #: reshape.
    increments_col: np.ndarray
    core_dynamic_w: float
    memory_w: float
    non_leakage_w: float
    rest_of_device_w: float
    leak_power_of_c: object
    per_core_power: dict[int, float]


@dataclass
class Engine:
    """Drives one run (device, tasks, governor) on the fast path."""

    device: Device
    tasks: list[Task]
    governor: Governor
    context: RunContext
    config: EngineConfig = field(default_factory=EngineConfig)

    def run(self) -> RunResult:
        """Simulate until the gating tasks finish (or timeout)."""
        loop = self._begin()
        max_time = self.config.max_time_s
        while loop.time_s < max_time:
            if loop.regime_cooldown:
                loop.regime_cooldown -= 1
            elif self._run_regime(loop):
                continue
            if not self._step(loop):
                break
        return self._finish(loop)

    # -- setup / teardown ----------------------------------------------
    def _begin(self) -> _LoopState:
        device = self.device
        spec = device.spec
        core_plan = plan(self.tasks, spec)
        for task in self.tasks:
            task.reset()
        device.reset()
        self.governor.reset()

        initial = self.governor.initial_frequency(self.context)
        if initial is not None:
            device.actuator.reset(spec.state_for(initial))

        capacity = 0
        if self.config.record_trace:
            expected = int(self.config.max_time_s / self.config.dt_s) + 4
            capacity = min(expected, _MAX_TRACE_PREALLOC)
        return _LoopState(
            dt=self.config.dt_s,
            trace=Trace(capacity=capacity),
            decisions=GovernorDecisionLog(),
            summaries={task.task_id: TaskSummary() for task in self.tasks},
            last_phase={task.task_id: -1 for task in self.tasks},
            # The cache/bus/CPI equilibrium depends only on (frequency,
            # active phases); solve it once per combination and reuse.
            equilibrium_memo={},
            regime_templates={},
            core_plan=core_plan,
            gating_ids=set(core_plan.gating_task_ids),
        )

    def _finish(self, loop: _LoopState) -> RunResult:
        device = self.device
        for task in self.tasks:
            loop.summaries[task.task_id].finish_time_s = task.finish_time_s
            loop.summaries[task.task_id].loops_completed = task.loops_completed

        loop.energy_j += device.actuator.total_switch_energy_j
        return RunResult(
            load_time_s=loop.load_time_s,
            had_gating=bool(loop.gating_ids),
            duration_s=loop.time_s,
            energy_j=loop.energy_j,
            trace=loop.trace,
            decisions=loop.decisions,
            switch_count=device.actuator.switch_count,
            switch_stall_s=device.actuator.total_stall_s,
            switch_energy_j=device.actuator.total_switch_energy_j,
            task_summaries=loop.summaries,
            final_temperature_c=device.thermal.soc_temperature_c,
            avg_temperature_c=(
                loop.temperature_integral / loop.time_s if loop.time_s > 0 else
                device.thermal.soc_temperature_c
            ),
            governor_name=self.governor.name,
        )

    def _equilibrium(self, loop: _LoopState, state, running: list[Task]):
        memo_key = (
            state.freq_hz,
            tuple((task.task_id, task.phase_index) for task in running),
        )
        equilibrium = loop.equilibrium_memo.get(memo_key)
        if equilibrium is None:
            equilibrium = self._solve(state, running)
            loop.equilibrium_memo[memo_key] = equilibrium
        return equilibrium

    def _solve(self, state, running: list[Task]):
        """The equilibrium, through the cross-run cache."""
        shared_key = (
            self.device.cache,
            self.device.memory,
            state.freq_hz,
            state.bus_freq_hz,
            tuple(task.current_phase for task in running),
        )
        cached = _EQUILIBRIUM_CACHE.get(shared_key)
        if cached is None:
            solved = _solve_equilibrium(self.device, state, running)
            cached = (
                tuple(solved[0][task.task_id] for task in running),
                solved[1],
                solved[2],
            )
            if len(_EQUILIBRIUM_CACHE) >= _EQUILIBRIUM_CACHE_CAP:
                _EQUILIBRIUM_CACHE.clear()
            _EQUILIBRIUM_CACHE[shared_key] = cached
        per_task = {
            task.task_id: cached[0][position]
            for position, task in enumerate(running)
        }
        return per_task, cached[1], cached[2]

    def _decide(self, loop: _LoopState, state) -> None:
        """One governor decision point (shared by both paths)."""
        device = self.device
        sample = device.counters.drain(
            freq_hz=state.freq_hz,
            soc_temperature_c=device.thermal.soc_temperature_c,
            core_temperatures_c={
                core: device.thermal.core_temperature_c(core)
                for core in loop.core_plan.online_cores
            },
        )
        self.context.elapsed_s = loop.time_s
        target = self.governor.decide(sample, self.context)
        loop.decisions.record(loop.time_s, target)
        loop.pending_stall_s += device.actuator.set_frequency(target)
        loop.window_s = 0.0

    # -- the per-step reference path -----------------------------------
    def _step(self, loop: _LoopState) -> bool:
        """Execute exactly one dt; False ends the run (completion or
        an empty task set)."""
        device = self.device
        dt = loop.dt
        state = device.state
        running = [task for task in self.tasks if task.running]
        if not running:
            return False

        # Stall from a recent frequency switch eats into the step.
        useful_dt = dt
        if loop.pending_stall_s > 0:
            consumed = min(loop.pending_stall_s, dt)
            useful_dt = dt - consumed
            loop.pending_stall_s -= consumed

        # 1+2. Cache sharing and bus contention: solve (or recall)
        # the coupled equilibrium for this (frequency, phases) set.
        per_task, total_misses_per_s, _penalty_cycles = self._equilibrium(
            loop, state, running
        )

        # 3. Progress + 5. counters.
        record = self.config.record_trace
        counters = device.counters
        activities: dict[int, CoreActivity] = {}
        per_core_power: dict[int, float] = {}
        for task in running:
            phase = task.current_phase
            if loop.last_phase[task.task_id] != task.phase_index:
                loop.last_phase[task.task_id] = task.phase_index
                if record:
                    loop.trace.phase_starts.append(
                        (loop.time_s, task.task_id, phase.name)
                    )
            cpi, ratio = per_task[task.task_id]
            budget = useful_dt * state.freq_hz / cpi
            retired = task.advance(budget, loop.time_s + dt) if budget > 0 else 0.0
            busy_fraction = retired / budget if budget > 0 else 0.0
            busy_s = useful_dt * busy_fraction
            accesses = retired * phase.l2_apki / 1000.0
            misses = accesses * ratio

            summary = loop.summaries[task.task_id]
            summary.instructions += retired
            summary.l2_accesses += accesses
            summary.l2_misses += misses
            summary.busy_s += busy_s

            counters.add(
                core=task.core,
                busy_s=busy_s,
                instructions=retired,
                l2_accesses=accesses,
                l2_misses=misses,
            )
            utilization = min(1.0, busy_s / dt) if dt > 0 else 0.0
            activities[task.core] = CoreActivity(
                utilization=utilization,
                effective_capacitance_f=phase.capacitance_f,
            )
            per_core_power[task.core] = (
                phase.capacitance_f
                * utilization
                * state.voltage_v**2
                * state.freq_hz
            )
            if task.finished and record:
                loop.trace.completions.append((loop.time_s + dt, task.task_id))

        # Online-but-idle cores (their task already finished).
        for core in loop.core_plan.online_cores:
            if core not in activities:
                activities[core] = _IDLE_ACTIVITY
                per_core_power[core] = 0.0

        # 4. Power and heat.
        breakdown = device.power_model.breakdown(
            state=state,
            core_activity=activities,
            l2_misses_per_s=total_misses_per_s,
            temperature_c=device.thermal.soc_temperature_c,
        )
        device.thermal.step(breakdown.soc_w, dt, per_core_power)
        loop.energy_j += breakdown.total_w * dt
        loop.temperature_integral += device.thermal.soc_temperature_c * dt
        counters.advance(dt)
        loop.time_s += dt
        if record:
            loop.trace.record(
                loop.time_s, state.freq_hz, breakdown,
                device.thermal.soc_temperature_c,
            )

        # Run completion check.
        if loop.gating_ids and all(
            task.finished for task in self.tasks if task.gating
        ):
            loop.load_time_s = max(
                task.finish_time_s or loop.time_s
                for task in self.tasks
                if task.gating
            )
            for task in self.tasks:
                task.cancel(loop.time_s)
            return False

        # 6. Governor decision point.
        loop.window_s += dt
        if loop.window_s + 1e-12 >= self.governor.interval_s:
            self._decide(loop, state)
        return True

    # -- the regime-stepped fast path ----------------------------------
    def _build_template(
        self, loop: _LoopState, state, running: list[Task]
    ) -> _RegimeTemplate:
        """Precompute the constants of one (frequency, phases) regime.

        Within a regime every running core is fully busy, so per-step
        progress, the activity set, and with it dynamic + memory power
        are all constant; one reference ``breakdown()`` call (with the
        reference's exact expressions and dict insertion order) yields
        the temperature-independent power terms, and leakage gets a
        per-step evaluator bound to the regime's voltage.
        """
        device = self.device
        dt = loop.dt
        per_task, total_misses_per_s, _penalty_cycles = self._equilibrium(
            loop, state, running
        )
        budgets: list[float] = []
        instructions: list[float] = []
        increments = [dt, dt, dt]
        activities: dict[int, CoreActivity] = {}
        per_core_power: dict[int, float] = {}
        for task in running:
            phase = task.current_phase
            cpi, ratio = per_task[task.task_id]
            budget = dt * state.freq_hz / cpi
            accesses = budget * phase.l2_apki / 1000.0
            misses = accesses * ratio
            budgets.append(budget)
            instructions.append(phase.instructions)
            increments += [
                budget, budget, budget, accesses, misses, dt,
                dt, budget, accesses, misses,
            ]
            activities[task.core] = CoreActivity(
                utilization=1.0,
                effective_capacitance_f=phase.capacitance_f,
            )
            per_core_power[task.core] = (
                phase.capacitance_f
                * 1.0
                * state.voltage_v**2
                * state.freq_hz
            )
        for core in loop.core_plan.online_cores:
            if core not in activities:
                activities[core] = _IDLE_ACTIVITY
                per_core_power[core] = 0.0
        base = device.power_model.breakdown(
            state=state,
            core_activity=activities,
            l2_misses_per_s=total_misses_per_s,
            temperature_c=device.thermal.soc_temperature_c,
        )
        return _RegimeTemplate(
            budgets=budgets,
            instructions=instructions,
            increments_col=np.array(increments).reshape(-1, 1),
            core_dynamic_w=base.core_dynamic_w,
            memory_w=base.memory_w,
            non_leakage_w=base.core_dynamic_w + base.memory_w,
            rest_of_device_w=base.rest_of_device_w,
            leak_power_of_c=device.power_model.leakage.bound_evaluator(
                state.voltage_v
            ),
            per_core_power=per_core_power,
        )

    def _run_regime(self, loop: _LoopState) -> int:
        """Bulk-execute the steps to the next event.

        Returns the number of steps executed; 0 means this iteration is
        not bulkable (pending stall, an event within the next couple of
        steps, no runnable tasks) and the caller should take the
        single-step path.
        """
        if loop.pending_stall_s > 0:
            return 0
        device = self.device
        dt = loop.dt
        state = device.state
        running = [task for task in self.tasks if task.running]
        if not running:
            return 0
        # The regime's template: the per-run memo (keyed by the
        # run-local frequency and task phases) first, then the
        # cross-run LRU cache, building it only when both miss.
        key = (
            state.freq_hz,
            tuple((task.task_id, task.phase_index) for task in running),
        )
        template = loop.regime_templates.get(key)
        if template is None:
            shared_key = (
                device.power_model,
                device.cache,
                device.memory,
                dt,
                state,
                tuple((task.core, task.current_phase) for task in running),
                loop.core_plan.online_cores,
            )
            template = _TEMPLATE_CACHE.get(shared_key)
            if template is None:
                template = self._build_template(loop, state, running)
                _TEMPLATE_CACHE.put(shared_key, template)
            loop.regime_templates[key] = template
        budgets = template.budgets
        instructions = template.instructions
        interval = self.governor.interval_s
        max_time = self.config.max_time_s

        # Scalar estimate of the steps to the nearest event: a phase
        # crossing excludes its step from the regime, the timeout and a
        # decision boundary include theirs.  Float drift moves the true
        # event index by at most a step; the exact check below corrects.
        n = int(min(
            (max_time - loop.time_s) / dt, (interval - loop.window_s) / dt
        )) + 1
        for task, budget, instr in zip(running, budgets, instructions):
            estimate = int((instr - task.instructions_done_in_phase) / budget)
            if estimate < n:
                n = estimate
        if n < _MIN_REGIME_STEPS:
            # The event is provably within the next n + 1 steps, and the
            # caller falls through to a _step right now -- skip the
            # doomed re-attempts for the n steps after it.
            loop.regime_cooldown = n
            return 0
        clamped = n > _MAX_REGIME_STEPS
        if clamped:
            n = _MAX_REGIME_STEPS

        # Running totals for everything a constant regime accumulates:
        # row 0 simulated time, row 1 the governor window, row 2 the
        # counter-window clock, then ten rows per task (phase progress,
        # lifetime instructions, the four summary fields, the four
        # counter-window fields).  One sequential cumsum resumes all of
        # them bit-identically to the scalar loop.
        counters = device.counters
        bases = [loop.time_s, loop.window_s, counters.elapsed_s]
        for task in running:
            summary = loop.summaries[task.task_id]
            window = counters.window(task.core)
            bases += [
                task.instructions_done_in_phase,
                task.total_instructions,
                summary.instructions,
                summary.l2_accesses,
                summary.l2_misses,
                summary.busy_s,
                window.busy_s,
                window.instructions,
                window.l2_accesses,
                window.l2_misses,
            ]
        # In-place resumed cumulative sums: column 0 carries the running
        # totals, every later column the per-step increment, and the
        # accumulate sweeps left to right -- the same strictly
        # sequential summation order as the scalar reference loop.
        series = np.empty((len(bases), n + 1))
        series[:, 0] = bases
        series[:, 1:] = template.increments_col
        np.add.accumulate(series, axis=1, out=series)

        # Exact event check at the regime boundary.  Every per-step
        # event predicate is monotone in the step index (the underlying
        # totals only grow), so checking steps ``n`` and ``n - 1``
        # covers the whole regime:
        # * a crossed phase at step n, or a step whose pre-state
        #   violates ``budget <= instructions - done`` (the condition
        #   for the reference's ``min(budget, left_in_phase)`` to
        #   reduce to a plain ``+= budget``), must stay out of bulk;
        # * the timeout and decision events may land exactly on step n
        #   but not earlier.
        while n >= _MIN_REGIME_STEPS:
            # Python-float columns: the checks below (and the write-back
            # after) read boundary cells many times, and one ``tolist``
            # beats repeated NumPy scalar indexing.
            last = series[:, n].tolist()
            prev = series[:, n - 1].tolist()
            valid = True
            for position, (budget, instr) in enumerate(
                zip(budgets, instructions)
            ):
                row = 3 + 10 * position
                if last[row] >= instr or budget > instr - prev[row]:
                    valid = False
                    break
            if valid and last[0] >= max_time and prev[0] >= max_time:
                valid = False
            if valid and last[1] + 1e-12 >= interval \
                    and prev[1] + 1e-12 >= interval:
                valid = False
            if valid:
                break
            n -= 1
        if n < _MIN_REGIME_STEPS:
            loop.regime_cooldown = n
            return 0

        # Execute the regime.  Phase-entry stamps land at the regime's
        # first step, exactly where the reference stamps them.
        record = self.config.record_trace
        for task in running:
            if loop.last_phase[task.task_id] != task.phase_index:
                loop.last_phase[task.task_id] = task.phase_index
                if record:
                    loop.trace.phase_starts.append(
                        (loop.time_s, task.task_id, task.current_phase.name)
                    )

        leak_w, total_w, temp_c = device.thermal.integrate_regime(
            steps=n,
            dt_s=dt,
            non_leakage_soc_w=template.non_leakage_w,
            rest_of_device_w=template.rest_of_device_w,
            leak_power_of_c=template.leak_power_of_c,
            per_core_power_w=template.per_core_power,
        )
        energy_j = loop.energy_j
        temperature_integral = loop.temperature_integral
        for power, temperature in zip(total_w, temp_c):
            energy_j += power * dt
            temperature_integral += temperature * dt
        loop.energy_j = energy_j
        loop.temperature_integral = temperature_integral

        windows: dict[int, object] = {}
        for position, task in enumerate(running):
            row = 3 + 10 * position
            task.instructions_done_in_phase = last[row]
            task.total_instructions = last[row + 1]
            summary = loop.summaries[task.task_id]
            summary.instructions = last[row + 2]
            summary.l2_accesses = last[row + 3]
            summary.l2_misses = last[row + 4]
            summary.busy_s = last[row + 5]
            windows[task.core] = CoreCounters(
                busy_s=last[row + 6],
                instructions=last[row + 7],
                l2_accesses=last[row + 8],
                l2_misses=last[row + 9],
            )
        counters.install_window(last[2], windows)
        loop.time_s = last[0]
        loop.window_s = last[1]

        if record:
            loop.trace.record_block(
                times_s=series[0, 1 : n + 1],
                freq_hz=state.freq_hz,
                total_power_w=total_w,
                core_dynamic_w=template.core_dynamic_w,
                memory_w=template.memory_w,
                leakage_w=leak_w,
                soc_temperature_c=temp_c,
            )
        # No completion is possible inside a regime (a finish implies a
        # phase crossing, which ends the regime beforehand), so the
        # only post-step action left is the decision point.
        if last[1] + 1e-12 >= interval:
            self._decide(loop, state)
        elif not clamped:
            # The regime ended for a reason other than a decision or the
            # planning-horizon clamp, so the very next step hits a phase
            # crossing (or the timeout, which ends the loop anyway): a
            # fresh attempt would only rediscover that and fail.
            loop.regime_cooldown = 1
        return n


@dataclass
class ReferenceEngine(Engine):
    """The per-step reference loop: one dt per iteration, every
    equilibrium solved within the run (no cross-run cache).

    The behavioral oracle: the regime-stepped fast path of
    :class:`Engine` must reproduce this loop bit-for-bit.  The
    equivalence suites and benchmarks instantiate it directly, and
    :func:`~repro.sim.fleet_engine.build_engine` builds it for
    ``engine="reference"``.
    """

    def run(self) -> RunResult:
        loop = self._begin()
        max_time = self.config.max_time_s
        while loop.time_s < max_time:
            if not self._step(loop):
                break
        return self._finish(loop)

    def _solve(self, state, running: list[Task]):
        return _solve_equilibrium(self.device, state, running)
