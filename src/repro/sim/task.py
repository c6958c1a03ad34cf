"""Phased workload description.

Every piece of software the engine runs -- a browser render pipeline, a
Rodinia-like kernel -- is a :class:`Task`: an ordered list of
:class:`WorkPhase` entries pinned to one core.  A phase carries the
architectural character of the code it models (base CPI, L2 access
rate, solo miss ratio, working set, memory-level parallelism, switched
capacitance); the engine combines that character with the current
operating point and the other tasks' cache/bus pressure to decide how
fast the phase actually retires instructions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.soc.power import DEFAULT_CORE_CAPACITANCE_F


@dataclass(frozen=True)
class WorkPhase:
    """One phase of a task's execution.

    Attributes:
        name: Phase label (shows up in traces).
        instructions: Instructions the phase retires before completing.
        cpi_base: Core-private CPI of the phase's code.
        l2_apki: L2 accesses per kilo-instruction.
        solo_miss_ratio: L2 miss ratio with the cache to itself.
        working_set_bytes: Cache footprint the phase re-references.
        mlp: Memory-level parallelism (overlapped misses, >= 1).
        capacitance_f: Effective switched capacitance while running.
    """

    name: str
    instructions: float
    cpi_base: float
    l2_apki: float
    solo_miss_ratio: float
    working_set_bytes: float
    mlp: float = 1.0
    capacitance_f: float = DEFAULT_CORE_CAPACITANCE_F

    def __post_init__(self) -> None:
        if self.instructions <= 0:
            raise ValueError("phase must retire a positive instruction count")
        if self.cpi_base <= 0:
            raise ValueError("base CPI must be positive")
        if self.l2_apki < 0:
            raise ValueError("APKI must be non-negative")
        if not 0.0 <= self.solo_miss_ratio <= 1.0:
            raise ValueError("solo miss ratio must lie in [0, 1]")
        if self.working_set_bytes < 0:
            raise ValueError("working set must be non-negative")
        if self.mlp < 1.0:
            raise ValueError("MLP must be at least 1")
        if self.capacitance_f < 0:
            raise ValueError("capacitance must be non-negative")


@dataclass
class Task:
    """A runnable workload pinned to one core.

    Attributes:
        task_id: Unique, stable identifier.
        core: Core the task is statically assigned to.
        phases: Ordered phases.
        looping: Whether the task restarts its phase list when done
            (co-run applications run continuously; the browser's load
            does not).
        gating: Whether the run's completion (and the page load time)
            is defined by this task finishing.
    """

    task_id: str
    core: int
    phases: tuple[WorkPhase, ...]
    looping: bool = False
    gating: bool = False

    # Execution state (owned by the engine).
    phase_index: int = 0
    instructions_done_in_phase: float = 0.0
    total_instructions: float = 0.0
    finished: bool = False
    finish_time_s: float | None = None
    loops_completed: int = 0

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("task must have at least one phase")
        if self.core < 0:
            raise ValueError("core must be non-negative")
        if self.looping and self.gating:
            raise ValueError("a looping task cannot gate run completion")

    @property
    def current_phase(self) -> WorkPhase:
        """The phase currently executing."""
        return self.phases[self.phase_index]

    @property
    def running(self) -> bool:
        """Whether the task still consumes its core."""
        return not self.finished

    def advance(self, instructions: float, now_s: float) -> float:
        """Retire instructions, moving through phases as they complete.

        Args:
            instructions: Instruction budget granted this step.
            now_s: Simulation time at the *end* of the step (used to
                stamp the finish time).

        Returns:
            Instructions actually retired (less than the budget only
            when a non-looping task finishes mid-step).
        """
        if self.finished:
            return 0.0
        remaining = instructions
        retired = 0.0
        while remaining > 0:
            phase = self.phases[self.phase_index]
            left_in_phase = phase.instructions - self.instructions_done_in_phase
            step = min(remaining, left_in_phase)
            self.instructions_done_in_phase += step
            retired += step
            remaining -= step
            if self.instructions_done_in_phase >= phase.instructions:
                self.instructions_done_in_phase = 0.0
                self.phase_index += 1
                if self.phase_index >= len(self.phases):
                    if self.looping:
                        self.phase_index = 0
                        self.loops_completed += 1
                    else:
                        self.finished = True
                        self.finish_time_s = now_s
                        break
        self.total_instructions += retired
        return retired

    def save_progress(self) -> tuple:
        """The six execution fields :meth:`advance` may change."""
        return (
            self.phase_index,
            self.instructions_done_in_phase,
            self.total_instructions,
            self.finished,
            self.finish_time_s,
            self.loops_completed,
        )

    def restore_progress(self, saved: tuple) -> None:
        """Undo :meth:`advance` calls made since :meth:`save_progress`."""
        (
            self.phase_index,
            self.instructions_done_in_phase,
            self.total_instructions,
            self.finished,
            self.finish_time_s,
            self.loops_completed,
        ) = saved

    def cancel(self, now_s: float) -> None:
        """Stop the task without completing it (e.g. run ended)."""
        if not self.finished:
            self.finished = True
            self.finish_time_s = now_s

    def reset(self) -> None:
        """Return the task to its initial state for a fresh run."""
        self.phase_index = 0
        self.instructions_done_in_phase = 0.0
        self.total_instructions = 0.0
        self.finished = False
        self.finish_time_s = None
        self.loops_completed = 0

    def progress_fraction(self) -> float:
        """Completed fraction of the current pass through the phases."""
        total = sum(phase.instructions for phase in self.phases)
        done = (
            sum(phase.instructions for phase in self.phases[: self.phase_index])
            + self.instructions_done_in_phase
        )
        if self.finished and not self.looping:
            return 1.0
        return min(1.0, done / total)
