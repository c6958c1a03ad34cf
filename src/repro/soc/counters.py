"""perf-like hardware counter sampling.

The paper profiles the phone with ``perf`` and feeds DORA three runtime
signals every decision interval: per-core utilization, shared-L2 MPKI
of the co-scheduled task, and the core temperature (Section III, Fig. 4).
This module implements the accumulate-then-sample pattern: the engine
adds raw event counts as it steps, and a governor drains a window into
an immutable :class:`CounterSample`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


class CoreCounters(NamedTuple):
    """Raw event counts for one core over a sampling window.

    An immutable tuple: the engine builds one per running task per
    regime, and one shared zero window stands for every untouched core.
    """

    busy_s: float = 0.0
    instructions: float = 0.0
    l2_accesses: float = 0.0
    l2_misses: float = 0.0

    def merged(self, other: "CoreCounters") -> "CoreCounters":
        """Element-wise sum of two windows."""
        return CoreCounters(
            self.busy_s + other.busy_s,
            self.instructions + other.instructions,
            self.l2_accesses + other.l2_accesses,
            self.l2_misses + other.l2_misses,
        )

    def mpki(self) -> float:
        """L2 misses per kilo-instruction in this window."""
        if self.instructions <= 0:
            return 0.0
        return self.l2_misses / (self.instructions / 1000.0)


class CounterSample(NamedTuple):
    """One drained sampling window, as a governor sees it (immutable).

    Attributes:
        window_s: Length of the window in seconds.
        per_core: Raw counts per core id.
        freq_hz: Core frequency during (the end of) the window.
        soc_temperature_c: Shared package temperature sensor.
        core_temperatures_c: Per-core temperature sensors.
    """

    window_s: float
    per_core: dict[int, CoreCounters]
    freq_hz: float
    soc_temperature_c: float
    core_temperatures_c: dict[int, float]

    def utilization(self, core: int) -> float:
        """Busy fraction of one core over the window."""
        if self.window_s <= 0:
            return 0.0
        counters = self.per_core.get(core)
        if counters is None:
            return 0.0
        return min(1.0, counters.busy_s / self.window_s)

    def max_utilization(self) -> float:
        """Busy fraction of the busiest core (what interactive tracks)."""
        if not self.per_core:
            return 0.0
        return max(self.utilization(core) for core in self.per_core)

    def mpki(self, core: int) -> float:
        """L2 MPKI of one core over the window."""
        counters = self.per_core.get(core)
        if counters is None:
            return 0.0
        return counters.mpki()

    def mpki_of_cores(self, cores: list[int]) -> float:
        """Aggregate L2 MPKI over a set of cores (e.g. the co-runner's)."""
        instructions = 0.0
        misses = 0.0
        for core in cores:
            counters = self.per_core.get(core)
            if counters is None:
                continue
            instructions += counters.instructions
            misses += counters.l2_misses
        if instructions <= 0:
            return 0.0
        return misses / (instructions / 1000.0)

    def utilization_of_cores(self, cores: list[int]) -> float:
        """Mean busy fraction over a set of cores."""
        if not cores:
            return 0.0
        return sum(self.utilization(core) for core in cores) / len(cores)


#: Shared all-zero window (an immutable tuple, so one instance can seed
#: every first-touch merge in :meth:`CounterBank.add` and stand for
#: every untouched window :meth:`CounterBank.window` returns).
_ZERO_COUNTERS = CoreCounters()


@dataclass
class CounterBank:
    """Accumulates raw events between governor samples."""

    _windows: dict[int, CoreCounters] = field(default_factory=dict)
    _elapsed_s: float = 0.0

    def add(
        self,
        core: int,
        busy_s: float,
        instructions: float,
        l2_accesses: float,
        l2_misses: float,
    ) -> None:
        """Accumulate one engine step's events for a core.

        Builds the merged window directly -- the same four additions as
        ``current.merged(CoreCounters(...))``, without materializing the
        two intermediate objects (this runs twice per engine step).
        """
        current = self._windows.get(core)
        if current is None:
            current = _ZERO_COUNTERS
        self._windows[core] = CoreCounters(
            current.busy_s + busy_s,
            current.instructions + instructions,
            current.l2_accesses + l2_accesses,
            current.l2_misses + l2_misses,
        )

    def advance(self, dt_s: float) -> None:
        """Advance the window clock."""
        if dt_s < 0:
            raise ValueError("dt must be non-negative")
        self._elapsed_s += dt_s

    @property
    def elapsed_s(self) -> float:
        """Length of the currently-accumulating window."""
        return self._elapsed_s

    def window(self, core: int) -> CoreCounters:
        """The currently-accumulating (undrained) window of one core."""
        return self._windows.get(core, _ZERO_COUNTERS)

    def install_window(
        self, elapsed_s: float, per_core: dict[int, CoreCounters]
    ) -> None:
        """Bulk-replace the window clock and the given cores' windows.

        The engine fast path accumulates a whole constant regime of
        ``add()`` + ``advance()`` rounds in one cumulative sum (seeded
        from :attr:`elapsed_s` and :meth:`window`) and installs the
        result here.  Cores not named keep their accumulated window --
        exactly as a run of ``add()`` calls would leave them.
        """
        if elapsed_s < 0:
            raise ValueError("window length must be non-negative")
        self._elapsed_s = elapsed_s
        self._windows.update(per_core)

    def drain(
        self,
        freq_hz: float,
        soc_temperature_c: float,
        core_temperatures_c: dict[int, float],
    ) -> CounterSample:
        """Close the current window and return it as a sample."""
        sample = CounterSample(
            self._elapsed_s,
            dict(self._windows),
            freq_hz,
            soc_temperature_c,
            dict(core_temperatures_c),
        )
        self._windows = {}
        self._elapsed_s = 0.0
        return sample
