"""Frequency-governor interface.

A governor is the only software allowed to touch the DVFS actuator.
The engine calls it at its own ``interval_s`` cadence with a drained
:class:`~repro.soc.counters.CounterSample` -- exactly the information
a userspace Android governor has: per-core utilization, perf counters,
thermal sensors, and the current frequency.  Concrete governors
(``interactive``, ``performance``, DL, EE, DORA, ...) live in
:mod:`repro.core.governors` and :mod:`repro.core.dora`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.browser.dom import PageFeatures
from repro.soc.counters import CounterSample
from repro.soc.specs import PlatformSpec


@dataclass
class RunContext:
    """Static facts about the run a governor may rely on.

    Attributes:
        spec: Platform description (DVFS table, bus mapping).
        deadline_s: QoS target for the page load (the paper's default
            is 3 seconds).
        page_features: Complexity census of the page being loaded;
            available *before* rendering starts, as in the paper.
        corunner_cores: Cores running co-scheduled applications.
        elapsed_s: Time since the load started (updated by the engine
            before each governor invocation).
    """

    spec: PlatformSpec
    deadline_s: float = 3.0
    page_features: PageFeatures | None = None
    corunner_cores: tuple[int, ...] = (2,)
    elapsed_s: float = 0.0


class Governor(abc.ABC):
    """Base class for frequency governors."""

    #: Seconds between decision invocations.
    interval_s: float = 0.1

    #: Human-readable name used in reports.
    name: str = "governor"

    def initial_frequency(self, context: RunContext) -> float | None:
        """Frequency to set before the run starts.

        Return ``None`` to keep the device's current operating point.
        """
        return None

    @abc.abstractmethod
    def decide(self, sample: CounterSample, context: RunContext) -> float:
        """Return the target frequency (Hz) for the next interval.

        Must be an exact entry of ``context.spec``'s DVFS table.
        """

    def reset(self) -> None:
        """Clear any per-run state (called by the engine before a run)."""


@dataclass
class GovernorDecisionLog:
    """Record of the decisions a governor made during one run."""

    times_s: list[float] = field(default_factory=list)
    frequencies_hz: list[float] = field(default_factory=list)

    def record(self, time_s: float, freq_hz: float) -> None:
        """Append one decision."""
        self.times_s.append(time_s)
        self.frequencies_hz.append(freq_hz)

    def changes(self) -> int:
        """Number of decisions that changed the frequency."""
        changes = 0
        for previous, current in zip(self.frequencies_hz, self.frequencies_hz[1:]):
            if previous != current:
                changes += 1
        return changes
