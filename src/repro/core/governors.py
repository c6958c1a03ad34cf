"""Baseline frequency governors.

The paper compares DORA against:

* ``performance`` -- pins the maximum frequency (2.2656 GHz).
* ``powersave`` -- pins the minimum frequency (mentioned and dismissed
  in Section IV-A for its 7-26 s load times).
* ``interactive`` -- Android's default utilization-driven governor and
  the paper's baseline: 20 ms sampling, a "hispeed" jump when load
  crosses 85 %, proportional scaling toward a 90 % target load, and a
  minimum dwell before ramping down.
* ``DL`` (Deadline) -- hypothetical: the lowest frequency whose
  *predicted* load time meets the deadline, energy be damned.
* ``EE`` (Energy Efficient) -- hypothetical: the predicted-PPW-max
  frequency, deadline be damned.

DL and EE consume the same trained models DORA uses (they are DORA
with one half of the objective removed), which is exactly how the
paper frames them in Section V-C.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.browser.dom import PageFeatures
from repro.core.ppw import FrequencyPrediction, find_fd, find_fe
from repro.sim.governor import Governor, RunContext
from repro.soc.counters import CounterSample


class PredictionProvider(Protocol):
    """What a model-based governor needs from the models package.

    Implemented by :class:`repro.models.predictor.DoraPredictor`.
    """

    def prediction_table(
        self,
        page_features: PageFeatures,
        corunner_mpki: float,
        corunner_utilization: float,
        temperature_c: float,
        include_leakage: bool = True,
    ) -> list[FrequencyPrediction]:
        """Predicted (load time, power) at every candidate frequency."""
        ...


# ----------------------------------------------------------------------
# Fixed-frequency governors
# ----------------------------------------------------------------------
@dataclass
class FixedFrequencyGovernor(Governor):
    """Pins one operating point for the whole run.

    Covers ``performance`` (fmax), ``powersave`` (fmin), the userspace
    oracle settings fD and fE, and the Offline-opt configuration.
    """

    freq_hz: float
    label: str = "fixed"
    interval_s: float = 0.1

    def __post_init__(self) -> None:
        self.name = self.label

    def initial_frequency(self, context: RunContext) -> float:
        return context.spec.state_for(self.freq_hz).freq_hz

    def decide(self, sample: CounterSample, context: RunContext) -> float:
        return self.freq_hz


def performance_governor(spec_max_freq_hz: float) -> FixedFrequencyGovernor:
    """The Android ``performance`` governor (always fmax)."""
    return FixedFrequencyGovernor(freq_hz=spec_max_freq_hz, label="performance")


def powersave_governor(spec_min_freq_hz: float) -> FixedFrequencyGovernor:
    """The Android ``powersave`` governor (always fmin)."""
    return FixedFrequencyGovernor(freq_hz=spec_min_freq_hz, label="powersave")


# ----------------------------------------------------------------------
# Android interactive
# ----------------------------------------------------------------------
@dataclass
class InteractiveGovernor(Governor):
    """Android's ``interactive`` governor (the paper's baseline).

    Faithful to the cpufreq implementation's core behaviour:

    * samples CPU load every ``interval_s`` (timer_rate, 20 ms);
    * when the busiest core's load crosses ``go_hispeed_load`` while
      below ``hispeed_freq_hz``, jumps straight to hispeed;
    * otherwise retargets ``current * load / target_load`` rounded up
      to an available step;
    * never ramps down within ``min_sample_time_s`` of the last raise.
    """

    hispeed_freq_hz: float = 1190.4e6
    go_hispeed_load: float = 0.85
    target_load: float = 0.90
    interval_s: float = 0.02
    min_sample_time_s: float = 0.08
    initial_freq_hz: float = 300.0e6
    name: str = "interactive"

    _floor_freq_hz: float = field(default=0.0, init=False)
    _floor_until_s: float = field(default=0.0, init=False)

    def reset(self) -> None:
        self._floor_freq_hz = 0.0
        self._floor_until_s = 0.0

    def initial_frequency(self, context: RunContext) -> float:
        """Phones idle at the lowest step before a load begins."""
        return context.spec.nearest_state(self.initial_freq_hz).freq_hz

    def decide(self, sample: CounterSample, context: RunContext) -> float:
        spec = context.spec
        load = sample.max_utilization()
        current = sample.freq_hz
        now = context.elapsed_s

        if load >= self.go_hispeed_load and current < self.hispeed_freq_hz:
            target = spec.ceil_state(self.hispeed_freq_hz).freq_hz
        else:
            target = spec.ceil_state(current * load / self.target_load).freq_hz

        if target > current:
            self._floor_freq_hz = target
            self._floor_until_s = now + self.min_sample_time_s
        elif now < self._floor_until_s:
            target = max(target, self._floor_freq_hz)
        return target


@dataclass
class OndemandGovernor(Governor):
    """The classic Linux ``ondemand`` governor (extra baseline).

    Predecessor of ``interactive``: when the sampled load crosses
    ``up_threshold`` it jumps straight to the *maximum* frequency;
    otherwise it picks the lowest frequency that would keep the load
    just under the threshold.  Compared with ``interactive`` it is even
    quicker to pin fmax, which is why Android replaced it for touch
    workloads.
    """

    up_threshold: float = 0.80
    interval_s: float = 0.02
    initial_freq_hz: float = 300.0e6
    name: str = "ondemand"

    def initial_frequency(self, context: RunContext) -> float:
        return context.spec.nearest_state(self.initial_freq_hz).freq_hz

    def decide(self, sample: CounterSample, context: RunContext) -> float:
        spec = context.spec
        load = sample.max_utilization()
        if load >= self.up_threshold:
            return spec.max_state.freq_hz
        # Scale down: lowest frequency keeping load under the threshold.
        current = sample.freq_hz
        target = current * load / self.up_threshold
        return spec.ceil_state(target).freq_hz


# ----------------------------------------------------------------------
# Model-based hypothetical governors (DL and EE)
# ----------------------------------------------------------------------
@dataclass
class _ModelBasedGovernor(Governor):
    """Shared plumbing for governors driven by the trained models."""

    predictor: PredictionProvider
    interval_s: float = 0.1

    def _table(
        self, sample: CounterSample | None, context: RunContext
    ) -> list[FrequencyPrediction]:
        """Prediction table from the current observations.

        Before the first sample (governor start), interference is
        unobserved and assumed absent -- the first decision interval
        corrects it.
        """
        if context.page_features is None:
            raise ValueError(
                "model-based governors need the page census in the run context"
            )
        if sample is None:
            mpki = 0.0
            utilization = 0.0
            temperature = 45.0
        else:
            mpki = sample.mpki_of_cores(list(context.corunner_cores))
            utilization = sample.utilization_of_cores(list(context.corunner_cores))
            temperature = sample.soc_temperature_c
        return self.predictor.prediction_table(
            page_features=context.page_features,
            corunner_mpki=mpki,
            corunner_utilization=utilization,
            temperature_c=temperature,
        )


@dataclass
class DeadlineGovernor(_ModelBasedGovernor):
    """DL: lowest predicted-deadline-meeting frequency, ignoring PPW."""

    name: str = "DL"

    def initial_frequency(self, context: RunContext) -> float:
        return self._pick(self._table(None, context), context)

    def decide(self, sample: CounterSample, context: RunContext) -> float:
        return self._pick(self._table(sample, context), context)

    def _pick(
        self, table: list[FrequencyPrediction], context: RunContext
    ) -> float:
        choice = find_fd(table, context.deadline_s)
        if choice is None:
            return context.spec.max_state.freq_hz
        return choice.freq_hz


@dataclass
class EnergyEfficientGovernor(_ModelBasedGovernor):
    """EE: predicted-PPW-max frequency, ignoring the deadline."""

    name: str = "EE"

    def initial_frequency(self, context: RunContext) -> float:
        return find_fe(self._table(None, context)).freq_hz

    def decide(self, sample: CounterSample, context: RunContext) -> float:
        return find_fe(self._table(sample, context)).freq_hz
