"""The DORA governor (Algorithm 1).

DORA -- Dynamic quality Of service, memoRy interference-Aware frequency
governor -- runs as a lightweight userspace process.  Every decision
interval (100 ms by default; Section IV-C evaluates 50/100/250 ms) it:

1. reads the hardware counters: the co-scheduled task's shared-L2 MPKI
   and core utilization, and the package temperature;
2. combines them with the page's pre-computed complexity census and,
   for every available frequency, predicts the load time (piecewise
   interaction model) and the total power (linear dynamic-power model
   plus the fitted Equation-5 leakage model);
3. picks the PPW-maximizing frequency among those predicted to meet
   the QoS deadline -- or the maximum frequency when none does -- and
   programs it (the actuator skips the switch when fopt is unchanged,
   keeping the Section V-H overhead low).

The ``include_leakage`` flag implements the Fig. 10 ablation
(``DORA_no_lkg``): selection using the dynamic-power component only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.governors import PredictionProvider, counter_readings
from repro.core.ppw import FrequencyPrediction, select_fopt
from repro.sim.governor import Governor, RunContext
from repro.soc.counters import CounterSample

#: Decision intervals evaluated in Section IV-C.
EVALUATED_INTERVALS_S = (0.05, 0.1, 0.25)


@dataclass
class DoraGovernor(Governor):
    """DORA: QoS- and interference-aware energy-optimal DVFS.

    Attributes:
        predictor: Trained performance/power models.
        interval_s: Decision interval (100 ms default).
        include_leakage: ``False`` gives the DORA_no_lkg ablation.
        qos_margin: Safety margin on the deadline comparison: a
            candidate is considered feasible only when its predicted
            load time fits within ``deadline * (1 - qos_margin)``.
            The paper's DORA uses no margin (0.0) and accepts rare
            boundary misses from model error on unseen pages; a small
            margin trades a little energy for fewer misses (an
            extension in the spirit of the probabilistic-QoS follow-up
            work the paper cites).
    """

    predictor: PredictionProvider
    interval_s: float = 0.1
    include_leakage: bool = True
    qos_margin: float = 0.0
    name: str = "DORA"

    #: Prediction table behind the most recent decision (for tests and
    #: the Fig. 6 sensitivity analysis).
    last_table: list[FrequencyPrediction] = field(default_factory=list, init=False)
    #: fopt chosen at the most recent decision.
    last_fopt_hz: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.qos_margin < 1.0:
            raise ValueError("qos_margin must lie in [0, 1)")
        if not self.include_leakage and self.name == "DORA":
            self.name = "DORA_no_lkg"

    def reset(self) -> None:
        self.last_table = []
        self.last_fopt_hz = 0.0

    def initial_frequency(self, context: RunContext) -> float:
        """First fopt, computed before any interference is observed."""
        return self._select(None, context)

    def decide(self, sample: CounterSample, context: RunContext) -> float:
        return self._select(sample, context)

    def _select(self, sample: CounterSample | None, context: RunContext) -> float:
        if context.page_features is None:
            raise ValueError("DORA needs the page census in the run context")
        mpki, utilization, temperature = counter_readings(
            sample, context.corunner_cores
        )
        table = self.predictor.prediction_table(
            page_features=context.page_features,
            corunner_mpki=mpki,
            corunner_utilization=utilization,
            temperature_c=temperature,
            include_leakage=self.include_leakage,
        )
        effective_deadline = context.deadline_s * (1.0 - self.qos_margin)
        choice = select_fopt(table, effective_deadline)
        self.last_table = table
        self.last_fopt_hz = choice.freq_hz
        return choice.freq_hz
