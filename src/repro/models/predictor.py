"""DoraPredictor: the trained models packaged for online use.

At every decision interval DORA sweeps the candidate frequencies and,
for each, builds the Table-I row from the page census and the *current*
measured conditions (co-runner MPKI, co-runner utilization, package
temperature), then predicts:

* load time -- the piecewise interaction model;
* total power -- the linear dynamic-power surface *plus* the fitted
  Equation-5 leakage at the candidate's voltage and the current
  temperature.

``include_leakage=False`` reproduces the ``DORA_no_lkg`` ablation of
Fig. 10(a): power is the dynamic component only, which underestimates
the true cost of hot, high-voltage operating points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.browser.dom import PageFeatures
from repro.core.ppw import FrequencyPrediction
from repro.models.features import IndependentVariables
from repro.models.performance_model import PiecewiseLoadTimeModel
from repro.models.power_model import DynamicPowerModel
from repro.soc.leakage import LeakageParameters
from repro.soc.specs import PlatformSpec


@dataclass(frozen=True)
class FittedLeakageModel:
    """DORA's fitted leakage predictor.

    Built by :func:`repro.models.leakage_fit.fit_leakage`; kept here,
    away from that module's SciPy import, because every bundle carries
    one.

    Attributes:
        parameters: Fitted Equation-5 constants.
        rms_error_w: Root-mean-square residual on the calibration set.
    """

    parameters: LeakageParameters
    rms_error_w: float

    def predict(self, voltage_v: float, temperature_c: float) -> float:
        """Predicted leakage power in watts."""
        return self.parameters.power_w(voltage_v, temperature_c)


@dataclass(frozen=True)
class DoraPredictor:
    """The statically-trained prediction bundle DORA consults online.

    Attributes:
        spec: Platform description (candidate frequencies, voltages,
            core-to-bus mapping).
        load_time_model: Piecewise load-time surface.
        power_model: Dynamic-power surface (leakage-subtracted target).
        leakage_model: Fitted Equation-5 leakage model.
        candidate_freqs_hz: Frequencies swept at each decision.  By
            default the platform's evaluation set (the eight settings
            the paper's figures sweep and its governors select from --
            every fopt the paper reports, e.g. Fig. 11's 1.19 GHz, is
            one of these); pass the full DVFS table to widen the
            search.
    """

    spec: PlatformSpec
    load_time_model: PiecewiseLoadTimeModel
    power_model: DynamicPowerModel
    leakage_model: FittedLeakageModel
    candidate_freqs_hz: tuple[float, ...] = field(default=())

    def candidates(self) -> tuple[float, ...]:
        """The frequencies swept by Algorithm 1's loop."""
        if self.candidate_freqs_hz:
            return self.candidate_freqs_hz
        return tuple(
            state.freq_hz for state in self.spec.evaluation_states()
        )

    def row_for(
        self,
        page_features: PageFeatures,
        corunner_mpki: float,
        corunner_utilization: float,
        freq_hz: float,
    ) -> IndependentVariables:
        """The Table-I row for one candidate frequency."""
        state = self.spec.state_for(freq_hz)
        return IndependentVariables.build(
            page=page_features,
            l2_mpki=corunner_mpki,
            core_freq_hz=state.freq_hz,
            bus_freq_hz=state.bus_freq_hz,
            corunner_utilization=corunner_utilization,
        )

    @cached_property
    def _batch(self):
        """The vectorized evaluation kernel (built lazily, cached).

        Imported at first use: :mod:`repro.serve.batch_predictor` sits
        below this module in the dependency order, but the ``serve``
        package as a whole also contains the service/loadgen layers
        that sit above the experiments harness.
        """
        from repro.serve.batch_predictor import BatchDoraPredictor

        return BatchDoraPredictor.from_bundle(self)

    def batch_kernel(self):
        """The shared vectorized kernel (same instance the scalar sweep
        uses), for callers that batch many requests per pass."""
        return self._batch

    def __getstate__(self) -> dict:
        """Drop the derived kernel cache from pickles (runtime jobs
        ship predictors to worker processes; the kernel rebuilds
        cheaply on the other side)."""
        state = dict(self.__dict__)
        state.pop("_batch", None)
        return state

    def predict_at(
        self,
        page_features: PageFeatures,
        corunner_mpki: float,
        corunner_utilization: float,
        temperature_c: float,
        freq_hz: float,
        include_leakage: bool = True,
    ) -> FrequencyPrediction:
        """Predicted (load time, power) at one candidate frequency.

        This is the straight-line single-point reference: one Table-I
        row, one piecewise lookup, one scalar leakage evaluation.  The
        online sweep (:meth:`prediction_table`) goes through the
        vectorized kernel instead; ``tests/serve`` cross-checks the two
        against each other.

        Raises:
            ValueError: On the inputs the kernel rejects: MPKI negative
                or not finite, utilization outside ``[0, 1]`` (NaN
                included), or a temperature that is not finite.
        """
        if not math.isfinite(temperature_c):
            raise ValueError("temperature must be finite")
        row = self.row_for(
            page_features, corunner_mpki, corunner_utilization, freq_hz
        )
        load_time_s = self.load_time_model.predict(row)
        power_w = self.power_model.predict(row)
        if include_leakage:
            state = self.spec.state_for(freq_hz)
            power_w += self.leakage_model.predict(state.voltage_v, temperature_c)
        return FrequencyPrediction(
            freq_hz=freq_hz, load_time_s=load_time_s, power_w=power_w
        )

    def prediction_table(
        self,
        page_features: PageFeatures,
        corunner_mpki: float,
        corunner_utilization: float,
        temperature_c: float,
        include_leakage: bool = True,
    ) -> list[FrequencyPrediction]:
        """Predictions at every candidate frequency (Algorithm 1's sweep).

        Evaluates through the vectorized kernel with a batch of one, so
        a scalar governor decision and a batched
        :mod:`repro.serve` decision over the same inputs see the same
        bits.

        Raises:
            ValueError: On the inputs :meth:`predict_at` rejects.
        """
        load, power = self._batch.predict(
            pages=np.array([page_features.as_tuple()], dtype=float),
            corunner_mpki=np.array([corunner_mpki], dtype=float),
            corunner_utilization=np.array([corunner_utilization], dtype=float),
            temperatures_c=np.array([temperature_c], dtype=float),
            include_leakage=include_leakage,
        )
        return [
            FrequencyPrediction(
                freq_hz=float(freq_hz),
                load_time_s=float(load_time_s),
                power_w=float(power_w),
            )
            for freq_hz, load_time_s, power_w in zip(
                self._batch.freqs_hz, load[0], power[0]
            )
        ]
