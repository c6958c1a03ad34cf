"""The NumPy-vectorized Algorithm-1 evaluation kernel.

Algorithm 1 sweeps the candidate frequencies and, for each, builds a
Table-I row and predicts load time and power.  Done one request at a
time in Python that is a 14-iteration object-building loop; done here
it is one pass per surface family: the feature block for *all in-flight
requests x all candidate frequencies* is assembled at once, each
candidate's piecewise segment (its memory-bus group, or the nearest one)
is gathered into stacked arrays at construction, load time and power
are each predicted by one :class:`repro.models.regression.StackedModels`
pass over the whole block, and the Equation-5 leakage is evaluated for
every (voltage, temperature) pair by broadcasting.

Bit-identity contract
---------------------
The scalar :class:`repro.models.predictor.DoraPredictor` evaluates its
prediction table through this kernel with a batch of one, and the
batched :class:`repro.serve.service.DecisionPass` with a batch of
many.  Every operation below is element-wise or an independent per-row
reduction (:meth:`repro.models.regression.StackedModels.predict_rows`),
so a request's predictions -- and therefore its fopt -- are the same
bits either way.  The equivalence suite in ``tests/serve`` enforces
this across the evaluation workloads, both leakage ablations and
multiple QoS margins, and ``tests/serve/test_kernel_oracle.py`` holds
the stacked pass to the per-segment kernel it replaced.

The kernel deliberately owns *no* fitted values and *no* selection
rule: segments and leakage parameters come from the trained bundle
(the segments' arrays stacked, not refitted), and selection stays in
:func:`repro.core.ppw.select_fopt_rows`.
"""
# repro: bit-exact -- outputs must equal the scalar DoraPredictor bit
# for bit (R003 forbids BLAS/pairwise reductions in this module).

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.browser.dom import PageFeatures
from repro.models.features import NUM_FEATURES
from repro.models.performance_model import MIN_PREDICTED_LOAD_TIME_S
from repro.models.piecewise import PiecewiseSurface
from repro.models.power_model import MIN_PREDICTED_POWER_W
from repro.models.regression import StackedModels
from repro.soc.leakage import KELVIN_OFFSET, LeakageParameters
from repro.soc.specs import PlatformSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.models.predictor import DoraPredictor


def page_feature_matrix(
    pages: Sequence[PageFeatures] | np.ndarray,
) -> np.ndarray:
    """Stack page censuses into an (R, 5) float matrix (X1..X5)."""
    if isinstance(pages, np.ndarray):
        matrix = np.asarray(pages, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != 5:
            raise ValueError("page feature matrix must have shape (R, 5)")
        return matrix
    return np.array([page.as_tuple() for page in pages], dtype=float)


class BatchDoraPredictor:
    """Vectorized (requests x candidate frequencies) model evaluation.

    All per-candidate constants (frequency, voltage, bus frequency,
    and the standardization and coefficients of the segment serving
    each candidate) are gathered once at construction.

    Attributes:
        freqs_hz: Candidate frequencies in the bundle's candidate
            order (shape ``(F,)``).
        selection_order: Stable frequency-ascending permutation of the
            candidate axis -- apply before
            :func:`repro.core.ppw.select_fopt_rows`, which requires
            ascending columns.
    """

    def __init__(
        self,
        spec: PlatformSpec,
        load_time_surfaces: PiecewiseSurface,
        power_surfaces: PiecewiseSurface,
        leakage_parameters: LeakageParameters,
        candidate_freqs_hz: Iterable[float],
    ) -> None:
        states = [spec.state_for(freq) for freq in candidate_freqs_hz]
        if not states:
            raise ValueError("need at least one candidate frequency")
        self.freqs_hz = np.array([s.freq_hz for s in states], dtype=float)
        self._voltages_v = np.array([s.voltage_v for s in states], dtype=float)
        # The same unit round-trips the scalar path performs
        # (IndependentVariables.build and PiecewiseSurface.predict), so
        # feature values and segment routing keys match it exactly.
        self._freq_ghz = np.array(
            [s.freq_hz / 1e9 for s in states], dtype=float
        )
        self._bus_mhz = np.array(
            [s.bus_freq_hz / 1e6 for s in states], dtype=float
        )
        self._leakage = leakage_parameters
        self._load_models = self._gather(load_time_surfaces)
        self._power_models = self._gather(power_surfaces)
        self.selection_order = np.argsort(self.freqs_hz, kind="stable")

    @classmethod
    def from_bundle(cls, bundle: "DoraPredictor") -> "BatchDoraPredictor":
        """Build the kernel from a trained :class:`DoraPredictor`."""
        return cls(
            spec=bundle.spec,
            load_time_surfaces=bundle.load_time_model.surfaces,
            power_surfaces=bundle.power_model.surfaces,
            leakage_parameters=bundle.leakage_model.parameters,
            candidate_freqs_hz=bundle.candidates(),
        )

    @property
    def num_candidates(self) -> int:
        """Number of candidate frequencies (F)."""
        return int(self.freqs_hz.shape[0])

    def _gather(self, surfaces: PiecewiseSurface) -> StackedModels:
        """Each candidate's piecewise segment, stacked in candidate order."""
        return StackedModels.gather(
            [surfaces.segment_for(bus_mhz * 1e6) for bus_mhz in self._bus_mhz]
        )

    # ------------------------------------------------------------------
    # Feature assembly
    # ------------------------------------------------------------------
    def feature_matrix(
        self,
        pages: np.ndarray,
        corunner_mpki: np.ndarray,
        corunner_utilization: np.ndarray,
    ) -> np.ndarray:
        """The Table-I design input for every request x candidate.

        Rows are request-major: request ``r``'s candidate ``f`` lives
        at flat row ``r * F + f``.  Columns follow
        :data:`repro.models.features.TABLE_I_NAMES`.
        """
        requests = pages.shape[0]
        count = self.num_candidates
        block = np.empty((requests, count, NUM_FEATURES), dtype=float)
        block[:, :, 0:5] = pages[:, None, :]
        block[:, :, 5] = corunner_mpki[:, None]
        block[:, :, 6] = self._freq_ghz
        block[:, :, 7] = self._bus_mhz
        block[:, :, 8] = corunner_utilization[:, None]
        return block.reshape(requests * count, NUM_FEATURES)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(
        self,
        pages: Sequence[PageFeatures] | np.ndarray,
        corunner_mpki: np.ndarray,
        corunner_utilization: np.ndarray,
        temperatures_c: np.ndarray,
        include_leakage: bool = True,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Predicted (load time, power) for every request x candidate.

        Args:
            pages: Page censuses, one per request -- either
                :class:`PageFeatures` objects or an (R, 5) matrix.
            corunner_mpki: Co-runner shared-L2 MPKI per request.
            corunner_utilization: Co-runner core utilization per
                request, each in ``[0, 1]``.
            temperatures_c: Package temperature per request.
            include_leakage: ``False`` reproduces the ``DORA_no_lkg``
                ablation (dynamic power only).

        Returns:
            ``(load_times_s, powers_w)``, each of shape (R, F) in the
            bundle's candidate order.
        """
        page_matrix = page_feature_matrix(pages)
        mpki = np.asarray(corunner_mpki, dtype=float)
        utilization = np.asarray(corunner_utilization, dtype=float)
        temperatures = np.asarray(temperatures_c, dtype=float)
        requests = page_matrix.shape[0]
        for name, values in (
            ("corunner_mpki", mpki),
            ("corunner_utilization", utilization),
            ("temperatures_c", temperatures),
        ):
            if values.shape != (requests,):
                raise ValueError(f"{name} must have shape ({requests},)")
        # Mirror DecisionRequest's validation for the whole batch; every
        # comparison with NaN is false, so each check asks for the
        # valid range rather than testing for the invalid one.
        if not (np.isfinite(mpki) & (mpki >= 0.0)).all():
            raise ValueError("MPKI must be non-negative and finite")
        if not ((utilization >= 0.0) & (utilization <= 1.0)).all():
            raise ValueError("co-runner utilization must lie in [0, 1]")
        if not np.isfinite(temperatures).all():
            raise ValueError("temperature must be finite")

        count = self.num_candidates
        block = self.feature_matrix(page_matrix, mpki, utilization).reshape(
            requests, count, NUM_FEATURES
        )
        load = np.maximum(
            MIN_PREDICTED_LOAD_TIME_S, self._load_models.predict_rows(block)
        )
        power = np.maximum(
            MIN_PREDICTED_POWER_W, self._power_models.predict_rows(block)
        )
        if include_leakage:
            power = power + self.leakage_matrix(temperatures)
        return load, power

    def leakage_matrix(self, temperatures_c: np.ndarray) -> np.ndarray:
        """Equation-5 leakage for every (request temperature, candidate).

        Vectorized broadcast of
        :meth:`repro.soc.leakage.LeakageParameters.power_w` over the
        fitted constants: rows are requests, columns candidates.
        """
        temps_k = np.asarray(temperatures_c, dtype=float) + KELVIN_OFFSET
        if np.any(temps_k <= 0):
            raise ValueError("temperature must be above absolute zero")
        t = temps_k[:, None]
        v = self._voltages_v[None, :]
        p = self._leakage
        subthreshold = p.k1 * v * t**2 * np.exp((p.alpha * v + p.beta) / t)
        gate = p.k2 * np.exp(p.gamma * v + p.delta)
        return subthreshold + gate
