"""The NumPy-vectorized Algorithm-1 evaluation kernel.

Algorithm 1 sweeps the candidate frequencies and, for each, builds a
Table-I row and predicts load time and power.  Done one request at a
time in Python that is a 14-iteration object-building loop; done here
it is a single matrix pass: the feature matrix for *all candidate
frequencies x all in-flight requests* is assembled at once, routed
through the piecewise surfaces per memory-bus group, and the Equation-5
leakage is evaluated for every (voltage, temperature) pair by
broadcasting.

Bit-identity contract
---------------------
The scalar :class:`repro.models.predictor.DoraPredictor` evaluates its
prediction table through this kernel with a batch of one, and the
batched :class:`repro.serve.service.DecisionPass` with a batch of
many.  Every operation below is element-wise or an independent per-row
reduction (:meth:`repro.models.regression.RegressionModel.predict_rows`),
so a request's predictions -- and therefore its fopt -- are the same
bits either way.  The equivalence suite in ``tests/serve`` enforces
this across the evaluation workloads, both leakage ablations and
multiple QoS margins.

The kernel deliberately owns *no* coefficients and *no* selection
rule: surfaces and leakage parameters are borrowed from the trained
bundle, and selection stays in :func:`repro.core.ppw.select_fopt_rows`.
"""
# repro: bit-exact -- outputs must equal the scalar DoraPredictor bit
# for bit (R003 forbids BLAS/pairwise reductions in this module).

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.browser.dom import PageFeatures
from repro.models.features import NUM_FEATURES
from repro.models.performance_model import MIN_PREDICTED_LOAD_TIME_S
from repro.models.piecewise import PiecewiseSurface
from repro.models.power_model import MIN_PREDICTED_POWER_W
from repro.models.regression import RegressionModel
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


@dataclass(frozen=True)
class _SegmentRoute:
    """One piecewise segment and the candidate columns it serves."""

    segment: RegressionModel
    candidate_indices: np.ndarray  # indices into the candidate axis


class BatchDoraPredictor:
    """Vectorized (requests x candidate frequencies) model evaluation.

    Wraps a trained bundle's surfaces without copying coefficients.
    All per-candidate constants (frequency, voltage, bus frequency,
    bus-group segment routing) are precomputed once at construction.

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
        self._load_routes = self._route(load_time_surfaces)
        self._power_routes = self._route(power_surfaces)
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

    def _route(self, surfaces: PiecewiseSurface) -> list[_SegmentRoute]:
        """Group candidate columns by the piecewise segment serving them."""
        by_segment: dict[int, tuple[RegressionModel, list[int]]] = {}
        for index, bus_mhz in enumerate(self._bus_mhz):
            segment = surfaces.segment_for(bus_mhz * 1e6)
            entry = by_segment.setdefault(id(segment), (segment, []))
            entry[1].append(index)
        return [
            _SegmentRoute(segment, np.array(indices, dtype=np.intp))
            for segment, indices in by_segment.values()
        ]

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
        matrix = np.empty((requests * count, NUM_FEATURES), dtype=float)
        matrix[:, 0:5] = np.repeat(pages, count, axis=0)
        matrix[:, 5] = np.repeat(corunner_mpki, count)
        matrix[:, 6] = np.tile(self._freq_ghz, requests)
        matrix[:, 7] = np.tile(self._bus_mhz, requests)
        matrix[:, 8] = np.repeat(corunner_utilization, count)
        return matrix

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
        # Mirror IndependentVariables' validation for the whole batch.
        if np.any(mpki < 0):
            raise ValueError("MPKI must be non-negative")
        if np.any((utilization < 0.0) | (utilization > 1.0)):
            raise ValueError("co-runner utilization must lie in [0, 1]")

        matrix = self.feature_matrix(page_matrix, mpki, utilization)
        count = self.num_candidates
        load = np.empty(requests * count, dtype=float)
        power = np.empty(requests * count, dtype=float)
        for route in self._load_routes:
            rows = self._flat_rows(route.candidate_indices, requests, count)
            load[rows] = route.segment.predict_rows(matrix[rows])
        for route in self._power_routes:
            rows = self._flat_rows(route.candidate_indices, requests, count)
            power[rows] = route.segment.predict_rows(matrix[rows])
        load = np.maximum(MIN_PREDICTED_LOAD_TIME_S, load)
        power = np.maximum(MIN_PREDICTED_POWER_W, power)
        load = load.reshape(requests, count)
        power = power.reshape(requests, count)
        if include_leakage:
            power = power + self.leakage_matrix(temperatures)
        return load, power

    @staticmethod
    def _flat_rows(
        candidate_indices: np.ndarray, requests: int, count: int
    ) -> np.ndarray:
        """Flat row indices of some candidate columns across all requests."""
        offsets = np.arange(requests, dtype=np.intp) * count
        return (offsets[:, None] + candidate_indices[None, :]).ravel()

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
