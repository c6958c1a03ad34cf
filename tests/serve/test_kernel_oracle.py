"""The stacked model pass equals the per-segment kernel it replaced.

``BatchDoraPredictor.predict`` evaluates load time and power with one
pass each over the whole ``(R, F, k)`` feature block
(:class:`repro.models.regression.StackedModels`).  The kernel it
replaced grouped the candidate columns by piecewise segment and ran one
``predict_rows`` per segment; that kernel, with the ``_expand`` and
``predict_rows`` it called, is kept below verbatim as the oracle, the
way ``tests/soc/test_cache_kernel.py`` keeps the dict-keyed cache.

The pinned hashes of the ``serve`` benchmark's stored inputs do not
exercise this kernel (their harvest runs the ``interactive`` governor),
and the equivalence suite compares the kernel with the scalar governor,
which evaluates through the same kernel.  So only this oracle sees a
change in the pass itself; every comparison is by ``tobytes()``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.models.features import NUM_FEATURES
from repro.models.performance_model import MIN_PREDICTED_LOAD_TIME_S
from repro.models.piecewise import PiecewiseSurface
from repro.models.power_model import MIN_PREDICTED_POWER_W
from repro.models.regression import (
    RegressionModel,
    ResponseSurface,
    StackedModels,
    term_count,
)
from repro.serve.batch_predictor import BatchDoraPredictor, page_feature_matrix
from repro.soc.leakage import KELVIN_OFFSET, nexus5_leakage_parameters
from repro.soc.specs import nexus5_spec

SPEC = nexus5_spec()
DVFS_FREQS_HZ = tuple(state.freq_hz for state in SPEC.dvfs_table)
#: Segment keys: the platform's four bus frequencies and three that no
#: candidate runs at, so some candidates take the nearest-bus fallback.
SEGMENT_BUSES_HZ = (200e6, 300e6, 400e6, 533e6, 650e6, 800e6, 1000e6)


# ----------------------------------------------------------------------
# Oracle: the per-segment kernel, verbatim
# ----------------------------------------------------------------------
def oracle_expand(z: np.ndarray, surface: ResponseSurface) -> np.ndarray:
    n, k = z.shape
    columns = [np.ones((n, 1)), z]
    if surface in (ResponseSurface.INTERACTION, ResponseSurface.QUADRATIC):
        # Every cross term ``z_i * z_j`` (i < j) in one product, in
        # row-major pair order: (0, 1), (0, 2), ..., (k - 2, k - 1).
        left, right = np.triu_indices(k, 1)
        columns.append(z[:, left] * z[:, right])
    if surface is ResponseSurface.QUADRATIC:
        columns.append(z**2)
    return np.hstack(columns)


def oracle_predict_rows(model: RegressionModel, inputs: np.ndarray) -> np.ndarray:
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if inputs.shape[1] != model.means.shape[0]:
        raise ValueError(
            f"expected {model.means.shape[0]} features, got {inputs.shape[1]}"
        )
    z = (inputs - model.means) / model.scales
    design = oracle_expand(z, model.surface)
    return (design * model.coefficients).sum(axis=1)


@dataclass(frozen=True)
class _SegmentRoute:
    """One piecewise segment and the candidate columns it serves."""

    segment: RegressionModel
    candidate_indices: np.ndarray  # indices into the candidate axis


class OracleKernel:
    """The per-segment ``BatchDoraPredictor``: one pass per segment."""

    def __init__(self, load_time_surfaces, power_surfaces, leakage, freqs_hz):
        states = [SPEC.state_for(freq) for freq in freqs_hz]
        self._voltages_v = np.array([s.voltage_v for s in states], dtype=float)
        self._freq_ghz = np.array(
            [s.freq_hz / 1e9 for s in states], dtype=float
        )
        self._bus_mhz = np.array(
            [s.bus_freq_hz / 1e6 for s in states], dtype=float
        )
        self._leakage = leakage
        self._load_routes = self._route(load_time_surfaces)
        self._power_routes = self._route(power_surfaces)
        self.num_candidates = len(states)

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

    def feature_matrix(self, pages, corunner_mpki, corunner_utilization):
        requests = pages.shape[0]
        count = self.num_candidates
        matrix = np.empty((requests * count, NUM_FEATURES), dtype=float)
        matrix[:, 0:5] = np.repeat(pages, count, axis=0)
        matrix[:, 5] = np.repeat(corunner_mpki, count)
        matrix[:, 6] = np.tile(self._freq_ghz, requests)
        matrix[:, 7] = np.tile(self._bus_mhz, requests)
        matrix[:, 8] = np.repeat(corunner_utilization, count)
        return matrix

    def predict(self, pages, mpki, utilization, temperatures, include_leakage):
        page_matrix = page_feature_matrix(pages)
        requests = page_matrix.shape[0]
        matrix = self.feature_matrix(page_matrix, mpki, utilization)
        count = self.num_candidates
        load = np.empty(requests * count, dtype=float)
        power = np.empty(requests * count, dtype=float)
        for route in self._load_routes:
            rows = self._flat_rows(route.candidate_indices, requests, count)
            load[rows] = oracle_predict_rows(route.segment, matrix[rows])
        for route in self._power_routes:
            rows = self._flat_rows(route.candidate_indices, requests, count)
            power[rows] = oracle_predict_rows(route.segment, matrix[rows])
        load = np.maximum(MIN_PREDICTED_LOAD_TIME_S, load)
        power = np.maximum(MIN_PREDICTED_POWER_W, power)
        load = load.reshape(requests, count)
        power = power.reshape(requests, count)
        if include_leakage:
            power = power + self.leakage_matrix(temperatures)
        return load, power

    @staticmethod
    def _flat_rows(candidate_indices, requests, count):
        """Flat row indices of some candidate columns across all requests."""
        offsets = np.arange(requests, dtype=np.intp) * count
        return (offsets[:, None] + candidate_indices[None, :]).ravel()

    def leakage_matrix(self, temperatures_c):
        temps_k = np.asarray(temperatures_c, dtype=float) + KELVIN_OFFSET
        if np.any(temps_k <= 0):
            raise ValueError("temperature must be above absolute zero")
        t = temps_k[:, None]
        v = self._voltages_v[None, :]
        p = self._leakage
        subthreshold = p.k1 * v * t**2 * np.exp((p.alpha * v + p.beta) / t)
        gate = p.k2 * np.exp(p.gamma * v + p.delta)
        return subthreshold + gate


# ----------------------------------------------------------------------
# Synthetic surfaces and batches
# ----------------------------------------------------------------------
def _synthetic_model(rng, surface: ResponseSurface) -> RegressionModel:
    """A segment with fitted-scale standardization and coefficients."""
    means = np.concatenate(
        [
            rng.uniform(100.0, 3000.0, 5),  # page census
            rng.uniform(0.0, 20.0, 1),  # MPKI
            rng.uniform(0.3, 2.3, 1),  # core GHz
            rng.uniform(200.0, 800.0, 1),  # bus MHz
            rng.uniform(0.0, 1.0, 1),  # utilization
        ]
    )
    scales = means * rng.uniform(0.05, 0.8, NUM_FEATURES) + 1e-3
    # A constant training column standardizes with scale 1.0.
    scales[rng.random(NUM_FEATURES) < 0.15] = 1.0
    coefficients = rng.normal(0.0, 1.0, term_count(NUM_FEATURES, surface))
    coefficients[0] = rng.uniform(0.5, 3.0)
    return RegressionModel(
        surface=surface, coefficients=coefficients, means=means, scales=scales
    )


def _synthetic_surface(rng, surface: ResponseSurface) -> PiecewiseSurface:
    """Segments on a random subset of bus keys, some off the platform's."""
    count = int(rng.integers(1, len(SEGMENT_BUSES_HZ) + 1))
    buses = rng.choice(SEGMENT_BUSES_HZ, size=count, replace=False)
    return PiecewiseSurface(
        segments={float(bus): _synthetic_model(rng, surface) for bus in buses},
        surface=surface,
    )


def _batch(rng, requests: int):
    pages = rng.integers(0, 5000, size=(requests, 5)).astype(float)
    mpki = rng.uniform(0.0, 25.0, requests)
    mpki[rng.random(requests) < 0.1] = 0.0
    utilization = rng.uniform(0.0, 1.0, requests)
    utilization[rng.random(requests) < 0.1] = 1.0
    temperatures = rng.uniform(20.0, 80.0, requests)
    return pages, mpki, utilization, temperatures


SURFACES = st.sampled_from(list(ResponseSurface))


class TestStackedPassEqualsPerSegmentKernel:
    @given(
        seed=st.integers(0, 2**32 - 1),
        requests=st.integers(1, 200),
        load_surface=SURFACES,
        power_surface=SURFACES,
        candidates=st.lists(
            st.sampled_from(DVFS_FREQS_HZ), min_size=1, max_size=14, unique=True
        ),
        include_leakage=st.booleans(),
    )
    def test_synthetic_surfaces(
        self, seed, requests, load_surface, power_surface, candidates,
        include_leakage,
    ):
        rng = np.random.default_rng(seed)
        load_surfaces = _synthetic_surface(rng, load_surface)
        power_surfaces = _synthetic_surface(rng, power_surface)
        leakage = nexus5_leakage_parameters()
        kernel = BatchDoraPredictor(
            SPEC, load_surfaces, power_surfaces, leakage, candidates
        )
        oracle = OracleKernel(load_surfaces, power_surfaces, leakage, candidates)
        batch = _batch(rng, requests)
        load, power = kernel.predict(*batch, include_leakage=include_leakage)
        expected_load, expected_power = oracle.predict(
            *batch, include_leakage=include_leakage
        )
        assert load.tobytes() == expected_load.tobytes()
        assert power.tobytes() == expected_power.tobytes()

    @given(seed=st.integers(0, 2**32 - 1), requests=st.integers(1, 200))
    def test_trained_bundle(self, small_predictor, seed, requests):
        """The small campaign's bundle: four bus groups, eight candidates."""
        kernel = small_predictor.batch_kernel()
        oracle = OracleKernel(
            small_predictor.load_time_model.surfaces,
            small_predictor.power_model.surfaces,
            small_predictor.leakage_model.parameters,
            small_predictor.candidates(),
        )
        batch = _batch(np.random.default_rng(seed), requests)
        for include_leakage in (True, False):
            load, power = kernel.predict(*batch, include_leakage=include_leakage)
            expected_load, expected_power = oracle.predict(
                *batch, include_leakage=include_leakage
            )
            assert load.tobytes() == expected_load.tobytes()
            assert power.tobytes() == expected_power.tobytes()

    def test_synthetic_surfaces_need_the_fallback(self):
        """The drawn segment keys include buses no candidate runs at."""
        buses = {state.bus_freq_hz for state in SPEC.dvfs_table}
        assert buses < set(SEGMENT_BUSES_HZ)


class TestPredictRowsIsTheOneCandidateCase:
    @pytest.mark.parametrize("surface", list(ResponseSurface))
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 300))
    def test_predict_rows_equals_the_stack(self, surface, seed, rows):
        rng = np.random.default_rng(seed)
        models = [_synthetic_model(rng, surface) for _ in range(3)]
        inputs = _batch(rng, rows)
        block = np.empty((rows, 3, NUM_FEATURES))
        for candidate in range(3):
            block[:, candidate, 0:5] = inputs[0]
            block[:, candidate, 5] = inputs[1]
            block[:, candidate, 6] = rng.uniform(0.3, 2.3)
            block[:, candidate, 7] = rng.uniform(200.0, 800.0)
            block[:, candidate, 8] = inputs[2]
        stacked = StackedModels.gather(models).predict_rows(block)
        for candidate, model in enumerate(models):
            rows_in = np.ascontiguousarray(block[:, candidate])
            alone = model.predict_rows(rows_in)
            one = StackedModels.gather([model]).predict_rows(rows_in[:, None, :])
            assert alone.tobytes() == one[:, 0].tobytes()
            assert alone.tobytes() == stacked[:, candidate].copy().tobytes()
            assert alone.tobytes() == oracle_predict_rows(model, rows_in).tobytes()


class TestGather:
    def test_mixed_forms_are_rejected(self):
        rng = np.random.default_rng(0)
        models = [
            _synthetic_model(rng, ResponseSurface.LINEAR),
            _synthetic_model(rng, ResponseSurface.INTERACTION),
        ]
        with pytest.raises(ValueError, match="one response surface"):
            StackedModels.gather(models)

    def test_empty_is_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            StackedModels.gather([])

    def test_candidates_stack_in_order(self):
        rng = np.random.default_rng(1)
        models = [_synthetic_model(rng, ResponseSurface.LINEAR) for _ in range(3)]
        stack = StackedModels.gather([models[2], models[0], models[2]])
        assert stack.means.shape == (3, NUM_FEATURES)
        assert stack.coefficients.shape == (
            3, term_count(NUM_FEATURES, ResponseSurface.LINEAR)
        )
        for row, model in enumerate([models[2], models[0], models[2]]):
            assert np.array_equal(stack.means[row], model.means)
            assert np.array_equal(stack.scales[row], model.scales)
            assert np.array_equal(stack.coefficients[row], model.coefficients)

    def test_differing_feature_counts_are_rejected(self):
        rng = np.random.default_rng(2)
        model = _synthetic_model(rng, ResponseSurface.LINEAR)
        narrow = RegressionModel(
            surface=ResponseSurface.LINEAR,
            coefficients=model.coefficients[:-1],
            means=model.means[:-1],
            scales=model.scales[:-1],
        )
        with pytest.raises(ValueError):
            StackedModels.gather([model, narrow])
