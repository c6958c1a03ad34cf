"""Vectorized kernel: batch invariance and agreement with the scalar path."""

import math

import numpy as np
import pytest

from repro.browser.pages import page_by_name, page_names
from repro.models.features import IndependentVariables
from repro.serve.batch_predictor import BatchDoraPredictor, page_feature_matrix


NON_FINITE = [math.nan, math.inf, -math.inf]
NON_FINITE_IDS = ["nan", "+inf", "-inf"]
#: The request conditions and a valid value of each.
CONDITIONS = {
    "corunner_mpki": 4.0,
    "corunner_utilization": 0.5,
    "temperature_c": 45.0,
}
CONDITION_ERRORS = {
    "corunner_mpki": "MPKI",
    "corunner_utilization": "utilization",
    "temperature_c": "temperature",
}


@pytest.fixture(scope="module")
def kernel(small_predictor):
    return small_predictor.batch_kernel()


def _grid(count=9):
    """A small but varied (page, mpki, util, temp) request grid."""
    pages = [page_by_name(name).features for name in page_names()[:count]]
    mpki = np.linspace(0.0, 18.0, count)
    utilization = np.linspace(0.0, 1.0, count)
    temperatures = np.linspace(32.0, 68.0, count)
    return pages, mpki, utilization, temperatures


class TestBatchInvariance:
    def test_batch_of_one_equals_row_of_batch(self, kernel):
        """Every row of a batched pass is bitwise the same alone."""
        pages, mpki, util, temp = _grid()
        load, power = kernel.predict(pages, mpki, util, temp)
        for i, page in enumerate(pages):
            load_1, power_1 = kernel.predict(
                [page], mpki[i : i + 1], util[i : i + 1], temp[i : i + 1]
            )
            assert np.array_equal(load_1[0], load[i])
            assert np.array_equal(power_1[0], power[i])

    def test_batch_invariance_without_leakage(self, kernel):
        pages, mpki, util, temp = _grid(5)
        load, power = kernel.predict(
            pages, mpki, util, temp, include_leakage=False
        )
        for i, page in enumerate(pages):
            load_1, power_1 = kernel.predict(
                [page],
                mpki[i : i + 1],
                util[i : i + 1],
                temp[i : i + 1],
                include_leakage=False,
            )
            assert np.array_equal(load_1[0], load[i])
            assert np.array_equal(power_1[0], power[i])

    def test_prediction_table_matches_kernel_bitwise(
        self, small_predictor, kernel
    ):
        """The scalar sweep is literally the kernel with a batch of one."""
        pages, mpki, util, temp = _grid(4)
        load, power = kernel.predict(pages, mpki, util, temp)
        for i, page in enumerate(pages):
            table = small_predictor.prediction_table(
                page, mpki[i], util[i], temp[i]
            )
            assert [p.load_time_s for p in table] == list(load[i])
            assert [p.power_w for p in table] == list(power[i])
            assert [p.freq_hz for p in table] == list(kernel.freqs_hz)


class TestAgainstScalarReference:
    def test_matches_predict_at_closely(self, small_predictor, kernel):
        """The straight-line scalar path agrees to float tolerance.

        (Not bitwise: predict_at sums the design row in a different
        association order than the vectorized per-row reduction.)
        """
        page = page_by_name("msn").features
        load, power = kernel.predict(
            [page], np.array([4.0]), np.array([0.7]), np.array([51.0])
        )
        for j, freq_hz in enumerate(kernel.freqs_hz):
            reference = small_predictor.predict_at(
                page, 4.0, 0.7, 51.0, float(freq_hz)
            )
            assert load[0, j] == pytest.approx(reference.load_time_s, rel=1e-9)
            assert power[0, j] == pytest.approx(reference.power_w, rel=1e-9)

    def test_leakage_matrix_matches_fitted_model(
        self, small_predictor, kernel
    ):
        temps = np.array([30.0, 47.5, 66.0])
        matrix = kernel.leakage_matrix(temps)
        states = [
            small_predictor.spec.state_for(f) for f in kernel.freqs_hz
        ]
        for i, temp_c in enumerate(temps):
            for j, state in enumerate(states):
                expected = small_predictor.leakage_model.predict(
                    state.voltage_v, float(temp_c)
                )
                assert matrix[i, j] == pytest.approx(expected, rel=1e-12)

    def test_feature_matrix_rows_are_table_i_rows(
        self, small_predictor, kernel
    ):
        """Flat row r*F+f is exactly IndependentVariables for (r, f)."""
        pages, mpki, util, _ = _grid(3)
        matrix = kernel.feature_matrix(
            page_feature_matrix(pages), mpki[:3], util[:3]
        )
        count = kernel.num_candidates
        for r in range(3):
            for f, freq_hz in enumerate(kernel.freqs_hz):
                row = small_predictor.row_for(
                    pages[r], mpki[r], util[r], float(freq_hz)
                )
                assert np.array_equal(
                    matrix[r * count + f], np.asarray(row.as_array())
                )


class TestValidation:
    def test_rejects_mismatched_shapes(self, kernel):
        pages = [page_by_name("amazon").features] * 2
        with pytest.raises(ValueError, match="corunner_mpki"):
            kernel.predict(
                pages, np.zeros(3), np.zeros(2), np.full(2, 45.0)
            )

    def test_rejects_negative_mpki(self, kernel):
        pages = [page_by_name("amazon").features]
        with pytest.raises(ValueError, match="MPKI"):
            kernel.predict(
                pages, np.array([-0.1]), np.zeros(1), np.full(1, 45.0)
            )

    def test_rejects_out_of_range_utilization(self, kernel):
        pages = [page_by_name("amazon").features]
        with pytest.raises(ValueError, match="utilization"):
            kernel.predict(
                pages, np.zeros(1), np.array([1.2]), np.full(1, 45.0)
            )

    @pytest.mark.parametrize("include_leakage", [True, False])
    @pytest.mark.parametrize("value", NON_FINITE, ids=NON_FINITE_IDS)
    @pytest.mark.parametrize("field", CONDITIONS)
    def test_kernel_rejects_non_finite_conditions(
        self, kernel, field, value, include_leakage
    ):
        """The kernel rejects what DecisionRequest rejects; one bad row
        fails the whole batch."""
        conditions = {
            name: np.full(3, default) for name, default in CONDITIONS.items()
        }
        conditions[field][1] = value
        with pytest.raises(ValueError, match=CONDITION_ERRORS[field]):
            kernel.predict(
                [page_by_name("amazon").features] * 3,
                conditions["corunner_mpki"],
                conditions["corunner_utilization"],
                conditions["temperature_c"],
                include_leakage=include_leakage,
            )

    @pytest.mark.parametrize("include_leakage", [True, False])
    @pytest.mark.parametrize("value", NON_FINITE, ids=NON_FINITE_IDS)
    @pytest.mark.parametrize("field", CONDITIONS)
    def test_scalar_paths_reject_non_finite_conditions(
        self, small_predictor, field, value, include_leakage
    ):
        """``prediction_table`` (the kernel with a batch of one) and the
        straight-line ``predict_at`` reject the same inputs."""
        conditions = dict(CONDITIONS, **{field: value})
        page = page_by_name("amazon").features
        with pytest.raises(ValueError, match=CONDITION_ERRORS[field]):
            small_predictor.prediction_table(
                page, **conditions, include_leakage=include_leakage
            )
        with pytest.raises(ValueError, match=CONDITION_ERRORS[field]):
            small_predictor.predict_at(
                page,
                **conditions,
                freq_hz=small_predictor.candidates()[0],
                include_leakage=include_leakage,
            )

    def test_rejects_sub_absolute_zero_temperature(self, kernel):
        with pytest.raises(ValueError, match="absolute zero"):
            kernel.leakage_matrix(np.array([-300.0]))

    def test_page_matrix_shape_checked(self):
        with pytest.raises(ValueError, match="R, 5"):
            page_feature_matrix(np.zeros((2, 4)))

    def test_empty_candidate_set_rejected(self, small_predictor):
        with pytest.raises(ValueError, match="candidate"):
            BatchDoraPredictor(
                spec=small_predictor.spec,
                load_time_surfaces=small_predictor.load_time_model.surfaces,
                power_surfaces=small_predictor.power_model.surfaces,
                leakage_parameters=small_predictor.leakage_model.parameters,
                candidate_freqs_hz=(),
            )
