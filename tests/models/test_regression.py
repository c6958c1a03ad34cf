"""Response-surface regression tests (Equations 2-4)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.models.regression import (
    RegressionModel,
    ResponseSurface,
    _expand,
    term_count,
)


def _random_inputs(n=200, k=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-2.0, 2.0, size=(n, k))


class TestExactRecovery:
    def test_linear_surface_recovers_linear_data(self):
        inputs = _random_inputs()
        targets = 3.0 + inputs @ np.array([1.0, -2.0, 0.5, 4.0])
        model = RegressionModel.fit(inputs, targets, ResponseSurface.LINEAR)
        assert np.allclose(model.predict(inputs), targets, atol=1e-8)

    def test_interaction_surface_recovers_cross_products(self):
        inputs = _random_inputs()
        targets = 1.0 + inputs[:, 0] * inputs[:, 1] - 2.0 * inputs[:, 2]
        model = RegressionModel.fit(inputs, targets, ResponseSurface.INTERACTION)
        assert np.allclose(model.predict(inputs), targets, atol=1e-8)

    def test_linear_surface_cannot_fit_cross_products(self):
        inputs = _random_inputs()
        targets = inputs[:, 0] * inputs[:, 1]
        model = RegressionModel.fit(inputs, targets, ResponseSurface.LINEAR)
        residual = np.abs(model.predict(inputs) - targets)
        assert residual.max() > 0.1

    def test_quadratic_surface_recovers_squares(self):
        inputs = _random_inputs()
        targets = 2.0 + inputs[:, 0] ** 2 + 0.5 * inputs[:, 1]
        model = RegressionModel.fit(inputs, targets, ResponseSurface.QUADRATIC)
        assert np.allclose(model.predict(inputs), targets, atol=1e-8)

    def test_interaction_surface_cannot_fit_squares(self):
        """Eq. 4 excludes i == j terms; squares need Eq. 3."""
        inputs = _random_inputs()
        targets = inputs[:, 0] ** 2
        model = RegressionModel.fit(inputs, targets, ResponseSurface.INTERACTION)
        assert np.abs(model.predict(inputs) - targets).max() > 0.1

    def test_prediction_generalizes_off_training_points(self):
        inputs = _random_inputs(seed=1)
        coefficients = np.array([2.0, 0.0, -1.0, 3.0])
        targets = inputs @ coefficients
        model = RegressionModel.fit(inputs, targets, ResponseSurface.LINEAR)
        probe = np.array([[0.3, -0.4, 1.2, 0.1]])
        assert model.predict(probe)[0] == pytest.approx(
            float((probe @ coefficients)[0]), abs=1e-8
        )


class TestWeighting:
    def test_relative_weights_reduce_relative_error(self):
        """Fitting a misspecified (linear) surface to convex data:
        1/y^2 weights trade absolute error at large targets for a much
        better *relative* fit on small ones -- the Fig. 5 metric."""
        rng = np.random.default_rng(2)
        inputs = rng.uniform(0.5, 5.0, size=(300, 1))
        targets = inputs[:, 0] ** 2
        weighted = RegressionModel.fit(
            inputs, targets, ResponseSurface.LINEAR, weights=1.0 / targets**2
        )
        unweighted = RegressionModel.fit(inputs, targets, ResponseSurface.LINEAR)
        weighted_rel = np.abs(weighted.predict(inputs) - targets) / targets
        unweighted_rel = np.abs(unweighted.predict(inputs) - targets) / targets
        assert weighted_rel.mean() < unweighted_rel.mean()

    def test_weight_shape_mismatch_rejected(self):
        inputs = _random_inputs(n=10)
        targets = np.ones(10)
        with pytest.raises(ValueError):
            RegressionModel.fit(
                inputs, targets, ResponseSurface.LINEAR, weights=np.ones(5)
            )

    def test_negative_weights_rejected(self):
        inputs = _random_inputs(n=10)
        targets = np.ones(10)
        with pytest.raises(ValueError):
            RegressionModel.fit(
                inputs, targets, ResponseSurface.LINEAR, weights=-np.ones(10)
            )


class TestTermCounts:
    def test_linear(self):
        assert term_count(9, ResponseSurface.LINEAR) == 10

    def test_interaction(self):
        assert term_count(9, ResponseSurface.INTERACTION) == 10 + 36

    def test_quadratic(self):
        assert term_count(9, ResponseSurface.QUADRATIC) == 10 + 36 + 9


def _design_oracle(z, surface):
    """The design matrix built one column at a time: the intercept, the
    main effects, ``z_i * z_j`` for each pair ``i < j`` in row-major
    order, then the squares."""
    n, k = z.shape
    columns = [np.ones(n)] + [z[:, i] for i in range(k)]
    if surface is not ResponseSurface.LINEAR:
        columns += [z[:, i] * z[:, j] for i in range(k) for j in range(i + 1, k)]
    if surface is ResponseSurface.QUADRATIC:
        columns += [z[:, i] ** 2 for i in range(k)]
    return np.column_stack(columns)


class TestDesignMatrix:
    """The column layout the fitted coefficients are indexed by."""

    @pytest.mark.parametrize("rows", [1, 8, 512])
    @pytest.mark.parametrize("surface", list(ResponseSurface))
    def test_matches_the_per_pair_oracle_byte_for_byte(self, surface, rows):
        z = _random_inputs(n=rows, k=9, seed=rows)
        design = _expand(z, surface)
        expected = _design_oracle(z, surface)
        assert design.shape == expected.shape == (rows, term_count(9, surface))
        assert design.tobytes() == expected.tobytes()


class TestRobustness:
    def test_constant_column_is_harmless(self):
        """A zero-variance feature standardizes to zero and drops out."""
        inputs = _random_inputs()
        inputs[:, 2] = 7.0
        targets = 1.0 + inputs[:, 0]
        model = RegressionModel.fit(inputs, targets, ResponseSurface.INTERACTION)
        assert np.allclose(model.predict(inputs), targets, atol=1e-8)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RegressionModel.fit(np.ones(5), np.ones(5), ResponseSurface.LINEAR)
        with pytest.raises(ValueError):
            RegressionModel.fit(np.ones((5, 2)), np.ones(4), ResponseSurface.LINEAR)
        with pytest.raises(ValueError):
            RegressionModel.fit(
                np.ones((0, 2)), np.ones(0), ResponseSurface.LINEAR
            )

    def test_predict_feature_count_checked(self):
        inputs = _random_inputs(k=3)
        model = RegressionModel.fit(
            inputs, inputs[:, 0], ResponseSurface.LINEAR
        )
        with pytest.raises(ValueError):
            model.predict(np.ones((1, 4)))

    def test_mean_abs_pct_error(self):
        inputs = _random_inputs()
        targets = 5.0 + inputs @ np.array([1.0, 1.0, 1.0, 1.0])
        targets = np.abs(targets) + 1.0
        model = RegressionModel.fit(inputs, targets, ResponseSurface.LINEAR)
        assert model.mean_abs_pct_error(inputs, targets) < 0.2

    def test_mean_abs_pct_error_requires_positive_targets(self):
        inputs = _random_inputs(n=5)
        model = RegressionModel.fit(
            inputs, np.ones(5), ResponseSurface.LINEAR
        )
        with pytest.raises(ValueError):
            model.mean_abs_pct_error(inputs, np.zeros(5))

    @given(seed=st.integers(0, 1000))
    def test_fit_predict_round_trip_property(self, seed):
        """Any noise-free linear data set is fitted exactly."""
        rng = np.random.default_rng(seed)
        inputs = rng.uniform(-1.0, 1.0, size=(40, 3))
        coefficients = rng.uniform(-3.0, 3.0, size=3)
        targets = rng.uniform(-2, 2) + inputs @ coefficients
        model = RegressionModel.fit(inputs, targets, ResponseSurface.LINEAR)
        assert np.allclose(model.predict(inputs), targets, atol=1e-7)
