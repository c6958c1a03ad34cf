"""Response-surface regression (Equations 2-4).

The paper evaluates three hypothesized surfaces over the Table-I
variables and picks by accuracy-vs-simplicity (Section V-A):

* **linear** (Eq. 2): ``y = c0 + sum(ci * Xi)`` -- chosen for the
  power model.
* **interaction** (Eq. 4): linear plus all pairwise cross products
  ``Xi * Xj`` (i != j) -- chosen for the load-time model.
* **quadratic** (Eq. 3): interaction plus squared terms.

Coefficients are estimated by mean-square-error minimization
(ordinary least squares on the expanded design matrix).  Features are
z-score standardized before expansion so the cross-product columns
stay well conditioned; the standardization parameters are stored in
the model and applied at prediction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np


class ResponseSurface(Enum):
    """The three hypothesized model forms."""

    LINEAR = "linear"
    INTERACTION = "interaction"
    QUADRATIC = "quadratic"


@lru_cache(maxsize=None)
def _pair_indices(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major ``(i, j)`` index pairs with ``i < j < k`` (read-only:
    every design expansion shares them)."""
    left, right = np.triu_indices(k, 1)
    left.flags.writeable = False
    right.flags.writeable = False
    return left, right


def _expand(z: np.ndarray, surface: ResponseSurface) -> np.ndarray:
    """Expand standardized rows into the surface's design matrix.

    Args:
        z: Standardized inputs of shape (..., k): plain rows, or rows
            by candidate for :class:`StackedModels`.
        surface: Model form.

    Returns:
        Design of shape (..., terms) including the intercept.
    """
    k = z.shape[-1]
    columns = [np.ones(z.shape[:-1] + (1,)), z]
    if surface in (ResponseSurface.INTERACTION, ResponseSurface.QUADRATIC):
        # Every cross term ``z_i * z_j`` (i < j) in one product, in
        # row-major pair order: (0, 1), (0, 2), ..., (k - 2, k - 1).
        left, right = _pair_indices(k)
        columns.append(z[..., left] * z[..., right])
    if surface is ResponseSurface.QUADRATIC:
        columns.append(z**2)
    return np.concatenate(columns, axis=-1)


def term_count(num_features: int, surface: ResponseSurface) -> int:
    """Number of design-matrix columns for a surface."""
    pairs = num_features * (num_features - 1) // 2
    if surface is ResponseSurface.LINEAR:
        return 1 + num_features
    if surface is ResponseSurface.INTERACTION:
        return 1 + num_features + pairs
    return 1 + num_features + pairs + num_features


@dataclass(frozen=True)
class RegressionModel:
    """A fitted response surface.

    Attributes:
        surface: Model form.
        coefficients: OLS coefficients over the expanded design.
        means: Per-feature standardization means.
        scales: Per-feature standardization scales (1.0 for constant
            columns, which standardize to all-zero and drop out).
    """

    surface: ResponseSurface
    coefficients: np.ndarray
    means: np.ndarray
    scales: np.ndarray

    @classmethod
    def fit(
        cls,
        inputs: np.ndarray,
        targets: np.ndarray,
        surface: ResponseSurface,
        weights: np.ndarray | None = None,
        ridge_cross: float = 0.0,
    ) -> "RegressionModel":
        """Fit by (optionally weighted) least squares.

        Args:
            inputs: Raw feature matrix of shape (n, k).
            targets: Response vector of shape (n,).
            surface: Model form.
            weights: Optional per-observation weights.  Passing
                ``1 / targets**2`` minimizes *relative* rather than
                absolute squared error -- appropriate when, as in
                Fig. 5, accuracy is judged in percent and the targets
                span an order of magnitude.
            ridge_cross: L2 penalty applied to the *higher-order*
                (cross-product and squared) coefficients only.  The
                Table-I page features are strongly collinear, so an
                unpenalized interaction surface can carry huge
                mutually-cancelling cross terms that explode on pages
                off the training manifold (the Webpage-Neutral set); a
                tiny penalty removes that failure mode while leaving
                the main effects untouched.

        Raises:
            ValueError: On shape mismatch or an empty dataset.
        """
        inputs = np.asarray(inputs, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if inputs.ndim != 2:
            raise ValueError("inputs must be 2-D (n, k)")
        if targets.shape != (inputs.shape[0],):
            raise ValueError("targets must be 1-D matching inputs rows")
        if inputs.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        means = inputs.mean(axis=0)
        scales = inputs.std(axis=0)
        # A constant column's std is float rounding noise (~1e-16
        # relative), not exactly zero.  Without a relative tolerance
        # the column standardizes to amplified noise, earns a real
        # coefficient, and explodes at prediction inputs off the
        # training value (z ~ delta / 1e-16).  Treat it as constant so
        # it drops out and unidentifiable directions extrapolate flat.
        tolerance = 1e-9 * np.maximum(np.abs(means), 1.0)
        scales = np.where(scales > tolerance, scales, 1.0)
        z = (inputs - means) / scales
        design = _expand(z, surface)
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != targets.shape:
                raise ValueError("weights must match targets")
            if np.any(weights < 0):
                raise ValueError("weights must be non-negative")
            root = np.sqrt(weights)
            design = design * root[:, None]
            targets = targets * root
        if ridge_cross < 0:
            raise ValueError("ridge_cross must be non-negative")
        if ridge_cross > 0 and surface is not ResponseSurface.LINEAR:
            n, terms = design.shape
            k = inputs.shape[1]
            penalty_mask = np.ones(terms)
            penalty_mask[: 1 + k] = 0.0  # intercept + main effects free
            penalty_rows = np.sqrt(ridge_cross * n) * np.diag(penalty_mask)
            design = np.vstack([design, penalty_rows])
            targets = np.concatenate([targets, np.zeros(terms)])
        coefficients, *_ = np.linalg.lstsq(design, targets, rcond=None)
        return cls(
            surface=surface, coefficients=coefficients, means=means, scales=scales
        )

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Predict responses for raw feature rows of shape (n, k)."""
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        if inputs.shape[1] != self.means.shape[0]:
            raise ValueError(
                f"expected {self.means.shape[0]} features, got {inputs.shape[1]}"
            )
        z = (inputs - self.means) / self.scales
        return _expand(z, self.surface) @ self.coefficients

    def predict_one(self, row: np.ndarray) -> float:
        """Predict a single raw feature row."""
        return float(self.predict(row.reshape(1, -1))[0])

    def predict_rows(self, inputs: np.ndarray) -> np.ndarray:
        """Batch-size-invariant predictions for raw feature rows.

        :meth:`predict` reduces the expanded design with a BLAS matmul,
        whose summation order may depend on operand shapes; this path
        is :meth:`StackedModels.predict_rows` with one candidate, which
        multiplies by the coefficients element-wise and reduces each row
        with NumPy's per-row pairwise sum, so any row's prediction is
        bit-identical whether evaluated alone or stacked in a batch of
        thousands.
        """
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        if inputs.shape[1] != self.means.shape[0]:
            raise ValueError(
                f"expected {self.means.shape[0]} features, got {inputs.shape[1]}"
            )
        stack = StackedModels.gather([self])
        return stack.predict_rows(inputs[:, None, :])[:, 0]

    def residuals(self, inputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Prediction minus target for a labelled set."""
        targets = np.asarray(targets, dtype=float)
        return self.predict(inputs) - targets

    def mean_abs_pct_error(
        self, inputs: np.ndarray, targets: np.ndarray
    ) -> float:
        """Mean |error| / target -- the paper's accuracy metric."""
        targets = np.asarray(targets, dtype=float)
        if np.any(targets <= 0):
            raise ValueError("targets must be positive for relative error")
        return float(
            np.mean(np.abs(self.residuals(inputs, targets)) / targets)
        )


@dataclass(frozen=True)
class StackedModels:
    """One fitted model per candidate, evaluated in one pass.

    The online decision paths (the scalar governor's sweep and the
    batched serve kernel) predict every request at every candidate
    frequency, and each candidate has its own piecewise segment.
    Gathering the segments' standardization and coefficients along a
    candidate axis turns those per-segment passes into one: a single
    standardization, one design expansion, one element-wise product
    and one per-row pairwise sum over the whole ``(R, F, k)`` block.
    Every row is reduced alone, over a contiguous row of ``terms``
    values, so a prediction has the same bits as
    :meth:`RegressionModel.predict_rows` on that row and segment.

    Attributes:
        surface: The model form every stacked model shares.
        coefficients: Per-candidate coefficients, shape (F, terms).
        means: Per-candidate standardization means, shape (F, k).
        scales: Per-candidate standardization scales, shape (F, k).
    """

    surface: ResponseSurface
    coefficients: np.ndarray
    means: np.ndarray
    scales: np.ndarray

    @classmethod
    def gather(cls, models: Sequence[RegressionModel]) -> "StackedModels":
        """Stack one model per candidate, in candidate order.

        A model may serve several candidates (it is then gathered once
        per candidate).

        Raises:
            ValueError: When no model is given, or the models differ
                in form or feature count (``np.stack`` refuses arrays
                of differing shapes).
        """
        if not models:
            raise ValueError("need at least one model to stack")
        surface = models[0].surface
        if any(model.surface is not surface for model in models):
            raise ValueError("stacked models must share one response surface")
        return cls(
            surface=surface,
            coefficients=np.stack([model.coefficients for model in models]),
            means=np.stack([model.means for model in models]),
            scales=np.stack([model.scales for model in models]),
        )

    def predict_rows(self, inputs: np.ndarray) -> np.ndarray:
        """Per-row predictions for a block of raw feature rows.

        Args:
            inputs: Raw rows of shape (R, F, k); ``inputs[r, f]`` is
                evaluated by candidate ``f``'s model.

        Returns:
            Predictions of shape (R, F).
        """
        z = (inputs - self.means) / self.scales
        design = _expand(z, self.surface)
        return (design * self.coefficients).sum(axis=-1)
