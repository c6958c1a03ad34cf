"""Model selection by page-wise cross-validation.

Section V-A picks response surfaces by in-sample accuracy and
simplicity.  Because the governor must also handle pages outside its
training set (the Webpage-Neutral workloads), this module adds the
missing rigor: leave-one-page-out cross-validation over the campaign
observations, scoring each surface family on pages it never saw.

This is the analysis that justifies two implementation choices beyond
the paper's text: relative-error weighting and the small ridge penalty
on cross terms (both in :mod:`repro.models.regression`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from repro.models.features import IndependentVariables
from repro.models.performance_model import PiecewiseLoadTimeModel
from repro.models.power_model import DynamicPowerModel
from repro.models.predictor import FittedLeakageModel
from repro.models.regression import ResponseSurface
from repro.models.training import Observation

#: Fitted-model type threaded through the generic CV driver (a
#: PiecewiseLoadTimeModel or a DynamicPowerModel).
_M = TypeVar("_M")


@dataclass(frozen=True)
class CrossValidationScore:
    """Leave-one-page-out score of one surface family.

    Attributes:
        surface: Surface family scored.
        in_sample_error: Mean relative error on training folds.
        held_out_error: Mean relative error on the held-out page,
            averaged over folds.
        worst_page_error: The worst single held-out page's mean error.
    """

    surface: ResponseSurface
    in_sample_error: float
    held_out_error: float
    worst_page_error: float


def _dynamic_targets(
    observations: list[Observation], leakage: FittedLeakageModel
) -> list[float]:
    return [
        max(
            0.05,
            o.total_power_w
            - leakage.predict(o.voltage_v, o.avg_temperature_c),
        )
        for o in observations
    ]


def cross_validate_load_time(
    observations: list[Observation],
    surface: ResponseSurface,
) -> CrossValidationScore:
    """Leave-one-page-out CV of the load-time model."""
    return _cross_validate(
        observations,
        surface,
        targets=[o.load_time_s for o in observations],
        fit=lambda rows, targets: PiecewiseLoadTimeModel.fit(
            rows, targets, surface
        ),
        predict=lambda model, row: model.predict(row),
    )


def cross_validate_power(
    observations: list[Observation],
    surface: ResponseSurface,
    leakage: FittedLeakageModel,
) -> CrossValidationScore:
    """Leave-one-page-out CV of the dynamic-power model."""
    return _cross_validate(
        observations,
        surface,
        targets=_dynamic_targets(observations, leakage),
        fit=lambda rows, targets: DynamicPowerModel.fit(rows, targets, surface),
        predict=lambda model, row: model.predict(row),
    )


def _cross_validate(
    observations: list[Observation],
    surface: ResponseSurface,
    targets: list[float],
    fit: Callable[[list[IndependentVariables], list[float]], _M],
    predict: Callable[[_M, IndependentVariables], float],
) -> CrossValidationScore:
    if len(observations) != len(targets):
        raise ValueError("observations and targets must be parallel")
    pages = sorted({o.page_name for o in observations})
    if len(pages) < 3:
        raise ValueError("cross-validation needs at least three pages")

    in_sample_errors = []
    held_out_by_page = {}
    for held_out in pages:
        train_idx = [
            i for i, o in enumerate(observations) if o.page_name != held_out
        ]
        test_idx = [
            i for i, o in enumerate(observations) if o.page_name == held_out
        ]
        model = fit(
            [observations[i].row for i in train_idx],
            [targets[i] for i in train_idx],
        )
        train_rel = [
            abs(predict(model, observations[i].row) - targets[i]) / targets[i]
            for i in train_idx
        ]
        test_rel = [
            abs(predict(model, observations[i].row) - targets[i]) / targets[i]
            for i in test_idx
        ]
        in_sample_errors.append(float(np.mean(train_rel)))
        held_out_by_page[held_out] = float(np.mean(test_rel))

    return CrossValidationScore(
        surface=surface,
        in_sample_error=float(np.mean(in_sample_errors)),
        held_out_error=float(
            np.mean([held_out_by_page[page] for page in pages])
        ),
        worst_page_error=max(held_out_by_page.values()),
    )


def select_surfaces(
    observations: list[Observation],
    leakage: FittedLeakageModel,
) -> tuple[CrossValidationScore, CrossValidationScore]:
    """The paper's V-A selection, decided by held-out error.

    Returns the winning (load-time, power) scores.  Ties within one
    error point go to the simpler surface, mirroring the paper's
    simplicity tie-break (interaction over quadratic for load time,
    linear for power).
    """
    order = (
        ResponseSurface.LINEAR,
        ResponseSurface.INTERACTION,
        ResponseSurface.QUADRATIC,
    )

    def pick(scores: list[CrossValidationScore]) -> CrossValidationScore:
        best = min(scores, key=lambda s: s.held_out_error)
        for score in scores:  # simplest within one point of the best
            if score.held_out_error <= best.held_out_error + 0.01:
                return score
        return best

    time_scores = [
        cross_validate_load_time(observations, surface) for surface in order
    ]
    power_scores = [
        cross_validate_power(observations, surface, leakage)
        for surface in order
    ]
    return pick(time_scores), pick(power_scores)
