"""The Table-I independent variables.

The paper's models take nine predictors: five static web-page
complexity features (available before rendering) and four dynamic
architecture/system conditions:

====  =========================================
X1    Number of DOM tree nodes
X2    Number of ``class`` attributes
X3    Number of ``href`` attributes
X4    Number of ``a`` tags
X5    Number of ``div`` tags
X6    Shared L2 cache MPKI (of the co-scheduled task)
X7    Core frequency
X8    Memory bus frequency
X9    Core utilization of the co-scheduled task
====  =========================================

This module is the single definition of that vector's layout; the
regression stack, the training campaign, and the online predictor all
build rows through :class:`IndependentVariables` so feature ordering
can never silently diverge between training and inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.browser.dom import PageFeatures

#: Canonical names in Table-I order.
TABLE_I_NAMES: tuple[str, ...] = (
    "dom_nodes",
    "class_attributes",
    "href_attributes",
    "a_tags",
    "div_tags",
    "l2_mpki",
    "core_freq_ghz",
    "bus_freq_mhz",
    "corunner_utilization",
)

#: Number of independent variables.
NUM_FEATURES = len(TABLE_I_NAMES)


@dataclass(frozen=True)
class IndependentVariables:
    """One row of Table-I predictors (X1..X9).

    Frequencies are stored in human-scale units (GHz / MHz) so the
    design matrix columns have comparable magnitudes before
    standardization.
    """

    dom_nodes: float
    class_attributes: float
    href_attributes: float
    a_tags: float
    div_tags: float
    l2_mpki: float
    core_freq_ghz: float
    bus_freq_mhz: float
    corunner_utilization: float

    def __post_init__(self) -> None:
        if self.core_freq_ghz <= 0:
            raise ValueError("core frequency must be positive")
        if self.bus_freq_mhz <= 0:
            raise ValueError("bus frequency must be positive")
        if not (math.isfinite(self.l2_mpki) and self.l2_mpki >= 0):
            raise ValueError("MPKI must be non-negative and finite")
        if not 0.0 <= self.corunner_utilization <= 1.0:
            raise ValueError("co-runner utilization must lie in [0, 1]")

    @classmethod
    def build(
        cls,
        page: PageFeatures,
        l2_mpki: float,
        core_freq_hz: float,
        bus_freq_hz: float,
        corunner_utilization: float,
    ) -> "IndependentVariables":
        """Assemble a row from a page census and runtime conditions."""
        return cls(
            dom_nodes=float(page.dom_nodes),
            class_attributes=float(page.class_attributes),
            href_attributes=float(page.href_attributes),
            a_tags=float(page.a_tags),
            div_tags=float(page.div_tags),
            l2_mpki=float(l2_mpki),
            core_freq_ghz=core_freq_hz / 1e9,
            bus_freq_mhz=bus_freq_hz / 1e6,
            corunner_utilization=float(corunner_utilization),
        )

    def as_array(self) -> np.ndarray:
        """The row as a float array in Table-I order."""
        return np.array(
            [
                self.dom_nodes,
                self.class_attributes,
                self.href_attributes,
                self.a_tags,
                self.div_tags,
                self.l2_mpki,
                self.core_freq_ghz,
                self.bus_freq_mhz,
                self.corunner_utilization,
            ],
            dtype=float,
        )

    def replacing(self, **changes: float) -> "IndependentVariables":
        """A copy with some fields replaced (ablation helper)."""
        from dataclasses import replace

        return replace(self, **changes)


def stack(rows: list[IndependentVariables]) -> np.ndarray:
    """Stack rows into an (n, 9) design-input matrix."""
    if not rows:
        raise ValueError("need at least one row")
    return np.vstack([row.as_array() for row in rows])
