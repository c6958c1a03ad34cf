"""Shadow scoring: run a candidate model beside the serving one.

Before a retrained model is trusted with live decisions, the fleet
runs it *in shadow*: every evaluated batch is re-decided by the
candidate's own vectorized kernel on exactly the same feature arrays,
and the two answers are compared.  The shadow decision is never
served -- it only feeds telemetry:

* **mismatches** -- requests where the candidate's fopt differs from
  the served one (bitwise frequency comparison, same strictness as
  the repo's scalar/batched equivalence suite);
* **regret** -- for mismatched requests, how much worse the *served*
  decision looks under the candidate's own predictions
  (``1 - PPW_served / PPW_candidate``, clamped at zero), i.e. the
  improvement the candidate believes it is being denied;

both accumulated per page class so a regression confined to heavy
pages is visible even when light-page traffic dominates.

Page classes bucket the request's DOM-node census -- the one
complexity signal available before any model runs -- at 1000 and 4000
nodes, which splits the suite's 18 pages into three equal groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.serve.service import DecisionPass, ServiceConfig

#: DOM-node boundaries of the page classes (right-open intervals).
PAGE_CLASS_BOUNDS = (1000, 4000)
PAGE_CLASSES = ("small", "medium", "large")


def page_class(dom_nodes: float) -> str:
    """The page class of a request, from its DOM-node census."""
    if dom_nodes < PAGE_CLASS_BOUNDS[0]:
        return "small"
    if dom_nodes < PAGE_CLASS_BOUNDS[1]:
        return "medium"
    return "large"


@dataclass
class ShadowClassStats:
    """Accumulated shadow telemetry for one page class."""

    scored: int = 0
    mismatches: int = 0
    regret_sum: float = 0.0

    def mismatch_rate(self) -> float:
        """Fraction of scored requests the candidate disagreed on."""
        return self.mismatches / self.scored if self.scored else 0.0

    def mean_regret(self) -> float:
        """Mean candidate-view regret over *scored* requests."""
        return self.regret_sum / self.scored if self.scored else 0.0


@dataclass
class ShadowReport:
    """Summary of one shadow-scoring window.

    Attributes:
        scored: Requests the candidate re-decided.
        mismatches: Requests where candidate fopt != served fopt.
        regret_sum: Total candidate-view regret over mismatches.
        by_class: Per-page-class breakdown.
    """

    scored: int = 0
    mismatches: int = 0
    regret_sum: float = 0.0
    by_class: dict[str, ShadowClassStats] = field(
        default_factory=lambda: {name: ShadowClassStats() for name in PAGE_CLASSES}
    )

    def mismatch_rate(self) -> float:
        """Overall fraction of scored requests with a different fopt."""
        return self.mismatches / self.scored if self.scored else 0.0

    def to_record(self) -> dict[str, Any]:
        """JSON-able summary (bench reports, CLI output)."""
        return {
            "scored": self.scored,
            "mismatches": self.mismatches,
            "mismatch_rate": self.mismatch_rate(),
            "regret_sum": self.regret_sum,
            "by_class": {
                name: {
                    "scored": stats.scored,
                    "mismatches": stats.mismatches,
                    "mismatch_rate": stats.mismatch_rate(),
                    "mean_regret": stats.mean_regret(),
                }
                for name, stats in self.by_class.items()
            },
        }


class ShadowScorer:
    """Re-decides evaluated batches with a candidate model.

    Built from any bundle the serving stack accepts; scoring is one
    extra :meth:`~repro.serve.service.DecisionPass.evaluate` per batch
    (the serving path's own model pass and selection, on the
    candidate), no per-request Python work beyond the class bucketing
    and the regret of mismatches.

    Args:
        candidate: The candidate bundle to score.
        include_leakage: Must match the serving config so the two
            models answer the same question.
        qos_margin: Serving QoS margin (effective deadlines must
            match too).
    """

    def __init__(
        self,
        candidate,
        include_leakage: bool = True,
        qos_margin: float = 0.0,
    ) -> None:
        self.decision = DecisionPass(
            candidate,
            ServiceConfig(include_leakage=include_leakage, qos_margin=qos_margin),
        )
        self.report = ShadowReport()

    def score_batch(
        self,
        requests: list,
        served_fopt_hz: list[float],
    ) -> int:
        """Score one evaluated batch; returns new mismatches.

        Args:
            requests: The batch's
                :class:`~repro.serve.service.DecisionRequest` objects.
            served_fopt_hz: The frequencies actually served, parallel
                to ``requests``.
        """
        if not requests:
            return 0
        load, power, _deadlines, winners = self.decision.evaluate(requests)
        freqs_hz = self.decision.kernel.freqs_hz
        served = np.asarray(served_fopt_hz, dtype=float)
        mismatched = (freqs_hz[winners] != served).tolist()
        winner_columns = winners.tolist()
        new_mismatches = 0
        for position, request in enumerate(requests):
            cls = self.report.by_class[page_class(request.page.dom_nodes)]
            cls.scored += 1
            self.report.scored += 1
            if not mismatched[position]:
                continue
            new_mismatches += 1
            cls.mismatches += 1
            self.report.mismatches += 1
            winner = winner_columns[position]
            candidate_ppw = 1.0 / (load[position, winner] * power[position, winner])
            # Candidate-view regret of the served choice: re-read the
            # candidate's predictions at the served frequency.
            served_column = int(np.argmin(np.abs(freqs_hz - served[position])))
            served_ppw = 1.0 / (
                load[position, served_column] * power[position, served_column]
            )
            regret = max(0.0, 1.0 - served_ppw / candidate_ppw)
            cls.regret_sum += regret
            self.report.regret_sum += regret
        return new_mismatches
