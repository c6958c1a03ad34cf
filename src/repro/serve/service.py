"""The decision API's value types and the Algorithm-1 decision pass.

One request is one device asking "what frequency should I run at for
the next interval?", carrying its page census, its latest counter
observations and its QoS deadline.  :class:`DecisionPass` is DORA's
Algorithm 1 over a batch of such requests: one vectorized model pass
plus one vectorized selection
(:func:`repro.core.ppw.select_fopt_rows`), and the only code in the
serving stack that turns requests into decisions.  Micro-batching lives
in the fleet router (:class:`repro.serve.fleet.FleetDecisionService`);
the single-process :class:`repro.serve.fleet.DecisionService` is that
router without its skip cache.

Equivalence contract
--------------------
A request's ``fopt_hz`` is bit-identical to what a scalar
:class:`repro.core.dora.DoraGovernor` (same bundle, same
``include_leakage``, same ``qos_margin``) would program for the same
inputs, regardless of what else shares the batch.  That holds for
rejected requests too: admission rejects exactly the requests whose
effective deadline is below the model's load-time floor, for which
Algorithm 1's feasible set is provably empty -- so they are answered
with the maximum candidate frequency immediately, which is the same
infeasible-fallback answer the scalar sweep would have computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.browser.dom import PageFeatures
from repro.core.ppw import select_fopt_rows
from repro.models.performance_model import MIN_PREDICTED_LOAD_TIME_S
from repro.serve.batch_predictor import BatchDoraPredictor


@dataclass(frozen=True)
class DecisionRequest:
    """One device's ask for its next operating frequency.

    Attributes:
        device_id: Stable client identifier.
        page: Pre-render complexity census of the loading page.
        corunner_mpki: Co-runner shared-L2 MPKI from the latest
            counter window.
        corunner_utilization: Co-runner core utilization in ``[0, 1]``.
        temperature_c: Package temperature.
        deadline_s: QoS deadline for the page load.

    Raises:
        ValueError: If the deadline is not positive and finite, the MPKI
            not non-negative and finite, the utilization not in
            ``[0, 1]`` (NaN included), or the temperature not finite.
    """

    device_id: str
    page: PageFeatures
    corunner_mpki: float
    corunner_utilization: float
    temperature_c: float
    deadline_s: float = 3.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.deadline_s) and self.deadline_s > 0):
            raise ValueError("deadline must be positive and finite")
        if not (math.isfinite(self.corunner_mpki) and self.corunner_mpki >= 0):
            raise ValueError("MPKI must be non-negative and finite")
        if not 0.0 <= self.corunner_utilization <= 1.0:
            raise ValueError("co-runner utilization must lie in [0, 1]")
        if not math.isfinite(self.temperature_c):
            raise ValueError("temperature must be finite")


class DecisionTrace(NamedTuple):
    """The winning prediction row behind one served decision.

    Attributes:
        candidate_index: Column of the winner in the kernel's candidate
            order.
        load_time_s: Predicted load time at the winner.
        power_w: Predicted total power at the winner.
        ppw: Performance per watt at the winner.
        effective_deadline_s: Deadline after the QoS margin.
        feasible: Whether the winner met the effective deadline
            (``False`` means the infeasible fmax fallback fired).
        batch_size: Requests evaluated in the same model pass.
        skipped: ``True`` when the response was replayed from a
            session-aware skip cache instead of entering a batch (the
            fleet front-end's unchanged-fopt short circuit); the row
            values are those of the anchor evaluation.
    """

    candidate_index: int
    load_time_s: float
    power_w: float
    ppw: float
    effective_deadline_s: float
    feasible: bool
    batch_size: int
    skipped: bool = False


class DecisionResponse(NamedTuple):
    """The service's answer to one :class:`DecisionRequest`.

    Attributes:
        request_id: Ticket assigned at submission (FIFO-ordered).
        device_id: Echo of the requesting device.
        fopt_hz: The frequency the device should program.
        accepted: ``False`` when admission rejected the request (the
            answer is then the fmax fallback and ``trace`` is ``None``).
        queue_delay_s: Service-clock time spent waiting for the flush.
        trace: Winning-row trace for accepted requests.
    """

    request_id: int
    device_id: str
    fopt_hz: float
    accepted: bool
    queue_delay_s: float = 0.0
    trace: DecisionTrace | None = None


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the decision service.

    Attributes:
        max_batch_size: Flush as soon as this many requests are
            pending (an integer of at least 1).
        max_wait_s: Flush once the oldest pending request has waited
            this long (``poll`` enforces it; ``inf`` never flushes on
            wait).
        include_leakage: ``False`` serves the ``DORA_no_lkg`` ablation.
        qos_margin: Same safety margin as
            :class:`repro.core.dora.DoraGovernor` -- candidates must
            fit ``deadline * (1 - qos_margin)``.
        session_ttl_s: Silence after which a device session is evicted
            (``inf`` never evicts).

    Raises:
        ValueError: If a field lies outside its range.  Each check asks
            for the valid range, so NaN fails every one of them.
    """

    max_batch_size: int = 64
    max_wait_s: float = 0.005
    include_leakage: bool = True
    qos_margin: float = 0.0
    session_ttl_s: float = 300.0

    def __post_init__(self) -> None:
        if not (isinstance(self.max_batch_size, int) and self.max_batch_size >= 1):
            raise ValueError("max_batch_size must be an integer of at least 1")
        if not self.max_wait_s >= 0:
            raise ValueError("max_wait_s must be non-negative")
        if not 0.0 <= self.qos_margin < 1.0:
            raise ValueError("qos_margin must lie in [0, 1)")
        if not self.session_ttl_s > 0:
            raise ValueError("session_ttl_s must be positive")


class DecisionPass:
    """DORA's Algorithm 1 over a batch: one model pass, one selection.

    The one place the serving stack turns requests into decisions: the
    fleet router admits with it and evaluates every dispatched batch
    with it, and :class:`repro.learn.shadow.ShadowScorer` re-decides
    batches with a candidate bundle through it.

    Args:
        predictor: Trained bundle
            (:class:`repro.models.predictor.DoraPredictor`, or anything
            with a ``batch_kernel()`` or accepted by
            :meth:`BatchDoraPredictor.from_bundle`).
        config: Selection tunables (``include_leakage``,
            ``qos_margin``); the batching fields are the router's.
    """

    def __init__(self, predictor, config: ServiceConfig) -> None:
        self.config = config
        kernel = getattr(predictor, "batch_kernel", None)
        self.kernel: BatchDoraPredictor = (
            kernel() if callable(kernel) else BatchDoraPredictor.from_bundle(predictor)
        )
        #: Algorithm 1's infeasible fallback: the highest candidate.
        self.fmax_hz = float(self.kernel.freqs_hz.max())
        #: ``1 - qos_margin``: a deadline times this is the effective one.
        self._deadline_scale = 1.0 - config.qos_margin

    def effective_deadline_s(self, request: DecisionRequest) -> float:
        """The deadline Algorithm 1 actually compares against."""
        return request.deadline_s * self._deadline_scale

    def admits(self, request: DecisionRequest) -> bool:
        """Whether a request is worth a model evaluation.

        The load-time model floors every prediction at
        :data:`MIN_PREDICTED_LOAD_TIME_S`, so an effective deadline
        below the floor makes every candidate infeasible *a priori*:
        Algorithm 1 would sweep the table only to fall back to fmax.
        Such requests are rejected -- answered with fmax immediately,
        without occupying a batch slot.
        """
        return request.deadline_s * self._deadline_scale >= MIN_PREDICTED_LOAD_TIME_S

    def evaluate(
        self, requests: list[DecisionRequest]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Predict every candidate for a batch and select the winners.

        Returns:
            ``(load_s, power_w, deadlines_s, winners)``: predicted load
            time and total power per request and candidate (columns in
            the kernel's candidate order), each request's effective
            deadline, and each request's winning column.
        """
        pages = np.array(
            [request.page.as_tuple() for request in requests], dtype=float
        )
        # One row per request: MPKI, utilization, temperature, deadline.
        conditions = np.array(
            [
                (request.corunner_mpki, request.corunner_utilization,
                 request.temperature_c, request.deadline_s)
                for request in requests
            ],
            dtype=float,
        )
        # The same IEEE product as effective_deadline_s, element-wise.
        deadlines = conditions[:, 3] * self._deadline_scale
        load, power = self.kernel.predict(
            pages=pages,
            corunner_mpki=conditions[:, 0],
            corunner_utilization=conditions[:, 1],
            temperatures_c=conditions[:, 2],
            include_leakage=self.config.include_leakage,
        )
        # select_fopt_rows wants frequency-ascending columns; map its
        # answer back to the kernel's candidate order afterwards.
        order = self.kernel.selection_order
        columns = select_fopt_rows(load[:, order], power[:, order], deadlines)
        return load, power, deadlines, order[columns]

    def decide(
        self, requests: list[DecisionRequest]
    ) -> list[tuple[float, DecisionTrace]]:
        """One ``(fopt_hz, trace)`` per request, in request order; each
        trace's ``batch_size`` is the number of requests in this pass.

        Every per-request column leaves NumPy through one ``tolist()``
        (Python floats, ints and bools with the arrays' exact values),
        and ``ppw`` is ``1 / (load * power)`` on those floats.
        """
        load, power, deadlines, winners = self.evaluate(requests)
        rows = np.arange(len(requests))
        winner_load = load[rows, winners]
        winner_power = power[rows, winners]
        size = len(requests)
        return [
            (
                fopt_hz,
                DecisionTrace(
                    winner, load_time_s, power_w, 1.0 / (load_time_s * power_w),
                    deadline_s, feasible, size,
                ),
            )
            for fopt_hz, winner, load_time_s, power_w, deadline_s, feasible in zip(
                self.kernel.freqs_hz[winners].tolist(),
                winners.tolist(),
                winner_load.tolist(),
                winner_power.tolist(),
                deadlines.tolist(),
                (winner_load <= deadlines).tolist(),
            )
        ]
