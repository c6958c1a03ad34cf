"""The batched governor-decision service.

One request is one device asking "what frequency should I run at for
the next interval?", carrying its page census, its latest counter
observations and its QoS deadline.  The service micro-batches in-flight
requests -- flushing when the batch fills or the oldest request has
waited ``max_wait_s`` -- and answers a whole batch with one vectorized
model pass plus one vectorized selection
(:func:`repro.core.ppw.select_fopt_rows`).

Equivalence contract
--------------------
A request's ``fopt_hz`` is bit-identical to what a scalar
:class:`repro.core.dora.DoraGovernor` (same bundle, same
``include_leakage``, same ``qos_margin``) would program for the same
inputs, regardless of what else shares the batch.  That holds for
rejected requests too: admission rejects exactly the requests whose
effective deadline is below the model's load-time floor, for which
Algorithm 1's feasible set is provably empty -- so the service answers
them with the maximum candidate frequency immediately, which is the
same infeasible-fallback answer the scalar sweep would have computed.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.browser.dom import PageFeatures
from repro.core.ppw import select_fopt_rows
from repro.models.performance_model import MIN_PREDICTED_LOAD_TIME_S
from repro.serve.batch_predictor import BatchDoraPredictor
from repro.serve.sessions import SessionRegistry


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


@dataclass(frozen=True)
class DecisionTrace:
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


@dataclass(frozen=True)
class DecisionResponse:
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
            pending.
        max_wait_s: Flush once the oldest pending request has waited
            this long (``poll`` enforces it).
        include_leakage: ``False`` serves the ``DORA_no_lkg`` ablation.
        qos_margin: Same safety margin as
            :class:`repro.core.dora.DoraGovernor` -- candidates must
            fit ``deadline * (1 - qos_margin)``.
        session_ttl_s: Silence after which a device session is evicted.
    """

    max_batch_size: int = 64
    max_wait_s: float = 0.005
    include_leakage: bool = True
    qos_margin: float = 0.0
    session_ttl_s: float = 300.0

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")
        if not 0.0 <= self.qos_margin < 1.0:
            raise ValueError("qos_margin must lie in [0, 1)")


@dataclass
class ServiceStats:
    """Running telemetry counters of one service instance."""

    requests_total: int = 0
    accepted_total: int = 0
    rejected_total: int = 0
    batches_total: int = 0
    flushes_on_size: int = 0
    flushes_on_wait: int = 0
    largest_batch: int = 0

    def mean_batch_size(self) -> float:
        """Mean accepted requests per model pass."""
        if self.batches_total == 0:
            return 0.0
        return self.accepted_total / self.batches_total


@dataclass
class _Pending:
    """One queued request awaiting the next flush."""

    ticket: int
    request: DecisionRequest
    enqueued_s: float


class DecisionService:
    """Micro-batching front-end over the vectorized decision kernel.

    Single-threaded and cooperative: callers ``submit`` requests and
    drive flushing via the return value of ``submit`` (batch filled),
    ``poll`` (wait budget expired) or ``flush`` (force).  ``decide``
    wraps the three for synchronous one-shot batches.

    Args:
        predictor: Trained bundle
            (:class:`repro.models.predictor.DoraPredictor`).
        config: Batching/selection tunables.
        registry: Device-session store; a fresh one (with
            ``config.session_ttl_s``) is created when omitted.
        clock: Monotonic-seconds source for queue-delay accounting and
            session TTLs.
    """

    def __init__(
        self,
        predictor,
        config: ServiceConfig | None = None,
        registry: SessionRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or ServiceConfig()
        self.clock = clock
        kernel = getattr(predictor, "batch_kernel", None)
        self.kernel: BatchDoraPredictor = (
            kernel() if callable(kernel) else BatchDoraPredictor.from_bundle(predictor)
        )
        self.registry = registry or SessionRegistry(
            ttl_s=self.config.session_ttl_s, clock=clock
        )
        self.stats = ServiceStats()
        self._pending: deque[_Pending] = deque()
        self._next_ticket = 0
        order = self.kernel.selection_order
        self._fmax_hz = float(self.kernel.freqs_hz[order[-1]])

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def effective_deadline_s(self, request: DecisionRequest) -> float:
        """The deadline Algorithm 1 actually compares against."""
        return request.deadline_s * (1.0 - self.config.qos_margin)

    def admits(self, request: DecisionRequest) -> bool:
        """Whether a request is worth a model evaluation.

        The load-time model floors every prediction at
        :data:`MIN_PREDICTED_LOAD_TIME_S`, so an effective deadline
        below the floor makes every candidate infeasible *a priori*:
        Algorithm 1 would sweep the table only to fall back to fmax.
        Such requests are rejected -- answered with fmax immediately,
        without occupying a batch slot.
        """
        return self.effective_deadline_s(request) >= MIN_PREDICTED_LOAD_TIME_S

    # ------------------------------------------------------------------
    # Batching
    # ------------------------------------------------------------------
    def submit(
        self, request: DecisionRequest, now: float | None = None
    ) -> list[DecisionResponse]:
        """Queue one request; returns responses if the batch filled.

        A rejected request is answered immediately (its response is the
        only element returned) and never occupies a batch slot.
        """
        now = self.clock() if now is None else now
        ticket = self._next_ticket
        self._next_ticket += 1
        self.stats.requests_total += 1
        if not self.admits(request):
            self.stats.rejected_total += 1
            self.registry.record_rejection(request.device_id, now)
            return [
                DecisionResponse(
                    request_id=ticket,
                    device_id=request.device_id,
                    fopt_hz=self._fmax_hz,
                    accepted=False,
                )
            ]
        self._pending.append(_Pending(ticket, request, now))
        if len(self._pending) >= self.config.max_batch_size:
            self.stats.flushes_on_size += 1
            return self.flush(now)
        return []

    def poll(self, now: float | None = None) -> list[DecisionResponse]:
        """Flush if the oldest pending request exhausted its wait budget."""
        if not self._pending:
            return []
        now = self.clock() if now is None else now
        if now - self._pending[0].enqueued_s >= self.config.max_wait_s:
            self.stats.flushes_on_wait += 1
            return self.flush(now)
        return []

    def pending(self) -> int:
        """Requests queued for the next flush."""
        return len(self._pending)

    def flush(self, now: float | None = None) -> list[DecisionResponse]:
        """Evaluate every pending request in one model pass."""
        if not self._pending:
            return []
        now = self.clock() if now is None else now
        batch = list(self._pending)
        self._pending.clear()
        return self._evaluate(batch, now)

    def decide(
        self, requests: list[DecisionRequest], now: float | None = None
    ) -> list[DecisionResponse]:
        """Answer a whole batch synchronously, in submission order."""
        now = self.clock() if now is None else now
        responses: list[DecisionResponse] = []
        for request in requests:
            responses.extend(self.submit(request, now))
        responses.extend(self.flush(now))
        responses.sort(key=lambda response: response.request_id)
        return responses

    # ------------------------------------------------------------------
    # Model hot-swap
    # ------------------------------------------------------------------
    def swap_predictor(
        self, predictor, now: float | None = None
    ) -> list[DecisionResponse]:
        """Replace the decision kernel, flushing pending work first.

        The swap is a batch boundary: every request submitted before
        this call is evaluated with the *old* kernel (its responses are
        returned), and every request submitted after it sees the new
        one.  No ticket is dropped and ticket numbering continues
        uninterrupted, so in-flight callers observe only that their
        flush happened slightly early.

        Args:
            predictor: The replacement bundle (anything with a
                ``batch_kernel()`` or accepted by
                :meth:`BatchDoraPredictor.from_bundle`).
            now: Service-clock time of the swap (defaults to the
                clock), used for the forced flush.

        Returns:
            Responses for the requests that were pending at swap time,
            decided by the outgoing kernel.
        """
        now = self.clock() if now is None else now
        responses = self.flush(now)
        kernel = getattr(predictor, "batch_kernel", None)
        self.kernel = (
            kernel() if callable(kernel) else BatchDoraPredictor.from_bundle(predictor)
        )
        order = self.kernel.selection_order
        self._fmax_hz = float(self.kernel.freqs_hz[order[-1]])
        return responses

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _evaluate(
        self, batch: list[_Pending], now: float
    ) -> list[DecisionResponse]:
        size = len(batch)
        pages = np.array(
            [entry.request.page.as_tuple() for entry in batch], dtype=float
        )
        mpki = np.array(
            [entry.request.corunner_mpki for entry in batch], dtype=float
        )
        utilization = np.array(
            [entry.request.corunner_utilization for entry in batch], dtype=float
        )
        temperatures = np.array(
            [entry.request.temperature_c for entry in batch], dtype=float
        )
        deadlines = np.array(
            [self.effective_deadline_s(entry.request) for entry in batch],
            dtype=float,
        )
        load, power = self.kernel.predict(
            pages=pages,
            corunner_mpki=mpki,
            corunner_utilization=utilization,
            temperatures_c=temperatures,
            include_leakage=self.config.include_leakage,
        )
        # select_fopt_rows wants frequency-ascending columns; map its
        # answer back to the kernel's candidate order afterwards.
        order = self.kernel.selection_order
        columns = select_fopt_rows(load[:, order], power[:, order], deadlines)
        winners = order[columns]
        rows = np.arange(size)
        winner_load = load[rows, winners]
        winner_power = power[rows, winners]
        feasible = winner_load <= deadlines

        self.stats.batches_total += 1
        self.stats.accepted_total += size
        self.stats.largest_batch = max(self.stats.largest_batch, size)

        responses: list[DecisionResponse] = []
        for position, entry in enumerate(batch):
            winner = int(winners[position])
            fopt_hz = float(self.kernel.freqs_hz[winner])
            load_time_s = float(winner_load[position])
            power_w = float(winner_power[position])
            trace = DecisionTrace(
                candidate_index=winner,
                load_time_s=load_time_s,
                power_w=power_w,
                ppw=1.0 / (load_time_s * power_w),
                effective_deadline_s=float(deadlines[position]),
                feasible=bool(feasible[position]),
                batch_size=size,
            )
            self.registry.record_decision(
                device_id=entry.request.device_id,
                page=entry.request.page,
                corunner_mpki=entry.request.corunner_mpki,
                corunner_utilization=entry.request.corunner_utilization,
                temperature_c=entry.request.temperature_c,
                freq_hz=fopt_hz,
                now=now,
                deadline_s=entry.request.deadline_s,
            )
            responses.append(
                DecisionResponse(
                    request_id=entry.ticket,
                    device_id=entry.request.device_id,
                    fopt_hz=fopt_hz,
                    accepted=True,
                    queue_delay_s=max(0.0, now - entry.enqueued_s),
                    trace=trace,
                )
            )
        self.registry.evict_expired(now)
        return responses
