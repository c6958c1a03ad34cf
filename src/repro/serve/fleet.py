"""repro.serve.fleet -- the micro-batching decision router.

The router is the serving stack's one front-end and runs in the
caller's process: admission, then the skip cache, then one micro-batch
buffer, then one :class:`~repro.serve.service.DecisionPass` per
dispatched batch.  Tickets, sessions, skip anchors and counters all
live here, so every counter is a function of the request stream alone.
:class:`DecisionService`, the plain single-process service, is the
router without the skip cache.

The skip cache is DORA's own amortization, lifted fleet-side.  On the
phone, Algorithm 1 re-runs every interval but the actuator skips the
switch when fopt is unchanged; here the *evaluation* is skipped too: a
request whose feature/condition vector matches the device's previous
one (page and deadline exactly; MPKI, utilization and temperature
within ``skip_tolerance``) short-circuits to the cached response.
That is sound because the decision is a pure function of the request
vector -- equal inputs give bit-equal fopt, and a tolerance of zero
makes the cache lossless while still absorbing exact revisit traffic.

Bit-identity contract
---------------------
Every response's ``fopt_hz`` is bit-identical to the scalar
``DoraGovernor`` for the same request, whether it was answered by a
model pass or a skip-cache hit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.serve.service import (
    DecisionPass,
    DecisionRequest,
    DecisionResponse,
    DecisionTrace,
    ServiceConfig,
)
from repro.serve.sessions import DeviceSession, SessionRegistry


@dataclass(frozen=True)
class FleetConfig:
    """Tunables of the decision router.

    Attributes:
        workers: Accepted only as ``1`` and read by nothing: perfbench's
            ``serve`` workload still passes ``workers=1``, and the
            field goes with the next change to the benchmark.
        service: The router's :class:`ServiceConfig` (batching window,
            leakage ablation, QoS margin, session TTL).
        skip_cache: Enable the session-aware short circuit.  ``False``
            evaluates every admitted request.
        skip_tolerance: Maximum absolute drift in each of co-runner
            MPKI, utilization and temperature for a request to replay
            the session's cached response.  ``0.0`` (default) requires
            exact equality and is lossless; larger values trade
            decision freshness for evaluation work (``inf`` replays
            any drift).  NaN is refused.
    """

    workers: int = 1
    service: ServiceConfig = field(default_factory=ServiceConfig)
    skip_cache: bool = True
    skip_tolerance: float = 0.0

    def __post_init__(self) -> None:
        if self.workers != 1:
            raise ValueError("the router runs in-process: workers must be 1")
        if not self.skip_tolerance >= 0:
            raise ValueError("skip tolerance must be non-negative")


@dataclass
class FleetStats:
    """The router's running counters.

    Every field is counted live at the router; a dispatched batch is
    one model pass, so ``batches_total``, ``accepted_total`` (requests
    evaluated) and ``largest_batch`` are counted at dispatch.  Once
    nothing is buffered, ``requests_total == rejected_total +
    skips_total + accepted_total``.
    """

    requests_total: int = 0
    rejected_total: int = 0
    skips_total: int = 0
    flushes_on_size: int = 0
    flushes_on_wait: int = 0
    batches_total: int = 0
    accepted_total: int = 0
    largest_batch: int = 0

    def skip_rate(self) -> float:
        """Fraction of all requests answered from the skip cache."""
        if self.requests_total == 0:
            return 0.0
        return self.skips_total / self.requests_total

    def mean_batch_size(self) -> float:
        """Mean evaluated requests per model pass."""
        if self.batches_total == 0:
            return 0.0
        return self.accepted_total / self.batches_total


class SkipCache:
    """Session-aware unchanged-vector short circuit.

    A hit requires the device's cached anchor to match the incoming
    request on page census (exact), deadline (exact -- admission and
    the effective deadline depend on it), and each of the three
    condition scalars within ``tolerance``.  The replayed response
    carries the anchor's fopt and trace (marked ``skipped=True``) under
    the new request's ticket.

    A lookup and a store each resolve the device once: the session
    fetched for the TTL check (hit) or the newer-anchor check (store)
    is the one refreshed and written.
    """

    def __init__(self, registry: SessionRegistry, tolerance: float) -> None:
        self.registry = registry
        self.tolerance = tolerance

    def _matches(
        self, session: DeviceSession, request: DecisionRequest
    ) -> bool:
        anchor = session.last_response
        if anchor is None or session.page is None:
            return False
        if session.deadline_s != request.deadline_s:
            return False
        page = session.page  # identity first: replays reuse census objects
        if page is not request.page and page != request.page:
            return False
        tol = self.tolerance
        return (
            abs(session.corunner_mpki - request.corunner_mpki) <= tol
            and abs(session.corunner_utilization - request.corunner_utilization)
            <= tol
            and abs(session.temperature_c - request.temperature_c) <= tol
        )

    def lookup(
        self, ticket: int, request: DecisionRequest, now: float
    ) -> DecisionResponse | None:
        """The replayed response for an unchanged request, else ``None``.

        The TTL-aware :meth:`SessionRegistry.live` lookup matters here:
        eviction is lazy, so a device returning after more than a TTL
        of silence can still find its old session in the store -- and
        replaying that session's anchor would serve a decision the TTL
        already declared dead.  An expired session is a miss; the
        request evaluates and re-anchors freshly.
        """
        session = self.registry.live(request.device_id, now)
        if session is None or not self._matches(session, request):
            return None
        self.registry.refresh(session, now)
        session.skips += 1
        anchor: DecisionResponse = session.last_response  # type: ignore[assignment]
        replay = session.replay_trace
        if replay is None:
            # Built at the anchor's first hit and shared by the later ones.
            replay = session.replay_trace = anchor.trace._replace(skipped=True)
        return DecisionResponse(
            ticket, anchor.device_id, anchor.fopt_hz, True, 0.0, replay
        )

    def store(
        self, request: DecisionRequest, response: DecisionResponse, now: float
    ) -> None:
        """Anchor an evaluated response for the device's next requests.

        The anchor is the response the caller received, not a copy:
        responses and traces are immutable named tuples, so no caller
        holding one can change what later hits replay, and
        :meth:`lookup` builds the replays' ``skipped=True`` trace from
        it only if the anchor is hit.
        """
        if not response.accepted or response.trace is None:
            return
        device_id = request.device_id
        session = self.registry.get(device_id)
        if session is not None:
            anchor = session.last_response
            if (
                isinstance(anchor, DecisionResponse)
                and anchor.request_id > response.request_id
            ):
                return  # a newer anchor already landed
        session = self.registry.renew(device_id, session, now)
        session.page = request.page
        session.corunner_mpki = request.corunner_mpki
        session.corunner_utilization = request.corunner_utilization
        session.temperature_c = request.temperature_c
        session.current_freq_hz = response.fopt_hz
        session.deadline_s = request.deadline_s
        session.last_response = response
        session.replay_trace = None
        session.decisions += 1


#: One admitted request waiting in the router's micro-batch buffer:
#: ``(ticket, request, enqueued_s)``.
_Buffered = tuple[int, DecisionRequest, float]

#: One dispatched batch awaiting absorption: its buffered entries, one
#: ``(fopt_hz, trace)`` answer per entry, and the model version that
#: decided it.
_Decided = tuple[list[_Buffered], list[tuple[float, DecisionTrace]], int]


class FleetDecisionService:
    """The in-process micro-batching decision router.

    Single-threaded and cooperative: callers ``submit`` requests and
    drive flushing via the return value of ``submit`` (a batch filled),
    ``poll`` (a wait budget expired) or ``flush`` (force); ``decide``
    wraps the three for synchronous one-shot batches.  ``submit`` and
    ``poll`` may return responses for *earlier* tickets (the batches
    decided since the last call); ``decide`` returns its whole batch in
    ticket order.

    Args:
        predictor: Trained bundle; one :class:`DecisionPass` over it
            admits requests and evaluates every dispatched batch.
        config: Batching and skip-cache tunables.
        clock: Monotonic-seconds source (tests inject virtual clocks).
    """

    def __init__(
        self,
        predictor,
        config: FleetConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or FleetConfig()
        self.clock = clock
        self.stats = FleetStats()
        service_config = self.config.service
        self.registry = SessionRegistry(
            ttl_s=service_config.session_ttl_s, clock=clock
        )
        self.skip_cache = (
            SkipCache(self.registry, self.config.skip_tolerance)
            if self.config.skip_cache
            else None
        )
        #: Admission, the fmax fallback and every batch's model pass.
        self.decision = DecisionPass(predictor, service_config)
        self._buffer: list[_Buffered] = []
        #: Batches decided but not yet answered.  A batch is answered
        #: by the next submit/poll/flush, with that call's ``now``; the
        #: version tag keeps a pre-swap decision absorbed *after* the
        #: swap from anchoring a stale response in the skip cache.
        self._decided: list[_Decided] = []
        self._next_ticket = 0
        self._closed = False
        #: Bumped on every swap_model; tags dispatched batches and
        #: telemetry records.
        self.model_version = 0
        self._telemetry_store = None
        self._telemetry_writer = None
        self._shadow = None
        self._shadow_candidate = None

    # ------------------------------------------------------------------
    # Cooperative serving surface
    # ------------------------------------------------------------------
    def submit(
        self, request: DecisionRequest, now: float | None = None
    ) -> list[DecisionResponse]:
        """Route one request; returns whatever responses became ready.

        Ready responses are: an immediate rejection (admission fails:
        answered with fmax, never occupying a batch slot), a skip-cache
        replay, and every batch decided since the last call (including
        one this submission just filled).
        """
        now = self.clock() if now is None else now
        ticket = self._next_ticket
        self._next_ticket = ticket + 1
        stats = self.stats
        stats.requests_total += 1
        if not self.decision.admits(request):
            stats.rejected_total += 1
            self.registry.record_rejection(request.device_id, now)
            response = DecisionResponse(
                ticket, request.device_id, self.decision.fmax_hz, False
            )
        else:
            response = None
            if self.skip_cache is not None:
                response = self.skip_cache.lookup(ticket, request, now)
            if response is None:
                buffer = self._buffer
                buffer.append((ticket, request, now))
                if len(buffer) >= self.config.service.max_batch_size:
                    stats.flushes_on_size += 1
                    self._dispatch()
                return self._collect(now)
            stats.skips_total += 1
        if self._telemetry_store is not None:
            self._record_telemetry(request, response, now)
        if self._decided:
            return [response, *self._collect(now)]
        return [response]

    def poll(self, now: float | None = None) -> list[DecisionResponse]:
        """Flush the buffer once its wait budget expired; answer batches."""
        now = self.clock() if now is None else now
        if (
            self._buffer
            and now - self._buffer[0][2] >= self.config.service.max_wait_s
        ):
            self.stats.flushes_on_wait += 1
            self._dispatch()
        return self._collect(now)

    def pending(self) -> int:
        """Requests buffered or decided but not yet answered."""
        return len(self._buffer) + sum(
            len(entries) for entries, _, _ in self._decided
        )

    def flush(self, now: float | None = None) -> list[DecisionResponse]:
        """Dispatch the buffer and answer everything outstanding."""
        now = self.clock() if now is None else now
        self._dispatch()
        responses = self._collect(now)
        self.registry.evict_expired(now)
        return responses

    def decide(
        self, requests: list[DecisionRequest], now: float | None = None
    ) -> list[DecisionResponse]:
        """Answer a whole batch synchronously, in ticket order."""
        now = self.clock() if now is None else now
        responses: list[DecisionResponse] = []
        for request in requests:
            responses.extend(self.submit(request, now))
        responses.extend(self.flush(now))
        responses.sort(key=lambda response: response.request_id)
        return responses

    # ------------------------------------------------------------------
    # Telemetry and lifecycle
    # ------------------------------------------------------------------
    def merged_stats(self) -> FleetStats:
        """A snapshot of :attr:`stats`."""
        return replace(self.stats)

    def close(self) -> None:
        """Flush and close the telemetry writer (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.detach_telemetry()

    def __enter__(self) -> "FleetDecisionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Batching
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Decide the buffer: one batch, one model pass."""
        buffer = self._buffer
        if not buffer:
            return
        self._buffer = []
        self.stats.batches_total += 1
        self.stats.accepted_total += len(buffer)
        self.stats.largest_batch = max(self.stats.largest_batch, len(buffer))
        answers = self.decision.decide([request for _, request, _ in buffer])
        self._decided.append((buffer, answers, self.model_version))

    def _collect(self, now: float) -> list[DecisionResponse]:
        """Answer every decided batch, oldest first."""
        if not self._decided:
            return []
        decided = self._decided
        self._decided = []
        responses: list[DecisionResponse] = []
        for entries, answers, version in decided:
            responses.extend(self._absorb(entries, answers, version, now))
        return responses

    def _absorb(
        self,
        entries: list[_Buffered],
        answers: list[tuple[float, DecisionTrace]],
        version: int,
        now: float,
    ) -> list[DecisionResponse]:
        """Answer one decided batch and update sessions.

        Each response is anchored in the skip cache (or, without one,
        recorded on its session) and streamed to telemetry when a store
        is attached; an active shadow re-decides the whole batch once.
        """
        # A decision dispatched under an older model version must not
        # be anchored: the skip cache would replay it for the new
        # model's traffic.  The ticket is still answered.
        skip_cache = self.skip_cache if version == self.model_version else None
        record_decision = self.registry.record_decision
        streaming = self._telemetry_store is not None
        responses: list[DecisionResponse] = []
        for (ticket, request, enqueued_s), (fopt_hz, trace) in zip(
            entries, answers
        ):
            response = DecisionResponse(
                ticket, request.device_id, fopt_hz, True,
                max(0.0, now - enqueued_s), trace,
            )
            if skip_cache is not None:
                skip_cache.store(request, response, now)
            else:
                record_decision(
                    request.device_id, request.page, request.corunner_mpki,
                    request.corunner_utilization, request.temperature_c,
                    fopt_hz, now, request.deadline_s,
                )
            if streaming:
                self._record_telemetry(request, response, now, version)
            responses.append(response)
        if self._shadow is not None and entries:
            self._shadow.score_batch(
                [request for _, request, _ in entries],
                [response.fopt_hz for response in responses],
            )
        return responses

    # ------------------------------------------------------------------
    # Telemetry streaming
    # ------------------------------------------------------------------
    def attach_telemetry(self, store) -> None:
        """Stream every served decision into a telemetry store.

        Args:
            store: A :class:`repro.learn.telemetry.TelemetryStore` (or
                anything with a ``writer(shard)`` factory returning
                append handles).  The router is the one writer, on
                partition 0, so the store's single-writer-per-file
                contract holds.
        """
        self.detach_telemetry()
        self._telemetry_store = store

    def detach_telemetry(self) -> None:
        """Stop streaming and flush/close the open writer."""
        if self._telemetry_writer is not None:
            self._telemetry_writer.close()
        self._telemetry_writer = None
        self._telemetry_store = None

    def _record_telemetry(
        self,
        request: DecisionRequest,
        response: DecisionResponse,
        now: float,
        version: int | None = None,
    ) -> None:
        if self._telemetry_store is None:
            return
        from repro.learn.telemetry import decision_record

        if self._telemetry_writer is None:
            self._telemetry_writer = self._telemetry_store.writer(0)
        self._telemetry_writer.append(
            decision_record(
                request,
                response,
                now_s=now,
                model_version=(
                    self.model_version if version is None else version
                ),
            )
        )

    # ------------------------------------------------------------------
    # Model hot-swap and shadow scoring
    # ------------------------------------------------------------------
    def swap_model(self, predictor) -> None:
        """Replace the serving model without dropping buffered tickets.

        The swap is a batch boundary: the buffer is dispatched first,
        so those tickets are decided by the old model, and that batch
        is answered by the next ``submit``/``poll``/``flush`` like any
        other.  Nothing stalls.

        Session anchors are cleared (a cached old-model decision must
        not be replayed for new-model traffic) and the model version is
        bumped, which also stops the pre-swap batch, answered after
        the swap, from re-anchoring (see :meth:`_absorb`).

        Args:
            predictor: The replacement bundle.
        """
        if self._closed:
            raise RuntimeError("cannot swap on a closed fleet")
        self._dispatch()
        self.decision = DecisionPass(predictor, self.config.service)
        self.registry.clear_anchors()
        self.model_version += 1

    def start_shadow(self, candidate) -> None:
        """Score a candidate bundle against every evaluated decision.

        The candidate decides each absorbed batch in parallel (its own
        vectorized kernel, same feature arrays) but is never served;
        mismatch/regret telemetry accumulates per page class until
        :meth:`promote` or :meth:`rollback` ends the window.
        """
        from repro.learn.shadow import ShadowScorer

        self._shadow = ShadowScorer(
            candidate,
            include_leakage=self.config.service.include_leakage,
            qos_margin=self.config.service.qos_margin,
        )
        self._shadow_candidate = candidate

    def shadow_report(self):
        """The active shadow window's accumulated report (or ``None``)."""
        return None if self._shadow is None else self._shadow.report

    def promote(self, max_mismatch_rate: float = 0.0) -> bool:
        """Swap the shadowed candidate in if it met the threshold.

        Args:
            max_mismatch_rate: Highest acceptable fraction of scored
                decisions the candidate disagreed on.  ``0.0`` demands
                bit-identical behaviour (the closed-loop retraining
                bar).

        Returns:
            ``True`` when the candidate was promoted (shadow window
            ends, model swapped), ``False`` when it stays in shadow.

        Raises:
            RuntimeError: When no shadow window is active or nothing
                was scored yet.
        """
        if self._shadow is None:
            raise RuntimeError("no shadow candidate to promote")
        report = self._shadow.report
        if report.scored == 0:
            raise RuntimeError("shadow window scored no decisions yet")
        if report.mismatch_rate() > max_mismatch_rate:
            return False
        candidate = self._shadow_candidate
        self._shadow = None
        self._shadow_candidate = None
        self.swap_model(candidate)
        return True

    def rollback(self) -> None:
        """End the shadow window without swapping (keep the old model)."""
        self._shadow = None
        self._shadow_candidate = None


class DecisionService(FleetDecisionService):
    """The single-process decision service.

    The router without the skip cache: every admitted request is
    evaluated, so batch boundaries, queue delays and traces follow the
    micro-batching rules alone.

    Args:
        predictor: Trained bundle
            (:class:`repro.models.predictor.DoraPredictor`).
        config: Batching/selection tunables.
        clock: Monotonic-seconds source for queue-delay accounting and
            session TTLs.
    """

    def __init__(
        self,
        predictor,
        config: ServiceConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(
            predictor,
            FleetConfig(service=config or ServiceConfig(), skip_cache=False),
            clock=clock,
        )
