"""repro.serve.fleet -- the micro-batching decision router.

The router is the serving stack's one front-end: admission, the skip
cache, per-shard micro-batch buffering, ticket bookkeeping, sessions
and counters.  Each dispatched batch is evaluated exactly once, by a
shard's :class:`~repro.serve.service.DecisionPass`.  One process
saturates a core long before it saturates a fleet -- the model pass is
vectorized, but it is one process -- so the router hash-partitions
device sessions across N shard workers
(:func:`repro.serve.shard.shard_for`), each in its own process.
:class:`DecisionService`, the single-process service, is the router
with one in-process shard and no skip cache.

Sharding by *device* -- not round-robin by request -- makes the
partition a pure function of the request stream: a device's batches
always go to the same shard, and its telemetry to the same shard file.
Shards keep no state of their own (sessions, skip anchors, tickets and
counters are the router's), so nothing is ever split or merged across
processes.

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
``DoraGovernor`` for the same request, regardless of shard count,
execution mode (process/serial), or whether it was answered by a shard
pass or a skip-cache hit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.runtime.pool import (
    DEFAULT_BACKOFF_S,
    DEFAULT_MAX_ATTEMPTS,
    in_worker,
    serial_downgrade_reason,
)
from repro.serve.service import (
    DecisionPass,
    DecisionRequest,
    DecisionResponse,
    DecisionTrace,
    ServiceConfig,
)
from repro.serve.sessions import DeviceSession, SessionRegistry
from repro.serve.shard import make_shards, shard_for


@dataclass(frozen=True)
class FleetConfig:
    """Tunables of the sharded serving topology.

    Attributes:
        workers: Shard count.  Each shard gets its own worker process
            when the runtime allows one
            (:func:`repro.runtime.pool.serial_downgrade_reason`);
            otherwise the same shards run in-process, preserving the
            partitioning and batch boundaries exactly.
        service: Per-shard :class:`ServiceConfig` (batching window,
            leakage ablation, QoS margin, session TTL).
        skip_cache: Enable the session-aware short circuit.  ``False``
            evaluates every admitted request.
        skip_tolerance: Maximum absolute drift in each of co-runner
            MPKI, utilization and temperature for a request to replay
            the session's cached response.  ``0.0`` (default) requires
            exact equality and is lossless; larger values trade
            decision freshness for evaluation work.
        max_attempts: Submission attempts per dispatched batch across
            worker crashes (the runtime pool's retry discipline).
        backoff_s: Base sleep before a worker respawn (doubles per
            consecutive crash).
    """

    workers: int = 4
    service: ServiceConfig = field(default_factory=ServiceConfig)
    skip_cache: bool = True
    skip_tolerance: float = 0.0
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    backoff_s: float = DEFAULT_BACKOFF_S

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("fleet needs at least one worker")
        if self.skip_tolerance < 0:
            raise ValueError("skip tolerance must be non-negative")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")


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
        """Mean evaluated requests per model pass, across all shards."""
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
        # Direct construction, not dataclasses.replace: this runs once
        # per hit and replace's field introspection dominates it.
        return DecisionResponse(
            request_id=ticket,
            device_id=anchor.device_id,
            fopt_hz=anchor.fopt_hz,
            accepted=True,
            queue_delay_s=0.0,
            trace=anchor.trace,
        )

    def store(
        self, request: DecisionRequest, response: DecisionResponse, now: float
    ) -> None:
        """Anchor an evaluated response for the device's next requests."""
        if not response.accepted or response.trace is None:
            return
        session = self.registry.get(request.device_id)
        if (
            session is not None
            and isinstance(session.last_response, DecisionResponse)
            and session.last_response.request_id > response.request_id
        ):
            return  # a newer anchor already landed
        trace = response.trace
        # Direct construction, as in lookup; the newer-anchor check
        # above reads the anchor's request_id.
        anchor = DecisionResponse(
            request_id=response.request_id,
            device_id=response.device_id,
            fopt_hz=response.fopt_hz,
            accepted=True,
            queue_delay_s=response.queue_delay_s,
            trace=DecisionTrace(
                candidate_index=trace.candidate_index,
                load_time_s=trace.load_time_s,
                power_w=trace.power_w,
                ppw=trace.ppw,
                effective_deadline_s=trace.effective_deadline_s,
                feasible=trace.feasible,
                batch_size=trace.batch_size,
                skipped=True,
            ),
        )
        self.registry.record_decision(
            device_id=request.device_id,
            page=request.page,
            corunner_mpki=request.corunner_mpki,
            corunner_utilization=request.corunner_utilization,
            temperature_c=request.temperature_c,
            freq_hz=response.fopt_hz,
            now=now,
            deadline_s=request.deadline_s,
            response=anchor,
        )


@dataclass
class _Buffered:
    """One admitted request waiting in a shard's router-side buffer."""

    ticket: int
    request: DecisionRequest
    enqueued_s: float


class FleetDecisionService:
    """The micro-batching decision router over one or more shards.

    Single-threaded and cooperative: callers ``submit`` requests and
    drive flushing via the return value of ``submit`` (a batch filled),
    ``poll`` (a wait budget expired) or ``flush`` (force); ``decide``
    wraps the three for synchronous one-shot batches.  ``submit`` and
    ``poll`` may return responses for *earlier* tickets (whatever the
    shards finished since the last call); ``decide`` returns its whole
    batch in ticket order.

    Args:
        predictor: Trained bundle; the router admits with its
            :class:`DecisionPass` and each shard evaluates with its own.
        config: Fleet topology and skip-cache tunables.
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
        reason = serial_downgrade_reason(self.config.workers)
        if reason is None and in_worker():
            reason = "nested inside a pool worker"
        if reason is None and self.config.workers == 1:
            # Only REPRO_FORCE_POOL=1 gets here: serial_downgrade_reason
            # already calls a one-worker pool pure overhead, and one
            # shard stays in-process regardless, so DecisionService
            # never owns a worker process.
            reason = "one shard runs in-process"
        self.mode = "process" if reason is None else f"serial ({reason})"
        # Partitioning pays only when shards are real processes; in
        # serial mode everything routes to one in-process shard, so
        # misses batch together instead of splintering into per-shard
        # micro-passes (decisions are batch-invariant, so the batch
        # boundaries may differ between modes without changing bits).
        self._shard_count = self.config.workers if reason is None else 1
        self.shards = make_shards(
            predictor,
            service_config,
            shards=self._shard_count,
            process_based=reason is None,
            max_attempts=self.config.max_attempts,
            backoff_s=self.config.backoff_s,
        )
        # Router-side registry: session anchors for the skip cache and
        # the authoritative TTL bookkeeping over the whole device set.
        self.registry = SessionRegistry(
            ttl_s=service_config.session_ttl_s, clock=clock
        )
        self.skip_cache = (
            SkipCache(self.registry, self.config.skip_tolerance)
            if self.config.skip_cache
            else None
        )
        #: Admission and the fmax fallback; shards evaluate with their
        #: own pass over the same bundle.
        self.decision = DecisionPass(predictor, service_config)
        self._buffers: list[list[_Buffered]] = [
            [] for _ in range(self._shard_count)
        ]
        #: ticket -> (originating request, model version at dispatch,
        #: router-clock enqueue time), alive while a shard holds it.
        #: The version tag keeps a pre-swap decision absorbed *after*
        #: the swap from anchoring a stale response in the skip cache.
        self._inflight: dict[int, tuple[DecisionRequest, int, float]] = {}
        self._next_ticket = 0
        self._closed = False
        #: Bumped on every swap_model; tags dispatched tickets and
        #: telemetry records.
        self.model_version = 0
        self._telemetry_store = None
        self._telemetry_writers: dict[int, object] = {}
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
        replay, and any shard results that arrived since the last call
        (including batches this submission just filled).
        """
        now = self.clock() if now is None else now
        ticket = self._next_ticket
        self._next_ticket += 1
        self.stats.requests_total += 1
        if not self.decision.admits(request):
            self.stats.rejected_total += 1
            self.registry.record_rejection(request.device_id, now)
            rejection = DecisionResponse(
                request_id=ticket,
                device_id=request.device_id,
                fopt_hz=self.decision.fmax_hz,
                accepted=False,
            )
            self._record_telemetry(request, rejection, now)
            return [rejection] + self._collect(now)
        if self.skip_cache is not None:
            hit = self.skip_cache.lookup(ticket, request, now)
            if hit is not None:
                self.stats.skips_total += 1
                self._record_telemetry(request, hit, now)
                return [hit] + self._collect(now)
        shard_index = shard_for(request.device_id, self._shard_count)
        buffer = self._buffers[shard_index]
        buffer.append(_Buffered(ticket, request, now))
        if len(buffer) >= self.config.service.max_batch_size:
            self.stats.flushes_on_size += 1
            self._dispatch(shard_index)
        return self._collect(now)

    def poll(self, now: float | None = None) -> list[DecisionResponse]:
        """Flush wait-expired shard buffers and harvest shard results."""
        now = self.clock() if now is None else now
        for shard_index, buffer in enumerate(self._buffers):
            if (
                buffer
                and now - buffer[0].enqueued_s >= self.config.service.max_wait_s
            ):
                self.stats.flushes_on_wait += 1
                self._dispatch(shard_index)
        return self._collect(now)

    def pending(self) -> int:
        """Requests buffered at the router or in flight to a shard."""
        return sum(len(buffer) for buffer in self._buffers) + len(self._inflight)

    def flush(self, now: float | None = None) -> list[DecisionResponse]:
        """Dispatch every buffer and drain every shard to completion."""
        now = self.clock() if now is None else now
        for shard_index in range(self._shard_count):
            self._dispatch(shard_index)
        responses: list[DecisionResponse] = []
        for shard in self.shards:
            for tickets, answers in shard.drain():
                responses.extend(self._absorb(tickets, answers, now))
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
        """A snapshot of :attr:`stats`, which the router counts whole."""
        return replace(self.stats)

    def worker_restarts(self) -> int:
        """Total shard-worker respawns after crashes."""
        return sum(shard.restarts for shard in self.shards)

    def close(self) -> None:
        """Stop every shard worker and flush telemetry (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.detach_telemetry()
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "FleetDecisionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Shard plumbing
    # ------------------------------------------------------------------
    def _dispatch(self, shard_index: int) -> None:
        """Hand a shard its buffer: one batch, one model pass."""
        buffer = self._buffers[shard_index]
        if not buffer:
            return
        self._buffers[shard_index] = []
        self.stats.batches_total += 1
        self.stats.accepted_total += len(buffer)
        self.stats.largest_batch = max(self.stats.largest_batch, len(buffer))
        for entry in buffer:
            self._inflight[entry.ticket] = (
                entry.request, self.model_version, entry.enqueued_s
            )
        self.shards[shard_index].dispatch(
            [entry.ticket for entry in buffer],
            [entry.request for entry in buffer],
        )

    def _collect(self, now: float) -> list[DecisionResponse]:
        if not self._inflight:
            return []
        responses: list[DecisionResponse] = []
        for shard in self.shards:
            for tickets, answers in shard.collect():
                responses.extend(self._absorb(tickets, answers, now))
        return responses

    def _absorb(
        self,
        tickets: list[int],
        answers: list[tuple[float, DecisionTrace]],
        now: float,
    ) -> list[DecisionResponse]:
        """Answer a shard's decided batch and update sessions."""
        responses: list[DecisionResponse] = []
        shadow_requests: list[DecisionRequest] = []
        shadow_fopts: list[float] = []
        for ticket, (fopt_hz, trace) in zip(tickets, answers):
            request, version, enqueued_s = self._inflight.pop(ticket)
            response = DecisionResponse(
                request_id=ticket,
                device_id=request.device_id,
                fopt_hz=fopt_hz,
                accepted=True,
                queue_delay_s=max(0.0, now - enqueued_s),
                trace=trace,
            )
            # A decision dispatched under an older model version must
            # not be anchored: the skip cache would replay it for the
            # new model's traffic.  The ticket is still answered.
            if self.skip_cache is not None and version == self.model_version:
                self.skip_cache.store(request, response, now)
            else:
                self.registry.record_decision(
                    device_id=request.device_id,
                    page=request.page,
                    corunner_mpki=request.corunner_mpki,
                    corunner_utilization=request.corunner_utilization,
                    temperature_c=request.temperature_c,
                    freq_hz=response.fopt_hz,
                    now=now,
                    deadline_s=request.deadline_s,
                )
            self._record_telemetry(request, response, now, version)
            if self._shadow is not None:
                shadow_requests.append(request)
                shadow_fopts.append(response.fopt_hz)
            responses.append(response)
        if self._shadow is not None and shadow_requests:
            self._shadow.score_batch(shadow_requests, shadow_fopts)
        return responses

    # ------------------------------------------------------------------
    # Telemetry streaming
    # ------------------------------------------------------------------
    def attach_telemetry(self, store) -> None:
        """Stream every served decision into a telemetry store.

        Args:
            store: A :class:`repro.learn.telemetry.TelemetryStore` (or
                anything with a ``writer(shard)`` factory returning
                append handles).  One writer per shard partition, so
                the store's single-writer-per-file contract holds.
        """
        self.detach_telemetry()
        self._telemetry_store = store

    def detach_telemetry(self) -> None:
        """Stop streaming and flush/close the open writers."""
        for writer in self._telemetry_writers.values():
            writer.close()
        self._telemetry_writers = {}
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

        shard_index = shard_for(request.device_id, self._shard_count)
        writer = self._telemetry_writers.get(shard_index)
        if writer is None:
            writer = self._telemetry_store.writer(shard_index)
            self._telemetry_writers[shard_index] = writer
        writer.append(
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
        """Replace the serving model without dropping in-flight tickets.

        The swap is a batch boundary: router buffers are dispatched
        first (those tickets are decided by the old model), then the
        swap rides the same FIFO channel as the batches -- serial
        shards swap immediately behind their synchronous dispatches,
        process shards get a ``swap`` pipe verb behind every already
        dispatched batch.  Nothing is drained and nothing stalls; the
        next ``collect``/``flush`` keeps harvesting pre-swap answers.

        Session anchors are cleared (a cached old-model decision must
        not be replayed for new-model traffic) and the model version is
        bumped, which also stops late-arriving pre-swap answers from
        re-anchoring (see :meth:`_absorb`).

        Args:
            predictor: The replacement bundle.
        """
        if self._closed:
            raise RuntimeError("cannot swap on a closed fleet")
        for shard_index in range(self._shard_count):
            self._dispatch(shard_index)
        for shard in self.shards:
            shard.swap(predictor)
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

    The router's one-shard, no-skip-cache configuration: every admitted
    request is evaluated, in-process (one shard never gets a worker
    process), so batch boundaries, queue delays and traces follow the
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
            FleetConfig(
                workers=1, service=config or ServiceConfig(), skip_cache=False
            ),
            clock=clock,
        )
