"""Shard workers: one long-lived decision pass per device partition.

The fleet front-end (:mod:`repro.serve.fleet`) hash-partitions devices
across N shards.  A shard evaluates each batch the router
dispatches to it exactly once, through its own
:class:`~repro.serve.service.DecisionPass` (and so its own vectorized
:class:`~repro.serve.batch_predictor.BatchDoraPredictor`), running
either in a worker process (:class:`ProcessShard`, built on
:class:`repro.runtime.pool.PersistentWorker`) or in the router's own
process (:class:`SerialShard`, the fallback the runtime's downgrade
rules select on single-CPU hosts, for one shard, or nested inside a
pool worker).  Admission, sessions, tickets and queue delays are the
router's; a shard only decides.

Both speak the same calls to the router:

* ``dispatch(tickets, requests)`` -- hand a sub-batch over (never
  blocks on the model pass in process mode);
* ``collect()`` / ``drain()`` -- harvest finished ``(tickets,
  answers)`` pairs, opportunistically or exhaustively, where
  ``answers`` holds one ``(fopt_hz, DecisionTrace)`` per ticket;
* ``swap(predictor)`` -- replace the decision pass behind every batch
  already dispatched.

Determinism: a request's answer is a pure function of its own feature
vector (the batch-invariance contract of
:func:`repro.core.ppw.select_fopt_rows`), so re-dispatching a batch to
a respawned worker after a crash returns the same bits -- retry is
idempotent by construction, which is why the router can reuse the
runtime pool's bounded-retry discipline wholesale.
"""

from __future__ import annotations

import time
import zlib
from typing import TYPE_CHECKING, Sequence

from repro.runtime.jobs import JobError
from repro.runtime.pool import (
    DEFAULT_BACKOFF_S,
    DEFAULT_MAX_ATTEMPTS,
    PersistentWorker,
)
from repro.serve.service import (
    DecisionPass,
    DecisionRequest,
    DecisionTrace,
    ServiceConfig,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.models.predictor import DoraPredictor

#: The pipe protocol's verbs, enumerated once.  The static gate's R103
#: checks that every dispatch site -- the worker loop for requests, the
#: router's reply pump for replies -- handles the complete set, so a
#: verb added here without both handlers fails `repro lint` instead of
#: hanging a pipe (or erroring a crash-recovery replay) at runtime.
SHARD_REQUEST_VERBS = frozenset({"decide", "swap", "stop"})

#: Replies the router-side pump must understand.
SHARD_REPLY_VERBS = frozenset({"ok", "swapped", "error"})

#: One dispatched batch's answers: its tickets, and one
#: ``(fopt_hz, trace)`` per ticket in the same order.
ShardResult = tuple[list[int], list[tuple[float, DecisionTrace]]]

#: Upper bound on un-collected batches per worker: dispatching past it
#: blocks on a collect first, so the reply pipe can never fill while
#: the router keeps writing the request pipe (a classic two-pipe
#: deadlock).
MAX_INFLIGHT_BATCHES = 8

#: Seconds a drain will wait on a live worker before declaring it hung.
DRAIN_TIMEOUT_S = 60.0


def shard_for(device_id: str, shards: int) -> int:
    """The stable shard index owning a device's session.

    CRC-32 of the UTF-8 device id, not Python's built-in ``hash``:
    the built-in is salted per process, and the partition must be
    identical across router restarts and between the router and any
    tooling that wants to predict placement.
    """
    if shards < 1:
        raise ValueError("need at least one shard")
    if shards == 1:
        return 0
    return zlib.crc32(device_id.encode("utf-8")) % shards


def shard_service_loop(conn, predictor, config: ServiceConfig) -> None:
    """Worker-process entry: serve decide/swap messages until stopped.

    Messages are tuples; the first element selects the verb:

    * ``("decide", seq, requests)`` -> ``("ok", seq, answers)`` with
      one ``(fopt_hz, trace)`` per request, positionally aligned with
      ``requests``, or ``("error", seq, message)`` if evaluation
      raised.
    * ``("swap", seq, predictor)`` -> ``("swapped", seq)``.  Replaces
      the decision pass.  The pipe is FIFO, so every ``decide`` sent
      before the swap is evaluated with the old model and every one
      after it with the new: the swap is a batch boundary by
      construction, and no ticket is ever dropped.
    * ``("stop",)`` -> exit the loop (no reply).
    """
    decision = DecisionPass(predictor, config)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # router went away
            break
        verb = message[0]
        if verb == "decide":
            _, seq, requests = message
            try:
                conn.send(("ok", seq, decision.decide(requests)))
            except Exception as exc:  # noqa: BLE001 - report, don't die
                conn.send(("error", seq, f"{type(exc).__name__}: {exc}"))
        elif verb == "swap":
            _, seq, new_predictor = message
            try:
                decision = DecisionPass(new_predictor, config)
                conn.send(("swapped", seq))
            except Exception as exc:  # noqa: BLE001 - report, don't die
                conn.send(("error", seq, f"{type(exc).__name__}: {exc}"))
        elif verb == "stop":
            break
        else:  # protocol bug: make it visible instead of hanging
            conn.send(("error", None, f"unknown verb {verb!r}"))


class SerialShard:
    """In-process shard: the behavioural reference for the worker kind.

    Used when the runtime downgrades to serial execution; ``dispatch``
    evaluates immediately and ``collect`` hands the buffered results
    back, so the router code path is identical either way.
    """

    def __init__(
        self, index: int, predictor: "DoraPredictor", config: ServiceConfig
    ) -> None:
        self.index = index
        self._config = config
        self.decision = DecisionPass(predictor, config)
        self.restarts = 0
        self._ready: list[ShardResult] = []

    def dispatch(self, tickets: list[int], requests: list[DecisionRequest]) -> None:
        """Evaluate a sub-batch immediately (serial has no pipeline)."""
        self._ready.append((tickets, self.decision.decide(requests)))

    def swap(self, predictor: "DoraPredictor") -> None:
        """Replace the shard's decision pass immediately.

        Serial dispatch evaluates synchronously, so every batch handed
        over before this call has already been decided by the old model
        -- the batch-boundary contract holds trivially.
        """
        self.decision = DecisionPass(predictor, self._config)

    def collect(self) -> list[ShardResult]:
        """All finished batches since the last collect."""
        ready = self._ready
        self._ready = []
        return ready

    def drain(self) -> list[ShardResult]:
        """Serial shards are always fully drained by a collect."""
        return self.collect()

    def close(self) -> None:
        """Nothing to tear down in-process."""


class ProcessShard:
    """Router-side handle of one shard worker process.

    Owns the in-flight bookkeeping the retry discipline needs: every
    dispatched batch is remembered until its reply arrives, so a
    crashed worker can be respawned (bounded by ``max_attempts``
    submission attempts per batch, with the pool's exponential
    backoff) and the lost batches re-sent in order.  Because decisions
    are deterministic per request, the retried answers are bit-equal
    to what the dead worker would have produced.
    """

    def __init__(
        self,
        index: int,
        predictor: "DoraPredictor",
        config: ServiceConfig,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_s: float = DEFAULT_BACKOFF_S,
    ) -> None:
        self.index = index
        self.max_attempts = max(1, max_attempts)
        self.backoff_s = backoff_s
        self.restarts = 0
        self._seq = 0
        self._config = config
        #: seq -> tagged entry, insertion-ordered so recovery
        #: re-dispatches in the original order.  Entries are either
        #: ``("decide", tickets, requests, attempts)`` or
        #: ``("swap", predictor, attempts)`` -- the tag keeps a
        #: respawn-and-replay faithful to the original verb sequence,
        #: so batches sent before a swap are still decided by the old
        #: model even across a worker crash.
        self._inflight: dict[int, tuple] = {}
        self._ready: list[ShardResult] = []
        self.worker = PersistentWorker(
            shard_service_loop,
            args=(predictor, config),
            name=f"shard-{index}",
        )

    def dispatch(self, tickets: list[int], requests: list[DecisionRequest]) -> None:
        """Send a sub-batch to the worker without waiting for the pass."""
        while len(self._inflight) >= MAX_INFLIGHT_BATCHES:
            self._pump(block=True)
        seq = self._seq
        self._seq += 1
        self._inflight[seq] = ("decide", list(tickets), list(requests), 1)
        try:
            self.worker.send(("decide", seq, requests))
        except (BrokenPipeError, OSError):
            self._recover()

    def swap(self, predictor: "DoraPredictor") -> None:
        """Queue a model swap behind every batch already dispatched.

        The request pipe is FIFO: the worker evaluates all earlier
        ``decide`` messages with the old model before it sees the swap,
        so the swap is a batch boundary without any drain or stall.
        The worker's respawn args are updated only once the swap is
        acknowledged -- a crash *before* the ack replays the tagged
        verb sequence in order (old model for pre-swap batches, then
        the swap, then post-swap batches), a crash *after* it respawns
        straight onto the new model.
        """
        while len(self._inflight) >= MAX_INFLIGHT_BATCHES:
            self._pump(block=True)
        seq = self._seq
        self._seq += 1
        self._inflight[seq] = ("swap", predictor, 1)
        try:
            self.worker.send(("swap", seq, predictor))
        except (BrokenPipeError, OSError):
            self._recover()

    def collect(self) -> list[ShardResult]:
        """Finished batches whose replies have already arrived."""
        if not self._inflight and not self._ready:
            return []  # nothing pending: skip the pipe poll syscall
        self._pump(block=False)
        ready = self._ready
        self._ready = []
        return ready

    def drain(self) -> list[ShardResult]:
        """Block until every dispatched batch has been answered."""
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while self._inflight:
            self._pump(block=True)
            if time.perf_counter() > deadline:
                raise JobError(
                    f"shard {self.index}: worker unresponsive for "
                    f"{DRAIN_TIMEOUT_S:.0f}s with "
                    f"{len(self._inflight)} batches in flight"
                )
        ready = self._ready
        self._ready = []
        return ready

    def close(self) -> None:
        """Stop the worker process."""
        self.worker.stop(message=("stop",))

    # ------------------------------------------------------------------
    # Reply pumping and crash recovery
    # ------------------------------------------------------------------
    def _pump(self, block: bool) -> None:
        """Move arrived replies from the pipe into the ready list."""
        try:
            waited = False
            while True:
                timeout = 0.05 if (block and not waited) else 0.0
                if not self.worker.poll(timeout):
                    if block and not self.worker.alive:
                        raise EOFError
                    if block and not waited:
                        waited = True
                        continue
                    return
                self._handle(self.worker.recv())
                if block:
                    return  # made progress; caller loops if it needs more
        except (EOFError, OSError):
            self._recover()

    def _handle(self, reply: tuple) -> None:
        verb, seq = reply[0], reply[1]
        if verb == "ok":
            entry = self._inflight.pop(seq, None)
            if entry is not None:
                self._ready.append((entry[1], reply[2]))
        elif verb == "swapped":
            entry = self._inflight.pop(seq, None)
            if entry is not None:
                # The worker now serves the new model; make a future
                # respawn start from it instead of the original bundle.
                self.worker.args = (entry[1], self._config)
        elif verb == "error":
            self._inflight.pop(seq, None)
            raise JobError(f"shard {self.index}: worker error: {reply[2]}")
        else:
            raise JobError(f"shard {self.index}: unknown reply {verb!r}")

    def _recover(self) -> None:
        """Respawn the worker and re-send every in-flight verb in order."""
        retry = list(self._inflight.items())
        for seq, entry in retry:
            attempts = entry[-1]
            if attempts >= self.max_attempts:
                what = (
                    f"batch of {len(entry[1])}"
                    if entry[0] == "decide"
                    else "model swap"
                )
                raise JobError(
                    f"shard {self.index}: worker crashed with {what} "
                    f"still failing after {attempts} attempts"
                )
        self.restarts += 1
        time.sleep(self.backoff_s * (2 ** (self.restarts - 1)))
        self.worker.restart()
        self._inflight = {}
        for seq, entry in retry:
            try:
                if entry[0] == "decide":
                    _, tickets, requests, attempts = entry
                    self._inflight[seq] = ("decide", tickets, requests, attempts + 1)
                    self.worker.send(("decide", seq, requests))
                else:
                    _, predictor, attempts = entry
                    self._inflight[seq] = ("swap", predictor, attempts + 1)
                    self.worker.send(("swap", seq, predictor))
            except (BrokenPipeError, OSError):
                self._recover()
                return


def make_shards(
    predictor: "DoraPredictor",
    config: ServiceConfig,
    shards: int,
    process_based: bool,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    backoff_s: float = DEFAULT_BACKOFF_S,
) -> Sequence[SerialShard] | Sequence[ProcessShard]:
    """Build the shard set, worker-backed or in-process."""
    if process_based:
        return [
            ProcessShard(
                index, predictor, config,
                max_attempts=max_attempts, backoff_s=backoff_s,
            )
            for index in range(shards)
        ]
    return [SerialShard(index, predictor, config) for index in range(shards)]
