"""The worker pool: fan jobs out, survive crashes, stay deterministic.

:func:`run_jobs` is the single entry point.  It takes a batch of
:class:`~repro.runtime.jobs.Job` and returns one
:class:`~repro.runtime.jobs.JobResult` per job, **in submission
order** regardless of completion order -- callers that previously
looped serially get an identical result list.

Execution strategy, in order:

1. **Cache pass.**  Jobs carrying ``(cache_family, cache_key)`` are
   checked against :mod:`repro.experiments.cache` up front; hits never
   reach the pool.  The pool only *reads* the cache -- workers write
   it themselves through their own ``memoized`` calls, so there is no
   double pickling and the cache stays the one source of truth.
2. **Parallel pass.**  Remaining jobs go to a
   :class:`~concurrent.futures.ProcessPoolExecutor`.  Worker crashes
   surface as :class:`BrokenProcessPool`; the pool is rebuilt and the
   unfinished jobs resubmitted with exponential backoff, bounded by
   ``max_attempts`` per job.  Per-job wall-clock timeouts are enforced
   *inside* the executing process via ``SIGALRM`` (works identically
   for the serial path), so a hung job cannot wedge the batch.
3. **Serial fallback.**  ``REPRO_WORKERS=0`` (or unset), a nested
   call from inside a worker, or a pool that cannot start at all --
   each degrades to in-process execution with the same cache pass,
   the same progress events, and byte-identical results.

Worker-count resolution: explicit ``workers=`` argument, then
:func:`configure`'s process-wide default, then the ``REPRO_WORKERS``
environment variable, then serial.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Sequence

from repro.runtime.jobs import Job, JobError, JobResult, execute
from repro.runtime.progress import ProgressTracker

#: Environment flag marking a process as a pool worker; nested
#: ``run_jobs`` calls inside workers stay serial instead of forking a
#: pool-per-worker explosion.
WORKER_ENV = "REPRO_WORKER_PROCESS"

#: Environment variable selecting the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: Set to ``1`` to force pool execution even where the runtime would
#: downgrade to serial (single worker / single-CPU host).  Used by the
#: pool's own tests; not meant for production runs.
FORCE_POOL_ENV = "REPRO_FORCE_POOL"

DEFAULT_MAX_ATTEMPTS = 3
DEFAULT_BACKOFF_S = 0.05

_UNSET = object()
_default_workers: int | None = None
_default_progress: Callable[[str], None] | None = None


class JobTimeoutError(Exception):
    """Raised inside a job when its wall-clock budget expires."""


def configure(workers: Any = _UNSET, progress: Any = _UNSET) -> None:
    """Set process-wide runtime defaults (used by the CLI).

    Args:
        workers: Default worker count for ``run_jobs(workers=None)``;
            ``None`` restores environment-variable resolution.
        progress: Default progress-line callback; ``None`` silences.
    """
    global _default_workers, _default_progress
    if workers is not _UNSET:
        _default_workers = None if workers is None else max(0, int(workers))
    if progress is not _UNSET:
        _default_progress = progress


def in_worker() -> bool:
    """Whether the current process is a runtime pool worker."""
    return os.environ.get(WORKER_ENV) == "1"


def resolve_workers(workers: int | None = None) -> int:
    """The effective worker count (0 = serial in-process).

    Resolution order: explicit argument, :func:`configure` default,
    ``REPRO_WORKERS``, serial.  Inside a pool worker the answer is
    always 0.
    """
    if workers is not None:
        return max(0, int(workers))
    if in_worker():
        return 0
    if _default_workers is not None:
        return _default_workers
    env = os.environ.get(WORKERS_ENV, "")
    if env:
        try:
            return max(0, int(env))
        except ValueError:
            pass
    return 0


# ----------------------------------------------------------------------
# Job execution (runs in workers and in the serial fallback)
# ----------------------------------------------------------------------
@contextmanager
def _deadline(seconds: float | None):
    """Enforce a wall-clock budget on the enclosed block via SIGALRM.

    No-op when no budget is set, on platforms without SIGALRM, or off
    the main thread (signals only deliver there).
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _expire(signum, frame):
        raise JobTimeoutError()

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _execute_job(job: Job) -> tuple[str, Any, float, int, str | None]:
    """Run one job, capturing outcome as picklable plain data.

    Returns ``(status, value, duration_s, pid, error)`` with status in
    ``{"ok", "timeout", "error"}``.  Exceptions never propagate -- a
    raised exception would otherwise poison the future and be
    indistinguishable from a crash.
    """
    started = time.perf_counter()
    pid = os.getpid()
    try:
        with _deadline(job.timeout_s):
            value = execute(job)
        return ("ok", value, time.perf_counter() - started, pid, None)
    except JobTimeoutError:
        return (
            "timeout",
            None,
            time.perf_counter() - started,
            pid,
            f"timed out after {job.timeout_s:.1f}s",
        )
    except BaseException as exc:  # noqa: BLE001 -- report, don't crash
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        return (
            "error",
            None,
            time.perf_counter() - started,
            pid,
            f"{type(exc).__name__}: {exc}",
        )


def _worker_init() -> None:
    """Mark the process as a worker (disables nested pools)."""
    os.environ[WORKER_ENV] = "1"


def serial_downgrade_reason(workers: int) -> str | None:
    """Why a process pool would lose to serial execution (``None`` = it
    wouldn't).

    A single-worker pool pays fork + pickle + IPC overhead with zero
    parallelism in return (benchmarked at ~0.86x serial throughput on
    the experiment batch), and a single-CPU host cannot run workers
    concurrently at all.  ``REPRO_FORCE_POOL=1`` bypasses the
    downgrade so the pool machinery itself stays testable anywhere.
    """
    if os.environ.get(FORCE_POOL_ENV) == "1":
        return None
    if workers == 1:
        return "1 worker adds pool overhead without parallelism"
    if (os.cpu_count() or 1) <= 1:
        return "single-CPU host"
    return None


def mp_context():
    """Fork where available (inherits registered job kinds); else default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


# ----------------------------------------------------------------------
# The batch runner
# ----------------------------------------------------------------------
def run_jobs(
    jobs: Iterable[Job],
    workers: int | None = None,
    progress: Callable[[str], None] | None = None,
    label: str = "jobs",
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    backoff_s: float = DEFAULT_BACKOFF_S,
    raise_on_error: bool = True,
) -> list[JobResult]:
    """Execute a batch of jobs and return results in submission order.

    Args:
        jobs: The batch.
        workers: Worker processes; ``None`` resolves via
            :func:`resolve_workers`, ``0`` forces serial.
        progress: Progress-line callback for this batch (defaults to
            the :func:`configure` hook).
        label: Batch name for progress lines.
        max_attempts: Submission attempts per job across pool rebuilds.
        backoff_s: Base sleep before a pool rebuild (doubles per
            consecutive crash round).
        raise_on_error: Raise :class:`JobError` if any job failed;
            with ``False`` failures come back as error-carrying
            results.

    Returns:
        One :class:`JobResult` per job, aligned with the input order.
    """
    jobs = list(jobs)
    callback = progress if progress is not None else _default_progress
    resolved_workers = resolve_workers(workers)
    downgrade = None
    if resolved_workers > 0:
        downgrade = serial_downgrade_reason(resolved_workers)
        if downgrade is not None:
            resolved_workers = 0
    tracker = ProgressTracker(
        total=len(jobs),
        label=label,
        callback=callback,
        concurrency=resolved_workers,
    )
    if downgrade is not None:
        tracker.note(f"[{label}] running serially ({downgrade})")
    results: list[JobResult | None] = [None] * len(jobs)

    pending: list[int] = []
    for index, job in enumerate(jobs):
        hit, value = _cache_peek(job)
        if hit:
            results[index] = JobResult(
                job=job, index=index, value=value, from_cache=True
            )
            tracker.cached(job)
        else:
            pending.append(index)

    if pending:
        worker_count = resolved_workers
        if worker_count <= 0:
            _run_serial(jobs, pending, results, tracker)
        else:
            _run_pool(
                jobs,
                pending,
                results,
                tracker,
                workers=worker_count,
                max_attempts=max(1, max_attempts),
                backoff_s=backoff_s,
            )
    tracker.close()

    final = [result for result in results if result is not None]
    if raise_on_error:
        failures = [result for result in final if not result.ok]
        if failures:
            first = failures[0]
            raise JobError(
                f"{len(failures)}/{len(jobs)} jobs failed; first: "
                f"{first.job.display_label}: {first.error}"
            )
    return final


def _cache_peek(job: Job) -> tuple[bool, Any]:
    """Check the artifact cache for a job's result before submitting."""
    if job.cache_family is None or job.cache_key is None:
        return False, None
    from repro.experiments.cache import peek

    return peek(job.cache_family, job.cache_key)


def _record(
    results: list[JobResult | None],
    tracker: ProgressTracker,
    job: Job,
    index: int,
    outcome: tuple[str, Any, float, int, str | None],
    attempts: int,
) -> None:
    status, value, duration, pid, error = outcome
    if status == "ok":
        results[index] = JobResult(
            job=job,
            index=index,
            value=value,
            duration_s=duration,
            attempts=attempts,
            worker_pid=pid,
        )
        tracker.finished(job, duration)
    else:
        results[index] = JobResult(
            job=job,
            index=index,
            error=error,
            duration_s=duration,
            attempts=attempts,
            worker_pid=pid,
        )
        tracker.failed(job, error or status)


def _run_serial(
    jobs: Sequence[Job],
    indices: Iterable[int],
    results: list[JobResult | None],
    tracker: ProgressTracker,
) -> None:
    """In-process execution: the behavioral reference for the pool."""
    for index in indices:
        job = jobs[index]
        tracker.started(job)
        _record(results, tracker, job, index, _execute_job(job), attempts=1)


def _run_pool(
    jobs: Sequence[Job],
    pending: list[int],
    results: list[JobResult | None],
    tracker: ProgressTracker,
    workers: int,
    max_attempts: int,
    backoff_s: float,
) -> None:
    """Pool execution with crash retry; falls back to serial if the
    pool cannot be (re)built."""
    attempts = {index: 0 for index in pending}
    waiting = list(pending)
    crash_rounds = 0
    while waiting:
        try:
            executor = ProcessPoolExecutor(
                max_workers=min(workers, len(waiting)),
                mp_context=mp_context(),
                initializer=_worker_init,
            )
        except Exception as exc:  # noqa: BLE001 - any startup failure
            tracker.note(
                f"[{tracker.label}] worker pool unavailable "
                f"({type(exc).__name__}: {exc}); running serially"
            )
            _run_serial(jobs, waiting, results, tracker)
            return

        retry: list[int] = []
        try:
            future_map = {}
            for index in waiting:
                attempts[index] += 1
                tracker.started(jobs[index])
                future_map[executor.submit(_execute_job, jobs[index])] = index
            for future in as_completed(future_map):
                index = future_map[future]
                job = jobs[index]
                try:
                    outcome = future.result()
                except (BrokenProcessPool, CancelledError):
                    _retry_or_fail(
                        job, index, attempts, max_attempts, retry,
                        results, tracker,
                    )
                    continue
                _record(
                    results, tracker, job, index, outcome, attempts[index]
                )
        except BrokenProcessPool:
            # The break surfaced outside a future (e.g. at submit time);
            # the per-index sweep below classifies the casualties.
            pass
        finally:
            # wait=True: every future is already resolved here (or the
            # pool is broken and its processes are dead), so the join
            # is immediate -- and it deregisters the management thread
            # before interpreter exit, avoiding a shutdown race with
            # concurrent.futures' atexit hook on Python 3.11.
            executor.shutdown(wait=True, cancel_futures=True)

        for index in waiting:
            if results[index] is None and index not in retry:
                _retry_or_fail(
                    jobs[index], index, attempts, max_attempts, retry,
                    results, tracker,
                )

        waiting = retry
        if waiting:
            crash_rounds += 1
            time.sleep(backoff_s * (2 ** (crash_rounds - 1)))


def _retry_or_fail(
    job: Job,
    index: int,
    attempts: dict[int, int],
    max_attempts: int,
    retry: list[int],
    results: list[JobResult | None],
    tracker: ProgressTracker,
) -> None:
    """Classify a crash casualty: resubmit or fail terminally."""
    if attempts[index] < max_attempts:
        retry.append(index)
        tracker.retrying(job, attempts[index])
    else:
        error = f"worker crashed ({attempts[index]} attempts)"
        results[index] = JobResult(
            job=job, index=index, error=error, attempts=attempts[index]
        )
        tracker.failed(job, error)
