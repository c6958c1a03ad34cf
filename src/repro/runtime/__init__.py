"""Parallel experiment execution runtime.

Independent simulation runs -- suite evaluations, frequency sweeps,
training-campaign measurements -- are embarrassingly parallel.  This
package fans them out over a process pool while keeping results
**bit-identical** to the serial path:

* :mod:`repro.runtime.jobs` -- the picklable :class:`Job` /
  :class:`JobResult` abstraction and the built-in job kinds.  Jobs
  carry specs (names + configs), never live objects; workers rebuild
  governors locally.
* :mod:`repro.runtime.pool` -- :func:`run_jobs`: cache-aware
  scheduling, per-job wall-clock timeouts, bounded crash retry with
  backoff, and graceful serial fallback (``REPRO_WORKERS=0``, nested
  calls, or an unstartable pool), with :func:`serial_downgrade_reason`
  deciding when a pool would lose to serial execution.
* :mod:`repro.runtime.progress` -- job-level telemetry with periodic
  one-line reports, hooked by the CLI's ``--workers`` flag.

Typical use::

    from repro.runtime import Job, run_jobs

    jobs = [Job(kind="evaluate-combo", spec=..., cache_family=..., cache_key=...)]
    results = run_jobs(jobs, workers=4, label="evaluate-suite")
    values = [r.value for r in results]
"""

from repro.runtime.jobs import (
    GovernorRunOutcome,
    Job,
    JobError,
    JobResult,
    execute,
    register,
    resolve,
)
from repro.runtime.pool import (
    JobTimeoutError,
    WORKER_ENV,
    WORKERS_ENV,
    configure,
    in_worker,
    mp_context,
    resolve_workers,
    run_jobs,
    serial_downgrade_reason,
)
from repro.runtime.progress import ProgressSnapshot, ProgressTracker

__all__ = [
    "GovernorRunOutcome",
    "Job",
    "JobError",
    "JobResult",
    "JobTimeoutError",
    "ProgressSnapshot",
    "ProgressTracker",
    "WORKER_ENV",
    "WORKERS_ENV",
    "configure",
    "execute",
    "in_worker",
    "mp_context",
    "register",
    "resolve",
    "resolve_workers",
    "run_jobs",
    "serial_downgrade_reason",
]
