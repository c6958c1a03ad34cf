"""Module-level job functions for runtime tests.

Jobs reference these by dotted path (``tests.runtime.jobhelpers:fn``),
so they resolve in worker processes under any multiprocessing start
method, not just fork.
"""

from __future__ import annotations

import os
import time
from pathlib import Path


def echo(value):
    """Return the input (the smallest possible job)."""
    return value


def square(value):
    """value**2, tagged with the executing PID via a tuple."""
    return value * value


def pid_of_worker():
    """The PID of the process executing the job."""
    return os.getpid()


def crash_once(flag_dir: str):
    """Kill the worker process hard on the first call, succeed after.

    The flag file persists across the crash, so the retried job (in a
    rebuilt pool) takes the surviving branch.  ``os._exit`` skips all
    cleanup -- exactly what a segfaulting worker looks like to the
    parent (``BrokenProcessPool``).
    """
    flag = Path(flag_dir) / "crashed-once"
    if not flag.exists():
        flag.write_text("crashed")
        os._exit(23)
    return "survived"


def crash_always():
    """Kill the worker process on every attempt."""
    os._exit(23)


def sleep_then_return(seconds: float, value):
    """Sleep (to trip per-job timeouts), then return the value."""
    time.sleep(seconds)
    return value


def fail_with(message: str):
    """Raise a deterministic error."""
    raise ValueError(message)


def memoized_build(cache_dir: str, key: str, payload_size: int):
    """Hammer one memoized key (multi-process cache stress).

    Each process points the cache at the same directory and builds the
    same deterministic artifact; racing writers must never corrupt the
    published file.
    """
    os.environ["REPRO_CACHE_DIR"] = cache_dir  # repro: allow[R004]
    os.environ.pop("REPRO_NO_CACHE", None)  # repro: allow[R004]
    from repro.experiments import cache

    def build():
        # A payload large enough that the pickle write takes a
        # non-trivial window, widening the race surface.
        return {"key": key, "payload": list(range(payload_size))}

    return cache.memoized("stress", (key,), build)
