"""Pool behavior: serial fallback, crash retry, timeouts, cache pass.

These tests use tiny dotted-path jobs (``tests.runtime.jobhelpers``)
so each scenario runs in milliseconds; the simulation-level behavior
is covered by the determinism tests.
"""

import os

import pytest

import repro.runtime.pool as pool_module
from repro.runtime import (
    Job,
    JobError,
    configure,
    in_worker,
    resolve_workers,
    run_jobs,
)


@pytest.fixture(autouse=True)
def clean_runtime_config(monkeypatch):
    """Each test starts from unconfigured defaults and a clean env."""
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    monkeypatch.delenv(pool_module.WORKER_ENV, raising=False)
    monkeypatch.delenv(pool_module.FORCE_POOL_ENV, raising=False)
    configure(workers=None, progress=None)
    yield
    configure(workers=None, progress=None)


def _echo_jobs(count):
    return [
        Job(kind="tests.runtime.jobhelpers:echo", spec={"value": i})
        for i in range(count)
    ]


class TestWorkerResolution:
    def test_defaults_to_serial(self):
        assert resolve_workers(None) == 0

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(2) == 2
        assert resolve_workers(0) == 0

    def test_env_variable_is_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3

    def test_env_zero_forces_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert resolve_workers(None) == 0

    def test_garbage_env_means_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        assert resolve_workers(None) == 0

    def test_configure_sets_the_default(self):
        configure(workers=5)
        assert resolve_workers(None) == 5

    def test_nested_calls_inside_workers_stay_serial(self, monkeypatch):
        monkeypatch.setenv(pool_module.WORKER_ENV, "1")
        monkeypatch.setenv("REPRO_WORKERS", "8")
        assert in_worker()
        assert resolve_workers(None) == 0


class TestSerialExecution:
    def test_results_in_submission_order(self):
        results = run_jobs(_echo_jobs(5), workers=0)
        assert [r.value for r in results] == [0, 1, 2, 3, 4]
        assert all(r.worker_pid == os.getpid() for r in results)

    def test_repro_workers_zero_env_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        results = run_jobs(_echo_jobs(3))
        assert all(r.worker_pid == os.getpid() for r in results)

    def test_errors_raise_by_default(self):
        jobs = [
            Job(kind="tests.runtime.jobhelpers:fail_with",
                spec={"message": "kaboom"}, label="bad")
        ]
        with pytest.raises(JobError, match="kaboom"):
            run_jobs(jobs, workers=0)

    def test_errors_collected_when_not_raising(self):
        jobs = _echo_jobs(1) + [
            Job(kind="tests.runtime.jobhelpers:fail_with",
                spec={"message": "kaboom"})
        ]
        results = run_jobs(jobs, workers=0, raise_on_error=False)
        assert results[0].ok and results[0].value == 0
        assert not results[1].ok
        assert "kaboom" in results[1].error

    def test_serial_timeout_enforced(self):
        jobs = [
            Job(
                kind="tests.runtime.jobhelpers:sleep_then_return",
                spec={"seconds": 30.0, "value": "never"},
                timeout_s=0.2,
            )
        ]
        results = run_jobs(jobs, workers=0, raise_on_error=False)
        assert not results[0].ok
        assert "timed out" in results[0].error


class TestPoolExecution:
    @pytest.fixture(autouse=True)
    def force_pool(self, monkeypatch):
        """Exercise the pool machinery even on single-CPU hosts."""
        monkeypatch.setenv(pool_module.FORCE_POOL_ENV, "1")

    def test_jobs_run_in_worker_processes(self):
        jobs = [
            Job(kind="tests.runtime.jobhelpers:pid_of_worker")
            for _ in range(4)
        ]
        results = run_jobs(jobs, workers=2)
        assert all(r.value != os.getpid() for r in results)
        assert all(r.value == r.worker_pid for r in results)

    def test_results_in_submission_order(self):
        results = run_jobs(_echo_jobs(8), workers=4)
        assert [r.value for r in results] == list(range(8))

    def test_per_job_timeout(self):
        jobs = [
            Job(
                kind="tests.runtime.jobhelpers:sleep_then_return",
                spec={"seconds": 30.0, "value": "never"},
                timeout_s=0.2,
                label="sleeper",
            ),
            Job(kind="tests.runtime.jobhelpers:echo", spec={"value": "ok"}),
        ]
        results = run_jobs(jobs, workers=2, raise_on_error=False)
        assert not results[0].ok
        assert "timed out" in results[0].error
        assert results[1].value == "ok"

    def test_crashed_worker_job_is_retried_and_completes(self, tmp_path):
        jobs = [
            Job(
                kind="tests.runtime.jobhelpers:crash_once",
                spec={"flag_dir": str(tmp_path)},
                label="crasher",
            )
        ]
        lines = []
        results = run_jobs(jobs, workers=2, progress=lines.append)
        assert results[0].value == "survived"
        assert results[0].attempts >= 2
        assert any("retrying crasher" in line for line in lines)

    def test_suite_survives_a_crash_among_healthy_jobs(self, tmp_path):
        jobs = _echo_jobs(4) + [
            Job(
                kind="tests.runtime.jobhelpers:crash_once",
                spec={"flag_dir": str(tmp_path)},
            )
        ]
        results = run_jobs(jobs, workers=2)
        assert [r.value for r in results[:4]] == [0, 1, 2, 3]
        assert results[4].value == "survived"

    def test_always_crashing_job_fails_after_bounded_attempts(self):
        jobs = [Job(kind="tests.runtime.jobhelpers:crash_always", label="dead")]
        results = run_jobs(
            jobs, workers=2, max_attempts=2, raise_on_error=False,
            backoff_s=0.01,
        )
        assert not results[0].ok
        assert results[0].attempts == 2
        assert "crashed" in results[0].error

    def test_unstartable_pool_degrades_to_serial(self, monkeypatch):
        def explode(*args, **kwargs):
            raise OSError("no more processes")

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", explode)
        lines = []
        results = run_jobs(_echo_jobs(3), workers=4, progress=lines.append)
        assert [r.value for r in results] == [0, 1, 2]
        assert all(r.worker_pid == os.getpid() for r in results)
        assert any("pool unavailable" in line for line in lines)


class TestSerialDowngrade:
    def test_single_worker_runs_serially(self):
        lines = []
        results = run_jobs(_echo_jobs(3), workers=1, progress=lines.append)
        assert [r.value for r in results] == [0, 1, 2]
        assert all(r.worker_pid == os.getpid() for r in results)
        assert any("running serially" in line for line in lines)

    def test_single_cpu_host_runs_serially(self, monkeypatch):
        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 1)
        lines = []
        results = run_jobs(_echo_jobs(3), workers=4, progress=lines.append)
        assert all(r.worker_pid == os.getpid() for r in results)
        assert any("single-CPU host" in line for line in lines)

    def test_force_pool_overrides_the_downgrade(self, monkeypatch):
        monkeypatch.setenv(pool_module.FORCE_POOL_ENV, "1")
        jobs = [Job(kind="tests.runtime.jobhelpers:pid_of_worker")]
        results = run_jobs(jobs, workers=1)
        assert results[0].value != os.getpid()

    def test_two_workers_on_multicore_keep_the_pool(self, monkeypatch):
        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 4)
        jobs = [
            Job(kind="tests.runtime.jobhelpers:pid_of_worker")
            for _ in range(2)
        ]
        results = run_jobs(jobs, workers=2)
        assert all(r.value != os.getpid() for r in results)


class TestCacheAwareScheduling:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)

    def _cached_job(self, value):
        return Job(
            kind="tests.runtime.jobhelpers:echo",
            spec={"value": value},
            cache_family="unit",
            cache_key=("echo", value),
        )

    def test_warm_jobs_skip_execution(self):
        from repro.experiments import cache

        cache.store("unit", ("echo", 1), "from-the-cache")
        results = run_jobs([self._cached_job(1)], workers=0)
        assert results[0].from_cache
        assert results[0].value == "from-the-cache"

    def test_cold_jobs_execute(self):
        results = run_jobs([self._cached_job(2)], workers=0)
        assert not results[0].from_cache
        assert results[0].value == 2

    def test_progress_reports_cache_hits(self):
        from repro.experiments import cache

        cache.store("unit", ("echo", 3), 3)
        lines = []
        run_jobs(
            [self._cached_job(3), self._cached_job(4)],
            workers=0,
            progress=lines.append,
        )
        assert any("1 cached" in line for line in lines)
