"""Runtime throughput: serial vs parallel suite evaluation.

Times a six-combo suite evaluation cold (``REPRO_NO_CACHE=1``) both
serially and over four workers, records the measured speedup in
``BENCH_runtime.json`` at the repo root (with the shared bench
envelope, under the command name ``runtime-bench``: this bench runs
only under pytest), and — on machines with enough cores to make the
bar meaningful — asserts the >= 2.5x acceptance threshold.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.experiments.harness import HarnessConfig, evaluate_suite
from repro.experiments.reporting import bench_envelope, write_bench_record
from repro.experiments.suite import WorkloadCombo
from repro.models.training import TrainingConfig, run_campaign, train_models
from repro.workloads.classification import MemoryIntensity

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_runtime.json"

SIX_COMBOS = (
    WorkloadCombo("amazon", "kmeans", MemoryIntensity.LOW, True),
    WorkloadCombo("amazon", "bfs", MemoryIntensity.MEDIUM, True),
    WorkloadCombo("amazon", "backprop", MemoryIntensity.HIGH, True),
    WorkloadCombo("espn", "hotspot", MemoryIntensity.LOW, True),
    WorkloadCombo("espn", "srad2", MemoryIntensity.MEDIUM, True),
    WorkloadCombo("espn", "needleman-wunsch", MemoryIntensity.HIGH, True),
)

GOVERNORS = ("interactive", "performance", "EE")


@pytest.fixture(scope="module")
def bench_predictor():
    """A small trained predictor, built outside the timed sections."""
    training = TrainingConfig(
        pages=("amazon", "espn"),
        freqs_hz=(729.6e6, 1190.4e6, 1728.0e6, 2265.6e6),
        dt_s=0.004,
        seed=7,
    )
    return train_models(run_campaign(training)).predictor


def _timed_suite(predictor, config, workers):
    start = time.perf_counter()
    results = evaluate_suite(
        predictor, combos=SIX_COMBOS, governors=GOVERNORS,
        config=config, workers=workers,
    )
    return time.perf_counter() - start, results


def test_parallel_suite_throughput(bench_predictor, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")  # cold cache in both runs
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    config = HarnessConfig(dt_s=0.004)
    workers = 4

    serial_s, serial = _timed_suite(bench_predictor, config, workers=0)
    parallel_s, parallel = _timed_suite(bench_predictor, config, workers=workers)
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")

    record = {
        "envelope": bench_envelope("runtime-bench"),
        "combos": len(SIX_COMBOS),
        "governors": list(GOVERNORS),
        "dt_s": config.dt_s,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(speedup, 3),
        "workers": workers,
        "cpu_count": os.cpu_count(),
    }
    write_bench_record(BENCH_PATH, record)

    # Parallelism must never change the numbers.
    for lhs, rhs in zip(serial, parallel):
        assert lhs.runs.keys() == rhs.runs.keys()
        for name in lhs.runs:
            assert lhs.runs[name] == rhs.runs[name]

    # The speedup bar only means something with real cores under it.
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.5, (
            f"expected >= 2.5x on {os.cpu_count()} cores, got {speedup:.2f}x"
        )
