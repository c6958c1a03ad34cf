"""Serve throughput: batched decision service vs the scalar loop.

Replays a harvested counter-trace fleet through the micro-batching
decision service -- ``run_fleet_bench`` without the skip cache --
and times the identical request stream through the scalar
per-request path (full prediction table + select_fopt per request,
exactly DORA's on-device loop).  Records latency percentiles,
throughput and the measured speedup in ``BENCH_serve.json`` at the
repo root, asserts the >= 5x acceptance bar at batch >= 64, and
re-checks the bit-equivalence of every served fopt.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.harness import HarnessConfig
from repro.experiments.reporting import write_bench_record
from repro.experiments.suite import all_combos
from repro.models.training import TrainingConfig, run_campaign, train_models
from repro.serve.loadgen import LoadgenConfig, run_fleet_bench

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_serve.json"


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


def test_batched_service_throughput(bench_predictor):
    config = LoadgenConfig(
        devices=32,
        requests=512,
        target_qps=200_000,  # arrivals outpace the wait budget: full batches
        max_batch_size=64,
        max_wait_s=0.005,
    )
    result = run_fleet_bench(
        bench_predictor,
        config,
        harness_config=HarnessConfig(dt_s=0.004),
        combos=all_combos()[:6],
        skip_cache=False,
    )
    write_bench_record(BENCH_PATH, result.to_record())
    record = json.loads(BENCH_PATH.read_text())

    # Every served fopt must equal the scalar answer -- bit-identical.
    assert result.fopt_mismatches_vs_scalar == 0
    assert result.fopt_mismatches_vs_single == 0

    # The replay actually exercised large batches.
    assert result.fleet_report.stats.largest_batch == 64
    assert result.fleet_report.stats.mean_batch_size() >= 32

    # Acceptance bar: the vectorized batch path clears 5x the scalar
    # per-request loop.
    assert record["speedup_vs_scalar"] >= 5.0, (
        f"expected >= 5x over the scalar loop, got "
        f"{record['speedup_vs_scalar']:.2f}x "
        f"({record['throughput_rps']:.0f} vs {record['scalar_rps']:.0f} rps)"
    )

    # The record is a complete, plottable artifact.
    for key in ("latency", "throughput_rps", "scalar_rps", "speedup_vs_scalar"):
        assert key in record
    assert record["latency"]["p99_ms"] >= record["latency"]["p50_ms"]
