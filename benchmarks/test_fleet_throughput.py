"""Fleet throughput: sharded serving + skip cache vs its two baselines.

Replays one harvested counter-trace stream (with a deterministic
per-device revisit pattern, so the skip cache sees realistic repeat
traffic) three ways -- through the sharded
:class:`~repro.serve.fleet.FleetDecisionService`, through one plain
:class:`~repro.serve.fleet.DecisionService`, and through the scalar
per-request loop -- and records the ``BENCH_fleet.json`` artifact at
the repo root.

Acceptance bars (ISSUE 5): at >= 4 workers the fleet clears >= 3x the
single-process batched throughput, every fopt is bit-identical to both
baselines, and the skip rate is non-zero.
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

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_fleet.json"


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


def test_fleet_throughput(bench_predictor):
    config = LoadgenConfig(
        devices=32,
        requests=4096,
        target_qps=5000.0,
        max_batch_size=64,
        max_wait_s=0.005,
        revisit_period=16,
    )
    result = run_fleet_bench(
        bench_predictor,
        config,
        harness_config=HarnessConfig(dt_s=0.004),
        combos=all_combos()[:6],
        workers=4,
    )
    write_bench_record(BENCH_PATH, result.to_record())
    record = json.loads(BENCH_PATH.read_text())

    # Bit-identity across the whole topology: fleet == single-process
    # batched service == scalar DoraGovernor loop, for every request.
    assert result.fopt_mismatches_vs_single == 0
    assert result.fopt_mismatches_vs_scalar == 0

    # The revisit pattern produced real skip-cache traffic: 15 of
    # every 16 steady-state requests repeat the previous vector.
    assert result.fleet_report.stats.skips_total > 0
    assert record["skip_rate"] > 0.5
    # The single-process baseline has no skip cache.
    assert result.single_report.stats.skips_total == 0

    # Nothing crashed mid-bench.
    assert record["worker_restarts"] == 0

    # Acceptance bar: >= 3x the single-process batched service at
    # >= 4 workers (carried by parallel shards on multi-CPU hosts and
    # by the skip cache on single-CPU hosts -- both are the fleet).
    assert record["workers"] >= 4
    assert record["speedup_vs_single"] >= 3.0, (
        f"expected >= 3x over the single-process service, got "
        f"{record['speedup_vs_single']:.2f}x "
        f"({record['throughput_rps']:.0f} vs "
        f"{record['single_throughput_rps']:.0f} rps)"
    )

    # The record is a complete, plottable artifact.
    for key in (
        "mode",
        "latency",
        "throughput_rps",
        "single_throughput_rps",
        "scalar_rps",
        "speedup_vs_single",
        "speedup_vs_scalar",
        "skip_rate",
    ):
        assert key in record
    assert record["latency"]["p99_ms"] >= record["latency"]["p50_ms"]

