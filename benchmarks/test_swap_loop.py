"""Online learning loop: harvest -> retrain -> shadow -> hot-swap.

Runs the full closed loop from :mod:`repro.learn.bench` against a
small trained predictor and records the ``BENCH_swap.json`` artifact
at the repo root.

Acceptance bars (ISSUE 7): retraining on the fleet's own telemetry
yields a candidate with **zero** shadow mismatches, the mid-stream
hot-swap drops no tickets and diverges from the baseline on no fopt,
and shadow-mode scoring costs at most 25% throughput.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.harness import HarnessConfig
from repro.experiments.reporting import write_bench_record
from repro.experiments.suite import all_combos
from repro.learn.bench import run_swap_bench
from repro.models.training import TrainingConfig, run_campaign, train_models
from repro.serve.loadgen import LoadgenConfig

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_swap.json"


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


def test_swap_loop(bench_predictor, tmp_path):
    config = LoadgenConfig(
        devices=16,
        requests=1024,
        target_qps=5000.0,
        max_batch_size=64,
        max_wait_s=0.005,
        revisit_period=8,
    )
    result = run_swap_bench(
        bench_predictor,
        config,
        harness_config=HarnessConfig(dt_s=0.004),
        combos=all_combos()[:3],
        workers=2,
        work_dir=tmp_path,
        repeats=2,
    )
    write_bench_record(BENCH_PATH, result.to_record(repeats=2))
    record = json.loads(BENCH_PATH.read_text())

    # Closed loop: the candidate was fit on the generating model's own
    # unfloored predictions, so shadow scoring must agree everywhere
    # and the promote gate must open.
    assert record["shadow_scored"] > 0
    assert record["shadow_mismatches"] == 0
    assert record["promoted"] is True
    assert result.retrain.version == 1

    # Hot-swap under sustained traffic: every ticket comes back, and
    # (candidate == generating model on these vectors) the fopt stream
    # stays bit-identical to the no-swap baseline.
    assert record["swap"]["responses"] == config.requests
    assert record["swap"]["dropped_tickets"] == 0
    assert record["swap"]["fopt_mismatches_vs_baseline"] == 0
    assert record["swap"]["model_version_after"] == 1

    # Shadow scoring is one extra vectorized kernel pass per absorbed
    # batch; it may not cost more than a quarter of the throughput.
    assert record["shadow_overhead"] <= 0.25, (
        f"shadow overhead {record['shadow_overhead']:.1%} exceeds the "
        f"25% bar ({record['shadow_throughput_rps']:.0f} vs "
        f"{record['baseline_throughput_rps']:.0f} rps)"
    )

    # The record is a complete, plottable artifact with the shared
    # envelope.
    envelope = record["envelope"]
    assert envelope["schema"] == "repro-bench-envelope/1"
    assert envelope["command"] == "swap-bench"
    assert envelope["repeats"] == 2
    for key in (
        "telemetry_records",
        "retrain",
        "baseline_throughput_rps",
        "shadow_throughput_rps",
        "shadow_by_class",
    ):
        assert key in record
