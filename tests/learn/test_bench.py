"""The swap bench end to end on a tiny stream."""

import pytest

from repro.experiments.suite import all_combos
from repro.learn.bench import run_swap_bench
from repro.serve.fleet import FleetDecisionService
from repro.serve.loadgen import LoadgenConfig


@pytest.fixture(autouse=True)
def no_cache(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")


def test_tiny_one_shard_swap_bench(
    monkeypatch, small_predictor, fast_config, tmp_path
):
    config = LoadgenConfig(
        devices=4, requests=64, target_qps=50000, max_batch_size=8,
        revisit_period=4,
    )
    # The router's next ticket at every swap_model call.
    swaps = []
    swap_model = FleetDecisionService.swap_model

    def spy(fleet, predictor):
        swaps.append(fleet.stats.requests_total)
        swap_model(fleet, predictor)

    monkeypatch.setattr(FleetDecisionService, "swap_model", spy)
    result = run_swap_bench(
        small_predictor,
        config,
        harness_config=fast_config,
        combos=all_combos()[:2],
        work_dir=tmp_path,
    )
    record = result.to_record()

    assert record["telemetry_records"] == 64
    assert record["shadow_scored"] > 0
    assert record["shadow_mismatches"] == 0
    assert record["promoted"] is True
    swap = record["swap"]
    assert swap["at_request"] == 32
    assert swap["responses"] == 64
    assert swap["dropped_tickets"] == 0
    assert swap["fopt_mismatches_vs_baseline"] == 0
    assert swap["model_version_after"] == 1
    # The shadow window's promote swaps after its whole replay; the
    # hot-swap phase swaps exactly once, just before ticket 32.
    assert swaps == [64, 32]
