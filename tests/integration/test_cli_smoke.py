"""CLI smoke tests: every core command exits cleanly via ``main(argv)``.

Unlike the end-to-end CLI tests (which assert on specific command
output), these just drive each command with tiny configurations and a
temporary cache directory -- the "does the wiring hold together"
check, covering ``list``, ``run``, ``sweep`` and ``fleet-bench``, and
the replay flags ``fleet-bench`` and ``swap-bench`` share.
"""

import json

import pytest

import repro.api
import repro.experiments.reporting
from repro.cli import _bench_workload, _loadgen_config, build_parser, main


@pytest.fixture(autouse=True)
def isolated(monkeypatch, tmp_path, small_models):
    """Tiny models and a throwaway cache for every command."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setattr(
        repro.api, "default_trained_models", lambda config=None: small_models
    )
    monkeypatch.setattr(
        repro.api, "default_predictor", lambda config=None: small_models.predictor
    )


def test_list_smoke(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "pages:" in out
    assert "governors:" in out


def test_run_smoke(capsys):
    assert main(["run", "amazon", "--governor", "interactive"]) == 0
    assert "load time" in capsys.readouterr().out


def test_sweep_smoke(capsys):
    assert main(["sweep", "amazon"]) == 0
    assert "fopt=" in capsys.readouterr().out


def test_fleet_bench_single_shard_smoke(capsys, monkeypatch, tmp_path):
    output = tmp_path / "BENCH_serve.json"
    envelopes = []
    envelope = repro.experiments.reporting.bench_envelope

    def counted(command, *args, **kwargs):
        envelopes.append(command)
        return envelope(command, *args, **kwargs)

    monkeypatch.setattr(repro.experiments.reporting, "bench_envelope", counted)
    code = main([
        "fleet-bench", "--smoke", "--workers", "1", "--no-skip-cache",
        "--devices", "4", "--requests", "64", "--revisit-period", "0",
        "--batch-size", "16", "--qps", "50000",
        "--output", str(output),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "throughput" in out
    assert "0 fopt mismatches" in out
    record = json.loads(output.read_text())
    assert record["fopt_mismatches_vs_scalar"] == 0
    assert record["requests"] == 64
    assert record["throughput_rps"] > 0
    # One record: the summary it printed is the record it wrote.
    assert envelopes == ["fleet-bench"]


def test_fleet_and_swap_bench_share_the_replay_flags():
    parser = build_parser()
    fleet = parser.parse_args(
        ["fleet-bench", "--max-wait-ms", "5", "--trace-combos", "2"]
    )
    swap = parser.parse_args(
        ["swap-bench", "--max-wait-ms", "5", "--trace-combos", "4"]
    )
    fleet_config = _loadgen_config(fleet)
    swap_config = _loadgen_config(swap)
    assert (fleet_config.requests, swap_config.requests) == (4096, 2048)
    for config in (fleet_config, swap_config):
        assert config.revisit_period == 16
        assert config.max_batch_size == 64  # default flush-on-size
        assert config.max_wait_s == 0.005
    assert len(_bench_workload(fleet)[2]) == 2
    assert len(_bench_workload(swap)[2]) == 4
    smoke = parser.parse_args(["fleet-bench", "--smoke"])
    assert smoke.smoke
    assert len(_bench_workload(smoke)[2]) == 3
    # An explicit --trace-combos wins under --smoke too.
    smoke_two = parser.parse_args(["fleet-bench", "--smoke", "--trace-combos", "2"])
    assert len(_bench_workload(smoke_two)[2]) == 2
