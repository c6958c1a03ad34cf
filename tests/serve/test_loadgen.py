"""Load generator: trace harvesting, deterministic replay, bench record."""

import json

import pytest

from repro.experiments.reporting import write_bench_record
from repro.experiments.suite import all_combos
from repro.serve.fleet import DecisionService, FleetConfig, FleetDecisionService
from repro.serve.loadgen import (
    LoadgenConfig,
    harvest_traces,
    replay,
    request_stream,
    run_fleet_bench,
    scalar_decision_baseline,
    uniform_request_schedule,
)


@pytest.fixture(autouse=True)
def no_cache(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")


@pytest.fixture(scope="module")
def traces(fast_config):
    # Module-scoped on purpose: harvesting simulates real page loads.
    # Needs its own monkeypatch -- the function-scoped autouse one is
    # set up after module-scoped fixtures.
    patcher = pytest.MonkeyPatch()
    patcher.setenv("REPRO_NO_CACHE", "1")
    try:
        yield harvest_traces(combos=all_combos()[:2], config=fast_config)
    finally:
        patcher.undo()


class TestHarvest:
    def test_traces_carry_real_counter_dynamics(self, traces):
        assert len(traces) == 2
        for trace in traces:
            assert trace.observations  # at least one decision interval
            assert trace.page.dom_nodes > 0
            assert trace.deadline_s == 3.0
            for observation in trace.observations:
                assert observation.corunner_mpki >= 0.0
                assert 0.0 <= observation.corunner_utilization <= 1.0
                assert observation.temperature_c > 0.0
        # A co-runner is actually present in the harvested signal.
        assert any(
            observation.corunner_utilization > 0.0
            for trace in traces
            for observation in trace.observations
        )

    def test_observation_cycles_past_the_end(self, traces):
        trace = traces[0]
        count = len(trace.observations)
        assert trace.observation(count) is trace.observations[0]


class TestStream:
    def test_stream_is_deterministic_and_round_robin(self, traces):
        config = LoadgenConfig(devices=4, requests=12)
        first = request_stream(traces, config)
        second = request_stream(traces, config)
        assert first == second
        assert [r.device_id for r in first[:4]] == [
            f"device-{i:04d}" for i in range(4)
        ]
        assert first[0].device_id == first[4].device_id

    def test_tight_deadline_injection(self, traces):
        config = LoadgenConfig(devices=2, requests=10, tight_deadline_every=5)
        stream = request_stream(traces, config)
        tight = [r for r in stream if r.deadline_s < 0.05]
        assert len(tight) == 2  # requests 5 and 10

    def test_config_validation(self):
        with pytest.raises(ValueError, match="device"):
            LoadgenConfig(devices=0)
        with pytest.raises(ValueError, match="request"):
            LoadgenConfig(requests=0)
        with pytest.raises(ValueError, match="QPS"):
            LoadgenConfig(target_qps=0.0)
        with pytest.raises(ValueError, match="revisit"):
            LoadgenConfig(revisit_period=-1)

    def test_revisit_pattern_repeats_each_observation(self, traces):
        # With a revisit period of 4, each device re-submits the same
        # counter vector four visits in a row before advancing -- the
        # deterministic repeat traffic the fleet skip cache feeds on.
        config = LoadgenConfig(devices=2, requests=24, revisit_period=4)
        stream = request_stream(traces, config)
        visits = [r for r in stream if r.device_id == "device-0000"]
        vectors = [
            (r.corunner_mpki, r.corunner_utilization, r.temperature_c)
            for r in visits
        ]
        for visit in range(1, 4):
            assert vectors[visit] == vectors[0]
        assert vectors[4] != vectors[0]
        assert vectors[5:8] == [vectors[4]] * 3

    def test_revisit_period_one_changes_nothing(self, traces):
        config = LoadgenConfig(devices=2, requests=12)
        plain = request_stream(traces, config)
        unit = request_stream(
            traces, LoadgenConfig(devices=2, requests=12, revisit_period=1)
        )
        assert unit == plain

    def test_empty_traces_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            request_stream([], LoadgenConfig())


def _replay(predictor, traces, config):
    """A uniform-schedule replay through a fresh single-process service."""
    service = DecisionService(predictor, config.service_config())
    return replay(service, uniform_request_schedule(traces, config), config)


class TestReplay:
    def test_replay_answers_every_request(self, small_predictor, traces):
        config = LoadgenConfig(
            devices=4, requests=40, target_qps=50000, max_batch_size=8
        )
        report = _replay(small_predictor, traces, config)
        assert len(report.responses) == 40
        assert report.stats.batches_total >= 5  # 40 accepted / batch cap 8
        assert report.stats.largest_batch <= 8
        assert report.latency.p50_s <= report.latency.p99_s
        assert report.throughput_rps > 0

    def test_report_carries_the_routers_counters(self, small_predictor, traces):
        config = LoadgenConfig(
            devices=4, requests=48, target_qps=50000, max_batch_size=8,
            revisit_period=4, tight_deadline_every=5,
        )
        schedule = uniform_request_schedule(traces, config)
        fleet_config = FleetConfig(service=config.service_config())
        with FleetDecisionService(small_predictor, fleet_config) as fleet:
            report = replay(fleet, schedule, config)
            assert report.stats == fleet.merged_stats()
        stats = report.stats
        assert stats.requests_total == len(report.responses) == len(schedule)
        assert stats.requests_total == (
            stats.rejected_total + stats.skips_total + stats.accepted_total
        )
        assert [r.request_id for r in report.responses] == list(range(48))

    def test_uniform_schedule_drips_at_the_target_rate(self, traces):
        config = LoadgenConfig(devices=4, requests=12, target_qps=400.0)
        schedule = uniform_request_schedule(traces, config)
        assert [arrival for arrival, _ in schedule] == [
            index / 400.0 for index in range(12)
        ]
        assert [request for _, request in schedule] == request_stream(
            traces, config
        )

    def test_empty_schedule_rejected(self, small_predictor):
        with pytest.raises(ValueError, match="at least one"):
            replay(DecisionService(small_predictor), [], LoadgenConfig())

    def test_replay_matches_scalar_baseline_exactly(
        self, small_predictor, traces
    ):
        config = LoadgenConfig(
            devices=3,
            requests=30,
            target_qps=50000,
            max_batch_size=8,
            tight_deadline_every=7,
        )
        report = _replay(small_predictor, traces, config)
        scalar_fopts, _ = scalar_decision_baseline(
            small_predictor, request_stream(traces, config)
        )
        assert report.fopts_hz() == scalar_fopts
        assert report.stats.rejected_total == 4  # requests 7, 14, 21, 28

    def test_injected_fleet_service_reports_skips(
        self, small_predictor, traces
    ):
        config = LoadgenConfig(
            devices=4,
            requests=64,
            target_qps=50000,
            max_batch_size=8,
            revisit_period=4,
        )
        fleet = FleetDecisionService(
            small_predictor,
            FleetConfig(service=config.service_config()),
        )
        with fleet:
            report = replay(fleet, uniform_request_schedule(traces, config), config)
        assert len(report.responses) == 64
        assert report.stats.skips_total > 0
        assert report.stats.skip_rate() == pytest.approx(
            report.stats.skips_total / 64
        )
        # The replay is still bit-faithful to the scalar loop.
        scalar_fopts, _ = scalar_decision_baseline(
            small_predictor, request_stream(traces, config)
        )
        assert report.fopts_hz() == scalar_fopts

    def test_plain_service_reports_zero_skips(
        self, small_predictor, traces
    ):
        config = LoadgenConfig(
            devices=4, requests=24, target_qps=50000, revisit_period=4
        )
        report = _replay(small_predictor, traces, config)
        assert report.stats.skips_total == 0
        assert report.stats.skip_rate() == 0.0


class TestBench:
    def test_single_shard_fleet_bench_writes_the_record(
        self, small_predictor, fast_config, tmp_path
    ):
        # The router without the skip cache: the batched service
        # against the scalar loop.
        output = tmp_path / "BENCH_serve.json"
        result = run_fleet_bench(
            small_predictor,
            LoadgenConfig(
                devices=4, requests=48, target_qps=50000, max_batch_size=16
            ),
            harness_config=fast_config,
            combos=all_combos()[:2],
            skip_cache=False,
        )
        assert result.fopt_mismatches_vs_scalar == 0
        assert result.fopt_mismatches_vs_single == 0
        write_bench_record(output, result.to_record())
        record = json.loads(output.read_text())
        for key in (
            "latency",
            "throughput_rps",
            "scalar_rps",
            "speedup_vs_scalar",
            "mean_batch_size",
        ):
            assert key in record
        for percentile in ("p50_ms", "p95_ms", "p99_ms"):
            assert record["latency"][percentile] >= 0.0
        assert record["requests"] == 48
        assert record["skips"] == 0
        assert record["fopt_mismatches_vs_scalar"] == 0
