"""Digital-twin load source: fleet-simulated traces into the service stack.

:func:`~repro.serve.loadgen.harvest_traces` simulates the combo
population in one fleet pass.  Because fleet rows are bit-identical to
single-device runs, its traces equal each combo's solo
``run_workload`` recording exactly, and replays over
:func:`~repro.serve.loadgen.twin_request_schedule` serve identical
fopt streams -- only the virtual arrival process changes.
"""

import json

import pytest

from repro.browser.pages import page_by_name
from repro.core.governors import InteractiveGovernor
from repro.experiments.harness import run_workload
from repro.experiments.reporting import write_bench_record
from repro.experiments.suite import all_combos
from repro.serve.fleet import DecisionService
from repro.serve.loadgen import (
    DeviceTrace,
    LoadgenConfig,
    _RecordingGovernor,
    harvest_traces,
    replay,
    request_stream,
    run_fleet_bench,
    scalar_decision_baseline,
    twin_request_schedule,
    uniform_request_schedule,
)

_COMBOS = all_combos()[:3]


@pytest.fixture(autouse=True)
def no_cache(monkeypatch):
    # Every harvest below is a fresh fleet simulation, never a cached one.
    monkeypatch.setenv("REPRO_NO_CACHE", "1")


@pytest.fixture(scope="module")
def twin(fast_config):
    # Needs its own monkeypatch: the function-scoped autouse one is set
    # up after module-scoped fixtures.
    patcher = pytest.MonkeyPatch()
    patcher.setenv("REPRO_NO_CACHE", "1")
    try:
        yield harvest_traces(combos=_COMBOS, config=fast_config)
    finally:
        patcher.undo()


class TestTwinTraces:
    def test_matches_the_harvested_traces_exactly(self, fast_config, twin):
        # The oracle: each combo harvested alone, one solo run_workload
        # under the recording governor.
        assert len(twin) == len(_COMBOS)
        for combo, trace in zip(_COMBOS, twin):
            recorder = _RecordingGovernor(InteractiveGovernor())
            run_workload(combo.page_name, combo.kernel_name, recorder, fast_config)
            assert trace == DeviceTrace(
                page_name=combo.page_name,
                kernel_name=combo.kernel_name,
                page=page_by_name(combo.page_name).features,
                deadline_s=fast_config.deadline_s,
                observations=tuple(recorder.observations[:64]),
            )

    def test_is_deterministic(self, fast_config, twin):
        assert harvest_traces(combos=_COMBOS, config=fast_config) == twin

    def test_observations_carry_live_timestamps(self, twin):
        for trace in twin:
            times = [obs.time_s for obs in trace.observations]
            assert times == sorted(times)
            assert times[-1] > 0.0


class TestTwinSchedule:
    CONFIG = LoadgenConfig(
        devices=8,
        requests=64,
        target_qps=50000,
        revisit_period=4,
        tight_deadline_every=10,
    )

    def test_same_seed_same_request_stream(self, fast_config):
        first = twin_request_schedule(
            harvest_traces(combos=_COMBOS, config=fast_config), self.CONFIG
        )
        second = twin_request_schedule(
            harvest_traces(combos=_COMBOS, config=fast_config), self.CONFIG
        )
        assert first == second

    def test_arrivals_are_sorted_and_span_the_offered_load(self, twin):
        schedule = twin_request_schedule(twin, self.CONFIG)
        arrivals = [arrival for arrival, _ in schedule]
        assert len(schedule) == self.CONFIG.requests
        assert arrivals == sorted(arrivals)
        assert arrivals[0] == 0.0
        assert arrivals[-1] == pytest.approx(
            self.CONFIG.requests / self.CONFIG.target_qps
        )

    def test_carries_the_harvest_streams_request_contents(self, twin):
        harvested = request_stream(twin, self.CONFIG)
        scheduled = [request for _, request in twin_request_schedule(twin, self.CONFIG)]

        def key(request):
            return (
                request.device_id,
                request.corunner_mpki,
                request.corunner_utilization,
                request.temperature_c,
                request.deadline_s,
            )

        assert sorted(map(key, scheduled)) == sorted(map(key, harvested))

    def test_rejects_empty_traces(self):
        with pytest.raises(ValueError, match="at least one"):
            twin_request_schedule([], self.CONFIG)


class TestTwinReplay:
    def test_scheduled_replay_matches_the_scalar_baseline(
        self, small_predictor, twin
    ):
        config = LoadgenConfig(
            devices=6, requests=48, target_qps=50000, max_batch_size=8
        )
        schedule = twin_request_schedule(twin, config)
        service = DecisionService(small_predictor, config.service_config())
        report = replay(service, schedule, config)
        assert len(report.responses) == 48
        scalar_fopts, _ = scalar_decision_baseline(
            small_predictor, [request for _, request in schedule]
        )
        assert report.fopts_hz() == scalar_fopts

    def test_uniform_replay_matches_the_scalar_baseline(
        self, small_predictor, twin
    ):
        config = LoadgenConfig(devices=4, requests=32, target_qps=50000)
        service = DecisionService(small_predictor, config.service_config())
        report = replay(service, uniform_request_schedule(twin, config), config)
        scalar_fopts, _ = scalar_decision_baseline(
            small_predictor, request_stream(twin, config)
        )
        assert report.fopts_hz() == scalar_fopts


class TestTwinFleetBench:
    def test_zero_mismatches_vs_the_harvest_path(
        self, small_predictor, fast_config, tmp_path
    ):
        output = tmp_path / "BENCH_fleet.json"
        config = LoadgenConfig(
            devices=8,
            requests=192,
            target_qps=50000,
            max_batch_size=16,
            revisit_period=4,
        )
        twin_result = run_fleet_bench(
            small_predictor,
            config,
            harness_config=fast_config,
            combos=_COMBOS,
            workers=2,
            trace_source="twin",
        )
        assert twin_result.trace_source == "twin"
        assert twin_result.fopt_mismatches_vs_single == 0
        assert twin_result.fopt_mismatches_vs_scalar == 0
        write_bench_record(output, twin_result.to_record())
        record = json.loads(output.read_text())
        assert record["trace_source"] == "twin"
        assert record["fopt_mismatches_vs_single"] == 0
        assert record["fopt_mismatches_vs_scalar"] == 0

        # The pre-harvested path serves the identical decision multiset.
        harvest_result = run_fleet_bench(
            small_predictor,
            config,
            harness_config=fast_config,
            combos=_COMBOS,
            workers=2,
        )
        assert harvest_result.trace_source == "harvest"
        assert sorted(twin_result.fleet_report.fopts_hz()) == sorted(
            harvest_result.fleet_report.fopts_hz()
        )

    def test_rejects_unknown_trace_source(self, small_predictor):
        with pytest.raises(KeyError, match="trace source"):
            run_fleet_bench(small_predictor, trace_source="cloud")
