"""Synthetic fleet driver for the decision service.

The generator replays *real* counter dynamics: it first harvests
(MPKI, utilization, temperature) observation traces by simulating suite
workloads under a recording ``interactive`` governor, then replays
those traces as a fleet of N devices submitting decision requests at a
target QPS.  Arrivals advance a virtual clock (so batching behaviour is
deterministic and no wall time is wasted sleeping), while each
request's decision latency -- submit call to response -- is measured
on the wall clock.

:func:`harvest_traces` simulates the whole combo population in one
:class:`~repro.sim.fleet_engine.FleetEngine` pass -- the serving
stack's *digital twin* -- and caches the traces.  Two arrival processes
replay them:

* :func:`request_stream` -- a uniform ``1 / target_qps`` virtual drip.
* :func:`twin_request_schedule` -- each request arrives at its
  observation's decision-epoch timestamp inside its device's own
  trajectory, so the service sees the bursty arrival pattern a real
  fleet produces instead of a uniform drip.  The request *contents*
  equal the uniform stream's; only the arrival process differs.

:func:`run_fleet_bench` packages the whole thing: harvest, replay
through the sharded router and through one plain single-process
service, a scalar per-request baseline over the identical stream, a
full fopt-equality cross-check between the three, and a
``BENCH_fleet.json`` record with p50/p95/p99 latency, throughput and
the speedups.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.browser.dom import PageFeatures
from repro.browser.pages import page_by_name
from repro.core.governors import InteractiveGovernor
from repro.core.ppw import select_fopt
from repro.experiments.cache import memoized
from repro.experiments.harness import HarnessConfig, workload_engine
from repro.experiments.suite import WorkloadCombo, all_combos
from repro.serve.fleet import DecisionService, FleetConfig, FleetDecisionService
from repro.serve.service import DecisionRequest, DecisionResponse, ServiceConfig
from repro.sim.fleet_engine import FleetEngine
from repro.sim.governor import Governor, RunContext
from repro.soc.counters import CounterSample


@dataclass(frozen=True)
class CounterObservation:
    """One decision interval's counter readings, as DORA sees them.

    Attributes:
        time_s: Seconds into the load when the window was drained.
        corunner_mpki: Co-runner shared-L2 MPKI over the window.
        corunner_utilization: Co-runner core utilization in ``[0, 1]``.
        temperature_c: Package temperature at the sample.
    """

    time_s: float
    corunner_mpki: float
    corunner_utilization: float
    temperature_c: float


#: What a governor sees before its first counter window closes
#: (mirrors DoraGovernor's no-sample defaults).
_COLD_OBSERVATION = CounterObservation(
    time_s=0.0, corunner_mpki=0.0, corunner_utilization=0.0, temperature_c=45.0
)


@dataclass(frozen=True)
class DeviceTrace:
    """One device's replayable request material.

    Attributes:
        page_name: The page this device keeps loading.
        kernel_name: Its co-runner (``None`` = solo).
        page: The page's pre-computed complexity census.
        deadline_s: The device's QoS deadline.
        observations: Harvested counter windows, in load order.
    """

    page_name: str
    kernel_name: str | None
    page: PageFeatures
    deadline_s: float
    observations: tuple[CounterObservation, ...]

    def observation(self, index: int) -> CounterObservation:
        """The index-th observation, cycling past the end."""
        return self.observations[index % len(self.observations)]


class _RecordingGovernor(Governor):
    """Wraps a governor and transcribes what DORA would have read."""

    def __init__(self, inner: Governor) -> None:
        self.inner = inner
        self.interval_s = inner.interval_s
        self.name = inner.name
        self.observations: list[CounterObservation] = []

    def initial_frequency(self, context: RunContext) -> float | None:
        return self.inner.initial_frequency(context)

    def decide(self, sample: CounterSample, context: RunContext) -> float:
        cores = list(context.corunner_cores)
        self.observations.append(
            CounterObservation(
                time_s=context.elapsed_s,
                corunner_mpki=sample.mpki_of_cores(cores),
                corunner_utilization=sample.utilization_of_cores(cores),
                temperature_c=sample.soc_temperature_c,
            )
        )
        return self.inner.decide(sample, context)

    def reset(self) -> None:
        self.inner.reset()


def harvest_traces(
    combos: Sequence[WorkloadCombo] | None = None,
    config: HarnessConfig | None = None,
    max_observations: int = 64,
) -> list[DeviceTrace]:
    """Simulate workloads under a recording governor and keep their counters.

    Each combo is loaded once under ``interactive`` (a model-free
    governor, so harvesting needs no trained bundle) and every decision
    interval's (MPKI, utilization, temperature) triple is transcribed,
    with the interval's timestamp for :func:`twin_request_schedule`.
    Every combo's engine (built by
    :func:`~repro.experiments.harness.workload_engine`, as
    :func:`~repro.experiments.harness.run_workload` builds it) advances
    in one :class:`~repro.sim.fleet_engine.FleetEngine` pass; fleet
    rows are bit-identical to solo runs, so each trace equals that
    combo's solo ``run_workload`` recording.  Results are cached: the
    harvest is a simulator campaign, not something to repeat per bench
    run.
    """
    config = config or HarnessConfig()
    combos = tuple(combos) if combos is not None else all_combos()[:6]

    def build() -> list[DeviceTrace]:
        recorders = [_RecordingGovernor(InteractiveGovernor()) for _ in combos]
        FleetEngine(
            engines=[
                workload_engine(combo.page_name, combo.kernel_name, recorder, config)
                for combo, recorder in zip(combos, recorders)
            ]
        ).run()
        traces: list[DeviceTrace] = []
        for combo, recorder in zip(combos, recorders):
            observations = tuple(recorder.observations[:max_observations])
            if not observations:
                observations = (_COLD_OBSERVATION,)
            traces.append(
                DeviceTrace(
                    page_name=combo.page_name,
                    kernel_name=combo.kernel_name,
                    page=page_by_name(combo.page_name).features,
                    deadline_s=config.deadline_s,
                    observations=observations,
                )
            )
        return traces

    key = (
        "serve-traces",
        tuple((c.page_name, c.kernel_name) for c in combos),
        config.deadline_s,
        config.dt_s,
        config.max_time_s,
        config.device.ambient.name,
        max_observations,
    )
    return memoized("serve-traces", key, build)


@dataclass(frozen=True)
class LoadgenConfig:
    """Fleet-replay parameters.

    Attributes:
        devices: Simulated devices (requests round-robin over them).
        requests: Total decision requests to submit.
        target_qps: Virtual arrival rate; with ``max_wait_s`` it sets
            how full batches get before the wait budget flushes them.
        max_batch_size: Service flush-on-size threshold.
        max_wait_s: Service flush-on-wait budget.
        include_leakage: Serve the full model or the no-leakage
            ablation.
        qos_margin: Service QoS margin.
        tight_deadline_every: Every Nth request gets an impossibly
            tight deadline to exercise admission (0 disables).
        revisit_period: Deterministic per-device revisit pattern: each
            device advances to a fresh counter observation only every
            ``revisit_period``-th of its requests, re-submitting an
            identical feature/condition vector in between (what a
            device polling faster than its counters refresh looks
            like).  ``p`` makes ``(p - 1) / p`` of steady-state
            requests skip-cache-eligible; ``0``/``1`` disables (every
            request advances, the PR-2 stream).
    """

    devices: int = 32
    requests: int = 512
    target_qps: float = 5000.0
    max_batch_size: int = 64
    max_wait_s: float = 0.005
    include_leakage: bool = True
    qos_margin: float = 0.0
    tight_deadline_every: int = 0
    revisit_period: int = 0

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise ValueError("need at least one device")
        if self.requests < 1:
            raise ValueError("need at least one request")
        if self.target_qps <= 0:
            raise ValueError("target QPS must be positive")
        if self.revisit_period < 0:
            raise ValueError("revisit period must be non-negative")

    def service_config(self) -> ServiceConfig:
        """The service tunables this replay drives."""
        return ServiceConfig(
            max_batch_size=self.max_batch_size,
            max_wait_s=self.max_wait_s,
            include_leakage=self.include_leakage,
            qos_margin=self.qos_margin,
        )


#: Effective deadline guaranteed to fail admission (below the
#: load-time floor even with zero margin).
_TIGHT_DEADLINE_S = 0.01


def _timed_requests(
    traces: Sequence[DeviceTrace], config: LoadgenConfig
) -> list[tuple[float, DecisionRequest]]:
    """Every request of a replay, in submission order, with its epoch.

    The epoch is the request's observation timestamp inside its
    device's trajectory; cycling past a trace's end appends another
    full trajectory span.
    """
    if not traces:
        raise ValueError("need at least one device trace")
    timed: list[tuple[float, DecisionRequest]] = []
    for index in range(config.requests):
        device = index % config.devices
        trace = traces[device % len(traces)]
        step = index // config.devices
        if config.revisit_period > 1:
            step //= config.revisit_period
        observation = trace.observation(step)
        laps = step // len(trace.observations)
        epoch_s = observation.time_s + trace.observations[-1].time_s * laps
        deadline_s = trace.deadline_s
        if (
            config.tight_deadline_every > 0
            and (index + 1) % config.tight_deadline_every == 0
        ):
            deadline_s = _TIGHT_DEADLINE_S
        timed.append(
            (
                epoch_s,
                DecisionRequest(
                    device_id=f"device-{device:04d}",
                    page=trace.page,
                    corunner_mpki=observation.corunner_mpki,
                    corunner_utilization=observation.corunner_utilization,
                    temperature_c=observation.temperature_c,
                    deadline_s=deadline_s,
                ),
            )
        )
    return timed


def request_stream(
    traces: Sequence[DeviceTrace], config: LoadgenConfig
) -> list[DecisionRequest]:
    """The deterministic request sequence a replay submits.

    Device ``d`` replays trace ``d % len(traces)``; its ``k``-th
    request carries that trace's ``k``-th observation (cycling) -- or,
    with ``revisit_period = p``, observation ``k // p``, so each
    observation is re-submitted ``p`` times before the device moves on.
    """
    return [request for _, request in _timed_requests(traces, config)]


def twin_request_schedule(
    traces: Sequence[DeviceTrace], config: LoadgenConfig
) -> list[tuple[float, DecisionRequest]]:
    """Live fleet arrivals: requests timed by their devices' epochs.

    Builds the same requests as :func:`request_stream`, but instead of
    a uniform ``1 / target_qps`` drip, each request's virtual arrival
    is its observation's decision-epoch timestamp inside its device's
    own trajectory.  The merged per-device timelines are then scaled
    so the whole replay still spans ``requests / target_qps`` virtual
    seconds -- same offered load, live burstiness: devices whose
    decision epochs coincide arrive together, and revisit duplicates
    arrive back-to-back with their window.

    Returns:
        ``(arrival_s, request)`` pairs in non-decreasing arrival order
        (ties broken by submission index, so the order is fully
        deterministic).
    """
    # A stable sort: equal epochs keep their submission order.
    timed = sorted(_timed_requests(traces, config), key=lambda entry: entry[0])
    first_s = timed[0][0]
    span_s = timed[-1][0] - first_s
    duration_s = config.requests / config.target_qps
    scale = duration_s / span_s if span_s > 0 else 0.0
    return [((epoch_s - first_s) * scale, request) for epoch_s, request in timed]


@dataclass(frozen=True)
class LatencyStats:
    """Decision-latency percentiles over one replay (seconds)."""

    p50_s: float
    p95_s: float
    p99_s: float
    mean_s: float
    max_s: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyStats":
        """Summarize a non-empty latency sample list."""
        if not samples:
            raise ValueError("need at least one latency sample")
        values = np.asarray(samples, dtype=float)
        p50, p95, p99 = np.percentile(values, (50.0, 95.0, 99.0))
        return cls(
            p50_s=float(p50),
            p95_s=float(p95),
            p99_s=float(p99),
            mean_s=float(values.mean()),
            max_s=float(values.max()),
        )

    def to_record(self) -> dict:
        """Milliseconds-rounded JSON form."""
        return {
            "p50_ms": round(self.p50_s * 1e3, 4),
            "p95_ms": round(self.p95_s * 1e3, 4),
            "p99_ms": round(self.p99_s * 1e3, 4),
            "mean_ms": round(self.mean_s * 1e3, 4),
            "max_ms": round(self.max_s * 1e3, 4),
        }


@dataclass(frozen=True)
class LoadgenReport:
    """Everything one replay measured.

    Attributes:
        config: The replay parameters.
        responses: Every response, in ticket (submission) order.
        latency: Submit-to-response wall-clock latency stats.
        wall_s: Wall time from first submit to last response.
        throughput_rps: Served decisions per wall second.
        batches: Model passes the service ran.
        mean_batch_size: Accepted requests per model pass.
        largest_batch: Biggest single model pass.
        rejected: Requests admission answered with the fmax fallback.
        skips: Requests answered from a skip cache (0 on a plain
            single-process service).
    """

    config: LoadgenConfig
    responses: tuple[DecisionResponse, ...]
    latency: LatencyStats
    wall_s: float
    throughput_rps: float
    batches: int
    mean_batch_size: float
    largest_batch: int
    rejected: int
    skips: int = 0

    def skip_rate(self) -> float:
        """Fraction of responses replayed from the skip cache."""
        if not self.responses:
            return 0.0
        return self.skips / len(self.responses)

    def fopts_hz(self) -> list[float]:
        """Served fopt per request, in submission order."""
        return [response.fopt_hz for response in self.responses]


class FleetLoadGenerator:
    """Replays a request stream through a decision service.

    Arrivals are spaced ``1 / target_qps`` apart on a virtual clock
    that also drives the service's batching (and session TTLs), so a
    replay's batch boundaries are fully deterministic.  Latency is
    measured per request on the wall clock: the span from its
    ``submit`` call to the flush that produced its response.

    Args:
        predictor: Trained bundle (ignored when ``service`` is given).
        config: Replay parameters.
        service: Pre-built router to drive instead of a fresh
            single-process :class:`DecisionService`, e.g. a sharded
            :class:`FleetDecisionService`.  The replay passes an
            explicit virtual ``now`` to every call, so the injected
            service's own clock is never consulted.
    """

    def __init__(
        self,
        predictor,
        config: LoadgenConfig | None = None,
        service: FleetDecisionService | None = None,
    ) -> None:
        self.config = config or LoadgenConfig()
        self._virtual_now = 0.0
        self.service = service or DecisionService(
            predictor,
            config=self.config.service_config(),
            clock=lambda: self._virtual_now,
        )

    def run(
        self,
        traces: Sequence[DeviceTrace],
        schedule: Sequence[tuple[float, DecisionRequest]] | None = None,
    ) -> LoadgenReport:
        """Submit the whole stream and collect the report.

        Args:
            traces: Device traces to derive the uniform-clock stream
                from (ignored when ``schedule`` is given).
            schedule: Optional explicit ``(arrival_s, request)`` pairs
                in non-decreasing arrival order -- the digital-twin
                path (:func:`twin_request_schedule`).  ``None`` keeps
                the uniform ``1 / target_qps`` virtual clock over
                :func:`request_stream`.
        """
        gap_s = 1.0 / self.config.target_qps
        if schedule is None:
            requests = request_stream(traces, self.config)
            arrivals = [index * gap_s for index in range(len(requests))]
        else:
            requests = [request for _, request in schedule]
            arrivals = [arrival_s for arrival_s, _ in schedule]
            if not requests:
                raise ValueError("need at least one scheduled request")
        submitted_at: dict[int, float] = {}
        latencies: list[float] = []
        responses: list[DecisionResponse] = []

        def collect(batch: list[DecisionResponse], wall_now: float) -> None:
            for response in batch:
                latencies.append(wall_now - submitted_at.pop(response.request_id))
                responses.append(response)

        wall_start = time.perf_counter()
        for index, request in enumerate(requests):
            self._virtual_now = arrivals[index]
            drained = self.service.poll(self._virtual_now)
            if drained:
                collect(drained, time.perf_counter())
            submitted_at[index] = time.perf_counter()
            answered = self.service.submit(request, self._virtual_now)
            if answered:
                collect(answered, time.perf_counter())
        if schedule is None:
            self._virtual_now = len(requests) * gap_s + self.config.max_wait_s
        else:
            self._virtual_now = arrivals[-1] + gap_s + self.config.max_wait_s
        collect(self.service.flush(self._virtual_now), time.perf_counter())
        wall_s = time.perf_counter() - wall_start

        responses.sort(key=lambda response: response.request_id)
        stats = self.service.stats
        return LoadgenReport(
            config=self.config,
            responses=tuple(responses),
            latency=LatencyStats.from_samples(latencies),
            wall_s=wall_s,
            throughput_rps=len(responses) / wall_s if wall_s > 0 else float("inf"),
            batches=stats.batches_total,
            mean_batch_size=stats.mean_batch_size(),
            largest_batch=stats.largest_batch,
            rejected=stats.rejected_total,
            skips=stats.skips_total,
        )


def scalar_decision_baseline(
    predictor,
    requests: Sequence[DecisionRequest],
    include_leakage: bool = True,
    qos_margin: float = 0.0,
) -> tuple[list[float], float]:
    """Decide the same stream one request at a time (the phone's loop).

    This is exactly what a per-device :class:`~repro.core.dora.DoraGovernor`
    does per decision interval: build the full prediction table, then
    :func:`select_fopt` against the margin-adjusted deadline.

    Returns:
        ``(fopts_hz, elapsed_s)`` -- the per-request answers (directly
        comparable against a replay's :meth:`LoadgenReport.fopts_hz`)
        and the wall time of the loop.
    """
    fopts: list[float] = []
    start = time.perf_counter()
    for request in requests:
        table = predictor.prediction_table(
            page_features=request.page,
            corunner_mpki=request.corunner_mpki,
            corunner_utilization=request.corunner_utilization,
            temperature_c=request.temperature_c,
            include_leakage=include_leakage,
        )
        choice = select_fopt(table, request.deadline_s * (1.0 - qos_margin))
        fopts.append(choice.freq_hz)
    return fopts, time.perf_counter() - start


@dataclass(frozen=True)
class FleetBenchResult:
    """A sharded-fleet replay against its single-process and scalar twins.

    Attributes:
        fleet_report: The sharded replay's measurements (including the
            skip count).
        single_report: The same stream through one plain
            :class:`DecisionService`.
        workers: Shard count of the fleet replay.
        mode: Execution vehicle the runtime chose (``process`` or
            ``serial (<reason>)``).
        worker_restarts: Shard-worker respawns during the replay
            (should be zero in a bench).
        scalar_s: Wall time of the per-request scalar loop.
        scalar_rps: Scalar decisions per second.
        speedup_vs_single: Fleet throughput over single-process
            batched throughput (the ISSUE's >= 3x bar at >= 4 workers).
        speedup_vs_scalar: Fleet throughput over the scalar loop.
        fopt_mismatches_vs_single: Requests where fleet and
            single-process fopt disagree (must be zero).
        fopt_mismatches_vs_scalar: Requests where fleet and scalar
            fopt disagree (must be zero).
        trace_source: ``"harvest"`` (uniform arrivals) or ``"twin"``
            (epoch-derived arrivals).
    """

    fleet_report: LoadgenReport
    single_report: LoadgenReport
    workers: int
    mode: str
    worker_restarts: int
    scalar_s: float
    scalar_rps: float
    speedup_vs_single: float
    speedup_vs_scalar: float
    fopt_mismatches_vs_single: int
    fopt_mismatches_vs_scalar: int
    trace_source: str = "harvest"

    def to_record(self, repeats: int = 1) -> dict:
        """The ``BENCH_fleet.json`` payload (envelope included)."""
        from repro.experiments.reporting import bench_envelope

        fleet = self.fleet_report
        config = fleet.config
        return {
            "envelope": bench_envelope("fleet-bench", repeats=repeats),
            "trace_source": self.trace_source,
            "workers": self.workers,
            "mode": self.mode,
            "worker_restarts": self.worker_restarts,
            "devices": config.devices,
            "requests": config.requests,
            "target_qps": config.target_qps,
            "max_batch_size": config.max_batch_size,
            "max_wait_ms": round(config.max_wait_s * 1e3, 3),
            "revisit_period": config.revisit_period,
            "include_leakage": config.include_leakage,
            "qos_margin": config.qos_margin,
            "skips": fleet.skips,
            "skip_rate": round(fleet.skip_rate(), 4),
            "rejected": fleet.rejected,
            "batches": fleet.batches,
            "mean_batch_size": round(fleet.mean_batch_size, 2),
            "largest_batch": fleet.largest_batch,
            "latency": fleet.latency.to_record(),
            "wall_s": round(fleet.wall_s, 4),
            "throughput_rps": round(fleet.throughput_rps, 1),
            "single_wall_s": round(self.single_report.wall_s, 4),
            "single_throughput_rps": round(self.single_report.throughput_rps, 1),
            "scalar_s": round(self.scalar_s, 4),
            "scalar_rps": round(self.scalar_rps, 1),
            "speedup_vs_single": round(self.speedup_vs_single, 2),
            "speedup_vs_scalar": round(self.speedup_vs_scalar, 2),
            "fopt_mismatches_vs_single": self.fopt_mismatches_vs_single,
            "fopt_mismatches_vs_scalar": self.fopt_mismatches_vs_scalar,
        }


def run_fleet_bench(
    predictor,
    config: LoadgenConfig | None = None,
    harness_config: HarnessConfig | None = None,
    combos: Sequence[WorkloadCombo] | None = None,
    workers: int = 4,
    skip_cache: bool = True,
    skip_tolerance: float = 0.0,
    output_path: str | Path | None = None,
    repeats: int = 1,
    trace_source: str = "harvest",
) -> FleetBenchResult:
    """Replay one stream three ways -- fleet, single-process, scalar.

    The same harvested request stream (by default with a revisit
    pattern so the skip cache has real traffic to absorb) is replayed
    through a sharded :class:`~repro.serve.fleet.FleetDecisionService`,
    through one plain :class:`DecisionService`, and through the scalar
    per-request loop; fopt is cross-checked bit-for-bit between all
    three and the throughput ratios recorded.  With ``workers=1`` and
    ``skip_cache=False`` the fleet replay is the one-shard router the
    single-process replay also runs: the batched service against the
    scalar loop.

    Args:
        predictor: Trained bundle to serve.
        config: Replay parameters (default: :class:`LoadgenConfig`'s
            defaults with ``requests=4096`` and ``revisit_period=16`` -- a
            device polling at UI cadence against counter windows that
            refresh an order of magnitude slower re-submits each
            vector roughly that many times).
        harness_config: Simulator config for trace harvesting.
        combos: Workloads to harvest (default: first six suite combos).
        workers: Fleet shard count.
        skip_cache: Enable the session-aware short circuit.
        skip_tolerance: Skip-cache drift tolerance.
        output_path: Where to write ``BENCH_fleet.json`` (``None``
            skips).
        repeats: Timed repetitions of the fleet and single-process
            replays (each on a fresh service); the best-throughput run
            of each is reported.
        trace_source: ``"harvest"`` replays the traces on the uniform
            virtual clock (:func:`request_stream`); ``"twin"`` replays
            them on their epoch-derived arrival schedule
            (:func:`twin_request_schedule`).  Request contents are
            identical either way, so the zero-mismatch cross-checks
            hold for both.
    """
    if trace_source not in ("harvest", "twin"):
        raise KeyError(f"unknown trace source {trace_source!r}")
    config = config or LoadgenConfig(requests=4096, revisit_period=16)
    harness_config = harness_config or HarnessConfig()
    repeats = max(1, repeats)
    traces = harvest_traces(combos=combos, config=harness_config)
    schedule: list[tuple[float, DecisionRequest]] | None = None
    if trace_source == "twin":
        schedule = twin_request_schedule(traces, config)
        requests = [request for _, request in schedule]
    else:
        requests = request_stream(traces, config)

    # Warm both code paths (kernel construction, NumPy dispatch) on a
    # short prefix so neither timed replay pays first-call costs.
    warm = min(len(requests), 2 * config.max_batch_size)
    DecisionService(predictor, config=config.service_config()).decide(
        requests[:warm], now=0.0
    )

    single_report: LoadgenReport | None = None
    for _ in range(repeats):
        candidate = FleetLoadGenerator(predictor, config).run(
            traces, schedule=schedule
        )
        if (
            single_report is None
            or candidate.throughput_rps > single_report.throughput_rps
        ):
            single_report = candidate
    assert single_report is not None

    fleet_config = FleetConfig(
        workers=workers,
        service=config.service_config(),
        skip_cache=skip_cache,
        skip_tolerance=skip_tolerance,
    )
    # A throwaway fleet absorbs worker-spawn and first-pass costs; the
    # timed replay then runs on a fresh instance with clean counters
    # and an empty skip cache.
    with FleetDecisionService(predictor, fleet_config) as warm_fleet:
        warm_fleet.decide(requests[:warm], now=0.0)
    fleet_report: LoadgenReport | None = None
    mode = ""
    restarts = 0
    for _ in range(repeats):
        with FleetDecisionService(predictor, fleet_config) as fleet:
            generator = FleetLoadGenerator(predictor, config, service=fleet)
            candidate = generator.run(traces, schedule=schedule)
            if (
                fleet_report is None
                or candidate.throughput_rps > fleet_report.throughput_rps
            ):
                fleet_report = candidate
                mode = fleet.mode
                restarts = fleet.worker_restarts()
    assert fleet_report is not None

    scalar_fopts, scalar_s = scalar_decision_baseline(
        predictor,
        requests,
        include_leakage=config.include_leakage,
        qos_margin=config.qos_margin,
    )
    scalar_rps = len(requests) / scalar_s if scalar_s > 0 else float("inf")

    mismatches_single = sum(
        1
        for fleet_hz, single_hz in zip(
            fleet_report.fopts_hz(), single_report.fopts_hz()
        )
        if fleet_hz != single_hz
    )
    mismatches_scalar = sum(
        1
        for fleet_hz, scalar_hz in zip(fleet_report.fopts_hz(), scalar_fopts)
        if fleet_hz != scalar_hz
    )
    result = FleetBenchResult(
        fleet_report=fleet_report,
        single_report=single_report,
        workers=workers,
        mode=mode,
        worker_restarts=restarts,
        scalar_s=scalar_s,
        scalar_rps=scalar_rps,
        speedup_vs_single=(
            fleet_report.throughput_rps / single_report.throughput_rps
            if single_report.throughput_rps > 0
            else float("inf")
        ),
        speedup_vs_scalar=(
            fleet_report.throughput_rps / scalar_rps
            if scalar_rps > 0
            else float("inf")
        ),
        fopt_mismatches_vs_single=mismatches_single,
        fopt_mismatches_vs_scalar=mismatches_scalar,
        trace_source=trace_source,
    )
    if output_path is not None:
        Path(output_path).write_text(
            json.dumps(result.to_record(repeats=repeats), indent=2) + "\n"
        )
    return result
