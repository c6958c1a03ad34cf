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
turn them into ``(arrival_s, request)`` schedules:

* :func:`uniform_request_schedule` -- a uniform ``1 / target_qps``
  virtual drip.
* :func:`twin_request_schedule` -- each request arrives at its
  observation's decision-epoch timestamp inside its device's own
  trajectory, so the service sees the bursty arrival pattern a real
  fleet produces instead of a uniform drip.  The request *contents*
  equal the uniform schedule's; only the arrival process differs.

:func:`replay` is the one loop that drives a router through a
schedule; every serving bench replays through it.
:func:`run_fleet_bench` packages the whole thing: harvest, replay
through the router with its skip cache and through one plain
single-process service, a scalar per-request baseline over the
identical stream, and
a full fopt-equality cross-check between the three, with
p50/p95/p99 latency, throughput and the speedups in its
``BENCH_fleet.json`` record.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.browser.dom import PageFeatures
from repro.browser.pages import page_by_name
from repro.core.governors import InteractiveGovernor, counter_readings
from repro.core.ppw import select_fopt
from repro.experiments.cache import memoized
from repro.experiments.harness import HarnessConfig, workload_engine
from repro.experiments.suite import WorkloadCombo, all_combos
from repro.serve.fleet import (
    DecisionService,
    FleetConfig,
    FleetDecisionService,
    FleetStats,
)
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


#: What a governor sees before its first counter window closes.
_COLD_OBSERVATION = CounterObservation(0.0, *counter_readings(None, ()))


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
        self.observations.append(
            CounterObservation(
                context.elapsed_s,
                *counter_readings(sample, context.corunner_cores),
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


def uniform_request_schedule(
    traces: Sequence[DeviceTrace], config: LoadgenConfig
) -> list[tuple[float, DecisionRequest]]:
    """Uniform fleet arrivals: request ``i`` arrives at ``i / target_qps``.

    Returns:
        :func:`request_stream`'s requests as ``(arrival_s, request)``
        pairs, in submission order.
    """
    gap_s = 1.0 / config.target_qps
    return [
        (index * gap_s, request)
        for index, request in enumerate(request_stream(traces, config))
    ]


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
        stats: The router's counters after the replay
            (:meth:`~repro.serve.fleet.FleetDecisionService.merged_stats`):
            model passes, batch sizes, rejections and skip-cache hits.
    """

    config: LoadgenConfig
    responses: tuple[DecisionResponse, ...]
    latency: LatencyStats
    wall_s: float
    throughput_rps: float
    stats: FleetStats

    def fopts_hz(self) -> list[float]:
        """Served fopt per request, in submission order."""
        return [response.fopt_hz for response in self.responses]


def replay(
    service: FleetDecisionService,
    schedule: Iterable[tuple[float, DecisionRequest]],
    config: LoadgenConfig,
) -> LoadgenReport:
    """Drive a router through a request schedule and collect the report.

    Each request is submitted at its virtual arrival, right after a
    ``poll`` at the same instant, and one final ``flush`` lands at the
    last arrival + ``1 / target_qps`` + ``max_wait_s``.  Every router
    call gets its virtual ``now`` explicitly, so the service's own
    clock is never consulted and batch boundaries are fully
    deterministic.  Latency is measured per request on the wall clock:
    the span from its ``submit`` call to the call that returned its
    response.

    Args:
        service: A fresh router (its tickets number from 0 in
            submission order): a :class:`DecisionService` or a
            :class:`FleetDecisionService`.
        schedule: ``(arrival_s, request)`` pairs in non-decreasing
            arrival order (:func:`uniform_request_schedule`,
            :func:`twin_request_schedule`).  Consumed lazily, so a
            generator can act on the service between two submissions.
        config: The replay parameters.

    Raises:
        ValueError: When the schedule is empty.
    """
    submitted_at: dict[int, float] = {}
    latencies: list[float] = []
    responses: list[DecisionResponse] = []

    def collect(batch: list[DecisionResponse]) -> None:
        if not batch:
            return
        wall_now = time.perf_counter()
        for response in batch:
            latencies.append(wall_now - submitted_at.pop(response.request_id))
            responses.append(response)

    arrival_s: float | None = None
    wall_start = time.perf_counter()
    for ticket, (arrival_s, request) in enumerate(schedule):
        collect(service.poll(arrival_s))
        submitted_at[ticket] = time.perf_counter()
        collect(service.submit(request, arrival_s))
    if arrival_s is None:
        raise ValueError("need at least one scheduled request")
    collect(service.flush(arrival_s + 1.0 / config.target_qps + config.max_wait_s))
    wall_s = time.perf_counter() - wall_start

    responses.sort(key=lambda response: response.request_id)
    return LoadgenReport(
        config=config,
        responses=tuple(responses),
        latency=LatencyStats.from_samples(latencies),
        wall_s=wall_s,
        throughput_rps=len(responses) / wall_s if wall_s > 0 else float("inf"),
        stats=service.merged_stats(),
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
    """A fleet replay against its single-process and scalar twins.

    Attributes:
        fleet_report: The fleet replay's measurements (including the
            skip count).
        single_report: The same stream through one plain
            :class:`DecisionService`.
        scalar_s: Wall time of the per-request scalar loop.
        scalar_rps: Scalar decisions per second.
        speedup_vs_single: Fleet throughput over single-process
            batched throughput (``benchmarks/test_fleet_throughput.py``
            holds it to >= 3x).
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
            "devices": config.devices,
            "requests": config.requests,
            "target_qps": config.target_qps,
            "max_batch_size": config.max_batch_size,
            "max_wait_ms": round(config.max_wait_s * 1e3, 3),
            "revisit_period": config.revisit_period,
            "include_leakage": config.include_leakage,
            "qos_margin": config.qos_margin,
            "skips": fleet.stats.skips_total,
            "skip_rate": round(fleet.stats.skip_rate(), 4),
            "rejected": fleet.stats.rejected_total,
            "batches": fleet.stats.batches_total,
            "mean_batch_size": round(fleet.stats.mean_batch_size(), 2),
            "largest_batch": fleet.stats.largest_batch,
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


def fopt_mismatches(lhs: Sequence[float], rhs: Sequence[float]) -> int:
    """Positions where two fopt streams of one schedule disagree."""
    return sum(1 for lhs_hz, rhs_hz in zip(lhs, rhs) if lhs_hz != rhs_hz)


def _best_replay(
    make_service: Callable[[], FleetDecisionService],
    schedule: Sequence[tuple[float, DecisionRequest]],
    config: LoadgenConfig,
    repeats: int,
) -> LoadgenReport:
    """The highest-throughput of ``repeats`` replays, each on a fresh router.

    A throwaway router first decides a short prefix, absorbing
    first-pass costs (kernel construction, NumPy dispatch);
    each timed replay then starts with clean counters and an empty
    skip cache.
    """
    warm = [request for _, request in schedule[: 2 * config.max_batch_size]]
    with make_service() as service:
        service.decide(warm, now=0.0)

    def timed() -> LoadgenReport:
        with make_service() as service:
            return replay(service, schedule, config)

    return max(
        (timed() for _ in range(max(1, repeats))),
        key=lambda report: report.throughput_rps,
    )


def run_fleet_bench(
    predictor,
    config: LoadgenConfig | None = None,
    harness_config: HarnessConfig | None = None,
    combos: Sequence[WorkloadCombo] | None = None,
    skip_cache: bool = True,
    skip_tolerance: float = 0.0,
    repeats: int = 1,
    trace_source: str = "harvest",
) -> FleetBenchResult:
    """Replay one stream three ways -- fleet, single-process, scalar.

    The same harvested request stream (by default with a revisit
    pattern so the skip cache has real traffic to absorb) is replayed
    through a :class:`~repro.serve.fleet.FleetDecisionService`, through
    one plain :class:`DecisionService`, and through the scalar
    per-request loop; fopt is cross-checked bit-for-bit between all
    three and the throughput ratios recorded.  With
    ``skip_cache=False`` the fleet replay is the router the
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
        skip_cache: Enable the session-aware short circuit.
        skip_tolerance: Skip-cache drift tolerance.
        repeats: Timed repetitions of the fleet and single-process
            replays (each on a fresh service); the best-throughput run
            of each is reported.
        trace_source: ``"harvest"`` replays the traces on the uniform
            virtual clock (:func:`uniform_request_schedule`);
            ``"twin"`` replays them on their epoch-derived arrival
            schedule (:func:`twin_request_schedule`).  Request contents
            are identical either way, so the zero-mismatch cross-checks
            hold for both.

    Returns:
        The result; :meth:`FleetBenchResult.to_record` builds its
        ``BENCH_fleet.json`` record.
    """
    schedules = {
        "harvest": uniform_request_schedule,
        "twin": twin_request_schedule,
    }
    if trace_source not in schedules:
        raise KeyError(f"unknown trace source {trace_source!r}")
    config = config or LoadgenConfig(requests=4096, revisit_period=16)
    harness_config = harness_config or HarnessConfig()
    traces = harvest_traces(combos=combos, config=harness_config)
    schedule = schedules[trace_source](traces, config)
    requests = [request for _, request in schedule]

    service_config = config.service_config()
    single_report = _best_replay(
        lambda: DecisionService(predictor, service_config), schedule, config, repeats
    )
    fleet_config = FleetConfig(
        service=service_config,
        skip_cache=skip_cache,
        skip_tolerance=skip_tolerance,
    )
    fleet_report = _best_replay(
        lambda: FleetDecisionService(predictor, fleet_config), schedule, config, repeats
    )

    scalar_fopts, scalar_s = scalar_decision_baseline(
        predictor,
        requests,
        include_leakage=config.include_leakage,
        qos_margin=config.qos_margin,
    )
    scalar_rps = len(requests) / scalar_s if scalar_s > 0 else float("inf")
    return FleetBenchResult(
        fleet_report=fleet_report,
        single_report=single_report,
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
        fopt_mismatches_vs_single=fopt_mismatches(
            fleet_report.fopts_hz(), single_report.fopts_hz()
        ),
        fopt_mismatches_vs_scalar=fopt_mismatches(
            fleet_report.fopts_hz(), scalar_fopts
        ),
        trace_source=trace_source,
    )
