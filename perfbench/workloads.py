"""The benchmark's four workloads.

Each workload is a fixed amount of work derived from ``--seconds`` and
``--seed``: the same pair always times the same operations.  A workload
has five steps, which ``run.py`` drives:

``inputs``   generate the inputs from the seed (not timed);
``setup``    build what the program needs before serving (timed as set-up);
``run``      the timed phase, sampling the host between ops (``gauge.py``);
``check``    compare outputs against the program's own oracles (not timed);
``instrument`` wrap the layer entry points the traced run times.

Nothing here imports ``repro`` at module level, so ``run.py`` can time
the package imports as part of set-up.  See ``README.md`` for why each
workload exists and what it stresses.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from gauge import Gauge
from tracing import Tracer

HERE = Path(__file__).resolve().parent

#: The stored ``serve`` inputs (written by ``make_bundle.py``): the model
#: bundle, the request vectors harvested from simulated devices, and the
#: hashes the benchmark accepts.
BUNDLE_PATH = HERE / "serve_bundle.json"
TRACES_PATH = HERE / "serve_traces.json"
PINNED_SHA256 = {
    BUNDLE_PATH.name: "596e13616a42d11db7a2007376d8f98c83006c116fc2f27149e37b9cc0b0ca4a",
    TRACES_PATH.name: "988fe13b56dce48d0483fbe6b9f5a587351320549164d216c7e136f4ca1b344b",
}

#: Nominal rates on the reference host (2 vCPU, CPython 3): they turn
#: ``--seconds`` into a fixed op count, so a run measures about that long
#: and every run of a workload times the same operations.
ENGINE_RUNS_PER_S = 190.0
FLEET_RUNS_PER_S = 3.5
SERVE_REQUESTS_PER_S = 25000.0
REPRODUCE_ROUND_S = 14.0

#: The CLI smoke campaign (``repro serve-bench --smoke`` et al.).
SMOKE_PAGES = ("amazon", "espn")
SMOKE_FREQS_HZ = (729.6e6, 1190.4e6, 1728.0e6, 2265.6e6)
SMOKE_DT_S = 0.004
SMOKE_SEED = 7

#: ``reproduce`` evaluates every low-complexity page once per round, so
#: every seed carries the same mix of page sizes (``browser_tasks``
#: costs 9-75 ms per load on these).  Page ``i`` always runs beside a
#: co-runner of intensity ``INTENSITIES[i % 3]``, four pages per
#: intensity; the seed deals each intensity's Table III kernels, cycled
#: to four, to its pages.  The heavy class (233-468 ms per load) is in
#: every run through the campaign's ``espn`` loads.
LIGHT_PAGES = (
    "360", "instagram", "alipay", "twitter", "youtube", "ebay",
    "amazon", "msn", "bbc", "reddit", "cnn", "alibaba",
)
INTENSITIES = ("low", "medium", "high")

#: Device-row dimensions of ``engine`` and ``fleetsim``.
HEAVY_PAGES = ("imgur", "firefox", "hao123", "espn", "imdb", "aliexpress")
LOW_FREQS_HZ = (729.6e6, 883.2e6, 960.0e6, 1190.4e6)
HIGH_FREQS_HZ = (1497.6e6, 1728.0e6, 1958.4e6, 2265.6e6)
#: Co-runners by Table III memory-intensity bin (``None``: page alone).
KERNEL_BINS = (
    (None,),
    ("srad", "heartwall", "kmeans", "hotspot"),
    ("srad2", "bfs", "b+tree"),
    ("backprop", "needleman-wunsch"),
)
AMBIENTS = ((25.0, 48.0), (5.0, 26.0), (25.0, 58.0), (35.0, 52.0))
DTS_S = (0.002, 0.004)

#: ``serve`` traffic: devices asking once per 100 ms DORA interval.  At
#: 1536 devices, three quarters of asks miss the skip cache and the
#: expected misses per 5 ms batch wait (about 56) sit just under the
#: 64-request batch cap, so both flush paths fire: batches close on the
#: wait where the seeded arrival offsets thin out and on size where they
#: bunch up.
SERVE_DEVICES = 1536
SERVE_INTERVAL_S = 0.1
SERVE_RESEND_SHARE = 0.25
SERVE_BELOW_FLOOR_SHARE = 0.02
SERVE_BELOW_FLOOR_S = 0.04

#: Sizes of the out-of-band correctness samples.
REFERENCE_SAMPLE = 3
SERVE_SCALAR_SAMPLE = 256


class BundleMismatch(RuntimeError):
    """The stored model bundle is not the one the benchmark pins."""


@dataclass
class Timed:
    """What the timed phase measured.

    Attributes:
        ops: Operations completed.
        wall_s: Op-clock time of the timed phase (wall time minus the
            host samples).
        latencies_s: One sample per op (per fleet run for ``fleetsim``),
            on the op clock.
        starts_s: Op-clock start of each latency sample.
    """

    ops: int
    wall_s: float
    latencies_s: Sequence[float]
    starts_s: Sequence[float]


@dataclass
class Checked:
    """Outcome of the correctness checks.

    Attributes:
        attempted: Ops attempted.
        failed: Ops whose output an oracle rejected.
        extras: Further workload figures, ``name -> (value, unit)``.
    """

    attempted: int
    failed: int
    extras: dict[str, tuple[float, str]] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
_RESULT_FIELDS = (
    "load_time_s", "had_gating", "duration_s", "energy_j", "switch_count",
    "switch_stall_s", "switch_energy_j", "final_temperature_c",
    "avg_temperature_c", "governor_name",
)
_SUMMARY_FIELDS = (
    "instructions", "l2_accesses", "l2_misses", "busy_s", "finish_time_s",
    "loops_completed",
)


def same_result(expected, actual) -> bool:
    """Whether two engine ``RunResult`` objects agree field for field."""
    for name in _RESULT_FIELDS:
        if getattr(expected, name) != getattr(actual, name):
            return False
    if expected.task_summaries.keys() != actual.task_summaries.keys():
        return False
    for task_id, summary in expected.task_summaries.items():
        other = actual.task_summaries[task_id]
        if any(getattr(summary, n) != getattr(other, n) for n in _SUMMARY_FIELDS):
            return False
    return (
        list(expected.decisions.times_s) == list(actual.decisions.times_s)
        and list(expected.decisions.frequencies_hz)
        == list(actual.decisions.frequencies_hz)
    )


def device_rows(rng: random.Random, kinds: tuple[str, ...]):
    """Seeded ``FleetRowSpec`` rows: every page once per entry of ``kinds``.

    ``kinds`` names the governor of each slot: ``"fixed"`` (a
    fixed-frequency row), ``"any"`` (fixed, interactive and ondemand in
    turn over the pages) or ``"util"`` (interactive and ondemand in
    turn).  What sets a row's cost -- page, governor, operating point,
    step size and co-runner intensity bin -- follows a fixed design over
    pages and slots, so every seed's mix costs the same to simulate; the
    seed draws the co-runner kernel within its bin and the ambient
    scenario of every row.
    """
    from repro.sim.fleet_engine import FleetRowSpec

    governors = {
        "fixed": ("fixed",),
        "any": ("fixed", "interactive", "ondemand"),
        "util": ("interactive", "ondemand"),
    }
    freqs_hz = LOW_FREQS_HZ + HIGH_FREQS_HZ
    rows = []
    for slot, kind in enumerate(kinds):
        for index, page in enumerate(LIGHT_PAGES + HEAVY_PAGES):
            turn = index + slot
            governor = governors[kind][turn % len(governors[kind])]
            ambient_c, junction_c = rng.choice(AMBIENTS)
            rows.append(
                FleetRowSpec(
                    page=page,
                    kernel=rng.choice(KERNEL_BINS[turn % len(KERNEL_BINS)]),
                    governor=governor,
                    freq_hz=(
                        freqs_hz[(3 * index + 5 * slot) % len(freqs_hz)]
                        if governor == "fixed" else None
                    ),
                    ambient_c=ambient_c,
                    initial_junction_c=junction_c,
                    dt_s=DTS_S[(index // 2 + slot) % len(DTS_S)],
                )
            )
    return rows


def rows_off_oracle(state, results, engine: str) -> set[int]:
    """Rows of a seeded sample whose result differs from a fresh solo run.

    ``engine="reference"`` runs each sampled row on ``ReferenceEngine``
    (the per-step oracle); ``"fast"`` on a fresh solo ``Engine``.
    """
    from repro.sim.fleet_engine import build_row_engine

    rng = random.Random(state["seed"] ^ 0x5EED)
    return {
        index
        for index in rng.sample(range(len(results)), REFERENCE_SAMPLE)
        if not same_result(
            build_row_engine(state["specs"][index], engine=engine).run(),
            results[index],
        )
    }


def _engine_steps(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["sim.engine_steps"] += round(
        result.duration_s / args[0].config.dt_s
    )


def then_tick(hook, gauge: Gauge):
    """``hook`` followed by a host sample when one is due."""

    def hooked(tracer, args, kwargs, result):
        hook(tracer, args, kwargs, result)
        gauge.tick()

    return hooked


def wrap_governors(tracer: Tracer) -> None:
    """Span every governor's ``decide`` (layer ``core``)."""
    from repro.core import governors
    from repro.core.dora import DoraGovernor

    classes = [DoraGovernor] + [
        value for value in vars(governors).values()
        if isinstance(value, type) and value.__module__ == governors.__name__
    ]
    for cls in classes:
        if "decide" in cls.__dict__:
            tracer.wrap(cls, "decide", "core.decide", "core")


def wrap_engine(tracer: Tracer) -> None:
    """Span ``Engine.run`` (layer ``sim``), counting simulated steps."""
    from repro.sim.engine import Engine

    tracer.wrap(Engine, "run", "sim.engine", "sim", on_return=_engine_steps)


def wrap_pages(tracer: Tracer) -> None:
    """Span page generation and the browser's per-load task build."""
    from repro.browser import browser, pages

    tracer.wrap(pages, "alexa_pages", "browser.pages", "browser")
    tracer.wrap(browser, "browser_tasks", "browser.tasks", "browser")


# ----------------------------------------------------------------------
# reproduce
# ----------------------------------------------------------------------
class Reproduce:
    """Cold serial slice of the paper pipeline: campaign, train, evaluate."""

    name = "reproduce"
    modules = (
        "repro.models.training", "repro.experiments.harness",
        "repro.experiments.suite", "repro.runtime",
    )

    def inputs(self, seed: int, seconds: float):
        from repro.experiments.suite import WorkloadCombo, training_pages
        from repro.workloads.classification import MemoryIntensity
        from repro.workloads.kernels import kernels_by_intensity

        rng = random.Random(seed)
        inclusive = set(training_pages())
        per_intensity = len(LIGHT_PAGES) // len(INTENSITIES)
        combos = []
        for _ in range(max(1, round(seconds / REPRODUCE_ROUND_S))):
            # Each intensity's kernels, cycled to one per page and dealt
            # in a seeded order: every seed runs the same kernels.
            dealt = {}
            for intensity in INTENSITIES:
                pool = kernels_by_intensity(MemoryIntensity(intensity))
                kernels = [pool[i % len(pool)].name for i in range(per_intensity)]
                rng.shuffle(kernels)
                dealt[intensity] = kernels
            for index, page in enumerate(LIGHT_PAGES):
                intensity = INTENSITIES[index % len(INTENSITIES)]
                combos.append(WorkloadCombo(
                    page_name=page,
                    kernel_name=dealt[intensity].pop(),
                    intensity=MemoryIntensity(intensity),
                    webpage_inclusive=page in inclusive,
                ))
        return {"seed": seed, "combos": tuple(combos)}

    def setup(self, inputs, tracer: Tracer):
        return dict(inputs)

    def run(self, state, tracer: Tracer, gauge: Gauge) -> Timed:
        from repro.experiments import harness
        from repro.experiments.harness import HarnessConfig, evaluate_suite
        from repro.models import training
        from repro.models.training import TrainingConfig, run_campaign, train_models
        from repro.sim.engine import template_cache_stats

        # One op is one simulated page load: a campaign measurement or a
        # harness load.  This light timer runs in the untraced run too,
        # and the host is sampled between loads.
        loads = Tracer(clock=gauge.now)
        loads.wrap(training, "measure_once", "load", "models",
                   on_return=then_tick(_campaign_load_outcome, gauge))
        loads.wrap(harness, "run_workload", "load", "experiments",
                   on_return=then_tick(_harness_load_outcome, gauge))
        loads.active = True
        before = template_cache_stats()
        started = gauge.now()
        try:
            observations = run_campaign(
                TrainingConfig(
                    pages=SMOKE_PAGES, freqs_hz=SMOKE_FREQS_HZ,
                    dt_s=SMOKE_DT_S, seed=SMOKE_SEED,
                ),
                workers=0,
            )
            models = train_models(observations)
            evaluations = evaluate_suite(
                models.predictor,
                combos=state["combos"],
                config=HarnessConfig(dt_s=SMOKE_DT_S),
                workers=0,
            )
        finally:
            wall = gauge.now() - started
            loads.active = False
            loads.restore()
        state.update(
            models=models, evaluations=evaluations, loads=loads,
            templates=_template_delta(before, template_cache_stats()),
        )
        latencies = loads.durations("load")
        starts = [span[2] for span in loads.spans]
        return Timed(ops=len(latencies), wall_s=wall, latencies_s=latencies,
                     starts_s=starts)

    def check(self, state, timed: Timed) -> Checked:
        from repro.experiments.harness import mean_normalized_ppw

        failed = int(state["loads"].counts["failed_loads"])
        failed += sum(
            0 if ok else 1 for ok in reference_agreement(state, state["seed"])
        )
        gain = mean_normalized_ppw(state["evaluations"], "DORA")
        return Checked(
            attempted=timed.ops,
            failed=failed,
            extras={"ppw_gain_dora": (gain, "1")},
        )

    def instrument(self, tracer: Tracer) -> None:
        import repro.runtime
        from repro.experiments import harness
        from repro.models import training
        from repro.models.predictor import DoraPredictor
        from repro.runtime import pool

        wrap_pages(tracer)
        wrap_engine(tracer)
        wrap_governors(tracer)
        tracer.wrap(DoraPredictor, "prediction_table", "models.predict", "models")
        tracer.wrap(training, "run_campaign", "models.campaign", "models")
        tracer.wrap(training, "train_models", "models.train", "models")
        tracer.wrap(harness, "evaluate_suite", "experiments.eval", "experiments")
        tracer.wrap(repro.runtime, "run_jobs", "runtime.run_jobs", "runtime")
        tracer.wrap(pool, "execute", "runtime.job", _job_layer)


def _job_layer(job) -> str:
    return "models" if job.kind == "campaign-measurement" else "experiments"


def _campaign_load_outcome(tracer: Tracer, args, kwargs, result) -> None:
    if result is None:
        tracer.counts["failed_loads"] += 1


def _harness_load_outcome(tracer: Tracer, args, kwargs, result) -> None:
    if result.timed_out:
        tracer.counts["failed_loads"] += 1


def reference_agreement(state, seed: int) -> list[bool]:
    """Re-run a seeded sample of evaluation loads on ``ReferenceEngine``.

    Returns one flag per sampled load: ``True`` when the per-step
    reference loop reproduced the stored result field for field (sweep
    points: load time and power; governor runs: the whole summary).
    """
    from repro.core.governors import FixedFrequencyGovernor
    from repro.experiments.harness import (
        DEFAULT_COMPARISON, HarnessConfig, RunSummary, make_governor,
        run_workload,
    )

    config = HarnessConfig(dt_s=SMOKE_DT_S, engine="reference")
    predictor = state["models"].predictor
    rng = random.Random(seed ^ 0x5EED)
    evaluations = state["evaluations"]
    flags = []
    for _ in range(REFERENCE_SAMPLE):
        evaluation = rng.choice(evaluations)
        page, kernel = evaluation.combo.page_name, evaluation.combo.kernel_name
        if rng.random() < 0.5:
            point = rng.choice(evaluation.sweep)
            governor = FixedFrequencyGovernor(freq_hz=point.freq_hz, label="fixed")
            result = run_workload(page, kernel, governor, config)
            flags.append(
                result.load_time_s == point.load_time_s
                and result.avg_power_w == point.power_w
            )
        else:
            name = rng.choice(DEFAULT_COMPARISON)
            governor = make_governor(name, predictor, config)
            result = run_workload(page, kernel, governor, config)
            flags.append(RunSummary.from_result(result) == evaluation.runs[name])
    return flags


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
class EngineWorkload:
    """Repeated solo ``Engine.run`` calls over a seeded device mix."""

    name = "engine"
    modules = ("repro.sim.fleet_engine", "repro.sim.engine", "repro.browser.browser")

    def inputs(self, seed: int, seconds: float):
        rng = random.Random(seed)
        # 35 engines, not 36: with an odd count the median op falls inside
        # one engine's runs instead of on the seam between two engines.
        return {
            "seed": seed,
            "specs": device_rows(rng, ("fixed", "any"))[:-1],
            "runs": max(1, round(seconds * ENGINE_RUNS_PER_S)),
        }

    def setup(self, inputs, tracer: Tracer):
        from repro.sim.fleet_engine import build_row_engine

        engines = [build_row_engine(spec) for spec in inputs["specs"]]
        warm = [engine.run() for engine in engines]
        return dict(inputs, engines=engines, warm=warm)

    def run(self, state, tracer: Tracer, gauge: Gauge) -> Timed:
        from repro.sim.engine import template_cache_stats

        engines = state["engines"]
        count = len(engines)
        runs = state["runs"]
        results = [None] * runs
        starts = [0.0] * runs
        latencies = [0.0] * runs
        clock, tick = gauge.now, gauge.tick
        before = template_cache_stats()
        started = clock()
        for op in range(runs):
            engine = engines[op % count]
            starts[op] = begun = clock()
            results[op] = engine.run()
            latencies[op] = clock() - begun
            tick()
        wall = clock() - started
        state["templates"] = _template_delta(before, template_cache_stats())
        state["results"] = results
        return Timed(ops=runs, wall_s=wall, latencies_s=latencies, starts_s=starts)

    def check(self, state, timed: Timed) -> Checked:
        warm = state["warm"]
        count = len(warm)
        bad_rows = rows_off_oracle(state, warm, engine="reference")
        failed = sum(
            1
            for op, result in enumerate(state["results"])
            if op % count in bad_rows or not same_result(warm[op % count], result)
        )
        return Checked(attempted=timed.ops, failed=failed)

    def instrument(self, tracer: Tracer) -> None:
        wrap_pages(tracer)
        wrap_engine(tracer)
        wrap_governors(tracer)


def _template_delta(before: dict, after: dict) -> dict[str, int]:
    return {key: after[key] - before[key] for key in ("hits", "misses")}


# ----------------------------------------------------------------------
# fleetsim
# ----------------------------------------------------------------------
class Fleetsim:
    """One seeded ``FleetEngine`` built once, then run repeatedly."""

    name = "fleetsim"
    modules = ("repro.sim.fleet_engine", "repro.sim.engine", "repro.browser.browser")

    def inputs(self, seed: int, seconds: float):
        rng = random.Random(seed)
        return {
            "seed": seed,
            "specs": device_rows(rng, ("fixed", "fixed", "util")),
            "runs": max(1, round(seconds * FLEET_RUNS_PER_S)),
        }

    def setup(self, inputs, tracer: Tracer):
        from repro.sim.fleet_engine import FleetEngine

        # The stage clock is injected in the traced run only.
        fleet = FleetEngine(
            rows=inputs["specs"], clock=tracer.clock if tracer.active else None,
        )
        first = fleet.run()
        return dict(inputs, fleet=fleet, first=first)

    def run(self, state, tracer: Tracer, gauge: Gauge) -> Timed:
        from repro.sim.engine import template_cache_stats

        fleet = state["fleet"]
        runs = state["runs"]
        results = []
        starts = []
        latencies = []
        stages: dict[str, float] = {}
        clock = gauge.now
        before = template_cache_stats()
        started = clock()
        for _ in range(runs):
            begun = clock()
            results.append(fleet.run())
            starts.append(begun)
            latencies.append(clock() - begun)
            for stage, seconds in fleet.stage_seconds.items():
                stages[stage] = stages.get(stage, 0.0) + seconds
            gauge.tick()
        wall = clock() - started
        state.update(
            results=results, stages=stages,
            templates=_template_delta(before, template_cache_stats()),
        )
        return Timed(ops=runs * len(state["specs"]), wall_s=wall,
                     latencies_s=latencies, starts_s=starts)

    def check(self, state, timed: Timed) -> Checked:
        first = state["first"]
        rows = len(first)
        bad_rows = rows_off_oracle(state, first, engine="fast")
        failed = 0
        for results in state["results"]:
            failed += len(results) != rows
            failed += sum(
                1
                for index, result in enumerate(results)
                if index in bad_rows or not same_result(first[index], result)
            )
        return Checked(attempted=timed.ops, failed=failed)

    def instrument(self, tracer: Tracer) -> None:
        from repro.sim.fleet_engine import FleetEngine

        wrap_pages(tracer)
        wrap_engine(tracer)
        wrap_governors(tracer)
        tracer.wrap(FleetEngine, "__init__", "sim.fleet.build", "sim")
        tracer.wrap(FleetEngine, "run", "sim.fleet.run", "sim")


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def read_pinned(path: Path) -> bytes:
    """The bytes of a stored ``serve`` input whose hash the benchmark pins.

    Raises:
        BundleMismatch: When the file's SHA-256 is not the pinned one.
    """
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    expected = PINNED_SHA256.get(path.name)
    if digest != expected:
        raise BundleMismatch(
            f"{path.name} has sha256 {digest}, the benchmark pins {expected}; "
            "regenerate it with make_bundle.py and update PINNED_SHA256"
        )
    return data


def load_bundle():
    """The pinned model bundle, loaded as a serving process would."""
    from repro.models.serialization import load_predictor

    read_pinned(BUNDLE_PATH)
    return load_predictor(BUNDLE_PATH)


def load_traces():
    """The pinned harvested request vectors, one entry per simulated
    device run: ``(page census, deadline_s, ((mpki, utilization,
    temperature_c), ...))``."""
    from repro.browser.dom import PageFeatures

    return [
        (
            PageFeatures(*trace["census"]),
            trace["deadline_s"],
            tuple(tuple(observation) for observation in trace["observations"]),
        )
        for trace in json.loads(read_pinned(TRACES_PATH))["traces"]
    ]


@dataclass
class Traffic:
    """Seeded ``serve`` asks, kept in arrays so that the inputs stay a
    small share of the process's memory.

    Ticket ``t`` arrives at virtual time ``times[t]`` with ask vector
    ``vectors[t]``; a re-send repeats its device's previous vector.
    Vector ``v`` is device ``vector_device[v]``'s observation
    ``vector_step[v]`` of its harvested trace, with a deadline below the
    model floor where ``vector_tight[v]`` is set.
    """

    traces: list
    device_trace: list[int]
    times: array = field(default_factory=lambda: array("d"))
    vectors: array = field(default_factory=lambda: array("I"))
    vector_device: array = field(default_factory=lambda: array("H"))
    vector_step: array = field(default_factory=lambda: array("H"))
    vector_tight: bytearray = field(default_factory=bytearray)

    def request_fields(self, vector: int) -> tuple:
        """The ``DecisionRequest`` fields of ask vector ``vector``, in order."""
        device = self.vector_device[vector]
        page, deadline_s, observations = self.traces[self.device_trace[device]]
        mpki, utilization, temperature_c = observations[self.vector_step[vector]]
        return (
            f"device-{device:05d}", page, mpki, utilization, temperature_c,
            SERVE_BELOW_FLOOR_S if self.vector_tight[vector] else deadline_s,
        )


def serve_traffic(seed: int, requests: int) -> Traffic:
    """Seeded asks of ``SERVE_DEVICES`` devices replaying harvested traces.

    Every device replays one seeded trace from a seeded starting point
    and asks once per 100 ms interval at a seeded offset.  About a
    quarter of asks re-send the device's previous vector unchanged
    (skip-cache hits); the rest advance to the trace's next observation,
    and a small share of those carries a deadline below the model floor
    (rejected at admission).
    """
    rng = random.Random(seed)
    traces = load_traces()
    device_trace = [rng.randrange(len(traces)) for _ in range(SERVE_DEVICES)]
    steps = [rng.randrange(len(traces[trace][2])) for trace in device_trace]
    offsets = [rng.random() * SERVE_INTERVAL_S for _ in range(SERVE_DEVICES)]
    order = sorted(range(SERVE_DEVICES), key=offsets.__getitem__)
    last = [-1] * SERVE_DEVICES
    traffic = Traffic(traces, device_trace)
    for ticket in range(requests):
        interval, slot = divmod(ticket, SERVE_DEVICES)
        device = order[slot]
        if last[device] < 0 or rng.random() >= SERVE_RESEND_SHARE:
            steps[device] = (steps[device] + 1) % len(traces[device_trace[device]][2])
            last[device] = len(traffic.vector_device)
            traffic.vector_device.append(device)
            traffic.vector_step.append(steps[device])
            traffic.vector_tight.append(rng.random() < SERVE_BELOW_FLOOR_SHARE)
        traffic.times.append(interval * SERVE_INTERVAL_S + offsets[device])
        traffic.vectors.append(last[device])
    return traffic


class _VirtualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class Serve:
    """Closed-loop replay through an in-process ``FleetDecisionService``."""

    name = "serve"
    modules = ("repro.serve.fleet", "repro.serve.service", "repro.models.serialization")

    def inputs(self, seed: int, seconds: float):
        requests = max(1, round(seconds * SERVE_REQUESTS_PER_S))
        return {"seed": seed, "traffic": serve_traffic(seed, requests)}

    def setup(self, inputs, tracer: Tracer):
        from repro.browser.dom import PageFeatures
        from repro.serve.fleet import FleetConfig, FleetDecisionService

        predictor = load_bundle()
        clock = _VirtualClock()
        service = FleetDecisionService(
            predictor, config=FleetConfig(workers=1, skip_cache=True), clock=clock,
        )
        # Warm the shared vectorized kernel with one scalar decision.
        predictor.prediction_table(
            page_features=PageFeatures(929, 199, 166, 150, 104),
            corunner_mpki=4.0, corunner_utilization=0.5, temperature_c=45.0,
        )
        return dict(inputs, predictor=predictor, service=service, clock=clock)

    def run(self, state, tracer: Tracer, gauge: Gauge) -> Timed:
        from repro.serve.service import DecisionRequest

        service = state["service"]
        virtual = state["clock"]
        traffic = state["traffic"]
        times, vectors = traffic.times, traffic.vectors
        vector_device, request_fields = traffic.vector_device, traffic.request_fields
        total = len(times)
        starts = array("d", bytes(8 * total))
        latencies = array("d", bytes(8 * total))
        answers = bytearray(total)
        # Per ticket: served fopt, and the shard queue delay (NaN for
        # rejections and skip-cache replays, which never queue).
        fopts = array("d", bytes(8 * total))
        delays = array("d", bytes(8 * total))
        # Each device's current ask; a re-send submits the same object.
        asking = [None] * SERVE_DEVICES
        asked = array("l", [-1]) * SERVE_DEVICES
        clock, tick = gauge.now, gauge.tick

        def absorb(ready, done: float) -> None:
            for response in ready:
                ticket = response.request_id
                answers[ticket] += 1
                latencies[ticket] = done - starts[ticket]
                fopts[ticket] = response.fopt_hz
                trace = response.trace
                delays[ticket] = (
                    response.queue_delay_s
                    if trace is not None and not trace.skipped else math.nan
                )

        started = clock()
        for ticket in range(total):
            vector = vectors[ticket]
            device = vector_device[vector]
            if asked[device] != vector:
                asking[device] = DecisionRequest(*request_fields(vector))
                asked[device] = vector
            now = times[ticket]
            virtual.now = now
            tracer.ticket = ticket
            starts[ticket] = clock()
            ready = service.poll(now)
            ready += service.submit(asking[device], now)
            absorb(ready, clock())
            tick()
        virtual.now = times[-1] + service.config.service.max_wait_s
        tracer.ticket = None
        absorb(service.flush(virtual.now), clock())
        wall = clock() - started
        state.update(
            answers=answers, fopts=fopts, delays=delays,
            stats=service.merged_stats(),
        )
        return Timed(ops=total, wall_s=wall, latencies_s=latencies, starts_s=starts)

    def check(self, state, timed: Timed) -> Checked:
        bad = {ticket for ticket, count in enumerate(state["answers"]) if count != 1}
        bad.update(
            ticket for ticket, agrees in scalar_agreement(state).items() if not agrees
        )
        return Checked(attempted=timed.ops, failed=len(bad))

    def instrument(self, tracer: Tracer) -> None:
        from repro.serve import batch_predictor, fleet, service

        for verb in ("submit", "poll", "flush"):
            tracer.wrap(fleet.FleetDecisionService, verb, f"serve.{verb}", "serve")
        # The kernel: the vectorized model pass and the selection per flush.
        tracer.wrap(batch_predictor.BatchDoraPredictor, "predict", "serve.kernel", "serve")
        tracer.wrap(service, "select_fopt_rows", "serve.kernel", "serve", everywhere=False)


def scalar_agreement(state) -> dict[int, bool]:
    """Decide a seeded sample of tickets with the scalar path.

    Returns ``ticket -> agrees``: whether the served fopt is bit-equal to
    ``prediction_table`` + ``select_fopt`` on the same request (the
    scalar ``DoraGovernor`` decision).
    """
    from repro.core.ppw import select_fopt

    predictor = state["predictor"]
    traffic = state["traffic"]
    total = len(traffic.times)
    rng = random.Random(state["seed"] ^ 0x5EED)
    agreement = {}
    for ticket in rng.sample(range(total), min(SERVE_SCALAR_SAMPLE, total)):
        _, page, mpki, utilization, temperature_c, deadline_s = traffic.request_fields(
            traffic.vectors[ticket]
        )
        table = predictor.prediction_table(
            page_features=page,
            corunner_mpki=mpki,
            corunner_utilization=utilization,
            temperature_c=temperature_c,
        )
        agreement[ticket] = (
            select_fopt(table, deadline_s).freq_hz == state["fopts"][ticket]
        )
    return agreement


WORKLOADS = {
    workload.name: workload
    for workload in (Reproduce(), EngineWorkload(), Fleetsim(), Serve())
}
