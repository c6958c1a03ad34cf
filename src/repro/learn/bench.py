"""End-to-end benchmark of the online learning loop (``swap-bench``).

One run exercises the whole closed loop and measures its cost:

1. **Harvest** -- replay a loadgen stream through a fleet with
   telemetry streaming attached, filling a
   :class:`~repro.learn.telemetry.TelemetryStore`.
2. **Retrain** -- refit the models from that telemetry against the
   generating predictor and publish the candidate to a
   :class:`~repro.learn.registry.ModelRegistry`.
3. **Shadow** -- replay the same stream on a fresh fleet with the
   candidate scoring in shadow; the closed-loop invariant demands
   **zero** mismatches (the candidate was fit on the generating
   model's own unfloored predictions), and the throughput delta
   against a plain replay is the shadow-mode overhead.
4. **Hot-swap** -- replay once more, swapping the candidate in
   mid-stream under sustained traffic; every ticket must come back
   (no drops) and, because candidate and generating model agree on
   the replayed vectors, the fopt stream must stay bit-identical to
   the baseline.

Every phase replays the same schedule through
:func:`~repro.serve.loadgen.replay`.  The ``BENCH_swap.json`` record
(:meth:`SwapBenchResult.to_record`) carries all four phases plus the
shared :func:`~repro.experiments.reporting.bench_envelope`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from repro.experiments.harness import HarnessConfig
from repro.experiments.reporting import bench_envelope
from repro.experiments.suite import WorkloadCombo
from repro.learn.registry import ModelRegistry
from repro.learn.retrain import RetrainConfig, RetrainResult, retrain_from_telemetry
from repro.learn.telemetry import TelemetryStore
from repro.serve.loadgen import (
    LoadgenConfig,
    LoadgenReport,
    fopt_mismatches,
    harvest_traces,
    replay,
    uniform_request_schedule,
)
from repro.serve.service import DecisionRequest


@dataclass
class SwapPhaseResult:
    """What the mid-stream hot-swap replay observed.

    Attributes:
        swap_at_request: Stream index the swap was issued at.
        report: The swapped replay's measurements.
        dropped_tickets: Submitted tickets that never came back.
        fopt_mismatches_vs_baseline: Positions where the swapped
            replay's fopt differs from the baseline replay's.
        swap_call_s: Wall time of the ``swap_model`` call itself.
        model_version_after: The fleet's version counter at the end.
    """

    swap_at_request: int
    report: LoadgenReport
    dropped_tickets: int
    fopt_mismatches_vs_baseline: int
    swap_call_s: float
    model_version_after: int


@dataclass
class SwapBenchResult:
    """Everything one swap-bench run measured.

    Attributes:
        baseline_report: Plain fleet replay (no shadow, no telemetry).
        shadow_report: The same replay with the candidate in shadow.
        shadow_score: The shadow window's mismatch/regret record.
        shadow_overhead: ``1 - shadow_rps / baseline_rps`` (negative
            means noise made the shadow replay faster).
        promoted: Whether the candidate met the promote threshold.
        retrain: The retraining run's counts and registry version.
        swap: The mid-stream hot-swap phase.
        telemetry_records: Records harvested into the store.
    """

    baseline_report: LoadgenReport
    shadow_report: LoadgenReport
    shadow_score: dict[str, Any]
    shadow_overhead: float
    promoted: bool
    retrain: RetrainResult
    swap: SwapPhaseResult
    telemetry_records: int

    def to_record(self, repeats: int = 1) -> dict[str, Any]:
        """The ``BENCH_swap.json`` payload (envelope included)."""
        config = self.baseline_report.config
        return {
            "envelope": bench_envelope("swap-bench", repeats=repeats),
            "devices": config.devices,
            "requests": config.requests,
            "revisit_period": config.revisit_period,
            "telemetry_records": self.telemetry_records,
            "retrain": self.retrain.to_record(),
            "baseline_throughput_rps": round(
                self.baseline_report.throughput_rps, 1
            ),
            "shadow_throughput_rps": round(self.shadow_report.throughput_rps, 1),
            "shadow_overhead": round(self.shadow_overhead, 4),
            "shadow_mismatches": self.shadow_score["mismatches"],
            "shadow_scored": self.shadow_score["scored"],
            "shadow_by_class": self.shadow_score["by_class"],
            "promoted": self.promoted,
            "swap": {
                "at_request": self.swap.swap_at_request,
                "responses": len(self.swap.report.responses),
                "dropped_tickets": self.swap.dropped_tickets,
                "fopt_mismatches_vs_baseline": (
                    self.swap.fopt_mismatches_vs_baseline
                ),
                "swap_call_ms": round(self.swap.swap_call_s * 1e3, 3),
                "wall_s": round(self.swap.report.wall_s, 4),
                "throughput_rps": round(self.swap.report.throughput_rps, 1),
                "model_version_after": self.swap.model_version_after,
            },
        }


def _swapping(
    schedule: Iterable[tuple[float, DecisionRequest]],
    fleet,
    candidate,
    swap_at: int,
    swap_call_s: list[float],
) -> Iterator[tuple[float, DecisionRequest]]:
    """The schedule, hot-swapping ``candidate`` in before request ``swap_at``.

    The swap lands between two submits, exactly where a production
    controller would make it; the ``swap_model`` call's wall time is
    appended to ``swap_call_s``.
    """
    for index, entry in enumerate(schedule):
        if index == swap_at:
            started = time.perf_counter()
            fleet.swap_model(candidate)
            swap_call_s.append(time.perf_counter() - started)
        yield entry


def run_swap_bench(
    predictor,
    config: LoadgenConfig | None = None,
    harness_config: HarnessConfig | None = None,
    combos: Sequence[WorkloadCombo] | None = None,
    work_dir: str | Path | None = None,
    repeats: int = 1,
    promote_threshold: float = 0.0,
) -> SwapBenchResult:
    """Run the full harvest -> retrain -> shadow -> hot-swap loop.

    Args:
        predictor: The generating (currently serving) bundle.
        config: Replay parameters (default: fleet-bench defaults with
            a revisit pattern, so the skip cache and anchor-clearing
            paths are exercised too).
        harness_config: Simulator config for trace harvesting.
        combos: Workloads to harvest (default: first six suite combos).
        work_dir: Directory for the telemetry store and registry
            (default: a ``swap-bench`` subtree of the repro cache).
        repeats: Timed repetitions of the baseline/shadow replays; the
            best (highest-throughput) of each is reported, the smoke
            default of 1 keeps CI fast.
        promote_threshold: Mismatch rate the promote decision allows.

    Returns:
        The result; :meth:`SwapBenchResult.to_record` builds its
        ``BENCH_swap.json`` record.
    """
    from repro.experiments.cache import cache_dir
    from repro.serve.fleet import FleetConfig, FleetDecisionService

    config = config or LoadgenConfig(requests=2048, revisit_period=16)
    harness_config = harness_config or HarnessConfig()
    work_dir = Path(work_dir) if work_dir is not None else cache_dir() / "swap-bench"
    work_dir.mkdir(parents=True, exist_ok=True)
    store = TelemetryStore(work_dir / "telemetry")
    registry = ModelRegistry(work_dir / "registry")
    # Stale telemetry from an earlier bench run may have been generated
    # by a *different* model; the closed-loop invariant is only about
    # this run's harvest, so start from an empty partition.
    for shard_file in store.shard_files():
        shard_file.unlink()

    traces = harvest_traces(combos=combos, config=harness_config)
    schedule = uniform_request_schedule(traces, config)
    fleet_config = FleetConfig(service=config.service_config())

    # Phase 1: harvest telemetry (untimed; this replay also warms the
    # kernels for the timed phases).
    with FleetDecisionService(predictor, fleet_config) as fleet:
        fleet.attach_telemetry(store)
        replay(fleet, schedule, config)
    telemetry_records = store.record_count()

    # Phase 2: retrain on the harvested records.
    retrain = retrain_from_telemetry(
        store,
        predictor,
        registry=registry,
        config=RetrainConfig(),
    )
    candidate = retrain.models.predictor

    # Phase 3: timed baseline and shadow replays, alternating so host
    # drift hits both; the best of `repeats` of each is reported.
    def baseline() -> LoadgenReport:
        with FleetDecisionService(predictor, fleet_config) as fleet:
            return replay(fleet, schedule, config)

    def shadowed() -> tuple[LoadgenReport, dict[str, Any], bool]:
        with FleetDecisionService(predictor, fleet_config) as fleet:
            fleet.start_shadow(candidate)
            report = replay(fleet, schedule, config)
            score = fleet.shadow_report().to_record()
            return report, score, fleet.promote(max_mismatch_rate=promote_threshold)

    rounds = [(baseline(), shadowed()) for _ in range(max(1, repeats))]
    baseline_report = max(
        (plain for plain, _ in rounds), key=lambda report: report.throughput_rps
    )
    shadow_report, shadow_score, promoted = max(
        (shadow for _, shadow in rounds), key=lambda shadow: shadow[0].throughput_rps
    )
    shadow_overhead = 1.0 - (
        shadow_report.throughput_rps / baseline_report.throughput_rps
        if baseline_report.throughput_rps > 0
        else 0.0
    )

    # Phase 4: hot-swap the candidate in mid-stream under traffic.
    swap_at = len(schedule) // 2
    swap_calls: list[float] = []
    with FleetDecisionService(predictor, fleet_config) as fleet:
        swap_report = replay(
            fleet, _swapping(schedule, fleet, candidate, swap_at, swap_calls), config
        )
        version_after = fleet.model_version
    (swap_call_s,) = swap_calls
    swap_phase = SwapPhaseResult(
        swap_at_request=swap_at,
        report=swap_report,
        dropped_tickets=len(schedule) - len(swap_report.responses),
        fopt_mismatches_vs_baseline=fopt_mismatches(
            swap_report.fopts_hz(), baseline_report.fopts_hz()
        ),
        swap_call_s=swap_call_s,
        model_version_after=version_after,
    )

    return SwapBenchResult(
        baseline_report=baseline_report,
        shadow_report=shadow_report,
        shadow_score=shadow_score,
        shadow_overhead=shadow_overhead,
        promoted=promoted,
        retrain=retrain,
        swap=swap_phase,
        telemetry_records=telemetry_records,
    )
