"""Engine throughput benchmark: regime-stepped fast path vs reference.

Times full :meth:`~repro.sim.engine.Engine.run` calls of the fast
(regime-stepped) engine against :class:`~repro.sim.engine.ReferenceEngine`
on a *standard campaign slice*: the fixed-frequency sweep runs that
dominate the training campaign (page x co-runner x operating point at
``dt = 2 ms``, tracing on), plus utilization-governor baselines
reported alongside but outside the campaign aggregate (their 20 ms
decision interval caps regimes at 10 steps, so their ceiling is
structurally lower).

Every timed pairing is also checked for result equivalence -- the
headline speedup is only meaningful because both engines produce
bit-identical results (see ``tests/sim/test_engine_equivalence.py``
for the exhaustive version).

Used by ``benchmarks/test_engine_throughput.py`` (writes
``BENCH_engine.json`` and asserts the >= 5x acceptance bar) and by the
``repro sim-bench`` CLI command.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from repro.sim.fleet_engine import FleetRowSpec, build_row_engine


@dataclass(frozen=True)
class BenchCase:
    """One timed workload configuration.

    Attributes:
        label: Display / record name.
        spec: The run, as a fleet row (the standard slice times with
            tracing on -- the acceptance configuration).
        campaign: Whether the case counts toward the campaign-slice
            aggregate speedup.
    """

    label: str
    spec: FleetRowSpec
    campaign: bool = True


def _case(
    label: str, page: str, kernel: str | None, governor: str,
    freq_hz: float | None = None, campaign: bool = True,
) -> BenchCase:
    """A slice case: the default device and step, tracing on."""
    spec = FleetRowSpec(
        page=page, kernel=kernel, governor=governor, freq_hz=freq_hz,
        record_trace=True,
    )
    return BenchCase(label, spec, campaign)


def standard_campaign_slice() -> tuple[BenchCase, ...]:
    """The benchmark workload set.

    Campaign cases mirror the training campaign's composition: fixed
    operating points across the frequency ladder, solo pages and
    kernel-contended ones, including a short-phase co-runner (srad)
    whose frequent phase crossings bound regime length.  The two
    baseline cases cover the utilization governors.
    """
    return (
        _case("amazon@729.6MHz", "amazon", None, "fixed", 729.6e6),
        _case(
            "amazon+backprop@1190.4MHz",
            "amazon", "backprop", "fixed", 1190.4e6,
        ),
        _case(
            "amazon+backprop@2265.6MHz",
            "amazon", "backprop", "fixed", 2265.6e6,
        ),
        _case(
            "espn+needleman-wunsch@1036.8MHz",
            "espn", "needleman-wunsch", "fixed", 1036.8e6,
        ),
        _case(
            "espn+needleman-wunsch@1728.0MHz",
            "espn", "needleman-wunsch", "fixed", 1728.0e6,
        ),
        _case(
            "aliexpress+srad@1958.4MHz",
            "aliexpress", "srad", "fixed", 1958.4e6,
        ),
        _case(
            "amazon~interactive", "amazon", None, "interactive",
            campaign=False,
        ),
        _case(
            "espn+needleman-wunsch~ondemand",
            "espn", "needleman-wunsch", "ondemand",
            campaign=False,
        ),
    )


def smoke_slice() -> tuple[BenchCase, ...]:
    """A CI-sized subset (seconds, not tens of seconds)."""
    cases = standard_campaign_slice()
    return (cases[0], cases[1], cases[6])


def _assert_equivalent(case: BenchCase, ref, fast) -> None:
    """Cheap cross-check that both engines agree on this case.

    The exhaustive bit-identity suite lives in the tests; here we
    compare the result scalars that would drift first if the fast path
    diverged.
    """
    for name in (
        "load_time_s", "duration_s", "energy_j", "switch_count",
        "switch_stall_s", "final_temperature_c", "avg_temperature_c",
    ):
        if getattr(ref, name) != getattr(fast, name):
            raise AssertionError(
                f"{case.label}: engines disagree on {name}: "
                f"{getattr(ref, name)!r} != {getattr(fast, name)!r}"
            )


def _time_case(case: BenchCase, repeats: int) -> tuple[int, float, float]:
    """Best-of-``repeats`` wall times of both engines on one case.

    Returns ``(steps, ref_s, fast_s)``.  Two deliberate choices keep
    the numbers stable on a shared machine:

    * ``run()`` resets the device, tasks and governor, so each engine
      is built once and timed repeatedly; rebuilding per repeat would
      bury the timing in workload construction (DOM/CSS matching)
      noise.  The warmup runs double as the equivalence check.
    * The engines are timed in alternating rounds, so background load
      drift hits both and cancels out of the ratio.
    """
    ref_engine = build_row_engine(case.spec, engine="reference")
    fast_engine = build_row_engine(case.spec)
    ref_result = ref_engine.run()
    fast_result = fast_engine.run()
    _assert_equivalent(case, ref_result, fast_result)
    ref_best = fast_best = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        ref_engine.run()
        ref_best = min(ref_best, time.perf_counter() - started)
        started = time.perf_counter()
        fast_engine.run()
        fast_best = min(fast_best, time.perf_counter() - started)
    steps = int(round(ref_result.duration_s / case.spec.dt_s))
    return steps, ref_best, fast_best


def run_engine_bench(
    cases: tuple[BenchCase, ...] | None = None,
    repeats: int = 5,
    output_path: str | Path | None = None,
) -> dict:
    """Time the fast engine against the reference on each case.

    Args:
        cases: Workload set (default: :func:`standard_campaign_slice`).
        repeats: Timed runs per engine per case (best-of).
        output_path: Optional JSON destination (``BENCH_engine.json``).

    Returns:
        The bench record: per-case timings plus ``campaign`` and
        ``overall`` aggregates, each with the end-to-end speedup
        (total reference time over total fast time).
    """
    cases = cases if cases is not None else standard_campaign_slice()
    rows = []
    for case in cases:
        steps, ref_s, fast_s = _time_case(case, repeats)
        rows.append(
            {
                "label": case.label,
                "governor": case.spec.governor,
                "dt_s": case.spec.dt_s,
                "record_trace": case.spec.record_trace,
                "campaign": case.campaign,
                "steps": steps,
                "ref_ms": ref_s * 1e3,
                "fast_ms": fast_s * 1e3,
                "speedup": ref_s / fast_s,
            }
        )

    def aggregate(selected) -> dict:
        ref_ms = sum(row["ref_ms"] for row in selected)
        fast_ms = sum(row["fast_ms"] for row in selected)
        return {
            "cases": len(selected),
            "ref_ms": ref_ms,
            "fast_ms": fast_ms,
            "speedup": (ref_ms / fast_ms) if fast_ms else 0.0,
        }

    from repro.experiments.reporting import bench_envelope

    record = {
        "envelope": bench_envelope("sim-bench", repeats=repeats),
        "repeats": repeats,
        "cases": rows,
        "campaign": aggregate([row for row in rows if row["campaign"]]),
        "overall": aggregate(rows),
    }
    if output_path is not None:
        path = Path(output_path)
        path.write_text(json.dumps(record, indent=2) + "\n")
        record["output_path"] = str(path)
    return record
