"""Engine throughput: regime-stepped fast path vs the reference loop.

Times full ``Engine.run`` calls of both execution strategies on the
standard campaign slice (fixed-frequency page x co-runner sweeps at
``dt = 2 ms`` with tracing on, plus utilization-governor baselines),
records per-case timings and aggregates in ``BENCH_engine.json`` at
the repo root, and asserts the >= 5x acceptance bar on the
campaign-slice aggregate.  Every timed pairing is also cross-checked
for result equivalence; the exhaustive bit-identity suite lives in
``tests/sim/test_engine_equivalence.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.reporting import write_bench_record
from repro.sim.bench import run_engine_bench, standard_campaign_slice

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_engine.json"


def test_fast_engine_throughput():
    result = run_engine_bench(
        cases=standard_campaign_slice(),
        repeats=7,
    )
    write_bench_record(BENCH_PATH, result)
    record = json.loads(BENCH_PATH.read_text())

    # Acceptance bar: the regime-stepped path clears 5x end-to-end on
    # the campaign slice.  (run_engine_bench already raised if any
    # case's results diverged between the engines.)
    campaign = record["campaign"]
    assert campaign["speedup"] >= 5.0, (
        f"expected >= 5x over the reference loop on the campaign "
        f"slice, got {campaign['speedup']:.2f}x "
        f"({campaign['ref_ms']:.1f}ms vs {campaign['fast_ms']:.1f}ms "
        f"over {campaign['cases']} cases)"
    )

    # The record is a complete, plottable artifact.
    assert record["overall"]["cases"] == len(standard_campaign_slice())
    for row in record["cases"]:
        for key in ("label", "governor", "steps", "ref_ms", "fast_ms",
                    "speedup"):
            assert key in row
        assert row["steps"] > 0
        assert row["fast_ms"] > 0
    assert result["campaign"]["speedup"] == campaign["speedup"]
