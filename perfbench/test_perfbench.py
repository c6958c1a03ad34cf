"""The benchmark's own tests: oracles count wrong outputs as failed ops.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ["REPRO_NO_CACHE"] = "1"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gauge  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gauge import Gauge  # noqa: E402
from tracing import Tracer  # noqa: E402


# ----------------------------------------------------------------------
# Statistics and tracing
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    assert run.percentile(list(range(19)), 0.5) is None
    assert run.percentile(list(range(20)), 0.5) == 9
    assert run.percentile([float(i) for i in range(999)], 0.99) is None
    assert run.percentile([float(i) for i in range(1000)], 0.99) == 989.0


def test_gauge_samples_between_ops_off_the_op_clock(monkeypatch):
    now = [100.0]
    monkeypatch.setattr(gauge.time, "perf_counter", lambda: now[0])

    def work(self):
        now[0] += 0.02  # every sample takes 20 ms of wall time

    monkeypatch.setattr(Gauge, "reference_work", work)
    meter = Gauge()
    meter.tick()  # before start: never due
    assert meter.samples == []
    meter.start()
    assert len(meter.samples) == 1
    assert meter.now() == pytest.approx(100.0)  # the sample is off the op clock
    now[0] += gauge.SAMPLE_EVERY_S / 2
    meter.tick()  # not due yet
    assert len(meter.samples) == 1
    now[0] += gauge.SAMPLE_EVERY_S / 2
    meter.tick()
    assert len(meter.samples) == 2
    # An op three intervals long is followed by three samples.
    now[0] += 3 * gauge.SAMPLE_EVERY_S
    meter.tick()
    assert meter.samples == pytest.approx([0.02] * 5)
    assert meter.now() == pytest.approx(100.0 + 4 * gauge.SAMPLE_EVERY_S)
    assert meter.speed() == pytest.approx(gauge.REFERENCE_SAMPLE_S / 0.02)


def _gauge_seeing(monkeypatch, speed_at, seconds):
    """A gauge that sampled a host running at ``speed_at(op time)`` over
    ``seconds`` of op time, from op-clock time 0."""
    now = [0.0]
    monkeypatch.setattr(gauge.time, "perf_counter", lambda: now[0])

    def work(self):
        now[0] += gauge.REFERENCE_SAMPLE_S / speed_at(self.now())

    monkeypatch.setattr(Gauge, "reference_work", work)
    meter = Gauge()
    meter.start()
    while meter.now() < seconds:
        now[0] += gauge.SAMPLE_EVERY_S
        meter.tick()
    return meter


def test_gauge_calibrates_each_duration_by_the_speed_around_it(monkeypatch):
    meter = _gauge_seeing(monkeypatch, lambda t: 1.0 if t < 1.0 else 0.5, 2.0)
    assert meter.calibrate([0.1, 0.1], [0.2, 1.5]).tolist() == pytest.approx([0.1, 0.05])
    assert meter.speed() == pytest.approx(0.75, abs=0.03)


def test_reference_work_is_the_same_in_every_process():
    first, second = Gauge(), Gauge()
    assert [first.reference_work() for _ in range(3)] == [
        second.reference_work() for _ in range(3)
    ]


def _leaf(x):
    return x + 1


def _outer(x):
    return _leaf(x) * 2


class _Thing:
    def method(self, x):
        return _outer(x)


def test_tracer_records_nested_spans_and_restores():
    module = sys.modules[__name__]
    leaf, method = module._leaf, vars(_Thing)["method"]
    tracer = Tracer()
    tracer.wrap(module, "_leaf", "leaf", "sim")
    tracer.wrap(module, "_outer", "outer", "core")
    tracer.wrap(_Thing, "method", "method", "serve")
    assert _Thing().method(1) == 4  # inactive: plain pass-through
    assert tracer.spans == []
    tracer.active = True
    tracer.ticket = 7
    assert _Thing().method(1) == 4
    tracer.active = False
    assert [span[0] for span in tracer.spans] == ["method", "outer", "leaf"]
    assert [span[4] for span in tracer.spans] == [-1, 0, 1]
    assert all(span[5] == 7 for span in tracer.spans)
    assert sum(tracer.self_seconds().values()) == pytest.approx(tracer.root_seconds())
    tracer.restore()
    assert module._leaf is leaf and vars(_Thing)["method"] is method


def test_tracer_patches_names_imported_elsewhere():
    from repro.browser import browser
    from repro.experiments import harness

    original = browser.browser_tasks
    tracer = Tracer()
    tracer.wrap(browser, "browser_tasks", "browser.tasks", "browser")
    assert harness.browser_tasks is browser.browser_tasks is not original
    tracer.restore()
    assert harness.browser_tasks is browser.browser_tasks is original


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def test_device_rows_are_seeded_with_a_fixed_cost_design():
    from repro.browser.pages import page_names

    def design(rows):
        bins = {kernel: index for index, members in enumerate(workloads.KERNEL_BINS)
                for kernel in members}
        return [(r.page, r.governor, r.freq_hz, r.dt_s, bins[r.kernel]) for r in rows]

    kinds = ("fixed", "fixed", "util")
    first = workloads.device_rows(random.Random(3), kinds)
    assert first == workloads.device_rows(random.Random(3), kinds)
    assert first != workloads.device_rows(random.Random(4), kinds)
    assert design(first) == design(workloads.device_rows(random.Random(4), kinds))
    assert sorted({row.page for row in first}) == sorted(page_names())
    assert sum(row.governor == "fixed" for row in first) == 2 * len(page_names())
    rows = workloads.device_rows(random.Random(0), ("fixed", "any"))
    assert sum(row.governor == "fixed" for row in rows) == 24


def test_serve_traffic_mix():
    traffic = workloads.serve_traffic(5, 4000)
    assert traffic == workloads.serve_traffic(5, 4000)
    assert traffic.vectors != workloads.serve_traffic(6, 4000).vectors
    times = list(traffic.times)
    assert times == sorted(times) and len(times) == 4000
    asks = [traffic.request_fields(vector) for vector in traffic.vectors]
    below = sum(ask[-1] == workloads.SERVE_BELOW_FLOOR_S for ask in asks)
    assert 0 < below < 0.05 * len(asks)
    last: dict[str, tuple] = {}
    resent = 0
    for ask in asks:
        resent += last.get(ask[0]) == ask
        last[ask[0]] = ask
    assert 0.15 < resent / len(asks) < 0.3
    # Every vector is a harvested observation of the device's trace.
    traces = workloads.load_traces()
    for device, page, mpki, utilization, temperature_c, _ in asks[:50]:
        census, _, observations = traces[traffic.device_trace[int(device[7:])]]
        assert page == census and (mpki, utilization, temperature_c) in observations


def test_reproduce_sample_keeps_the_page_and_kernel_mix():
    reproduce = workloads.WORKLOADS["reproduce"]
    draws = set()
    for seed in range(4):
        combos = reproduce.inputs(seed, 10)["combos"]
        assert [c.page_name for c in combos] == list(workloads.LIGHT_PAGES)
        assert [c.intensity.value for c in combos] == list(workloads.INTENSITIES) * 4
        assert sorted(c.kernel_name for c in combos) == [
            "b+tree", "backprop", "backprop", "bfs", "heartwall", "hotspot",
            "kmeans", "needleman-wunsch", "needleman-wunsch", "srad", "srad2", "srad2",
        ]
        draws.add(tuple(c.kernel_name for c in combos))
    assert len(draws) > 1


# ----------------------------------------------------------------------
# Oracles: a wrong output is a failed op
# ----------------------------------------------------------------------
def _small_rows():
    from repro.sim.fleet_engine import FleetRowSpec

    return [
        FleetRowSpec(page="360", governor="fixed", freq_hz=1728.0e6, dt_s=0.004),
        FleetRowSpec(page="twitter", kernel="srad", governor="interactive", dt_s=0.004),
        FleetRowSpec(page="alipay", governor="ondemand", dt_s=0.004),
    ]


def test_engine_counts_a_wrong_run_as_failed():
    engine = workloads.WORKLOADS["engine"]
    tracer = Tracer()
    state = engine.setup({"seed": 1, "specs": _small_rows(), "runs": 6}, tracer)
    timed = engine.run(state, tracer, Gauge())
    assert engine.check(state, timed).failed == 0
    state["results"][4] = state["warm"][0]  # op 4 ran engine 1
    checked = engine.check(state, timed)
    assert (checked.attempted, checked.failed) == (6, 1)


def test_fleetsim_counts_a_wrong_row_as_failed():
    fleetsim = workloads.WORKLOADS["fleetsim"]
    tracer = Tracer()
    state = fleetsim.setup({"seed": 1, "specs": _small_rows(), "runs": 2}, tracer)
    timed = fleetsim.run(state, tracer, Gauge())
    assert fleetsim.check(state, timed).failed == 0
    results = state["results"][1]
    results[2] = replace(results[2], energy_j=results[2].energy_j * 1.001)
    checked = fleetsim.check(state, timed)
    assert (checked.attempted, checked.failed) == (6, 1)


def test_serve_counts_wrong_and_missing_answers_as_failed():
    serve = workloads.WORKLOADS["serve"]
    tracer = Tracer()
    state = serve.setup({"seed": 2, "traffic": workloads.serve_traffic(2, 300)}, tracer)
    timed = serve.run(state, tracer, Gauge())
    assert serve.check(state, timed).failed == 0
    for ticket in range(300):
        state["fopts"][ticket] += 1.0
    assert serve.check(state, timed).failed == workloads.SERVE_SCALAR_SAMPLE
    for ticket in range(300):
        state["fopts"][ticket] -= 1.0
    state["answers"][17] = 2  # answered twice
    state["answers"][18] = 0  # never answered
    assert serve.check(state, timed).failed == 2


def test_reproduce_reference_oracle_rejects_a_wrong_load():
    from repro.experiments.harness import HarnessConfig, evaluate_suite
    from repro.experiments.suite import all_combos

    predictor = workloads.load_bundle()
    evaluations = evaluate_suite(
        predictor, combos=all_combos()[:1],
        config=HarnessConfig(dt_s=workloads.SMOKE_DT_S), workers=0,
    )
    state = {"models": types.SimpleNamespace(predictor=predictor),
             "evaluations": evaluations}
    assert all(workloads.reference_agreement(state, seed=3))
    evaluation = evaluations[0]
    wrong = replace(
        evaluation,
        sweep=tuple(replace(p, power_w=p.power_w * 1.01) for p in evaluation.sweep),
        runs={name: replace(s, energy_j=s.energy_j * 1.01)
              for name, s in evaluation.runs.items()},
    )
    state["evaluations"] = [wrong]
    assert not any(workloads.reference_agreement(state, seed=3))


def test_timed_out_loads_count_as_failed():
    tracer = Tracer()
    workloads._campaign_load_outcome(tracer, (), {}, None)
    workloads._harness_load_outcome(
        tracer, (), {}, types.SimpleNamespace(timed_out=True)
    )
    workloads._harness_load_outcome(
        tracer, (), {}, types.SimpleNamespace(timed_out=False)
    )
    assert tracer.counts["failed_loads"] == 2


# ----------------------------------------------------------------------
# The stored bundle and the command
# ----------------------------------------------------------------------
def test_stored_inputs_hashes_are_enforced(tmp_path):
    assert workloads.load_bundle() is not None
    for path in (workloads.BUNDLE_PATH, workloads.TRACES_PATH):
        copy = tmp_path / path.name
        copy.write_text(json.dumps(json.loads(path.read_text())))  # same data, other bytes
        with pytest.raises(workloads.BundleMismatch):
            workloads.read_pinned(copy)


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engine",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_unknown_workload_is_refused():
    assert run.main(["--workload", "nope", "--seed", "1", "--seconds", "1"]) == 2


def _timed(ops, wall_s, latency_s):
    return workloads.Timed(
        ops=ops, wall_s=wall_s, latencies_s=[latency_s] * ops,
        starts_s=[wall_s * op / ops for op in range(ops)],
    )


def test_end_to_end_metrics_and_error_rate(monkeypatch):
    # A host running at half the reference speed: calibrated times halve.
    meter = _gauge_seeing(monkeypatch, lambda t: 0.5, 2.0)
    timed = _timed(40, 2.0, 0.01)
    checked = workloads.Checked(attempted=40, failed=10)
    setups = [(3.0, 3.0), (1.0, 1.0), (2.0, 0.5)]
    extras = run.reported_extras(setups, timed, meter, checked)
    assert extras["error_rate"] == (0.25, "1")
    assert extras["host_speed"] == (pytest.approx(0.5), "1")
    assert extras["wall_setup_s"] == (2.0, "s")
    assert extras["ops_per_s"] == (20.0, "1/s")
    assert extras["latency_p50_ms"] == (10.0, "ms")
    assert "latency_p99_ms" not in extras
    metrics = run.end_to_end(setups, timed, meter, 100.0)
    assert metrics["setup_s"] == (1.0, "s")  # median of 3.0, 1.0 and 0.5
    assert metrics["peak_rss_mb"] == (100.0, "MB")
    assert metrics["calibrated_ops_per_s"] == (pytest.approx(40.0), "1/s")
    assert metrics["calibrated_latency_p50_ms"] == (pytest.approx(5.0), "ms")
    with pytest.raises(RuntimeError):
        run.end_to_end([(1.0, 1.0)], _timed(8, 1.0, 0.001), meter, 1.0)  # too few


def test_benchmark_json_lists_what_run_py_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, (unit, better) in run.PER_LAYER.items()
    ]
    meter = Gauge()
    meter.start()
    printed = run.end_to_end([(1.0, 1.0)], _timed(40, 2.0, 0.01), meter, run.peak_rss_mb())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
        (name, unit) for name, (_, unit) in printed.items()
    ]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
