"""The repository benchmark: one workload, one seed, one fresh process.

Run from the repository root::

    python3 perfbench/run.py --workload engine --seed 1 --seconds 12 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` times the
layer entry points instead and prints the per-layer metrics (it first
runs the same workload untraced in a child process, to report the
tracing overhead).  The timed figures are scaled to the reference
host's speed, sampled between ops (``gauge.py``); the wall-clock
figures are printed alongside, not gated.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  Workloads, metrics and their rationale are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups measured per run (this process, plus children run after the
#: timed phase); the median is reported.
SETUP_SAMPLES = 3
#: Seconds a child process (set-up sample or untraced twin) may take.
CHILD_TIMEOUT_S = 150.0
#: Per-layer metrics: ``name -> (unit, better)``.  Every traced run
#: prints all of them (0 where the workload leaves a layer idle);
#: BENCHMARK.json lists the same set.
PER_LAYER = {
    "browser.tasks_calls": ("count", "lower"),
    "browser.tasks_s": ("s", "lower"),
    "browser.pages_s": ("s", "lower"),
    "sim.engine_runs": ("count", "higher"),
    "sim.engine_s": ("s", "lower"),
    "sim.engine_steps": ("count", "higher"),
    "sim.host_us_per_step": ("us", "lower"),
    "sim.template_hits": ("count", "higher"),
    "sim.template_misses": ("count", "lower"),
    "sim.template_hit_ratio": ("1", "higher"),
    "sim.fleet.build_s": ("s", "lower"),
    "sim.fleet.run_s": ("s", "lower"),
    "sim.fleet.plan_s": ("s", "lower"),
    "sim.fleet.scalar_steps_s": ("s", "lower"),
    "sim.fleet.thermal_sweep_s": ("s", "lower"),
    "sim.fleet.write_back_s": ("s", "lower"),
    "sim.fleet.decide_s": ("s", "lower"),
    "sim.fleet.solo_tail_s": ("s", "lower"),
    "core.decide_calls": ("count", "lower"),
    "core.decide_s": ("s", "lower"),
    "models.predict_calls": ("count", "lower"),
    "models.predict_s": ("s", "lower"),
    "models.campaign_s": ("s", "lower"),
    "models.train_s": ("s", "lower"),
    "experiments.eval_s": ("s", "lower"),
    "runtime.overhead_s": ("s", "lower"),
    "serve.requests": ("count", "higher"),
    "serve.skip_hits": ("count", "higher"),
    "serve.skip_hit_ratio": ("1", "higher"),
    "serve.rejected": ("count", "lower"),
    "serve.batches": ("count", "lower"),
    "serve.mean_batch_size": ("count", "higher"),
    "serve.largest_batch": ("count", "higher"),
    "serve.flushes_on_size": ("count", "higher"),
    "serve.flushes_on_wait": ("count", "lower"),
    "serve.queue_delay_ms_p50": ("ms", "lower"),
    "serve.queue_delay_ms_p99": ("ms", "lower"),
    "serve.router_s": ("s", "lower"),
    "serve.kernel_s": ("s", "lower"),
    "browser.self_share": ("1", "lower"),
    "sim.self_share": ("1", "lower"),
    "core.self_share": ("1", "lower"),
    "models.self_share": ("1", "lower"),
    "experiments.self_share": ("1", "lower"),
    "runtime.self_share": ("1", "lower"),
    "serve.self_share": ("1", "lower"),
    "trace.coverage": ("1", "higher"),
    "trace.spans": ("count", "lower"),
    "trace.ops_per_s": ("1/s", "higher"),
    "trace.untraced_ops_per_s": ("1/s", "higher"),
    "trace.overhead": ("1", "lower"),
}


def percentile(samples, q: float) -> float | None:
    """Nearest-rank ``q`` percentile, or ``None`` when fewer than ten
    samples lie beyond it."""
    # Imported here so that set-up, which imports the package, pays for
    # numpy; a numpy sort also keeps large sample arrays out of Python
    # floats and off the peak resident memory.
    import numpy

    count = len(samples)
    rank = max(1, math.ceil(round(q * count, 9)))
    if count - rank < 10:
        return None
    return float(numpy.sort(numpy.asarray(samples, dtype=float))[rank - 1])


def isolate_environment() -> None:
    """Every run does the same work: no artifact cache, no worker pools."""
    os.environ["REPRO_NO_CACHE"] = "1"
    for name in ("REPRO_WORKERS", "REPRO_FORCE_POOL", "REPRO_CACHE_DIR"):
        os.environ.pop(name, None)


def child(args: argparse.Namespace, *extra: str) -> str:
    """Run this script again in a child process; returns its stdout."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), *extra,
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"child {' '.join(extra)} exited {done.returncode}: {done.stderr[-2000:]}"
        )
    return done.stdout


def set_up(workload, args, tracer, gauge):
    """Import the package, generate inputs, build.

    Returns the state and the set-up seconds (input generation excluded)
    twice: as measured, and calibrated.  Only the build is calibrated,
    by the mean of the host's spot speed before and after the set-up;
    the imports are not, because their time does not follow the gauge.
    """
    before = gauge.spot_speed()
    started = time.perf_counter()
    for module in workload.modules:
        importlib.import_module(module)
    imported = time.perf_counter()
    inputs = workload.inputs(args.seed, args.seconds)
    if args.trace:
        workload.instrument(tracer)
        tracer.active = True
    building = time.perf_counter()
    state = workload.setup(inputs, tracer)
    import_s, build_s = imported - started, time.perf_counter() - building
    speed = (before + gauge.spot_speed()) / 2
    return state, import_s + build_s, import_s + build_s * speed


def median_s(latencies) -> float:
    p50 = percentile(latencies, 0.50)
    if p50 is None:
        raise RuntimeError(f"{len(latencies)} latency samples are too few for a median")
    return p50


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setups: list[tuple[float, float]], timed, gauge, peak_mb: float) -> dict:
    """The end-to-end metrics of an untraced run, ``name -> (value, unit)``.

    The times are calibrated, so that they read as on the reference
    host: ``setups`` holds each set-up as ``(measured, calibrated)``
    seconds (``set_up``); by ``gauge``, the timed phase is scaled by the
    host's mean speed over it and each latency by the host's speed when
    it began.  ``peak_mb`` is read before this summary allocates anything.
    """
    latencies = gauge.calibrate(timed.latencies_s, timed.starts_s)
    return {
        "setup_s": (statistics.median(calibrated for _, calibrated in setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "calibrated_ops_per_s": (timed.ops / (timed.wall_s * gauge.speed()), "1/s"),
        "calibrated_latency_p50_ms": (median_s(latencies) * 1e3, "ms"),
    }


def reported_extras(setups: list[tuple[float, float]], timed, gauge, checked) -> dict:
    """Figures printed for reading but not gated by BENCHMARK.json: the
    times as the wall clock measured them, and the workload's own."""
    extras = {
        "host_speed": (gauge.speed(), "1"),
        "wall_setup_s": (statistics.median(measured for measured, _ in setups), "s"),
        "ops_per_s": (timed.ops / timed.wall_s, "1/s"),
        "latency_p50_ms": (median_s(timed.latencies_s) * 1e3, "ms"),
    }
    p99 = percentile(timed.latencies_s, 0.99)
    if p99 is not None:
        extras["latency_p99_ms"] = (p99 * 1e3, "ms")
    extras.update(checked.extras)
    extras["error_rate"] = (checked.failed / max(1, checked.attempted), "1")
    return extras


def per_layer(
    tracer, state, timed, since: int, gauge, untraced_ops_per_s: float,
) -> dict:
    """Every per-layer metric of a traced run (0 where a layer is idle).

    ``since`` is the index of the first span of the timed phase.  The
    browser and fleet-build figures count set-up spans too (that is
    where ``engine`` and ``fleetsim`` run them); every other figure
    covers the timed phase only.
    """
    values = dict.fromkeys(PER_LAYER, 0.0)
    steps = tracer.counts["sim.engine_steps"]
    engine_s = tracer.seconds("sim.engine", since)
    values.update({
        "browser.tasks_calls": tracer.calls("browser.tasks"),
        "browser.tasks_s": tracer.seconds("browser.tasks"),
        "browser.pages_s": tracer.seconds("browser.pages"),
        "sim.fleet.build_s": tracer.seconds("sim.fleet.build"),
        "sim.engine_runs": tracer.calls("sim.engine", since),
        "sim.engine_s": engine_s,
        "sim.engine_steps": steps,
        "sim.host_us_per_step": engine_s / steps * 1e6 if steps else 0.0,
        "sim.fleet.run_s": tracer.seconds("sim.fleet.run", since),
        "core.decide_calls": tracer.calls("core.decide", since),
        "core.decide_s": tracer.seconds("core.decide", since),
        "models.predict_calls": tracer.calls("models.predict", since),
        "models.predict_s": tracer.seconds("models.predict", since),
        "models.campaign_s": tracer.seconds("models.campaign", since),
        "models.train_s": tracer.seconds("models.train", since),
        "experiments.eval_s": tracer.seconds("experiments.eval", since),
        "runtime.overhead_s": tracer.self_seconds_of("runtime.run_jobs", since),
        "serve.router_s": sum(
            tracer.self_seconds_of(f"serve.{verb}", since)
            for verb in ("submit", "poll", "flush")
        ),
        "serve.kernel_s": tracer.seconds("serve.kernel", since),
    })
    templates = state.get("templates")
    if templates:
        looked_up = templates["hits"] + templates["misses"]
        values["sim.template_hits"] = templates["hits"]
        values["sim.template_misses"] = templates["misses"]
        values["sim.template_hit_ratio"] = templates["hits"] / looked_up if looked_up else 0.0
    for stage, seconds in state.get("stages", {}).items():
        values[f"sim.fleet.{stage}_s"] = seconds
    if "stats" in state:
        values.update(serve_figures(state))
    for layer, seconds in tracer.self_seconds(since).items():
        values[f"{layer}.self_share"] = seconds / timed.wall_s
    traced_ops_per_s = timed.ops / (timed.wall_s * gauge.speed())
    values.update({
        "trace.coverage": tracer.root_seconds(since) / timed.wall_s,
        "trace.spans": len(tracer.spans),
        "trace.ops_per_s": traced_ops_per_s,
        "trace.untraced_ops_per_s": untraced_ops_per_s,
        "trace.overhead": untraced_ops_per_s / traced_ops_per_s - 1.0,
    })
    return {name: (values[name], unit) for name, (unit, _) in PER_LAYER.items()}


def serve_figures(state) -> dict:
    """Router counters (``merged_stats``) and shard queue delays."""
    stats = state["stats"]
    delays = [delay * 1e3 for delay in state["delays"] if not math.isnan(delay)]
    return {
        "serve.requests": stats.requests_total,
        "serve.skip_hits": stats.skips_total,
        "serve.skip_hit_ratio": stats.skip_rate(),
        "serve.rejected": stats.rejected_total,
        "serve.batches": stats.batches_total,
        "serve.mean_batch_size": stats.mean_batch_size(),
        "serve.largest_batch": stats.largest_batch,
        "serve.flushes_on_size": stats.flushes_on_size,
        "serve.flushes_on_wait": stats.flushes_on_wait,
        "serve.queue_delay_ms_p50": percentile(delays, 0.50) or 0.0,
        "serve.queue_delay_ms_p99": percentile(delays, 0.99) or 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    isolate_environment()
    sys.path[:0] = [str(SRC), str(HERE)]
    from gauge import Gauge
    from tracing import Tracer
    from workloads import WORKLOADS, BundleMismatch

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    untraced_ops_per_s = 0.0
    if args.trace:
        twin = json.loads(child(args, "--trace", "0").splitlines()[-1])
        untraced_ops_per_s = twin["metrics"]["calibrated_ops_per_s"]["value"]

    gauge = Gauge()
    tracer = Tracer(clock=gauge.now)
    try:
        state, setup_s, calibrated_setup_s = set_up(workload, args, tracer, gauge)
    except BundleMismatch as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    if args.setup_only:
        print(f"setup_s {setup_s!r} {calibrated_setup_s!r}")
        return 0

    since = len(tracer.spans)
    tracer.counts.clear()
    gauge.start()
    timed = workload.run(state, tracer, gauge)
    tracer.active = False
    tracer.restore()
    setups = [(setup_s, calibrated_setup_s)]
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            measured, calibrated = child(args, "--setup-only").split()[-2:]
            setups.append((float(measured), float(calibrated)))
    checked = workload.check(state, timed)
    peak_mb = peak_rss_mb()

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  ops {timed.ops}  latency samples "
          f"{len(timed.latencies_s)}  set-up samples {len(setups)}  "
          f"host samples {len(gauge.samples)}")
    if args.trace:
        metrics = per_layer(tracer, state, timed, since, gauge, untraced_ops_per_s)
        spans_path = ROOT / ".perfbench" / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(setups, timed, gauge, peak_mb)
        for name, (value, unit) in reported_extras(setups, timed, gauge, checked).items():
            print(f"  {name:<26} {value:>14.6g} {unit}   (not gated)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {unit}")
    print(f"  attempted {checked.attempted}  failed {checked.failed}")
    print(json.dumps({
        "correct": checked.failed == 0,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
