"""repro.serve: the governor as a batched online decision service.

DORA's Algorithm 1 is a predict-then-select loop.  On a phone it runs
once per device every decision interval; at fleet scale the same loop
is an inference service: requests carrying a device's page census and
counter state arrive, are micro-batched, evaluated through one
vectorized model pass, and answered with fopt.

The package splits along those lines:

* :mod:`repro.serve.batch_predictor` -- the NumPy-vectorized kernel:
  Table-I feature matrix, piecewise load-time/power surfaces and
  Equation-5 leakage for all candidate frequencies x all in-flight
  requests in one pass.
* :mod:`repro.serve.sessions` -- per-device session registry (page
  census, counter state, current frequency) with TTL eviction.
* :mod:`repro.serve.service` -- the request/response types and the
  Algorithm-1 decision pass (deadline-aware admission, one model pass
  and one selection per batch, per-request tracing).
* :mod:`repro.serve.loadgen` -- the synthetic fleet load: counter
  traces harvested from the simulator, their uniform and digital-twin
  arrival schedules, :func:`~repro.serve.loadgen.replay` (the one loop
  that drives a router through a schedule), and the one serving bench
  (:func:`~repro.serve.loadgen.run_fleet_bench`): decision latency
  percentiles, throughput and fopt cross-checks against the
  single-process service and the scalar loop (``BENCH_fleet.json``;
  its one-shard, no-skip-cache run is ``BENCH_serve.json``).
* :mod:`repro.serve.shard` -- device-hash partitioning and the shard
  worker protocol (one long-lived decision pass per worker process,
  built on :class:`repro.runtime.pool.PersistentWorker`).
* :mod:`repro.serve.fleet` -- the micro-batching router: multi-process
  serving with a session-aware skip cache
  (:class:`~repro.serve.fleet.FleetDecisionService`), and its
  single-process configuration
  (:class:`~repro.serve.fleet.DecisionService`).

Submodules are imported lazily: ``batch_predictor`` sits *below*
:mod:`repro.models.predictor` in the dependency order (the scalar
predictor evaluates through it with a batch of one), while ``loadgen``
sits *above* the experiments harness.  Importing everything eagerly
here would close that cycle.
"""

from __future__ import annotations

import importlib
from typing import Any

_EXPORTS = {
    "BatchDoraPredictor": "repro.serve.batch_predictor",
    "DecisionRequest": "repro.serve.service",
    "DecisionResponse": "repro.serve.service",
    "DecisionTrace": "repro.serve.service",
    "ServiceConfig": "repro.serve.service",
    "DeviceSession": "repro.serve.sessions",
    "SessionRegistry": "repro.serve.sessions",
    "DecisionService": "repro.serve.fleet",
    "FleetConfig": "repro.serve.fleet",
    "FleetDecisionService": "repro.serve.fleet",
    "FleetStats": "repro.serve.fleet",
    "SkipCache": "repro.serve.fleet",
    "ProcessShard": "repro.serve.shard",
    "SerialShard": "repro.serve.shard",
    "shard_for": "repro.serve.shard",
    "CounterObservation": "repro.serve.loadgen",
    "DeviceTrace": "repro.serve.loadgen",
    "FleetBenchResult": "repro.serve.loadgen",
    "LatencyStats": "repro.serve.loadgen",
    "LoadgenConfig": "repro.serve.loadgen",
    "LoadgenReport": "repro.serve.loadgen",
    "harvest_traces": "repro.serve.loadgen",
    "replay": "repro.serve.loadgen",
    "request_stream": "repro.serve.loadgen",
    "run_fleet_bench": "repro.serve.loadgen",
    "scalar_decision_baseline": "repro.serve.loadgen",
    "twin_request_schedule": "repro.serve.loadgen",
    "uniform_request_schedule": "repro.serve.loadgen",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.serve' has no attribute {name!r}")
    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
