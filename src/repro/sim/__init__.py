"""Discrete-time multiprogrammed execution engine.

* :mod:`repro.sim.task` -- phased workload description (what runs).
* :mod:`repro.sim.scheduler` -- static core assignment (who runs where).
* :mod:`repro.sim.engine` -- the time-stepped simulator that couples
  tasks, the shared cache, memory contention, power, thermals and a
  frequency governor.
* :mod:`repro.sim.fleet_engine` -- many heterogeneous device
  simulations, each row run through the engine's fast path.
* :mod:`repro.sim.trace` -- time-series recording.
* :mod:`repro.sim.measurement` -- DAQ-like energy integration, PPW, and
  measurement noise.
"""

from repro.sim.task import Task, WorkPhase
from repro.sim.engine import Engine, EngineConfig, ReferenceEngine, RunResult
from repro.sim.fleet_engine import (
    FleetEngine,
    FleetRowSpec,
    build_row_engine,
    heterogeneous_fleet,
)

__all__ = [
    "Task",
    "WorkPhase",
    "Engine",
    "EngineConfig",
    "ReferenceEngine",
    "RunResult",
    "FleetEngine",
    "FleetRowSpec",
    "build_row_engine",
    "heterogeneous_fleet",
]
