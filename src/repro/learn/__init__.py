"""repro.learn: the online learning loop over the serving fleet.

DORA's Table-I models are trained once, offline.  The adaptive
follow-on work the ROADMAP cites retrains from live interactions; this
package is that loop, production-shaped:

* :mod:`repro.learn.telemetry` -- append-only, fsync-batched JSONL
  store the fleet streams decision records into, partitioned by
  calibration fingerprint and writer shard so writes never contend.
* :mod:`repro.learn.retrain` -- replays harvested records through
  :mod:`repro.models.training` on the runtime pool to refit the
  piecewise surfaces, with the exact-recovery labeling that makes
  retraining on a model's own telemetry reproduce it bit-for-bit.
* :mod:`repro.learn.registry` -- versioned artifact registry keyed by
  ``(CALIBRATION_FINGERPRINT, version)`` with atomic publish and a
  pinned active pointer.
* :mod:`repro.learn.shadow` -- candidate models re-decide live batches
  in shadow, accumulating mismatch/regret telemetry per page class
  until the fleet promotes or rolls back.
* :mod:`repro.learn.bench` -- ``swap-bench``: the whole loop end to
  end (harvest, retrain, shadow, mid-stream hot-swap) with the
  closed-loop invariants measured into ``BENCH_swap.json``.

Submodules are imported lazily, mirroring :mod:`repro.serve`: the
bench and retrain layers sit above the experiments harness, while
shadow scoring sits right above the batch kernel -- importing
everything eagerly here would close dependency cycles with
:mod:`repro.serve.fleet`.
"""

from __future__ import annotations

import importlib
from typing import Any

_EXPORTS = {
    "DEFAULT_BATCH_SIZE": "repro.learn.telemetry",
    "TELEMETRY_SCHEMA": "repro.learn.telemetry",
    "TelemetryStore": "repro.learn.telemetry",
    "TelemetryWriter": "repro.learn.telemetry",
    "decision_record": "repro.learn.telemetry",
    "ModelRegistry": "repro.learn.registry",
    "RegistryError": "repro.learn.registry",
    "RetrainConfig": "repro.learn.retrain",
    "RetrainResult": "repro.learn.retrain",
    "harvest_vectors": "repro.learn.retrain",
    "label_chunk_job": "repro.learn.retrain",
    "retrain_from_telemetry": "repro.learn.retrain",
    "PAGE_CLASSES": "repro.learn.shadow",
    "ShadowReport": "repro.learn.shadow",
    "ShadowScorer": "repro.learn.shadow",
    "page_class": "repro.learn.shadow",
    "SwapBenchResult": "repro.learn.bench",
    "run_swap_bench": "repro.learn.bench",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.learn' has no attribute {name!r}")
    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
