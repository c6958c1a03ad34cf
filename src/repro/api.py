"""High-level convenience API.

Two entry points cover the common cases:

* :func:`default_predictor` -- train (or load from cache) the standard
  DORA model bundle: full 784-observation campaign, interaction
  load-time surface, piecewise-linear power surface, fitted Equation-5
  leakage.
* :func:`quick_run` -- load one page under a governor and return the
  engine's :class:`~repro.sim.engine.RunResult`.

The calibration identity of the repo is also re-exported here --
:data:`CALIBRATION_TAG` (cache-key epoch), :data:`CALIBRATION_FINGERPRINT`
(pinned hash of every model-affecting constant) and
:func:`model_fingerprint` (the live hash) -- so tools and tests never
need to reach into :mod:`repro.experiments.cache` directly.

Everything here delegates to the layered packages; see
:mod:`repro.experiments` for full-suite evaluation.
"""

from __future__ import annotations

from repro.experiments.cache import (
    CALIBRATION_FINGERPRINT,
    CALIBRATION_TAG,
    memoized,
)
from repro.experiments.fingerprint import model_fingerprint, verify_calibration
from repro.experiments.harness import HarnessConfig, make_governor, run_workload
from repro.models.predictor import DoraPredictor
from repro.models.training import (
    TrainedModels,
    TrainingConfig,
    run_campaign,
    train_models,
)
from repro.sim.engine import RunResult

__all__ = [
    "CALIBRATION_FINGERPRINT",
    "CALIBRATION_TAG",
    "default_model_registry",
    "default_predictor",
    "default_telemetry_store",
    "default_trained_models",
    "make_decision_service",
    "make_fleet_engine",
    "make_fleet_service",
    "model_fingerprint",
    "quick_run",
    "verify_calibration",
]


def default_trained_models(
    config: TrainingConfig | None = None,
) -> TrainedModels:
    """The standard trained model bundle (cached on disk).

    The first call runs the full measurement campaign (a minute or
    two); later calls load the pickled artifact.
    """
    config = config or TrainingConfig()

    def build() -> TrainedModels:
        observations = run_campaign(config)
        return train_models(observations)

    key = (
        "trained-models",
        config.pages,
        config.freqs_hz,
        config.include_solo,
        config.dt_s,
        config.seed,
        config.load_time_noise,
        config.power_noise,
    )
    return memoized("trained-models", key, build)


def default_predictor(config: TrainingConfig | None = None) -> DoraPredictor:
    """The standard :class:`DoraPredictor` (trains on first use)."""
    return default_trained_models(config).predictor


def default_telemetry_store(root=None):
    """The standard :class:`repro.learn.TelemetryStore`.

    Partitioned under the repro cache by the active calibration
    fingerprint, so records harvested under one calibration never mix
    into another's retraining set.

    Args:
        root: Alternate store root (default: ``<cache>/telemetry``).
    """
    from repro.experiments.cache import cache_dir
    from repro.learn.telemetry import TelemetryStore

    return TelemetryStore(root if root is not None else cache_dir() / "telemetry")


def default_model_registry(root=None):
    """The standard :class:`repro.learn.ModelRegistry`.

    Versions live under the repro cache, keyed by the active
    calibration fingerprint; see :mod:`repro.learn.registry` for the
    publish/activate semantics.

    Args:
        root: Alternate registry root (default: ``<cache>/registry``).
    """
    from repro.experiments.cache import cache_dir
    from repro.learn.registry import ModelRegistry

    return ModelRegistry(root if root is not None else cache_dir() / "registry")


def make_decision_service(
    predictor: DoraPredictor | None = None,
    max_batch_size: int = 64,
    max_wait_s: float = 0.005,
    include_leakage: bool = True,
    qos_margin: float = 0.0,
):
    """A ready :class:`repro.serve.DecisionService` over the default models.

    Decisions are bit-identical to a scalar
    :class:`~repro.core.dora.DoraGovernor` built from the same bundle
    with the same ``include_leakage`` / ``qos_margin``; see
    :mod:`repro.serve` for the batching semantics.

    Args:
        predictor: Trained bundle (default: :func:`default_predictor`,
            training on first use).
        max_batch_size: Flush as soon as this many requests pend.
        max_wait_s: Flush once the oldest request waited this long.
        include_leakage: ``False`` serves the DORA_no_lkg ablation.
        qos_margin: Deadline safety margin in ``[0, 1)``.
    """
    from repro.serve.fleet import DecisionService
    from repro.serve.service import ServiceConfig

    return DecisionService(
        predictor if predictor is not None else default_predictor(),
        config=ServiceConfig(
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
            include_leakage=include_leakage,
            qos_margin=qos_margin,
        ),
    )


def make_fleet_service(
    predictor: DoraPredictor | None = None,
    workers: int = 4,
    skip_cache: bool = True,
    skip_tolerance: float = 0.0,
    max_batch_size: int = 64,
    max_wait_s: float = 0.005,
    include_leakage: bool = True,
    qos_margin: float = 0.0,
):
    """A ready sharded :class:`repro.serve.FleetDecisionService`.

    Device sessions are hash-partitioned across ``workers`` shard
    processes (serial in-process shards when the runtime's downgrade
    rules apply), each fronted by a session-aware skip cache.  fopt is
    bit-identical to :func:`make_decision_service` for every request;
    see :mod:`repro.serve.fleet` for the contract.

    The returned service owns worker processes -- use it as a context
    manager or call ``close()`` when done.

    Args:
        predictor: Trained bundle (default: :func:`default_predictor`).
        workers: Shard count.
        skip_cache: Enable the unchanged-vector short circuit.
        skip_tolerance: Absolute per-feature drift a skip may absorb
            (``0.0`` = exact-match only, lossless).
        max_batch_size: Per-shard flush-on-size threshold.
        max_wait_s: Per-shard flush-on-wait budget.
        include_leakage: ``False`` serves the DORA_no_lkg ablation.
        qos_margin: Deadline safety margin in ``[0, 1)``.
    """
    from repro.serve.fleet import FleetConfig, FleetDecisionService
    from repro.serve.service import ServiceConfig

    return FleetDecisionService(
        predictor if predictor is not None else default_predictor(),
        config=FleetConfig(
            workers=workers,
            service=ServiceConfig(
                max_batch_size=max_batch_size,
                max_wait_s=max_wait_s,
                include_leakage=include_leakage,
                qos_margin=qos_margin,
            ),
            skip_cache=skip_cache,
            skip_tolerance=skip_tolerance,
        ),
    )


def make_fleet_engine(
    rows: int = 256,
    seed: int = 0,
    record_trace: bool = False,
):
    """A ready :class:`repro.sim.FleetEngine` over a standard fleet.

    Builds a deterministic heterogeneous device population
    (:func:`repro.sim.fleet_engine.heterogeneous_fleet`: pages,
    co-runners, operating points, governors, ambient conditions and
    step sizes all vary across rows) and wraps it in the fleet
    engine, which runs every row through the regime-stepped fast path.
    ``run()`` returns one :class:`~repro.sim.engine.RunResult` per row,
    each bit-identical to simulating that device alone.

    Args:
        rows: Fleet size.
        seed: Fleet assignment seed (same ``(rows, seed)`` -- same
            fleet).
        record_trace: Keep per-step time series on every row.
    """
    from repro.sim.fleet_engine import FleetEngine, heterogeneous_fleet

    return FleetEngine(
        rows=heterogeneous_fleet(rows, seed=seed, record_trace=record_trace)
    )


def quick_run(
    page: str,
    kernel: str | None = None,
    governor: str = "DORA",
    deadline_s: float = 3.0,
    record_trace: bool = True,
) -> RunResult:
    """Load one page under a governor and return the run result.

    Args:
        page: One of the 18 page names (e.g. ``"reddit"``).
        kernel: Optional co-runner (e.g. ``"backprop"``); ``None``
            loads the page alone.
        governor: ``"DORA"``, ``"DORA_no_lkg"``, ``"interactive"``,
            ``"performance"``, ``"powersave"``, ``"DL"`` or ``"EE"``
            (case-insensitive).
        deadline_s: QoS target handed to model-based governors.
        record_trace: Keep per-step time series on the result.

    Returns:
        The engine's run result (load time, energy, PPW, trace).
    """
    canonical = {name.lower(): name for name in (
        "interactive", "performance", "powersave", "DL", "EE",
        "DORA", "DORA_no_lkg",
    )}
    name = canonical.get(governor.lower())
    if name is None:
        raise KeyError(f"unknown governor {governor!r}")
    config = HarnessConfig(deadline_s=deadline_s)
    predictor = None
    if name in ("DL", "EE", "DORA", "DORA_no_lkg"):
        predictor = default_predictor()
    gov = make_governor(name, predictor, config)
    return run_workload(
        page, kernel, gov, config,
        record_trace=record_trace, deadline_s=deadline_s,
    )
