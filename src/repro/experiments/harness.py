"""Running workloads under governors: the measurement harness.

This is the simulated counterpart of the paper's bench scripts: load a
page (optionally next to a co-runner) under a chosen governor, measure
load time / power / energy, sweep fixed frequencies for the oracle
points (fD, fE, fopt, Offline-opt), and evaluate the whole 54-workload
suite.  Heavy artifacts are cached via :mod:`repro.experiments.cache`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

# Not called here (``build_engine`` assembles runs); kept as a by-name
# re-export that perfbench's tracer test patches.
from repro.browser.browser import browser_tasks  # noqa: F401
from repro.core.dora import DoraGovernor
from repro.core.governors import (
    DeadlineGovernor,
    EnergyEfficientGovernor,
    FixedFrequencyGovernor,
    InteractiveGovernor,
    OndemandGovernor,
    performance_governor,
    powersave_governor,
)
from repro.core.ppw import FrequencyPrediction, find_fd, find_fe, select_fopt
from repro.experiments.cache import memoized
from repro.experiments.suite import WorkloadCombo, all_combos
from repro.models.predictor import DoraPredictor
from repro.sim.engine import Engine, RunResult
from repro.sim.fleet_engine import build_engine
from repro.sim.governor import Governor
from repro.soc.device import DeviceConfig

#: Governor names the harness can instantiate directly.
GOVERNOR_NAMES = (
    "interactive",
    "ondemand",
    "performance",
    "powersave",
    "DL",
    "EE",
    "DORA",
    "DORA_no_lkg",
)

#: The governor set of Fig. 7 (plus oracles added by the evaluation).
DEFAULT_COMPARISON = ("interactive", "performance", "DL", "EE", "DORA")


@dataclass(frozen=True)
class HarnessConfig:
    """Shared experiment parameters.

    Attributes:
        deadline_s: Page-load QoS target (3 s default, Section II-B).
        dt_s: Engine step.
        max_time_s: Safety timeout per run.
        dora_interval_s: DORA's decision interval.
        device: Device configuration (ambient scenario, physics).
        engine: The ``engine`` every run is built with
            (:func:`~repro.sim.fleet_engine.build_engine`): ``"fast"``
            or ``"reference"``.  Both produce bit-identical results,
            so cached artifacts are shared between them.
    """

    deadline_s: float = 3.0
    dt_s: float = 0.002
    max_time_s: float = 60.0
    dora_interval_s: float = 0.1
    device: DeviceConfig = field(default_factory=DeviceConfig)
    engine: str = "fast"


@dataclass(frozen=True)
class RunSummary:
    """Picklable digest of one run."""

    governor: str
    load_time_s: float | None
    avg_power_w: float
    energy_j: float
    duration_s: float
    switch_count: int
    switch_stall_s: float
    final_temperature_c: float

    @classmethod
    def from_result(cls, result: RunResult) -> "RunSummary":
        """Summarize an engine result."""
        return cls(
            governor=result.governor_name,
            load_time_s=result.load_time_s,
            avg_power_w=result.avg_power_w,
            energy_j=result.energy_j,
            duration_s=result.duration_s,
            switch_count=result.switch_count,
            switch_stall_s=result.switch_stall_s,
            final_temperature_c=result.final_temperature_c,
        )

    @property
    def ppw(self) -> float:
        """Performance per watt (0 on timeout)."""
        if self.load_time_s is None or self.load_time_s <= 0:
            return 0.0
        if self.avg_power_w <= 0:
            return 0.0
        return 1.0 / (self.load_time_s * self.avg_power_w)

    def meets(self, deadline_s: float) -> bool:
        """Whether the load met a deadline."""
        return self.load_time_s is not None and self.load_time_s <= deadline_s


def make_governor(
    name: str,
    predictor: DoraPredictor | None,
    config: HarnessConfig,
) -> Governor:
    """Instantiate a governor by its paper name.

    Raises:
        KeyError: For unknown names.
        ValueError: When a model-based governor is requested without a
            predictor.
    """
    spec = config.device.spec
    if name == "interactive":
        return InteractiveGovernor()
    if name == "ondemand":
        return OndemandGovernor()
    if name == "performance":
        return performance_governor(spec.max_state.freq_hz)
    if name == "powersave":
        return powersave_governor(spec.min_state.freq_hz)
    if name in ("DL", "EE", "DORA", "DORA_no_lkg"):
        if predictor is None:
            raise ValueError(f"governor {name!r} needs trained models")
        if name == "DL":
            return DeadlineGovernor(predictor=predictor)
        if name == "EE":
            return EnergyEfficientGovernor(predictor=predictor)
        return DoraGovernor(
            predictor=predictor,
            interval_s=config.dora_interval_s,
            include_leakage=(name == "DORA"),
        )
    raise KeyError(f"unknown governor {name!r}")


def workload_engine(
    page_name: str,
    kernel_name: str | None,
    governor: Governor,
    config: HarnessConfig | None = None,
    record_trace: bool = False,
    deadline_s: float | None = None,
) -> Engine:
    """The engine that loads one page under a governor, not yet run.

    :func:`run_workload` runs it alone; the serving trace harvest runs
    many through one :class:`~repro.sim.fleet_engine.FleetEngine`.
    """
    config = config or HarnessConfig()
    return build_engine(
        page_name,
        () if kernel_name is None else (kernel_name,),
        governor,
        dt_s=config.dt_s,
        max_time_s=config.max_time_s,
        device_config=config.device,
        deadline_s=deadline_s if deadline_s is not None else config.deadline_s,
        record_trace=record_trace,
        engine=config.engine,
    )


def run_workload(
    page_name: str,
    kernel_name: str | None,
    governor: Governor,
    config: HarnessConfig | None = None,
    record_trace: bool = False,
    deadline_s: float | None = None,
) -> RunResult:
    """Load one page under a governor (optionally with a co-runner)."""
    return workload_engine(
        page_name, kernel_name, governor, config, record_trace, deadline_s
    ).run()


def run_kernel_alone(
    kernel_name: str,
    duration_s: float,
    freq_hz: float | None = None,
    config: HarnessConfig | None = None,
) -> RunResult:
    """Run a co-runner by itself for a fixed window (Fig. 2b's EO)."""
    config = config or HarnessConfig()
    freq = freq_hz or config.device.spec.max_state.freq_hz
    return build_engine(
        None,
        (kernel_name,),
        FixedFrequencyGovernor(freq_hz=freq, label="fixed"),
        dt_s=config.dt_s,
        max_time_s=duration_s,
        device_config=config.device,
        engine=config.engine,
    ).run()


# ----------------------------------------------------------------------
# Measured frequency sweeps and oracle points
# ----------------------------------------------------------------------
def sweep_cache_key(
    page_name: str,
    kernel_name: str | None,
    freqs_hz: tuple[float, ...],
    config: HarnessConfig,
) -> tuple:
    """Memo key of a fixed-frequency sweep (family ``"sweep"``).

    Includes ``max_time_s``: the per-run timeout decides which points
    survive a sweep, so results measured under a different timeout
    must not be reused.
    """
    return (
        "sweep",
        page_name,
        kernel_name,
        tuple(freqs_hz),
        config.dt_s,
        config.max_time_s,
        config.device.ambient.name,
    )


def frequency_sweep(
    page_name: str,
    kernel_name: str | None,
    config: HarnessConfig | None = None,
    freqs_hz: tuple[float, ...] | None = None,
    workers: int | None = None,
) -> list[FrequencyPrediction]:
    """Measured (load time, power) at each fixed frequency.

    The returned points are *measured truth* (noise-free), used for
    oracle analysis: fD / fE / fopt / Offline-opt.  The per-frequency
    runs are independent and fan out over the execution runtime;
    ``workers=None`` defers to the runtime's configured default
    (serial unless ``REPRO_WORKERS`` asks otherwise).
    """
    from repro.runtime import Job, run_jobs

    config = config or HarnessConfig()
    freqs = freqs_hz or config.device.spec.evaluation_freqs_hz

    def build() -> list[FrequencyPrediction]:
        jobs = [
            Job(
                kind="sweep-point",
                spec=dict(
                    page_name=page_name,
                    kernel_name=kernel_name,
                    freq_hz=freq_hz,
                    config=config,
                ),
                label=f"{page_name}+{kernel_name or 'solo'}@{freq_hz / 1e9:.2f}GHz",
            )
            for freq_hz in freqs
        ]
        results = run_jobs(
            jobs,
            workers=workers,
            label=f"sweep {page_name}+{kernel_name or 'solo'}",
        )
        return [r.value for r in results if r.value is not None]

    key = sweep_cache_key(page_name, kernel_name, tuple(freqs), config)
    return memoized("sweep", key, build)


@dataclass(frozen=True)
class OraclePoints:
    """Ground-truth operating points extracted from a measured sweep.

    Attributes:
        fd_hz: Lowest deadline-meeting frequency (None if infeasible).
        fe_hz: PPW-max frequency, deadline-oblivious.
        fopt_hz: Equation-1 optimum (falls back to fmax if infeasible).
    """

    fd_hz: float | None
    fe_hz: float
    fopt_hz: float


def oracle_points(
    sweep: list[FrequencyPrediction], deadline_s: float
) -> OraclePoints:
    """Extract fD / fE / fopt from a measured sweep."""
    fd = find_fd(sweep, deadline_s)
    fe = find_fe(sweep)
    fopt = select_fopt(sweep, deadline_s)
    return OraclePoints(
        fd_hz=fd.freq_hz if fd is not None else None,
        fe_hz=fe.freq_hz,
        fopt_hz=fopt.freq_hz,
    )


# ----------------------------------------------------------------------
# Whole-suite evaluation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ComboEvaluation:
    """Everything measured for one workload combination.

    Attributes:
        combo: The page + kernel pairing.
        sweep: Fixed-frequency measured points.
        oracle: fD / fE / fopt ground truth at the config deadline.
        runs: Governor name -> run summary.  Includes the oracle
            fixed-frequency governors ``fD`` and ``fE`` (fD falls back
            to fmax when the deadline is infeasible, as DORA does).
    """

    combo: WorkloadCombo
    sweep: tuple[FrequencyPrediction, ...]
    oracle: OraclePoints
    runs: dict[str, RunSummary]

    def ppw_normalized(self, governor: str, baseline: str = "interactive") -> float:
        """PPW of a governor normalized to a baseline governor."""
        base = self.runs[baseline].ppw
        if base <= 0:
            raise ValueError(f"baseline {baseline!r} has no valid PPW")
        return self.runs[governor].ppw / base


def evaluate_combo(
    combo: WorkloadCombo,
    predictor: DoraPredictor,
    governors: tuple[str, ...] = DEFAULT_COMPARISON,
    config: HarnessConfig | None = None,
) -> ComboEvaluation:
    """Measure one combo under each governor plus the oracle points."""
    config = config or HarnessConfig()

    def build() -> ComboEvaluation:
        sweep = frequency_sweep(combo.page_name, combo.kernel_name, config)
        oracle = oracle_points(sweep, config.deadline_s)
        runs: dict[str, RunSummary] = {}
        for name in governors:
            governor = make_governor(name, predictor, config)
            result = run_workload(
                combo.page_name, combo.kernel_name, governor, config
            )
            runs[name] = RunSummary.from_result(result)
        spec = config.device.spec
        fd_hz = oracle.fd_hz if oracle.fd_hz is not None else spec.max_state.freq_hz
        oracle_governors = (
            ("fD", fd_hz),
            ("fE", oracle.fe_hz),
            # Offline-opt: the single best fixed setting (Section V-C's
            # static offline-optimal configuration).
            ("OfflineOpt", oracle.fopt_hz),
        )
        for label, freq_hz in oracle_governors:
            governor = FixedFrequencyGovernor(freq_hz=freq_hz, label=label)
            result = run_workload(
                combo.page_name, combo.kernel_name, governor, config
            )
            runs[label] = RunSummary.from_result(result)
        return ComboEvaluation(
            combo=combo, sweep=tuple(sweep), oracle=oracle, runs=runs
        )

    key = combo_eval_cache_key(combo, governors, config)
    return memoized("combo-eval", key, build)


def combo_eval_cache_key(
    combo: WorkloadCombo,
    governors: tuple[str, ...],
    config: HarnessConfig,
) -> tuple:
    """Memo key of one combo evaluation (family ``"combo-eval"``).

    Shared between :func:`evaluate_combo` and the runtime's
    cache-aware scheduler so a warm artifact skips the worker pool.
    Includes ``max_time_s`` for the same staleness reason as
    :func:`sweep_cache_key`.
    """
    return (
        "combo-eval",
        "v2",  # bump when the stored evaluation gains fields
        combo.page_name,
        combo.kernel_name,
        tuple(sorted(governors)),
        config.deadline_s,
        config.dt_s,
        config.max_time_s,
        config.dora_interval_s,
        config.device.ambient.name,
    )


def evaluate_suite(
    predictor: DoraPredictor,
    combos: tuple[WorkloadCombo, ...] | None = None,
    governors: tuple[str, ...] = DEFAULT_COMPARISON,
    config: HarnessConfig | None = None,
    workers: int | None = None,
    progress=None,
) -> list[ComboEvaluation]:
    """Evaluate (a subset of) the 54-workload suite.

    Combos are independent, so each one becomes a runtime job; warm
    combos are served from the artifact cache without touching the
    pool, cold ones are built by workers (which write the cache
    themselves).  Parallel results are identical to serial ones: every
    run is seeded and self-contained, and results are assembled in
    combo order regardless of completion order.

    Args:
        workers: Worker processes (``None`` = runtime default,
            ``0`` = in-process serial).
        progress: Optional callback receiving one-line progress
            reports.
    """
    from repro.runtime import Job, run_jobs

    config = config or HarnessConfig()
    combos = combos or all_combos()
    jobs = [
        Job(
            kind="evaluate-combo",
            spec=dict(
                combo=combo,
                predictor=predictor,
                governors=governors,
                config=config,
            ),
            label=combo.label,
            cache_family="combo-eval",
            cache_key=combo_eval_cache_key(combo, governors, config),
        )
        for combo in combos
    ]
    results = run_jobs(
        jobs, workers=workers, progress=progress, label="evaluate-suite"
    )
    return [result.value for result in results]


def mean_normalized_ppw(
    evaluations: list[ComboEvaluation],
    governor: str,
    baseline: str = "interactive",
) -> float:
    """Suite-mean PPW of a governor relative to a baseline."""
    if not evaluations:
        raise ValueError("need at least one evaluation")
    total = sum(e.ppw_normalized(governor, baseline) for e in evaluations)
    return total / len(evaluations)


def with_ambient(config: HarnessConfig, ambient) -> HarnessConfig:
    """A copy of the config under a different ambient scenario."""
    return replace(config, device=replace(config.device, ambient=ambient))
