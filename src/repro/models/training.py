"""The offline measurement campaign and model training (Section IV-C).

The paper takes over 300 measurements of power and load time across
workload combinations and frequency settings, then fits the model
coefficients by mean-square-error minimization.  This module is the
simulated equivalent:

1. :func:`run_campaign` executes every Webpage-Inclusive combination
   (and each training page alone) at every DVFS state, observing noisy
   load time, mean device power, the co-runner's measured L2 MPKI and
   utilization, and the mean package temperature.
2. :func:`train_models` fits the Equation-5 leakage model from a
   calibration grid, subtracts its estimate from each power
   observation to obtain the dynamic component, fits the piecewise
   load-time surface and the dynamic-power surface, and bundles the
   result into a ready-to-run :class:`~repro.models.predictor.DoraPredictor`.
3. :func:`page_error_summary` / :func:`error_cdf` reproduce the Fig. 5
   accuracy statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.browser.pages import page_by_name
from repro.core.governors import FixedFrequencyGovernor
from repro.models.features import IndependentVariables
from repro.models.leakage_fit import (
    FittedLeakageModel,
    calibration_samples,
    fit_leakage,
)
from repro.models.performance_model import PiecewiseLoadTimeModel
from repro.models.power_model import DynamicPowerModel
from repro.models.predictor import DoraPredictor
from repro.models.regression import ResponseSurface
from repro.sim.engine import RunResult
from repro.sim.fleet_engine import build_engine
from repro.sim.measurement import observe
from repro.soc.device import DeviceConfig


@dataclass(frozen=True)
class TrainingConfig:
    """Campaign parameters.

    Attributes:
        pages: Training pages.  ``None`` selects the suite's 14
            Webpage-Inclusive pages.
        freqs_hz: Frequencies measured per combination.  ``None``
            sweeps the full 14-state DVFS table.
        include_solo: Also measure each page running alone (anchors
            the zero-interference end of the X6/X9 axes).
        dt_s: Engine step for the measurement runs.
        seed: Seed of the measurement-noise generator.
        load_time_noise: Relative noise on load-time stamps.
        power_noise: Relative noise on power readings.
        max_time_s: Safety timeout per run.
    """

    pages: tuple[str, ...] | None = None
    freqs_hz: tuple[float, ...] | None = None
    include_solo: bool = True
    dt_s: float = 0.002
    seed: int = 2018
    load_time_noise: float = 0.015
    power_noise: float = 0.025
    max_time_s: float = 60.0


@dataclass(frozen=True)
class Observation:
    """One labelled measurement of a (page, co-runner, frequency) run.

    Attributes:
        page_name: The foreground page.
        kernel_name: Co-runner, or ``None`` for a solo run.
        row: The Table-I predictor row (with the *measured* X6/X9).
        load_time_s: Observed (noisy) load time.
        total_power_w: Observed (noisy) mean device power.
        avg_temperature_c: Mean package temperature over the run.
        voltage_v: Supply voltage of the operating point.
    """

    page_name: str
    kernel_name: str | None
    row: IndependentVariables
    load_time_s: float
    total_power_w: float
    avg_temperature_c: float
    voltage_v: float

    @property
    def freq_hz(self) -> float:
        """Core frequency of the observation."""
        return self.row.core_freq_ghz * 1e9


def measure_once(
    page_name: str,
    kernel_name: str | None,
    freq_hz: float,
    rng: np.random.Generator | None,
    config: TrainingConfig,
    device_config: DeviceConfig | None = None,
) -> Observation | None:
    """Run one fixed-frequency load and observe it.

    Returns ``None`` when the run times out (no load time to learn
    from), which cannot happen at sane timeouts but is handled for
    robustness.
    """
    engine = build_engine(
        page_name,
        () if kernel_name is None else (kernel_name,),
        FixedFrequencyGovernor(freq_hz=freq_hz, label="campaign"),
        dt_s=config.dt_s,
        max_time_s=config.max_time_s,
        device_config=device_config,
    )
    result = engine.run()
    if result.load_time_s is None:
        return None
    measurement = observe(
        result,
        rng=rng,
        load_time_noise=config.load_time_noise,
        power_noise=config.power_noise,
    )
    mpki, utilization = corunner_signals(result, kernel_name)
    state = engine.device.spec.state_for(freq_hz)
    row = IndependentVariables.build(
        page=page_by_name(page_name).features,
        l2_mpki=mpki,
        core_freq_hz=state.freq_hz,
        bus_freq_hz=state.bus_freq_hz,
        corunner_utilization=utilization,
    )
    return Observation(
        page_name=page_name,
        kernel_name=kernel_name,
        row=row,
        load_time_s=measurement.load_time_s,
        total_power_w=measurement.avg_power_w,
        avg_temperature_c=result.avg_temperature_c,
        voltage_v=state.voltage_v,
    )


def corunner_signals(
    result: RunResult, kernel_name: str | None
) -> tuple[float, float]:
    """Measured (MPKI, utilization) of the co-runner during a run."""
    if kernel_name is None:
        return 0.0, 0.0
    summary = result.task_summaries[f"kernel:{kernel_name}"]
    utilization = (
        summary.busy_s / result.duration_s if result.duration_s > 0 else 0.0
    )
    return summary.mpki, min(1.0, utilization)


def measurement_rng(seed: int, index: int) -> np.random.Generator:
    """The noise generator of campaign measurement ``index``.

    Every measurement owns an independent stream spawned from the
    campaign seed, so observations do not depend on the *order* the
    measurements execute in -- the property that lets the parallel
    runtime replay the campaign bit-identically to a serial loop.
    """
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(index,))
    )


def campaign_pairs(config: TrainingConfig) -> list[tuple[str, str | None]]:
    """The (page, co-runner) pairs the campaign measures, in order."""
    from repro.experiments.suite import inclusive_combos, training_pages

    pages = config.pages or training_pages()
    page_set = set(pages)
    pairs: list[tuple[str, str | None]] = []
    for combo in inclusive_combos():
        if combo.page_name in page_set:
            pairs.append((combo.page_name, combo.kernel_name))
    if config.include_solo:
        pairs.extend((page, None) for page in pages)
    return pairs


def run_campaign(
    config: TrainingConfig | None = None,
    device_config: DeviceConfig | None = None,
    workers: int | None = None,
    progress=None,
) -> list[Observation]:
    """Execute the full measurement campaign.

    With defaults this produces 14 pages x (3 co-runners + solo) x 14
    frequencies = 784 observations, comfortably beyond the paper's
    ">300 measurements".  Measurements are independent (each carries
    its own seeded noise stream, see :func:`measurement_rng`) and fan
    out over the execution runtime; the observation list comes back in
    deterministic (pair-major, frequency-minor) order either way.

    Args:
        workers: Worker processes (``None`` = runtime default,
            ``0`` = in-process serial).
        progress: Optional callback receiving one-line progress
            reports.
    """
    from repro.runtime import Job, run_jobs

    config = config or TrainingConfig()
    spec = (device_config or DeviceConfig()).spec
    freqs = config.freqs_hz or spec.frequencies_hz
    pairs = campaign_pairs(config)

    jobs = []
    for pair_index, (page_name, kernel_name) in enumerate(pairs):
        for freq_index, freq_hz in enumerate(freqs):
            index = pair_index * len(freqs) + freq_index
            jobs.append(
                Job(
                    kind="campaign-measurement",
                    spec=dict(
                        page_name=page_name,
                        kernel_name=kernel_name,
                        freq_hz=freq_hz,
                        seed=config.seed,
                        index=index,
                        config=config,
                        device_config=device_config,
                    ),
                    label=f"{page_name}+{kernel_name or 'solo'}"
                    f"@{freq_hz / 1e9:.2f}GHz",
                )
            )
    results = run_jobs(
        jobs, workers=workers, progress=progress, label="campaign"
    )
    return [r.value for r in results if r.value is not None]


@dataclass
class TrainedModels:
    """Everything the training phase produces.

    Attributes:
        predictor: Ready-to-use prediction bundle for the governors.
        load_time_model: The piecewise load-time surface.
        power_model: The dynamic-power surface.
        leakage_model: The fitted Equation-5 model.
        observations: The training observations.
        perf_surface: Surface family used for load time.
        power_surface: Surface family used for power.
    """

    predictor: DoraPredictor
    load_time_model: PiecewiseLoadTimeModel
    power_model: DynamicPowerModel
    leakage_model: FittedLeakageModel
    observations: list[Observation] = field(repr=False, default_factory=list)
    perf_surface: ResponseSurface = ResponseSurface.INTERACTION
    power_surface: ResponseSurface = ResponseSurface.LINEAR


def fit_leakage_from_calibration(
    device_config: DeviceConfig | None = None,
    seed: int = 77,
) -> FittedLeakageModel:
    """Fit Equation 5 from a simulated thermal-chamber sweep.

    The calibration grid covers every DVFS voltage and junction
    temperatures from 20 to 80 Celsius, observed with 2 % noise --
    standing in for the paper's leakage isolation on the bench.
    """
    device_config = device_config or DeviceConfig()
    voltages = sorted(
        {state.voltage_v for state in device_config.spec.dvfs_table}
    )
    temperatures = [20.0 + 5.0 * i for i in range(13)]
    rng = np.random.default_rng(seed)
    samples = calibration_samples(
        device_config.power_model.leakage, voltages, temperatures, rng=rng
    )
    return fit_leakage(samples)


def train_models(
    observations: list[Observation],
    device_config: DeviceConfig | None = None,
    perf_surface: ResponseSurface = ResponseSurface.INTERACTION,
    power_surface: ResponseSurface = ResponseSurface.LINEAR,
    leakage_model: FittedLeakageModel | None = None,
    relative_weighting: bool = True,
    ridge_cross: float = 1e-5,
) -> TrainedModels:
    """Fit all models from campaign observations.

    The dynamic-power target of each observation is its measured total
    power minus the fitted leakage at the observation's voltage and
    mean temperature, mirroring how the paper separates the two
    components.

    ``relative_weighting`` and ``ridge_cross`` are forwarded to the
    surface fits; the defaults reproduce the offline campaign fit
    bit-for-bit.  The online retraining loop passes ``ridge_cross=0``
    so that refitting a model on its own (unfloored) predictions
    recovers those predictions exactly instead of shrinking them by
    the ridge penalty.
    """
    if not observations:
        raise ValueError("cannot train without observations")
    device_config = device_config or DeviceConfig()
    if leakage_model is None:
        leakage_model = fit_leakage_from_calibration(device_config)

    rows = [o.row for o in observations]
    load_times = [o.load_time_s for o in observations]
    dynamic_power = [
        max(
            0.05,
            o.total_power_w
            - leakage_model.predict(o.voltage_v, o.avg_temperature_c),
        )
        for o in observations
    ]

    load_time_model = PiecewiseLoadTimeModel.fit(
        rows,
        load_times,
        perf_surface,
        relative_weighting=relative_weighting,
        ridge_cross=ridge_cross,
    )
    power_model = DynamicPowerModel.fit(
        rows,
        dynamic_power,
        power_surface,
        relative_weighting=relative_weighting,
        ridge_cross=ridge_cross,
    )
    predictor = DoraPredictor(
        spec=device_config.spec,
        load_time_model=load_time_model,
        power_model=power_model,
        leakage_model=leakage_model,
    )
    return TrainedModels(
        predictor=predictor,
        load_time_model=load_time_model,
        power_model=power_model,
        leakage_model=leakage_model,
        observations=observations,
        perf_surface=perf_surface,
        power_surface=power_surface,
    )


# ----------------------------------------------------------------------
# Fig. 5 accuracy statistics
# ----------------------------------------------------------------------
def _prediction_errors(
    models: TrainedModels, observations: list[Observation]
) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
    """Per-page relative errors of both models."""
    time_errors: dict[str, list[float]] = {}
    power_errors: dict[str, list[float]] = {}
    for obs in observations:
        predicted_time = models.load_time_model.predict(obs.row)
        predicted_power = models.power_model.predict(
            obs.row
        ) + models.leakage_model.predict(obs.voltage_v, obs.avg_temperature_c)
        time_errors.setdefault(obs.page_name, []).append(
            abs(predicted_time - obs.load_time_s) / obs.load_time_s
        )
        power_errors.setdefault(obs.page_name, []).append(
            abs(predicted_power - obs.total_power_w) / obs.total_power_w
        )
    return time_errors, power_errors


def page_error_summary(
    models: TrainedModels, observations: list[Observation] | None = None
) -> dict[str, tuple[float, float]]:
    """Per-page (load-time error, power error), mean absolute relative.

    Defaults to the training observations (the paper's Fig. 5 reports
    model accuracy over its measured pages).
    """
    observations = observations or models.observations
    time_errors, power_errors = _prediction_errors(models, observations)
    return {
        page: (
            float(np.mean(time_errors[page])),
            float(np.mean(power_errors[page])),
        )
        for page in time_errors
    }


def error_cdf(per_page_errors: list[float]) -> list[tuple[float, float]]:
    """(error, fraction of pages with error <= it) points, Fig. 5 style."""
    if not per_page_errors:
        raise ValueError("need at least one error value")
    ordered = sorted(per_page_errors)
    n = len(ordered)
    return [(error, (index + 1) / n) for index, error in enumerate(ordered)]


def overall_accuracy(models: TrainedModels) -> tuple[float, float]:
    """(load-time, power) mean accuracy = 1 - mean relative error.

    The paper's headline numbers: 97.5 % and 96 %.
    """
    summary = page_error_summary(models)
    # Reporting-only aggregate; page order is the campaign's fixed
    # observation order, so the mean is deterministic as written.
    time_mean = float(np.mean([errors[0] for errors in summary.values()]))  # repro: allow[R005]
    power_mean = float(np.mean([errors[1] for errors in summary.values()]))  # repro: allow[R005]
    return 1.0 - time_mean, 1.0 - power_mean
