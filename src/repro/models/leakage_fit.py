"""Fitting the Equation-5 leakage model to calibration data.

The paper determines the parameters of the Liao et al. leakage form
"using non-linear numerical solutions and mean square error
minimization" (Section III-B).  We reproduce that: calibration
observations of (voltage, temperature, leakage power) -- obtained from
the simulated device the way a lab isolates leakage, by differencing
idle power across controlled temperature at fixed operating points --
are fitted with :func:`scipy.optimize.least_squares`.

The fitted model is DORA's copy of the physics: it never sees the
device's true constants, only noisy observations.  Its type,
:class:`~repro.models.predictor.FittedLeakageModel`, lives with the
predictor that consumes it, so loading and serving a bundle never
import SciPy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from repro.models.predictor import FittedLeakageModel
from repro.soc.leakage import KELVIN_OFFSET, LeakageParameters


@dataclass(frozen=True)
class LeakageSample:
    """One calibration observation."""

    voltage_v: float
    temperature_c: float
    leakage_w: float


def _eval_vectorized(
    params: np.ndarray, voltages: np.ndarray, temps_k: np.ndarray
) -> np.ndarray:
    k1, k2, alpha, beta, gamma, delta = params
    # Clamp exponents: wild intermediate parameter guesses during the
    # fit must produce large-but-finite residuals, not overflow.
    sub_exponent = np.minimum((alpha * voltages + beta) / temps_k, 50.0)
    gate_exponent = np.minimum(gamma * voltages + delta, 50.0)
    subthreshold = k1 * voltages * temps_k**2 * np.exp(sub_exponent)
    gate = k2 * np.exp(gate_exponent)
    return subthreshold + gate


def fit_leakage(
    samples: list[LeakageSample],
    initial: LeakageParameters | None = None,
) -> FittedLeakageModel:
    """Fit Equation 5 to calibration samples.

    Args:
        samples: Calibration observations (at least six, one per free
            parameter).
        initial: Optional starting point; a generic guess is used
            otherwise.  The optimizer bounds ``k1``/``k2`` to be
            non-negative so the fitted model stays physical.

    Returns:
        The fitted model with its RMS residual.
    """
    if len(samples) < 6:
        raise ValueError("need at least 6 samples to fit 6 parameters")
    voltages = np.array([s.voltage_v for s in samples])
    temps_k = np.array([s.temperature_c + KELVIN_OFFSET for s in samples])
    observed = np.array([s.leakage_w for s in samples])
    if np.any(observed < 0):
        raise ValueError("leakage observations must be non-negative")

    # Relative residuals: leakage spans an order of magnitude across
    # the (V, T) grid, and the model's accuracy is judged in percent.
    scale = np.maximum(observed, 1e-6)

    def residual(params: np.ndarray) -> np.ndarray:
        return (_eval_vectorized(params, voltages, temps_k) - observed) / scale

    if initial is not None:
        starts = [np.array(initial.as_tuple())]
    else:
        # The landscape has local minima; a small multi-start sweep over
        # plausible subthreshold slopes finds the global basin reliably.
        starts = [
            np.array([k1, 0.05, alpha, beta, 2.0, -6.0])
            for k1 in (1e-5, 1e-4, 5e-4)
            for alpha, beta in ((500.0, -1500.0), (1000.0, -2200.0), (1500.0, -3000.0))
        ]

    lower = np.array([0.0, 0.0, -np.inf, -np.inf, -np.inf, -np.inf])
    upper = np.full(6, np.inf)
    solution = None
    for start in starts:
        candidate = least_squares(
            residual, start, bounds=(lower, upper), max_nfev=20000
        )
        if solution is None or candidate.cost < solution.cost:
            solution = candidate
    fitted = LeakageParameters(*solution.x)
    absolute = _eval_vectorized(solution.x, voltages, temps_k) - observed
    rms = float(np.sqrt(np.mean(absolute**2)))
    return FittedLeakageModel(parameters=fitted, rms_error_w=rms)


def calibration_samples(
    true_parameters: LeakageParameters,
    voltages: list[float],
    temperatures_c: list[float],
    rng: np.random.Generator | None = None,
    noise: float = 0.02,
) -> list[LeakageSample]:
    """Generate a calibration grid from the device's true physics.

    This stands in for the lab procedure (idle-power differencing over
    a thermal-chamber sweep); each grid point is observed with
    multiplicative noise.
    """
    samples = []
    for voltage in voltages:
        for temperature in temperatures_c:
            truth = true_parameters.power_w(voltage, temperature)
            factor = 1.0
            if rng is not None and noise > 0:
                factor = float(np.exp(rng.normal(-0.5 * noise * noise, noise)))
            samples.append(
                LeakageSample(
                    voltage_v=voltage,
                    temperature_c=temperature,
                    leakage_w=truth * factor,
                )
            )
    return samples
