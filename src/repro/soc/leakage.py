"""Ground-truth leakage-power physics of the simulated device.

The paper models leakage with the empirical form of Liao, He and Lepak
("Temperature and supply voltage aware performance and power modeling at
microarchitecture level", TCAD 2005), reproduced as Equation 5:

    P_lkg = k1 * v * T^2 * exp((alpha * v + beta) / T) + k2 * exp(gamma * v + delta)

with ``v`` the supply voltage, ``T`` the junction temperature in kelvin
and ``k1, k2, alpha, beta, gamma, delta`` circuit-topology constants.
The first term captures subthreshold leakage (super-linear in both
temperature and voltage); the second captures gate leakage (roughly
temperature independent).

This module is the *device-side* truth: the simulated SoC dissipates
exactly this power.  DORA does not read these constants -- it fits its
own copy of Equation 5 to noisy power observations
(:mod:`repro.models.leakage_fit`), just as the authors fitted the model
to DAQ measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

#: Conversion offset between Celsius and Kelvin.
KELVIN_OFFSET = 273.15


@dataclass(frozen=True)
class LeakageParameters:
    """Parameters of the Liao et al. leakage model (Equation 5)."""

    k1: float
    k2: float
    alpha: float
    beta: float
    gamma: float
    delta: float

    def power_w(self, voltage_v: float, temperature_c: float) -> float:
        """Leakage power at a supply voltage and junction temperature.

        Args:
            voltage_v: Supply voltage in volts.
            temperature_c: Junction temperature in degrees Celsius.

        Returns:
            Leakage power in watts.

        Raises:
            ValueError: If the voltage is non-positive or the
                temperature is below absolute zero.
        """
        if voltage_v <= 0:
            raise ValueError("voltage must be positive")
        temperature_k = temperature_c + KELVIN_OFFSET
        if temperature_k <= 0:
            raise ValueError("temperature must be above absolute zero")
        subthreshold = (
            self.k1
            * voltage_v
            * temperature_k**2
            * math.exp((self.alpha * voltage_v + self.beta) / temperature_k)
        )
        gate = self.k2 * math.exp(self.gamma * voltage_v + self.delta)
        return subthreshold + gate

    def bound_evaluator(self, voltage_v: float) -> Callable[[float], float]:
        """A ``temperature_c -> power_w`` closure for a fixed voltage.

        Hoists every voltage-only subexpression out of the per-call
        path; the engine's regime integrator evaluates leakage once per
        dt inside a tight loop.  The remaining arithmetic keeps exactly
        the evaluation order of :meth:`power_w`, so the closure is
        bit-identical to it at every temperature.

        Raises:
            ValueError: If the voltage is non-positive.
        """
        if voltage_v <= 0:
            raise ValueError("voltage must be positive")
        k1v = self.k1 * voltage_v
        slope = self.alpha * voltage_v + self.beta
        gate = self.k2 * math.exp(self.gamma * voltage_v + self.delta)
        exp = math.exp

        def power_w(temperature_c: float) -> float:
            temperature_k = temperature_c + KELVIN_OFFSET
            if temperature_k <= 0:
                raise ValueError("temperature must be above absolute zero")
            return k1v * temperature_k**2 * exp(slope / temperature_k) + gate

        return power_w

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        """Parameters as an ordered tuple (useful for fitting code)."""
        return (self.k1, self.k2, self.alpha, self.beta, self.gamma, self.delta)


def nexus5_leakage_parameters() -> LeakageParameters:
    """Leakage constants calibrated for the simulated MSM8974.

    The constants are chosen so that the simulated device leaks roughly
    0.25 W near the low-voltage corner at a cool junction (0.85 V,
    40 C) and 1.5 W at the high corner when hot (1.15 V, 65 C).  That
    strong voltage/temperature dependence is what makes leakage a
    first-class term in the fopt decision -- the Section V-F effect
    (ignoring leakage costs ~10 % energy efficiency, and a warm device
    shifts fopt down one bin).
    """
    return LeakageParameters(
        k1=2.0e-4,
        k2=0.02,
        alpha=1115.8,
        beta=-2443.6,
        gamma=2.0,
        delta=-6.0,
    )
