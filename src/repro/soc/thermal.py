"""Lumped-RC thermal model of the smartphone SoC.

Smartphones have no active cooling, so sustained CPU power raises the
junction temperature within seconds, which in turn inflates leakage
power (Section V-F of the paper observes 58 -> 65 C when browsing at
1.9 GHz at room temperature, and a resulting one-bin shift of the
energy-optimal frequency).

We model the package as a first-order RC node per core plus a shared
SoC node:

    dT/dt = (P * R_th - (T - T_env)) / tau

where ``T_env`` is the effective environment temperature seen by the
junction (ambient plus the device-skin offset), ``R_th`` the
junction-to-environment thermal resistance and ``tau`` the thermal time
constant.  Per-core sensors see the shared SoC temperature plus a small
contribution from their own power, mirroring the per-core thermal
sensors on the MSM8974.
"""
# repro: bit-exact -- the engine's regime integrator sums energy and the
# temperature integral here (R003 forbids BLAS/pairwise reductions).

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class AmbientScenario:
    """An ambient-temperature condition for an experiment.

    The paper contrasts "room temperature" with a "low ambient
    temperature" condition in Fig. 10(b).
    """

    name: str
    ambient_c: float
    #: Junction temperature at the start of the experiment.  Browsing
    #: sessions start from a warm device, not a cold boot.
    initial_junction_c: float


def room_temperature() -> AmbientScenario:
    """The paper's default room-temperature condition."""
    return AmbientScenario(name="room", ambient_c=25.0, initial_junction_c=48.0)


def low_ambient() -> AmbientScenario:
    """The cooled condition of Fig. 10(b)."""
    return AmbientScenario(name="low-ambient", ambient_c=5.0, initial_junction_c=26.0)


def warm_device() -> AmbientScenario:
    """A device warmed by sustained use (the Fig. 10 regime).

    The paper observes 58-65 C junctions while browsing at room
    temperature; leakage effects on fopt are measured in that state.
    """
    return AmbientScenario(name="warm", ambient_c=25.0, initial_junction_c=58.0)


@dataclass
class ThermalModel:
    """First-order thermal response of the SoC package.

    Attributes:
        r_th_c_per_w: Junction-to-environment thermal resistance.
        tau_s: Thermal time constant of the package.
        core_r_th_c_per_w: Additional per-core self-heating resistance
            (local hotspot on top of the shared package temperature).
        ambient_c: Environment temperature.
        soc_temperature_c: Shared package temperature (state).
    """

    r_th_c_per_w: float = 9.0
    tau_s: float = 2.5
    core_r_th_c_per_w: float = 1.5
    ambient_c: float = 25.0
    soc_temperature_c: float = 48.0
    _core_power_w: dict[int, float] = field(default_factory=dict)

    @classmethod
    def for_scenario(cls, scenario: AmbientScenario) -> "ThermalModel":
        """Create a model initialised to an ambient scenario."""
        return cls(
            ambient_c=scenario.ambient_c,
            soc_temperature_c=scenario.initial_junction_c,
        )

    def step(self, total_power_w: float, dt_s: float,
             per_core_power_w: dict[int, float] | None = None) -> float:
        """Advance the thermal state by ``dt_s`` seconds.

        Args:
            total_power_w: Total SoC power dissipated during the step
                (dynamic + leakage; the display does not share the
                package thermal path in this model).
            dt_s: Step duration.
            per_core_power_w: Optional per-core power breakdown used by
                the per-core sensor readings.

        Returns:
            The shared SoC temperature after the step, in Celsius.
        """
        if dt_s < 0:
            raise ValueError("dt_s must be non-negative")
        if total_power_w < 0:
            raise ValueError("power must be non-negative")
        target_c = self.ambient_c + total_power_w * self.r_th_c_per_w
        # Exact integration of the first-order ODE over the step keeps
        # the model stable for any dt.
        decay = math.exp(-dt_s / self.tau_s)
        self.soc_temperature_c = target_c + (self.soc_temperature_c - target_c) * decay
        if per_core_power_w is not None:
            self._core_power_w = dict(per_core_power_w)
        return self.soc_temperature_c

    def integrate_regime(
        self,
        steps: int,
        dt_s: float,
        non_leakage_soc_w: float,
        rest_of_device_w: float,
        leak_power_of_c: Callable[[float], float],
        energy_j: float,
        temperature_integral: float,
        per_core_power_w: dict[int, float] | None = None,
        series: tuple[list[float], list[float], list[float]] | None = None,
    ) -> tuple[float, float]:
        """Advance ``steps`` steps of constant non-leakage power.

        The engine fast path calls this once per regime: between events
        every power component except leakage is constant, so only the
        temperature/leakage feedback needs per-dt resolution.  One loop
        runs the recurrence in exactly the per-step order of
        :meth:`step` (leakage at the pre-step temperature, then the
        exponential update), making the trajectory bit-identical to
        ``steps`` individual ``step()`` calls, and resumes the run's
        running totals in the engine's per-step order: energy gains
        ``(soc + rest-of-device) * dt`` and the temperature integral
        the post-step temperature times ``dt``.

        Args:
            steps: Number of dt steps in the regime.
            dt_s: Step duration.
            non_leakage_soc_w: Constant ``core dynamic + memory`` power.
            rest_of_device_w: Constant rest-of-device floor.
            leak_power_of_c: ``temperature_c -> leakage watts`` (see
                :meth:`~repro.soc.leakage.LeakageParameters.bound_evaluator`).
            energy_j: The run's energy before the regime.
            temperature_integral: The run's ``sum(T * dt)`` before it.
            per_core_power_w: Per-core power for the sensor readings,
                installed at the end of the regime (constant within it).
            series: ``(leakage_w, total_w, temperature_c)`` lists to
                extend by one value per step, for a run that records a
                trace; powers are pre-step values (what a breakdown at
                the start of each step reports), temperatures post-step.

        Returns:
            ``(energy_j, temperature_integral)`` advanced by the regime.
        """
        if dt_s < 0:
            raise ValueError("dt_s must be non-negative")
        decay = math.exp(-dt_s / self.tau_s)
        ambient_c = self.ambient_c
        r_th = self.r_th_c_per_w
        temperature_c = self.soc_temperature_c
        for _ in range(steps):
            leak = leak_power_of_c(temperature_c)
            soc_w = non_leakage_soc_w + leak
            total_w = soc_w + rest_of_device_w
            energy_j += total_w * dt_s
            target_c = ambient_c + soc_w * r_th
            temperature_c = target_c + (temperature_c - target_c) * decay
            temperature_integral += temperature_c * dt_s
            if series is not None:
                series[0].append(leak)
                series[1].append(total_w)
                series[2].append(temperature_c)
        self.soc_temperature_c = temperature_c
        if per_core_power_w is not None:
            self._core_power_w = dict(per_core_power_w)
        return energy_j, temperature_integral

    def steady_state_c(self, total_power_w: float) -> float:
        """Temperature the package converges to at constant power."""
        if total_power_w < 0:
            raise ValueError("power must be non-negative")
        return self.ambient_c + total_power_w * self.r_th_c_per_w

    def core_temperature_c(self, core: int) -> float:
        """Per-core sensor reading: package temperature + local hotspot."""
        local = self._core_power_w.get(core, 0.0) * self.core_r_th_c_per_w
        return self.soc_temperature_c + local

    def reset(self, scenario: AmbientScenario) -> None:
        """Reset state to the start of an ambient scenario."""
        self.ambient_c = scenario.ambient_c
        self.soc_temperature_c = scenario.initial_junction_c
        self._core_power_w = {}
