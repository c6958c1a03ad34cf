"""Device facade: one object owning all hardware state.

The :class:`Device` bundles the static platform spec with the stateful
hardware models (thermal, DVFS actuator, counters) and the stateless
physics (power, cache sharing, memory contention).  The discrete-time
engine in :mod:`repro.sim.engine` drives a ``Device``; governors only
ever touch it through the actuator and the counter bank, mirroring the
narrow userspace-governor interface the paper implements on Android
(sysfs frequency file + perf counters + thermal sensors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.soc.cache import AnalyticSharedCache
from repro.soc.counters import CounterBank
from repro.soc.dvfs import DvfsActuator, SwitchCost
from repro.soc.memory import MemoryContentionModel
from repro.soc.power import DevicePowerModel, nexus5_power_model
from repro.soc.specs import DvfsState, MemorySpec, PlatformSpec, nexus5_spec
from repro.soc.thermal import AmbientScenario, ThermalModel, room_temperature


# The static platform description and the physics models are frozen
# dataclasses -- pure parameter bundles with no run state -- so every
# device built from the same configuration can share one instance.
# Identity-sharing matters beyond memory: the fast path's cross-run
# template/equilibrium caches key on these objects, so shared instances
# make a 256-row fleet's lookups hit one working set instead of 256
# disjoint ones.
@lru_cache(maxsize=None)
def _shared_nexus5_spec() -> PlatformSpec:
    return nexus5_spec()


@lru_cache(maxsize=None)
def _shared_nexus5_power_model() -> DevicePowerModel:
    return nexus5_power_model()


@lru_cache(maxsize=64)
def _shared_cache_model(geometry, theta: float) -> AnalyticSharedCache:
    return AnalyticSharedCache(geometry=geometry, theta=theta)


@lru_cache(maxsize=64)
def _shared_memory_model(spec: MemorySpec) -> MemoryContentionModel:
    return MemoryContentionModel(spec=spec)


@dataclass(frozen=True)
class DeviceConfig:
    """Configuration knobs for building a :class:`Device`.

    Attributes:
        spec: Static platform description.
        power_model: Ground-truth power physics.
        ambient: Ambient-temperature scenario.
        switch_cost: DVFS transition cost.
        cache_theta: Sharpness of the cache miss-rate curve.
    """

    spec: PlatformSpec = field(default_factory=_shared_nexus5_spec)
    power_model: DevicePowerModel = field(
        default_factory=_shared_nexus5_power_model
    )
    ambient: AmbientScenario = field(default_factory=room_temperature)
    switch_cost: SwitchCost = field(default_factory=SwitchCost)
    cache_theta: float = 0.75


class Device:
    """The simulated smartphone.

    Attributes:
        spec: Static platform description.
        power_model: Ground-truth power physics.
        thermal: Stateful thermal model.
        actuator: DVFS actuator (current operating point).
        counters: Accumulating counter bank.
        cache: Analytic shared-L2 sharing model.
        memory: Memory-bus contention model.
    """

    def __init__(self, config: DeviceConfig | None = None) -> None:
        self.config = config or DeviceConfig()
        self.spec = self.config.spec
        self.power_model = self.config.power_model
        self.thermal = ThermalModel.for_scenario(self.config.ambient)
        self.actuator = DvfsActuator(spec=self.spec, cost=self.config.switch_cost)
        self.counters = CounterBank()
        self.cache = _shared_cache_model(
            self.spec.l2_geometry, self.config.cache_theta
        )
        self.memory = _shared_memory_model(self.spec.memory)

    @property
    def state(self) -> DvfsState:
        """Current DVFS operating point."""
        return self.actuator.state

    def reset(self, ambient: AmbientScenario | None = None) -> None:
        """Return the device to its initial state between experiments."""
        scenario = ambient or self.config.ambient
        self.thermal.reset(scenario)
        self.actuator.reset()
        self.counters = CounterBank()
