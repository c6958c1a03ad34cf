"""Run assembly and fleet simulation.

:func:`build_engine` assembles every simulated run in the package.

One :class:`~repro.sim.engine.Engine` advances one phone.  Campaigns,
benchmarks and the serving stack's digital twin instead want
*populations*: many heterogeneous devices (different pages,
co-runners, governors, ambient temperatures, even step sizes).
:class:`FleetEngine` runs each row to completion through the solo
regime-stepped fast path -- the loop of :meth:`Engine.run` -- and
times its two stages on a caller-injected clock.

Rows are fully independent, so the bit-exactness contract is the fast
path's: any row sliced out of a fleet run reproduces the
single-device :class:`~repro.sim.engine.ReferenceEngine` result
field-exactly (asserted by ``tests/sim/test_fleet_engine.py``).
"""
# repro: bit-exact -- every fleet row must equal a single-device
# ReferenceEngine run bit for bit (R003 forbids BLAS/pairwise
# reductions in this module).

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.sim.engine import Engine, EngineConfig, ReferenceEngine, RunResult
from repro.sim.governor import Governor, RunContext
from repro.sim.task import Task
from repro.soc.device import Device, DeviceConfig
from repro.soc.thermal import AmbientScenario

_ENGINES = {"fast": Engine, "reference": ReferenceEngine}


def _zero_clock() -> float:
    """Default stage clock: simulation code never reads wall time."""
    return 0.0


#: Stage keys of :attr:`FleetEngine.stage_seconds`: time inside
#: ``Engine._run_regime`` (bulk regimes with the exact phase crossings
#: they absorb, and the attempts that fall back) and inside
#: ``Engine._step`` (the event steps left: completions, switch stalls
#: and inexact crossings).
_STAGES = ("regimes", "scalar_steps")

#: Governor kinds a row spec can name (model-free, so fleet building
#: never needs a trained bundle; custom governors go through
#: ``FleetEngine(engines=...)``).
_ROW_GOVERNORS = ("fixed", "interactive", "ondemand")


@dataclass(frozen=True)
class FleetRowSpec:
    """One device row of a heterogeneous fleet.

    Attributes:
        page: Page the device loads.
        kernel: Optional co-runner kernel.
        governor: ``"fixed"``, ``"interactive"`` or ``"ondemand"``.
        freq_hz: Operating point (required for ``"fixed"``).
        ambient_c: Environment temperature of the row's device.
        initial_junction_c: Junction temperature at run start.
        dt_s: The row's simulation step.
        max_time_s: The row's safety timeout.
        deadline_s: QoS target handed to the governor context.
        record_trace: Keep the row's per-step time series.
    """

    page: str
    kernel: str | None = None
    governor: str = "interactive"
    freq_hz: float | None = None
    ambient_c: float = 25.0
    initial_junction_c: float = 48.0
    dt_s: float = 0.002
    max_time_s: float = 60.0
    deadline_s: float = 3.0
    record_trace: bool = False

    def __post_init__(self) -> None:
        if self.governor not in _ROW_GOVERNORS:
            raise KeyError(f"unknown row governor {self.governor!r}")
        if self.governor == "fixed" and self.freq_hz is None:
            raise ValueError("a 'fixed' row needs freq_hz")


def build_engine(
    page: str | None,
    corunners: Sequence[str],
    governor: Governor,
    *,
    dt_s: float,
    max_time_s: float,
    device_config: DeviceConfig | None = None,
    deadline_s: float = 3.0,
    record_trace: bool = False,
    engine: str = "fast",
) -> Engine:
    """Assemble one run on a fresh device, not yet run.

    The device loads ``page`` (or none: the run then lasts
    ``max_time_s``) beside the ``corunners`` kernels, pinned to cores
    2, 3, ... in order, which the context names as co-runner cores.
    ``engine`` picks :class:`~repro.sim.engine.Engine` (``"fast"``) or
    :class:`~repro.sim.engine.ReferenceEngine` (``"reference"``); both
    produce bit-identical results.

    Raises:
        ValueError: For an unknown engine name.
    """
    # Imported here: the browser and workload packages import
    # ``repro.sim.task``, so importing them up top would be a cycle.
    from repro.browser.browser import browser_tasks
    from repro.browser.pages import page_by_name
    from repro.workloads.kernels import kernel_by_name, kernel_task

    if engine not in _ENGINES:
        raise ValueError(f"engine must be 'fast' or 'reference', not {engine!r}")
    device = Device(device_config)
    tasks: list[Task] = []
    page_features = None
    if page is not None:
        loaded = page_by_name(page)
        tasks = browser_tasks(loaded).as_list()
        page_features = loaded.features
    cores = tuple(range(2, 2 + len(corunners)))
    for name, core in zip(corunners, cores):
        tasks.append(kernel_task(kernel_by_name(name), core=core))
    return _ENGINES[engine](
        device=device,
        tasks=tasks,
        governor=governor,
        context=RunContext(
            spec=device.spec,
            deadline_s=deadline_s,
            page_features=page_features,
            corunner_cores=cores,
        ),
        config=EngineConfig(
            dt_s=dt_s, max_time_s=max_time_s, record_trace=record_trace
        ),
    )


def _row_governor(spec: FleetRowSpec) -> Governor:
    # Imported here for the same reason as in ``build_engine``.
    from repro.core.governors import (
        FixedFrequencyGovernor,
        InteractiveGovernor,
        OndemandGovernor,
    )

    if spec.governor == "fixed":
        assert spec.freq_hz is not None
        return FixedFrequencyGovernor(freq_hz=spec.freq_hz, label="fixed")
    if spec.governor == "interactive":
        return InteractiveGovernor()
    return OndemandGovernor()


def build_row_engine(spec: FleetRowSpec, engine: str = "fast") -> Engine:
    """Build the single-device engine a fleet row corresponds to.

    With ``engine="reference"`` this is the row's bit-exactness oracle:
    the same run on :class:`~repro.sim.engine.ReferenceEngine`.
    """
    scenario = AmbientScenario(
        name=f"fleet-{spec.ambient_c:g}-{spec.initial_junction_c:g}",
        ambient_c=spec.ambient_c,
        initial_junction_c=spec.initial_junction_c,
    )
    return build_engine(
        spec.page,
        () if spec.kernel is None else (spec.kernel,),
        _row_governor(spec),
        dt_s=spec.dt_s,
        max_time_s=spec.max_time_s,
        device_config=DeviceConfig(ambient=scenario),
        deadline_s=spec.deadline_s,
        record_trace=spec.record_trace,
        engine=engine,
    )


_FLEET_PAGES = ("amazon", "espn", "aliexpress", "msn")
_FLEET_KERNELS = (None, "backprop", "needleman-wunsch", "srad")
_FLEET_FREQS = (729.6e6, 1036.8e6, 1190.4e6, 1728.0e6, 1958.4e6, 2265.6e6)
#: (ambient_c, initial_junction_c) pairs: room, cooled (Fig. 10b),
#: warm device, and a hot pocket.
_FLEET_AMBIENTS = ((25.0, 48.0), (5.0, 26.0), (25.0, 58.0), (35.0, 52.0))
#: Campaign-weighted governor mix (fixed sweeps dominate real
#: campaigns; the utilization governors ride along).
_FLEET_GOVERNOR_MIX = (
    "fixed", "fixed", "fixed", "fixed", "interactive", "ondemand",
)
_FLEET_DTS = (0.002, 0.002, 0.004)


def heterogeneous_fleet(
    rows: int, seed: int = 0, record_trace: bool = False
) -> tuple[FleetRowSpec, ...]:
    """A deterministic heterogeneous fleet of ``rows`` devices.

    Pages, co-runners, operating points, governors, ambient conditions
    and step sizes all vary across rows (coprime strides decorrelate
    the cycles); ``seed`` rotates the whole assignment.  Purely
    arithmetic -- the same ``(rows, seed)`` always yields the same
    fleet, which is what makes fleet benches and the serving digital
    twin replayable.
    """
    if rows < 1:
        raise ValueError("need at least one fleet row")
    specs = []
    for row in range(rows):
        index = row + 7919 * seed
        governor = _FLEET_GOVERNOR_MIX[index % len(_FLEET_GOVERNOR_MIX)]
        ambient_c, junction_c = _FLEET_AMBIENTS[
            (index // 5) % len(_FLEET_AMBIENTS)
        ]
        specs.append(
            FleetRowSpec(
                page=_FLEET_PAGES[index % len(_FLEET_PAGES)],
                kernel=_FLEET_KERNELS[(index // 3) % len(_FLEET_KERNELS)],
                governor=governor,
                freq_hz=(
                    _FLEET_FREQS[(index // 2) % len(_FLEET_FREQS)]
                    if governor == "fixed"
                    else None
                ),
                ambient_c=ambient_c,
                initial_junction_c=junction_c,
                dt_s=_FLEET_DTS[(index // 7) % len(_FLEET_DTS)],
                record_trace=record_trace,
            )
        )
    return tuple(specs)


class FleetEngine:
    """Runs a population of device simulations, one row at a time.

    Each row runs to completion through the regime-stepped loop of
    :meth:`Engine.run`, so its result is exactly the one its engine
    produces alone.

    Args:
        rows: Fleet row specs to build engines from.
        engines: Prebuilt engines to drive instead (exactly one of
            ``rows`` / ``engines`` must be given).  Each must be a
            fast-path :class:`~repro.sim.engine.Engine` -- a
            ``ReferenceEngine`` is the oracle and is rejected -- and a
            distinct object (rows own their mutable device/task state).
        clock: Monotonic-seconds source for the per-stage timing in
            :attr:`stage_seconds` (e.g. ``time.perf_counter``).
            Simulation code never reads the wall clock itself; without
            an injected clock the breakdown stays all-zero and the
            simulation is unaffected either way.
    """

    def __init__(
        self,
        rows: Sequence[FleetRowSpec] | None = None,
        engines: Sequence[Engine] | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if (rows is None) == (engines is None):
            raise ValueError("pass exactly one of rows= or engines=")
        if rows is not None:
            built = [build_row_engine(spec) for spec in rows]
        else:
            assert engines is not None
            built = list(engines)
            for engine in built:
                if isinstance(engine, ReferenceEngine):
                    raise TypeError(
                        "FleetEngine drives the fast path; run "
                        "ReferenceEngine rows individually (they are "
                        "the oracle, not fleet material)"
                    )
            if len({id(engine) for engine in built}) != len(built):
                raise ValueError("each fleet row needs its own engine")
        if not built:
            raise ValueError("need at least one fleet row")
        self.engines: list[Engine] = built
        self._clock: Callable[[], float] = (
            clock if clock is not None else _zero_clock
        )
        #: Seconds per stage of the last ``run()`` (keys in
        #: :data:`_STAGES`) measured on the injected ``clock``, so a
        #: throughput regression is attributable to a stage.  All-zero
        #: when no clock was given.
        self.stage_seconds: dict[str, float] = {}

    def run(self) -> list[RunResult]:
        """Simulate every row to completion; results in row order."""
        clock = self._clock
        regimes_s = 0.0
        steps_s = 0.0
        results: list[RunResult] = []
        for engine in self.engines:
            loop = engine._begin()
            max_time = engine.config.max_time_s
            while loop.time_s < max_time:
                if loop.regime_cooldown:
                    loop.regime_cooldown -= 1
                else:
                    started = clock()
                    bulked = engine._run_regime(loop)
                    regimes_s += clock() - started
                    if bulked:
                        continue
                started = clock()
                live = engine._step(loop)
                steps_s += clock() - started
                if not live:
                    break
            results.append(engine._finish(loop))
        self.stage_seconds = dict(zip(_STAGES, (regimes_s, steps_s)))
        return results
