"""The positional cache kernel and the equilibrium solve equal their
dict-keyed spellings bit for bit.

``AnalyticSharedCache.positional_miss_ratios`` and
``sim.engine._solve_equilibrium`` work on lists indexed by sharer.  The
dict-keyed fixed point (``miss_ratios`` / ``_miss_ratio`` /
``_allocate``) and the solve that builds a ``CacheDemand`` and a
``CpiInputs`` per task each round, which they replaced, are kept here
verbatim as oracles, the way ``tests/browser/test_css.py`` keeps the
naive style match.  Both engines call the one solve, so the engine
equivalence suite cannot see a change in it; these properties compare
every float with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.engine import _solve_equilibrium
from repro.sim.task import Task, WorkPhase
from repro.soc.cache import AnalyticSharedCache, CacheDemand
from repro.soc.cpu import L2_HIT_CYCLES
from repro.soc.device import Device
from repro.soc.specs import CacheGeometry

MIB = 1024 * 1024
GEOMETRY = CacheGeometry(size_bytes=2 * MIB, line_bytes=64, associativity=8)


# ----------------------------------------------------------------------
# Oracles: the dict-keyed spelling, verbatim
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DictKeyedCache(AnalyticSharedCache):
    """The fixed point with per-task dicts, as the engine once ran it."""

    def miss_ratios(self, demands: list[CacheDemand]) -> dict[str, float]:
        active = [d for d in demands if d.accesses_per_s > 0]
        result = {d.task_id: d.solo_miss_ratio for d in demands}
        if not active:
            return result

        capacity = float(self.geometry.size_bytes)
        # Initial occupancy guess: proportional to access rate, capped
        # by working set.
        total_access = sum(d.accesses_per_s for d in active)
        shares = {
            d.task_id: min(
                d.working_set_bytes, capacity * d.accesses_per_s / total_access
            )
            for d in active
        }
        ratios: dict[str, float] = {}
        for _ in range(self.iterations):
            ratios = {
                d.task_id: self._miss_ratio(d, shares[d.task_id]) for d in active
            }
            insertion = {
                d.task_id: d.accesses_per_s * ratios[d.task_id] for d in active
            }
            total_insertion = sum(insertion[d.task_id] for d in active)
            if total_insertion <= 0:
                break
            shares = self._allocate(active, insertion, total_insertion, capacity)
        result.update(ratios)
        return result

    def _miss_ratio(self, demand: CacheDemand, share_bytes: float) -> float:
        reference = min(demand.working_set_bytes, float(self.geometry.size_bytes))
        if reference <= 0 or share_bytes >= reference:
            return demand.solo_miss_ratio
        share_bytes = max(share_bytes, float(self.geometry.line_bytes))
        inflated = demand.solo_miss_ratio * (reference / share_bytes) ** self.theta
        return min(1.0, inflated)

    @staticmethod
    def _allocate(
        active: list[CacheDemand],
        insertion: dict[str, float],
        total_insertion: float,
        capacity: float,
    ) -> dict[str, float]:
        shares: dict[str, float] = {}
        remaining = capacity
        unassigned = list(active)
        weight = total_insertion
        changed = True
        while changed and unassigned and weight > 0:
            changed = False
            for demand in list(unassigned):
                if weight <= 0:
                    break
                proportional = remaining * insertion[demand.task_id] / weight
                if proportional >= demand.working_set_bytes:
                    shares[demand.task_id] = demand.working_set_bytes
                    remaining -= demand.working_set_bytes
                    weight -= insertion[demand.task_id]
                    unassigned.remove(demand)
                    changed = True
        for demand in unassigned:
            if weight > 0:
                shares[demand.task_id] = remaining * insertion[demand.task_id] / weight
            else:
                shares[demand.task_id] = remaining / len(unassigned)
        return shares


@dataclass(frozen=True)
class CpiInputs:
    """The validating CPI input record the solve built per task."""

    cpi_base: float
    l2_apki: float
    miss_ratio: float
    miss_penalty_cycles: float
    mlp: float = 1.0

    def __post_init__(self) -> None:
        if self.cpi_base <= 0:
            raise ValueError("base CPI must be positive")
        if self.l2_apki < 0:
            raise ValueError("APKI must be non-negative")
        if not 0.0 <= self.miss_ratio <= 1.0:
            raise ValueError("miss ratio must lie in [0, 1]")
        if self.miss_penalty_cycles < 0:
            raise ValueError("miss penalty must be non-negative")
        if self.mlp < 1.0:
            raise ValueError("MLP must be at least 1")


def oracle_effective_cpi(inputs: CpiInputs) -> float:
    accesses_per_instr = inputs.l2_apki / 1000.0
    hit_stalls = accesses_per_instr * (1.0 - inputs.miss_ratio) * L2_HIT_CYCLES
    miss_stalls = (
        accesses_per_instr
        * inputs.miss_ratio
        * inputs.miss_penalty_cycles
        / inputs.mlp
    )
    return inputs.cpi_base + hit_stalls + miss_stalls


def oracle_solve_equilibrium(device, state, running: list[Task]):
    cpi = {task.task_id: task.current_phase.cpi_base for task in running}
    ratios: dict[str, float] = {
        task.task_id: task.current_phase.solo_miss_ratio for task in running
    }
    total_misses_per_s = 0.0
    penalty_cycles = 0.0
    for _ in range(6):
        demands = []
        for task in running:
            phase = task.current_phase
            instr_rate = state.freq_hz / cpi[task.task_id]
            demands.append(
                CacheDemand(
                    task_id=task.task_id,
                    accesses_per_s=instr_rate * phase.l2_apki / 1000.0,
                    working_set_bytes=phase.working_set_bytes,
                    solo_miss_ratio=phase.solo_miss_ratio,
                )
            )
        ratios = device.cache.miss_ratios(demands)
        total_misses_per_s = sum(
            demand.accesses_per_s * ratios[demand.task_id] for demand in demands
        )
        penalty_cycles = device.memory.miss_penalty_cycles(
            total_misses_per_s, state.bus_freq_hz, state.freq_hz
        )
        for task in running:
            phase = task.current_phase
            cpi[task.task_id] = oracle_effective_cpi(
                CpiInputs(
                    cpi_base=phase.cpi_base,
                    l2_apki=phase.l2_apki,
                    miss_ratio=ratios[task.task_id],
                    miss_penalty_cycles=penalty_cycles,
                    mlp=phase.mlp,
                )
            )
    per_task = {
        task.task_id: (cpi[task.task_id], ratios[task.task_id])
        for task in running
    }
    return per_task, total_misses_per_s, penalty_cycles


def oracle_solve(device: Device, state, running: list[Task]):
    """The dict-keyed solve on ``device``'s models."""
    cache = device.cache
    stand_in = SimpleNamespace(
        cache=DictKeyedCache(cache.geometry, cache.theta, cache.iterations),
        memory=device.memory,
    )
    return oracle_solve_equilibrium(stand_in, state, running)


def same_bits(a: float, b: float) -> bool:
    """``==`` that also tells 0.0 from -0.0."""
    return a == b and str(a) == str(b)


# ----------------------------------------------------------------------
# The cache kernel
# ----------------------------------------------------------------------
def _kernel_pair(rates, working_sets, solos, theta=0.75, iterations=8):
    model = AnalyticSharedCache(GEOMETRY, theta=theta, iterations=iterations)
    oracle = DictKeyedCache(GEOMETRY, theta=theta, iterations=iterations)
    demands = [
        CacheDemand(f"s{i}", rate, size, solo)
        for i, (rate, size, solo) in enumerate(zip(rates, working_sets, solos))
    ]
    expected = list(oracle.miss_ratios(demands).values())
    return model.positional_miss_ratios(rates, working_sets, solos), expected


#: Named sharer sets for the model's branches: (rates, working sets,
#: solo ratios).
EDGE_CASES = {
    "idle sharers": ([0.0, 4e7, 0.0], [MIB, 3 * MIB, 0.0], [0.3, 0.1, 0.5]),
    "all idle": ([0.0, 0.0], [MIB, MIB], [0.3, 0.1]),
    "zero working sets": ([4e7, 2e7], [0.0, 0.0], [0.2, 0.4]),
    "zero beside streaming": ([4e7, 2e7], [0.0, 6 * MIB], [0.2, 0.4]),
    "beyond capacity": ([4e7, 2e7, 9e6], [3 * MIB, 6 * MIB, 8 * MIB], [0.1, 0.3, 0.4]),
    "clamped to a line": ([1e12, 1.0], [8 * MIB, 8 * MIB], [0.9, 1e-5]),
    "every sharer capped": ([4e7, 2e7, 1e6], [4096.0, 8192.0, 100.0], [0.1, 0.2, 0.3]),
    "one dwarfs the rest": ([1e20, 1.0], [1024.0, MIB], [1.0, 1e-3]),
    "one dwarfs two": ([1e20, 1.0, 1.0], [1024.0, MIB, MIB], [1.0, 1e-3, 1e-3]),
    # A working set exactly equal to the sharer's proportional share in
    # one of the capped split's passes (the first pass, for two).
    "capped at equality, three": ([2e7, 1e7, 3e6], [2 * MIB / 3, MIB / 2, MIB],
                                  [0.05, 0.05, 0.5]),
    "capped at equality, two": ([2e7, 5e6], [118359.40387613582, 8 * MIB],
                                [0.01, 0.2]),
    "saturated ratio": ([1e3, 1e10], [2 * MIB, 2 * MIB], [0.9, 1.0]),
    # Every insertion rate underflows to 0.0 while the ratios do not,
    # so the first round's ``weight <= 0`` ends the iteration.
    "insertion underflows": ([1e-300, 3e-300], [2 * MIB, 2 * MIB], [1e-30, 1e-30]),
    "mixed caps": ([4e7, 2.5e7, 9e6, 0.0], [3 * MIB, MIB / 2, 6 * MIB, 65536.0],
                   [0.11, 0.04, 0.35, 0.01]),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_kernel_equals_dict_keyed_on_edge_cases(case):
    actual, expected = _kernel_pair(*EDGE_CASES[case])
    assert len(actual) == len(expected)
    assert all(map(same_bits, actual, expected)), (actual, expected)


@pytest.mark.parametrize("case", ["one dwarfs the rest", "one dwarfs two"])
def test_dwarfing_sharer_zeroes_the_weight(case):
    """The ``weight <= 0`` exits are taken: the dwarfing sharer's
    capped insertion cancels the whole weight, and the rest split the
    leftover capacity evenly."""
    rates, sizes, solos = EDGE_CASES[case]
    insertion = [rate * solo for rate, solo in zip(rates, solos)]
    weight = sum(insertion)
    assert weight - insertion[0] <= 0
    actual, expected = _kernel_pair(rates, sizes, solos)
    assert actual == expected


_RATES = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
    st.sampled_from([1.0, 1e6, 4e7, 1e20]),
)
_SIZES = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=8.0 * MIB, allow_nan=False),
    st.sampled_from([64.0, 4096.0, float(MIB), 2.0 * MIB, 3.0 * MIB]),
)
_SOLOS = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
_SHARERS = st.lists(st.tuples(_RATES, _SIZES, _SOLOS), min_size=0, max_size=5)


@given(
    sharers=_SHARERS,
    theta=st.sampled_from([0.3, 0.75, 0.9, 1.5]),
    iterations=st.integers(min_value=0, max_value=10),
)
def test_kernel_equals_dict_keyed(sharers, theta, iterations):
    rates = [rate for rate, _, _ in sharers]
    sizes = [size for _, size, _ in sharers]
    solos = [solo for _, _, solo in sharers]
    actual, expected = _kernel_pair(rates, sizes, solos, theta, iterations)
    assert len(actual) == len(expected)
    assert all(map(same_bits, actual, expected)), (actual, expected)


def test_keyed_wrapper_matches_kernel_positions():
    model = AnalyticSharedCache(GEOMETRY)
    rates, sizes, solos = EDGE_CASES["mixed caps"]
    demands = [
        CacheDemand(name, rate, size, solo)
        for name, rate, size, solo in zip("wxyz", rates, sizes, solos)
    ]
    keyed = model.miss_ratios(demands)
    assert list(keyed) == list("wxyz")
    assert list(keyed.values()) == model.positional_miss_ratios(rates, sizes, solos)


# ----------------------------------------------------------------------
# The equilibrium solve
# ----------------------------------------------------------------------
_PHASES = st.builds(
    WorkPhase,
    name=st.just("p"),
    instructions=st.just(1e6),
    cpi_base=st.floats(min_value=0.3, max_value=4.0),
    l2_apki=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=120.0)),
    solo_miss_ratio=_SOLOS,
    working_set_bytes=_SIZES,
    mlp=st.floats(min_value=1.0, max_value=4.0),
)
_DEVICE = Device()


@given(
    phases=st.lists(_PHASES, min_size=0, max_size=4),
    freq_index=st.integers(min_value=0, max_value=13),
)
def test_solve_equals_dict_keyed(phases, freq_index):
    freqs = _DEVICE.spec.frequencies_hz
    state = _DEVICE.spec.state_for(freqs[freq_index % len(freqs)])
    running = [
        Task(task_id=f"t{i}", core=i, phases=(phase,))
        for i, phase in enumerate(phases)
    ]
    per_task, total, penalty = _solve_equilibrium(_DEVICE, state, running)
    want_per_task, want_total, want_penalty = oracle_solve(_DEVICE, state, running)
    assert len(per_task) == len(running)
    for task, (cpi, ratio) in zip(running, per_task):
        want_cpi, want_ratio = want_per_task[task.task_id]
        assert same_bits(cpi, want_cpi), task.task_id
        assert same_bits(ratio, want_ratio), task.task_id
    assert same_bits(total, want_total)
    assert type(total) is type(want_total)
    assert same_bits(penalty, want_penalty)
