"""Fleet engine: fleet rows vs the single-device oracle.

The contract under test is the fleet's bit-exactness guarantee: every
row sliced out of a :class:`~repro.sim.fleet_engine.FleetEngine` run
reproduces the single-device :class:`~repro.sim.engine.ReferenceEngine`
result field-exactly -- result scalars, task summaries, decisions,
completions, phase stamps and (when tracing) every trace column,
compared with ``==``.

Two layers, mirroring ``test_engine_equivalence.py``:

* A curated heterogeneous fleet (pages x co-runners x governors x
  ambients x dt, traces on) checked row by row against the oracle.
* Hypothesis-driven random rows embedded in a mixed fleet, so each
  random device runs after rows of *different* regime lengths and step
  sizes that share the engine's cross-run caches.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.governors import InteractiveGovernor
from repro.sim.engine import Engine, ReferenceEngine
from repro.sim.fleet_engine import (
    _STAGES,
    FleetEngine,
    FleetRowSpec,
    build_engine,
    build_row_engine,
    heterogeneous_fleet,
)
from tests.sim.test_engine_equivalence import assert_bit_identical


def _reference(spec: FleetRowSpec):
    return build_row_engine(spec, engine="reference").run()


def _tick_clock():
    """A stand-in monotonic clock: each reading is one second later."""
    ticks = itertools.count()
    return lambda: float(next(ticks))


class TestHeterogeneousFleet:
    def test_same_arguments_same_fleet(self):
        assert heterogeneous_fleet(12, seed=2) == heterogeneous_fleet(12, seed=2)

    def test_seed_rotates_the_assignment(self):
        assert heterogeneous_fleet(12, seed=2) != heterogeneous_fleet(12, seed=3)

    def test_population_is_heterogeneous(self):
        specs = heterogeneous_fleet(48)
        assert len({spec.page for spec in specs}) > 1
        assert len({spec.kernel for spec in specs}) > 1
        assert len({spec.governor for spec in specs}) > 1
        assert len({spec.ambient_c for spec in specs}) > 1
        assert len({spec.dt_s for spec in specs}) > 1

    def test_fixed_rows_carry_an_operating_point(self):
        for spec in heterogeneous_fleet(24):
            if spec.governor == "fixed":
                assert spec.freq_hz is not None
            else:
                assert spec.freq_hz is None

    def test_record_trace_propagates(self):
        assert all(
            spec.record_trace
            for spec in heterogeneous_fleet(4, record_trace=True)
        )

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError, match="at least one"):
            heterogeneous_fleet(0)


class TestRowSpec:
    def test_rejects_unknown_governor(self):
        with pytest.raises(KeyError, match="powersave"):
            FleetRowSpec(page="amazon", governor="powersave")

    def test_fixed_requires_a_frequency(self):
        with pytest.raises(ValueError, match="freq_hz"):
            FleetRowSpec(page="amazon", governor="fixed")


class TestBuildEngine:
    def _build(self, page="amazon", corunners=(), engine="fast"):
        return build_engine(
            page, corunners, InteractiveGovernor(),
            dt_s=0.002, max_time_s=1.0, engine=engine,
        )

    def test_corunners_land_on_cores_two_and_three(self):
        engine = self._build(corunners=("bfs", "backprop"))
        cores = {task.task_id: task.core for task in engine.tasks}
        assert cores["kernel:bfs"] == 2
        assert cores["kernel:backprop"] == 3
        assert engine.context.corunner_cores == (2, 3)

    def test_no_page_runs_only_the_corunners(self):
        engine = self._build(page=None, corunners=("srad",))
        assert [task.task_id for task in engine.tasks] == ["kernel:srad"]
        assert engine.context.page_features is None
        assert engine.run().duration_s == pytest.approx(1.0, abs=0.01)

    def test_engine_name_picks_the_type(self):
        assert type(self._build()) is Engine
        assert type(self._build(engine="reference")) is ReferenceEngine

    def test_rejects_an_unknown_engine(self):
        with pytest.raises(ValueError, match="turbo"):
            self._build(engine="turbo")


class TestConstruction:
    def test_requires_exactly_one_source(self):
        spec = FleetRowSpec(page="amazon")
        with pytest.raises(ValueError, match="exactly one"):
            FleetEngine()
        with pytest.raises(ValueError, match="exactly one"):
            FleetEngine(rows=[spec], engines=[build_row_engine(spec)])

    def test_rejects_reference_engines(self):
        spec = FleetRowSpec(page="amazon")
        with pytest.raises(TypeError, match="oracle"):
            FleetEngine(engines=[build_row_engine(spec, engine="reference")])

    def test_rejects_shared_engines(self):
        engine = build_row_engine(FleetRowSpec(page="amazon"))
        with pytest.raises(ValueError, match="its own engine"):
            FleetEngine(engines=[engine, engine])

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError, match="at least one"):
            FleetEngine(engines=[])


class TestBitExactness:
    def test_curated_fleet_matches_reference_with_traces(self):
        specs = heterogeneous_fleet(12, seed=5, record_trace=True)
        results = FleetEngine(rows=specs).run()
        assert len(results) == len(specs)
        for spec, result in zip(specs, results):
            assert_bit_identical(_reference(spec), result)

    def test_timeout_rows_match_reference(self):
        specs = (
            FleetRowSpec(page="aliexpress", kernel="srad", max_time_s=0.2),
            FleetRowSpec(page="amazon", governor="fixed", freq_hz=729.6e6),
            FleetRowSpec(page="msn", dt_s=0.004, max_time_s=0.1),
        )
        results = FleetEngine(rows=specs).run()
        assert results[0].load_time_s is None
        assert results[2].load_time_s is None
        for spec, result in zip(specs, results):
            assert_bit_identical(_reference(spec), result)

    def test_rerun_reproduces_the_fleet(self):
        fleet = FleetEngine(rows=heterogeneous_fleet(6, seed=9))
        first = fleet.run()
        second = fleet.run()
        for a, b in zip(first, second):
            assert_bit_identical(a, b)


class TestStageSeconds:
    def test_injected_clock_times_every_stage_within_the_run(self):
        clock = _tick_clock()
        fleet = FleetEngine(rows=heterogeneous_fleet(4, seed=1), clock=clock)
        started = clock()
        fleet.run()
        wall_s = clock() - started
        stages = fleet.stage_seconds
        assert tuple(stages) == _STAGES
        assert all(stages[stage] >= 0.0 for stage in _STAGES)
        assert 0.0 < sum(stages[stage] for stage in _STAGES) <= wall_s

    def test_stages_stay_zero_without_a_clock(self):
        fleet = FleetEngine(rows=heterogeneous_fleet(4, seed=1))
        fleet.run()
        assert fleet.stage_seconds == dict.fromkeys(_STAGES, 0.0)


#: Filler rows with deliberately different step sizes and regime
#: lengths, so random rows never get a fleet to themselves.
_FILLER_ROWS = (
    FleetRowSpec(page="espn", governor="fixed", freq_hz=2265.6e6),
    FleetRowSpec(page="amazon", kernel="srad", dt_s=0.004),
)


@settings(max_examples=15, deadline=None)
@given(
    page=st.sampled_from(("amazon", "espn", "aliexpress", "msn")),
    kernel=st.sampled_from((None, "backprop", "needleman-wunsch", "srad")),
    governor=st.sampled_from(("fixed", "interactive", "ondemand")),
    freq_hz=st.sampled_from((729.6e6, 1190.4e6, 1728.0e6, 2265.6e6)),
    ambient=st.sampled_from(((25.0, 48.0), (5.0, 26.0), (35.0, 58.0))),
    dt_s=st.sampled_from((0.002, 0.004)),
    record_trace=st.booleans(),
)
def test_random_row_matches_reference(
    page, kernel, governor, freq_hz, ambient, dt_s, record_trace
):
    """Property: any row of a mixed fleet equals its solo oracle run."""
    spec = FleetRowSpec(
        page=page,
        kernel=kernel,
        governor=governor,
        freq_hz=freq_hz if governor == "fixed" else None,
        ambient_c=ambient[0],
        initial_junction_c=ambient[1],
        dt_s=dt_s,
        record_trace=record_trace,
    )
    results = FleetEngine(rows=(spec,) + _FILLER_ROWS).run()
    assert_bit_identical(_reference(spec), results[0])
