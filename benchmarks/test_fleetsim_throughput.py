"""Fleet simulation at acceptance scale: every row field-exact.

Runs a 256-device heterogeneous fleet through
:class:`~repro.sim.fleet_engine.FleetEngine` and checks every row
against its single-device :class:`~repro.sim.engine.ReferenceEngine`
run (``tests/sim/test_fleet_engine.py`` holds the smaller, trace-level
version).  Fleet throughput is measured by the repo benchmark's
``fleetsim`` workload (``perfbench/``).
"""

from __future__ import annotations

from repro.sim.fleet_engine import (
    FleetEngine,
    build_row_engine,
    heterogeneous_fleet,
)
from tests.sim.test_engine_equivalence import assert_bit_identical

ACCEPTANCE_ROWS = 256


def test_fleet_rows_are_field_exact_against_the_reference():
    specs = heterogeneous_fleet(ACCEPTANCE_ROWS, seed=0)
    results = FleetEngine(rows=specs).run()
    assert len(results) == ACCEPTANCE_ROWS
    for spec, result in zip(specs, results):
        reference = build_row_engine(spec, engine="reference").run()
        assert_bit_identical(reference, result)
