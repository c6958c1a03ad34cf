"""The R005 burn-down stays bit-identical.

Two accumulation sites used to iterate dict ``.values()`` and were
grandfathered in the lint baseline; they now accumulate in canonical
order.  These tests pin the rewrites:

* ``AnalyticSharedCache.miss_ratios``: the insertion-rate total sums
  over the active sharers in their given order -- exactly the order the
  old dict was built in, so the result is bit-identical by construction
  (asserted against an inline old-spelling recomputation).
* ``DevicePowerModel.breakdown``: the dynamic-power loop runs in sorted
  core-id order, so the same activity set yields bit-identical power
  regardless of the caller's dict insertion order.
"""

from repro.soc.cache import AnalyticSharedCache, CacheDemand
from repro.soc.power import CoreActivity, nexus5_power_model
from repro.soc.specs import CacheGeometry, DvfsState

_GEOMETRY = CacheGeometry(size_bytes=2 * 1024 * 1024, line_bytes=64, associativity=8)

_DEMANDS = [
    CacheDemand("browser", 4.0e7, 3 * 1024 * 1024, 0.11),
    CacheDemand("decoder", 2.5e7, 512 * 1024, 0.04),
    CacheDemand("background", 9.0e6, 6 * 1024 * 1024, 0.35),
    CacheDemand("idle", 0.0, 64 * 1024, 0.01),
]


def test_cache_insertion_total_matches_old_dict_values_spelling():
    model = AnalyticSharedCache(geometry=_GEOMETRY)
    result = model.miss_ratios(_DEMANDS)

    # Recompute one fixed-point step both ways: the dict is built by a
    # comprehension over ``active``, so ``.values()`` order (the old
    # spelling) and ``active`` order (the new one) are the same floats
    # in the same order -- bit-identical, not merely approximately so.
    active = [d for d in _DEMANDS if d.accesses_per_s > 0]
    insertion = {d.task_id: d.accesses_per_s * result[d.task_id] for d in active}
    # repro: allow[R005] -- the old spelling IS the point of comparison.
    assert sum(insertion[d.task_id] for d in active) == sum(insertion.values())

    # The inactive sharer passes through at its solo ratio.
    assert result["idle"] == 0.01


def test_power_breakdown_invariant_to_activity_insertion_order():
    model = nexus5_power_model()
    state = DvfsState(freq_hz=1.728e9, voltage_v=1.05, bus_freq_hz=800e6)
    activities = {
        0: CoreActivity(utilization=0.91, effective_capacitance_f=1.1e-9),
        1: CoreActivity(utilization=0.34, effective_capacitance_f=0.8e-9),
        2: CoreActivity(utilization=0.07, effective_capacitance_f=0.6e-9),
        3: CoreActivity(utilization=0.58, effective_capacitance_f=1.4e-9),
    }
    ascending = dict(sorted(activities.items()))
    scrambled = {k: activities[k] for k in (2, 0, 3, 1)}

    forward = model.breakdown(state, ascending, 1.2e6, 55.0)
    shuffled = model.breakdown(state, scrambled, 1.2e6, 55.0)
    assert forward.core_dynamic_w == shuffled.core_dynamic_w
    assert forward.total_w == shuffled.total_w

    # And sorted-order iteration reproduces the old insertion-order
    # loop bit-for-bit when the caller inserted ascending (the order
    # the simulation engine builds its activity dicts in).
    v_squared = state.voltage_v**2
    dynamic = 0.0
    # repro: allow[R005] -- replicating the old insertion-order loop.
    for activity in ascending.values():
        switching = (
            activity.effective_capacitance_f
            * activity.utilization
            * v_squared
            * state.freq_hz
        )
        idle = model.idle_core_w * v_squared * (1.0 - activity.utilization)
        dynamic += switching + idle
    assert forward.core_dynamic_w == dynamic
