"""Batched decisions must be bit-identical to the scalar governor.

The acceptance contract of :mod:`repro.serve`: for any request, the
service's ``fopt_hz`` equals -- with ``==``, not approximately -- what
a per-device :class:`~repro.core.dora.DoraGovernor` built from the
same bundle would program, across the evaluation pages, a grid of
interference/thermal conditions, both leakage ablations and multiple
QoS margins.
"""

import itertools

import pytest

from repro.browser.pages import page_by_name, page_names
from repro.core.dora import DoraGovernor
from repro.serve.fleet import DecisionService
from repro.serve.service import DecisionRequest, ServiceConfig
from repro.sim.governor import RunContext
from repro.soc.counters import CoreCounters, CounterSample

MPKI_GRID = (0.0, 2.0, 5.0, 12.0, 20.0)
UTILIZATION_GRID = (0.0, 0.5, 1.0)
TEMPERATURE_GRID = (35.0, 50.0, 65.0)
DEADLINE_GRID = (0.6, 3.0)


def _sample(mpki, utilization, temperature_c):
    """A counter sample whose co-runner core reads exactly (mpki, util)."""
    window_s = 0.1
    return CounterSample(
        window_s=window_s,
        per_core={
            2: CoreCounters(
                busy_s=utilization * window_s,
                instructions=1000.0,
                l2_accesses=max(1.0, 2.0 * mpki),
                l2_misses=mpki,
            )
        },
        freq_hz=1.19e9,
        soc_temperature_c=temperature_c,
        core_temperatures_c={2: temperature_c},
    )


def _conditions(pages):
    for page_name, mpki, util, temp, deadline in itertools.product(
        pages, MPKI_GRID, UTILIZATION_GRID, TEMPERATURE_GRID, DEADLINE_GRID
    ):
        yield page_name, mpki, util, temp, deadline


@pytest.mark.parametrize("include_leakage", [True, False])
@pytest.mark.parametrize("qos_margin", [0.0, 0.15])
def test_batched_fopt_bit_identical_to_scalar_governor(
    small_predictor, include_leakage, qos_margin
):
    pages = page_names()[:6]
    governor = DoraGovernor(
        predictor=small_predictor,
        include_leakage=include_leakage,
        qos_margin=qos_margin,
    )
    service = DecisionService(
        small_predictor,
        config=ServiceConfig(
            max_batch_size=64,
            include_leakage=include_leakage,
            qos_margin=qos_margin,
        ),
    )

    requests = []
    scalar_fopts = []
    for page_name, mpki, util, temp, deadline in _conditions(pages):
        page = page_by_name(page_name).features
        context = RunContext(
            spec=small_predictor.spec,
            deadline_s=deadline,
            page_features=page,
        )
        scalar_fopts.append(
            governor.decide(_sample(mpki, util, temp), context)
        )
        requests.append(
            DecisionRequest(
                device_id=f"{page_name}-{len(requests)}",
                page=page,
                corunner_mpki=mpki,
                corunner_utilization=util,
                temperature_c=temp,
                deadline_s=deadline,
            )
        )

    responses = service.decide(requests)
    assert len(responses) == len(requests)
    served = [response.fopt_hz for response in responses]
    assert served == scalar_fopts  # exact float equality, every request


def test_sample_fixture_reads_back_exactly():
    """The synthetic counter sample encodes (mpki, util) losslessly."""
    sample = _sample(7.5, 0.62, 55.0)
    assert sample.mpki_of_cores([2]) == 7.5
    assert sample.utilization_of_cores([2]) == pytest.approx(0.62)
    assert sample.soc_temperature_c == 55.0


def test_traces_reproduce_the_scalar_winning_row(small_predictor):
    """Accepted traces carry the exact winning prediction row."""
    governor = DoraGovernor(predictor=small_predictor)
    service = DecisionService(small_predictor)
    page = page_by_name("espn").features
    context = RunContext(
        spec=small_predictor.spec, deadline_s=3.0, page_features=page
    )
    governor.decide(_sample(6.0, 0.8, 58.0), context)
    winning = next(
        p for p in governor.last_table if p.freq_hz == governor.last_fopt_hz
    )

    [response] = service.decide(
        [
            DecisionRequest(
                device_id="espn-0",
                page=page,
                corunner_mpki=6.0,
                corunner_utilization=0.8,
                temperature_c=58.0,
                deadline_s=3.0,
            )
        ]
    )
    assert response.accepted
    assert response.fopt_hz == winning.freq_hz
    assert response.trace.load_time_s == winning.load_time_s
    assert response.trace.power_w == winning.power_w
    assert response.trace.feasible


def test_rejected_requests_answer_the_infeasible_fallback(small_predictor):
    """Admission rejection returns exactly Algorithm 1's fmax answer."""
    governor = DoraGovernor(predictor=small_predictor)
    service = DecisionService(small_predictor)
    page = page_by_name("amazon").features
    tight = 0.02  # below the 50 ms load-time floor: provably infeasible
    context = RunContext(
        spec=small_predictor.spec, deadline_s=tight, page_features=page
    )
    scalar = governor.decide(_sample(0.0, 0.0, 45.0), context)

    [response] = service.decide(
        [
            DecisionRequest(
                device_id="amazon-0",
                page=page,
                corunner_mpki=0.0,
                corunner_utilization=0.0,
                temperature_c=45.0,
                deadline_s=tight,
            )
        ]
    )
    assert not response.accepted
    assert response.trace is None
    assert response.fopt_hz == scalar
