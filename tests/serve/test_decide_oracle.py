"""The columnar decision pass equals the per-element code it replaced.

``DecisionPass.evaluate`` gathers each batch's conditions into one
``(R, 4)`` array and scales the deadline column by ``1 - qos_margin``;
``DecisionPass.decide`` decodes every per-request column with one
``tolist()`` and builds each trace positionally.  The code they
replaced built one array per field, called ``effective_deadline_s``
per request and converted NumPy scalars one by one; it is kept below
verbatim as the oracle.  Arrays are compared by ``tobytes()`` and
traces by ``repr``, which tells ``1`` from ``1.0`` and ``True`` and
prints every float exactly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.browser.pages import alexa_pages
from repro.core.ppw import select_fopt_rows
from repro.serve.service import (
    DecisionPass,
    DecisionRequest,
    DecisionTrace,
    ServiceConfig,
)

PAGES = tuple(page.features for page in alexa_pages())


# ----------------------------------------------------------------------
# Oracle: the per-element decision pass, verbatim
# ----------------------------------------------------------------------
def oracle_effective_deadline_s(decision, request):
    return request.deadline_s * (1.0 - decision.config.qos_margin)


def oracle_evaluate(decision, requests):
    pages = np.array(
        [request.page.as_tuple() for request in requests], dtype=float
    )
    mpki = np.array(
        [request.corunner_mpki for request in requests], dtype=float
    )
    utilization = np.array(
        [request.corunner_utilization for request in requests], dtype=float
    )
    temperatures = np.array(
        [request.temperature_c for request in requests], dtype=float
    )
    deadlines = np.array(
        [oracle_effective_deadline_s(decision, request) for request in requests],
        dtype=float,
    )
    load, power = decision.kernel.predict(
        pages=pages,
        corunner_mpki=mpki,
        corunner_utilization=utilization,
        temperatures_c=temperatures,
        include_leakage=decision.config.include_leakage,
    )
    order = decision.kernel.selection_order
    columns = select_fopt_rows(load[:, order], power[:, order], deadlines)
    return load, power, deadlines, order[columns]


def oracle_decide(decision, requests):
    load, power, deadlines, winners = oracle_evaluate(decision, requests)
    rows = np.arange(len(requests))
    winner_load = load[rows, winners]
    winner_power = power[rows, winners]
    feasible = winner_load <= deadlines
    fopts = decision.kernel.freqs_hz[winners]
    size = len(requests)
    answers = []
    for position, winner in enumerate(winners.tolist()):
        load_time_s = float(winner_load[position])
        power_w = float(winner_power[position])
        trace = DecisionTrace(
            candidate_index=winner,
            load_time_s=load_time_s,
            power_w=power_w,
            ppw=1.0 / (load_time_s * power_w),
            effective_deadline_s=float(deadlines[position]),
            feasible=bool(feasible[position]),
            batch_size=size,
        )
        answers.append((float(fopts[position]), trace))
    return answers


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
_requests = st.lists(
    st.builds(
        DecisionRequest,
        device_id=st.just("phone"),
        page=st.sampled_from(PAGES),
        corunner_mpki=st.floats(0.0, 30.0),
        corunner_utilization=st.floats(0.0, 1.0),
        temperature_c=st.floats(20.0, 90.0),
        # Integers as well as floats: the pass converts them.
        deadline_s=st.one_of(st.integers(1, 8), st.floats(0.5, 8.0)),
    ),
    min_size=1,
    max_size=200,
)


@given(
    requests=_requests,
    qos_margin=st.sampled_from([0.0, 0.1, 0.25]),
    include_leakage=st.booleans(),
)
def test_decide_matches_the_per_element_pass(
    small_predictor, requests, qos_margin, include_leakage
):
    decision = DecisionPass(
        small_predictor,
        ServiceConfig(qos_margin=qos_margin, include_leakage=include_leakage),
    )
    got = decision.evaluate(requests)
    expected = oracle_evaluate(decision, requests)
    for array, oracle in zip(got, expected, strict=True):
        assert array.dtype == oracle.dtype
        assert array.tobytes() == oracle.tobytes()
    answers = decision.decide(requests)
    oracle_answers = oracle_decide(decision, requests)
    assert len(answers) == len(oracle_answers) == len(requests)
    for (fopt_hz, trace), (oracle_fopt_hz, oracle_trace) in zip(
        answers, oracle_answers
    ):
        assert type(fopt_hz) is float
        assert fopt_hz.hex() == oracle_fopt_hz.hex()
        assert repr(trace) == repr(oracle_trace)
        assert trace == oracle_trace
    # The scalar helper agrees with the deadline column.
    assert [decision.effective_deadline_s(r) for r in requests] == (
        expected[2].tolist()
    )
