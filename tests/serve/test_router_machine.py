"""A stateful model of the decision router, driven by Hypothesis.

One :class:`~repro.serve.fleet.FleetDecisionService` runs on an
injected clock through any interleaving of submit, poll, flush,
silence past the session TTL, hot-swaps between two bundles that
disagree on some of the vectors, and a shadow window's start, promote
and rollback.  The machine keeps its own account of sessions and skip
anchors from the responses alone and checks, after every step:

* every ticket is answered exactly once;
* every fopt is the scalar ``prediction_table`` + ``select_fopt``
  answer under the model that was serving when the ticket was
  submitted (fmax for a rejection);
* a skip-cache hit replays exactly the anchor the device's last
  evaluated response under the serving model left, and only while the
  session is live -- never an expired or a pre-swap anchor -- and a
  miss happens only where no such anchor exists;
* once flushed, ``requests_total == rejected + skips + accepted``.
"""

from dataclasses import replace

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.browser.pages import page_by_name
from repro.core.ppw import select_fopt
from repro.serve.fleet import FleetConfig, FleetDecisionService
from repro.serve.service import DecisionRequest, ServiceConfig

#: Session TTL of the machine's router, in injected-clock seconds.
TTL_S = 1.0


def _request(device, page, mpki, util, temp, deadline=3.0):
    return DecisionRequest(
        device_id=device,
        page=page_by_name(page).features,
        corunner_mpki=mpki,
        corunner_utilization=util,
        temperature_c=temp,
        deadline_s=deadline,
    )


#: Two asks per device: one on which ``small_predictor`` and
#: ``alt_predictor`` pick different frequencies, one on which they
#: agree.
ASKS = (
    _request("a", "msn", 1.4, 0.25, 46.5),
    _request("a", "amazon", 0.5, 0.2, 45.0),
    _request("b", "espn", 2.3, 0.3, 48.0),
    _request("b", "amazon", 3.2, 0.35, 49.5),
    _request("c", "amazon", 5.9, 0.5, 54.0),
    _request("c", "msn", 4.1, 0.4, 51.0),
)

#: Every ask, then each device's ask with a deadline below the
#: load-time floor (rejected at admission): ``VECTORS[len(ASKS) + i //
#: 2]`` is the rejected ask of ``ASKS[i]``'s device.
VECTORS = ASKS + tuple(replace(ASKS[i], deadline_s=0.02) for i in (0, 2, 4))


def _scalar_fopt(predictor, request):
    table = predictor.prediction_table(
        page_features=request.page,
        corunner_mpki=request.corunner_mpki,
        corunner_utilization=request.corunner_utilization,
        temperature_c=request.temperature_c,
    )
    return select_fopt(table, request.deadline_s).freq_hz


class RouterMachine(RuleBasedStateMachine):
    """The router against an account kept from its responses alone."""

    #: Asks already sent, so later steps repeat them (skip-cache hits)
    #: or follow them with the same device's rejected ask.
    asks = Bundle("asks")
    predictors: tuple = ()
    #: ``(model, vector) -> scalar fopt``, shared across examples.
    oracle: dict = {}

    def __init__(self):
        super().__init__()
        self.now = 0.0
        self.fleet = None

    @initialize(max_batch_size=st.integers(1, 4))
    def start(self, max_batch_size):
        self.fleet = FleetDecisionService(
            self.predictors[0],
            FleetConfig(
                service=ServiceConfig(
                    max_batch_size=max_batch_size,
                    max_wait_s=0.005,
                    session_ttl_s=TTL_S,
                )
            ),
            clock=lambda: self.now,
        )
        #: Index of the serving model, bumped epoch per swap.
        self.model = 0
        self.epoch = 0
        self.shadow = None
        self.shadow_scored = 0
        self.shadow_mismatches = 0
        #: ticket -> (vector index, serving model, swap epoch) at submit.
        self.submitted = {}
        self.answered = set()
        #: Per device: clock of its latest activity, and its anchor as
        #: ``(vector index, trace, fopt)``.
        self.last_seen = {}
        self.anchors = {}
        self.counts = {"rejected": 0, "skips": 0, "evaluated": 0}

    def teardown(self):
        if self.fleet is None:
            return
        self._absorb(self.fleet.flush())
        self._check_counters()
        assert self.answered == set(self.submitted)
        self.fleet.close()

    # ------------------------------------------------------------------
    # The account
    # ------------------------------------------------------------------
    def _expected_fopt(self, model, index):
        key = (model, index)
        if key not in self.oracle:
            self.oracle[key] = _scalar_fopt(self.predictors[model], VECTORS[index])
        return self.oracle[key]

    def _touch(self, device):
        """The registry's touch: a session silent past the TTL dies."""
        seen = self.last_seen.get(device)
        if seen is not None and self.now - seen > TTL_S:
            self.anchors.pop(device, None)
        self.last_seen[device] = self.now

    def _absorb(self, responses):
        for response in responses:
            ticket = response.request_id
            assert ticket in self.submitted, "an answer for no ticket"
            assert ticket not in self.answered, "a ticket answered twice"
            self.answered.add(ticket)
            index, model, epoch = self.submitted[ticket]
            request = VECTORS[index]
            device = request.device_id
            assert response.device_id == device
            assert response.fopt_hz == self._expected_fopt(model, index)
            if not response.accepted:
                assert index >= len(ASKS)
                assert response.fopt_hz == self.fleet.decision.fmax_hz
                self.counts["rejected"] += 1
                self._touch(device)
            elif response.trace.skipped:
                # The account drops anchors on every swap and with every
                # session that outlived the TTL, so a hit must find a
                # live one, left by this very vector.
                anchor = self.anchors.get(device)
                assert anchor is not None, "a hit on a pre-swap or dead anchor"
                assert self.now - self.last_seen[device] <= TTL_S, (
                    "a hit on an expired anchor"
                )
                assert anchor[0] == index
                assert response.trace == anchor[1]._replace(skipped=True)
                assert response.fopt_hz == anchor[2]
                self.counts["skips"] += 1
                self.last_seen[device] = self.now
            else:
                self.counts["evaluated"] += 1
                self._touch(device)
                if epoch == self.epoch:
                    self.anchors[device] = (index, response.trace, response.fopt_hz)
                if self.shadow is not None:
                    self.shadow_scored += 1
                    if self._expected_fopt(self.shadow, index) != response.fopt_hz:
                        self.shadow_mismatches += 1

    def _swapped_to(self, model):
        self.model = model
        self.epoch += 1
        self.anchors.clear()

    def _check_counters(self):
        stats = self.fleet.merged_stats()
        assert stats.requests_total == len(self.submitted)
        assert stats.rejected_total == self.counts["rejected"]
        assert stats.skips_total == self.counts["skips"]
        assert stats.accepted_total == self.counts["evaluated"]
        assert stats.requests_total == (
            stats.rejected_total + stats.skips_total + stats.accepted_total
        )

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    def _submit(self, index):
        ticket = len(self.submitted)
        self.submitted[ticket] = (index, self.model, self.epoch)
        device = VECTORS[index].device_id
        anchor = self.anchors.get(device)
        hit_due = (
            anchor is not None
            and anchor[0] == index
            and self.now - self.last_seen[device] <= TTL_S
        )
        responses = self.fleet.submit(VECTORS[index])
        own = [r for r in responses if r.request_id == ticket]
        assert bool(own and own[0].accepted and own[0].trace.skipped) == hit_due
        self._absorb(responses)

    @rule(target=asks, index=st.integers(0, len(ASKS) - 1))
    def ask(self, index):
        self._submit(index)
        return index

    @rule(index=asks)
    def ask_again(self, index):
        self._submit(index)

    @rule(index=asks, after_silence=st.booleans())
    def ask_below_the_floor(self, index, after_silence):
        # A device back from silence past the TTL with a rejected ask
        # must not find its old session, or its anchor, alive again.
        if after_silence:
            self.fall_silent_past_the_ttl()
        self._submit(len(ASKS) + index // 2)

    @rule(advance_s=st.sampled_from((0.0, 0.002, 0.005, 0.02)))
    def poll(self, advance_s):
        self.now += advance_s
        self._absorb(self.fleet.poll())

    @rule()
    def flush(self):
        self._absorb(self.fleet.flush())
        assert self.fleet.pending() == 0
        self._check_counters()

    @rule()
    def fall_silent_past_the_ttl(self):
        self.now += 1.5 * TTL_S

    @rule()
    def swap_model(self):
        model = 1 - self.model
        self.fleet.swap_model(self.predictors[model])
        self._swapped_to(model)

    @rule(candidate=st.sampled_from((0, 1)))
    def start_shadow(self, candidate):
        self.fleet.start_shadow(self.predictors[candidate])
        self.shadow = candidate
        self.shadow_scored = self.shadow_mismatches = 0

    @rule()
    def promote(self):
        if self.shadow is None:
            with pytest.raises(RuntimeError, match="no shadow"):
                self.fleet.promote()
            return
        if self.shadow_scored == 0:
            with pytest.raises(RuntimeError, match="scored no decisions"):
                self.fleet.promote()
            return
        promoted = self.fleet.promote()
        assert promoted == (self.shadow_mismatches == 0)
        if promoted:
            self._swapped_to(self.shadow)
            self.shadow = None

    @rule()
    def rollback(self):
        self.fleet.rollback()
        self.shadow = None

    @invariant()
    def shadow_window_matches_the_account(self):
        if self.fleet is None:
            return
        report = self.fleet.shadow_report()
        if self.shadow is None:
            assert report is None
        else:
            assert (report.scored, report.mismatches) == (
                self.shadow_scored, self.shadow_mismatches
            )


def test_router_state_machine(small_predictor, alt_predictor):
    assert any(
        _scalar_fopt(small_predictor, request) != _scalar_fopt(alt_predictor, request)
        for request in VECTORS
    ), "the two bundles must disagree for swaps to be observable"
    RouterMachine.predictors = (small_predictor, alt_predictor)
    RouterMachine.oracle = {}
    run_state_machine_as_test(RouterMachine)
