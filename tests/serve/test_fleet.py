"""Fleet router: single-service equivalence, skip cache, lifecycle."""

import math
import multiprocessing

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.browser.pages import page_by_name
from repro.core.ppw import select_fopt
from repro.serve.fleet import (
    DecisionService,
    FleetConfig,
    FleetDecisionService,
    FleetStats,
    SkipCache,
)
from repro.serve.service import (
    DecisionRequest,
    DecisionResponse,
    DecisionTrace,
    ServiceConfig,
)
from repro.serve.sessions import SessionRegistry


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _request(
    device="phone-0", deadline=3.0, mpki=2.0, util=0.5, temp=48.0,
    page="amazon",
):
    return DecisionRequest(
        device_id=device,
        page=page_by_name(page).features,
        corunner_mpki=mpki,
        corunner_utilization=util,
        temperature_c=temp,
        deadline_s=deadline,
    )


def _small_fleet(predictor, clock=None, **overrides):
    """A fleet with immediate (batch-of-one) evaluation."""
    overrides.setdefault("service", ServiceConfig(max_batch_size=1))
    config = FleetConfig(**overrides)
    if clock is None:
        return FleetDecisionService(predictor, config)
    return FleetDecisionService(predictor, config, clock=clock)


class TestConfigValidation:
    def test_worker_floor(self):
        # The router runs in-process: one is the only worker count.
        for workers in (0, 2, 4):
            with pytest.raises(ValueError, match="workers must be 1"):
                FleetConfig(workers=workers)

    def test_tolerance_sign(self):
        with pytest.raises(ValueError, match="non-negative"):
            FleetConfig(skip_tolerance=-0.1)

    @pytest.mark.parametrize("tolerance", [math.nan, -math.inf])
    def test_nan_and_negative_infinite_tolerance_are_refused(self, tolerance):
        # A NaN tolerance would turn the skip cache off without an
        # error; ``--skip-tolerance`` reaches it from the CLI.
        with pytest.raises(ValueError, match="non-negative"):
            FleetConfig(skip_tolerance=tolerance)

    def test_infinite_tolerance_replays_any_drift(self, small_predictor):
        with _small_fleet(small_predictor, skip_tolerance=math.inf) as fleet:
            [first] = fleet.decide([_request(mpki=2.0)], now=0.0)
            [hit] = fleet.decide([_request(mpki=40.0, temp=90.0)], now=1.0)
            assert hit.trace.skipped and hit.fopt_hz == first.fopt_hz


class TestValueTypes:
    """Responses and traces are immutable: the skip cache anchors the
    response a caller received and shares one replay trace across hits."""

    def test_every_field_refuses_assignment(self):
        trace = DecisionTrace(0, 1.0, 2.0, 0.5, 3.0, True, 2)
        response = DecisionResponse(7, "phone-0", 1.0e9, True, 0.0, trace)
        for value, names in (
            (trace, ("candidate_index", "load_time_s", "power_w", "ppw",
                     "effective_deadline_s", "feasible", "batch_size",
                     "skipped")),
            (response, ("request_id", "device_id", "fopt_hz", "accepted",
                        "queue_delay_s", "trace")),
        ):
            for name in names:
                with pytest.raises(AttributeError):
                    setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                value.extra = 1  # no per-instance attributes either

    def test_a_held_response_cannot_change_later_replays(
        self, small_predictor
    ):
        with _small_fleet(small_predictor) as fleet:
            [first] = fleet.decide([_request()], now=0.0)
            [hit] = fleet.decide([_request()], now=1.0)
            for held, name, value in (
                (first, "fopt_hz", 0.0),
                (first, "trace", None),
                (first.trace, "ppw", 0.0),
                (hit.trace, "skipped", False),
                (hit.trace, "load_time_s", 0.0),
            ):
                with pytest.raises(AttributeError):
                    setattr(held, name, value)
            [later] = fleet.decide([_request()], now=2.0)
            assert later.fopt_hz == first.fopt_hz
            assert later.trace is hit.trace
            assert later.trace == first.trace._replace(skipped=True)
            assert fleet.registry.get("phone-0").last_response is first


class TestEquivalence:
    """ISSUE 5's core contract: same bits as the single service."""

    def _rounds(self):
        rounds = [
            [
                _request(
                    f"dev-{i}",
                    mpki=float(i % 5) + 0.5 * step,
                    page="amazon" if i % 2 else "espn",
                )
                for i in range(8)
            ]
            for step in range(3)
        ]
        # Replay the last round verbatim: pure skip-cache traffic.
        rounds.append(list(rounds[-1]))
        return rounds

    def _reference(self, predictor, rounds):
        single = DecisionService(predictor)
        responses = []
        for step, batch in enumerate(rounds):
            responses.extend(single.decide(batch, now=float(step)))
        return responses

    def test_fopt_matches_the_single_service(self, small_predictor):
        rounds = self._rounds()
        expected = self._reference(small_predictor, rounds)
        with FleetDecisionService(small_predictor, FleetConfig()) as fleet:
            got = []
            for step, batch in enumerate(rounds):
                got.extend(fleet.decide(batch, now=float(step)))
            # The replayed round is answered entirely by the cache.
            assert fleet.stats.skips_total >= len(rounds[-1])
        assert [r.fopt_hz for r in got] == [r.fopt_hz for r in expected]
        assert [r.accepted for r in got] == [r.accepted for r in expected]


class TestSkipCache:
    def test_second_identical_request_replays_the_anchor(
        self, small_predictor
    ):
        with _small_fleet(small_predictor) as fleet:
            [first] = fleet.decide([_request()], now=0.0)
            [hit] = fleet.decide([_request()], now=1.0)
            assert not first.trace.skipped
            assert hit.trace.skipped
            assert hit.trace == first.trace._replace(skipped=True)
            assert hit.device_id == first.device_id
            assert hit.fopt_hz == first.fopt_hz
            assert hit.request_id == 1  # the new ticket, not the anchor's
            assert hit.queue_delay_s == 0.0
            assert fleet.stats.skips_total == 1
            assert fleet.registry.get("phone-0").skips == 1

    def test_drift_within_tolerance_hits(self, small_predictor):
        with _small_fleet(small_predictor, skip_tolerance=0.5) as fleet:
            [first] = fleet.decide([_request(mpki=2.0)], now=0.0)
            [hit] = fleet.decide([_request(mpki=2.3)], now=1.0)
            assert hit.trace.skipped
            assert hit.fopt_hz == first.fopt_hz

    def test_zero_tolerance_requires_exact_equality(self, small_predictor):
        with _small_fleet(small_predictor, skip_tolerance=0.0) as fleet:
            fleet.decide([_request(mpki=2.0)], now=0.0)
            [miss] = fleet.decide([_request(mpki=2.0 + 1e-9)], now=1.0)
            assert not miss.trace.skipped
            assert fleet.stats.skips_total == 0

    def test_drift_beyond_tolerance_reevaluates(self, small_predictor):
        with _small_fleet(small_predictor, skip_tolerance=0.1) as fleet:
            fleet.decide([_request(mpki=2.0)], now=0.0)
            [miss] = fleet.decide([_request(mpki=2.5)], now=1.0)
        [fresh] = DecisionService(small_predictor).decide(
            [_request(mpki=2.5)], now=0.0
        )
        assert not miss.trace.skipped
        assert miss.fopt_hz == fresh.fopt_hz

    def test_deadline_change_misses(self, small_predictor):
        with _small_fleet(small_predictor, skip_tolerance=0.5) as fleet:
            fleet.decide([_request(deadline=3.0)], now=0.0)
            [miss] = fleet.decide([_request(deadline=2.0)], now=1.0)
            assert not miss.trace.skipped

    def test_page_change_misses(self, small_predictor):
        with _small_fleet(small_predictor, skip_tolerance=0.5) as fleet:
            fleet.decide([_request(page="amazon")], now=0.0)
            [miss] = fleet.decide([_request(page="espn")], now=1.0)
            assert not miss.trace.skipped

    def test_the_anchor_is_the_served_response(self, small_predictor):
        """The cache anchors the evaluated response itself, and replays
        never mark it: its trace stays ``skipped=False``."""
        with _small_fleet(small_predictor) as fleet:
            [first] = fleet.decide([_request()], now=0.0)
            hits = [
                fleet.decide([_request()], now=float(step))[0]
                for step in (1, 2, 3)
            ]
            assert fleet.registry.get("phone-0").last_response is first
            assert first.trace.skipped is False
            assert [hit.trace.skipped for hit in hits] == [True] * 3
            # One replay trace per anchor, built at its first hit.
            assert hits[1].trace is hits[0].trace is hits[2].trace
            assert [hit.request_id for hit in hits] == [1, 2, 3]
            assert fleet.stats.skips_total == 3

    def test_every_hit_replays_the_anchor_row(self, small_predictor):
        """Each hit carries its anchor's row values and batch size."""
        requests = [_request(f"phone-{i}", mpki=float(i)) for i in range(3)]
        fleet = _small_fleet(
            small_predictor, service=ServiceConfig(max_batch_size=4)
        )
        with fleet:
            evaluated = fleet.decide(requests, now=0.0)
            assert [r.trace.batch_size for r in evaluated] == [3, 3, 3]
            for step in (1.0, 2.0):
                hits = fleet.decide(requests, now=step)
                for hit, anchor in zip(hits, evaluated, strict=True):
                    assert hit.trace == anchor.trace._replace(skipped=True)
                    assert hit.fopt_hz == anchor.fopt_hz
                    assert hit.device_id == anchor.device_id
                    assert hit.accepted and hit.queue_delay_s == 0.0
            assert fleet.stats.skips_total == 6
            assert [r.trace.skipped for r in evaluated] == [False] * 3

    def test_a_new_anchor_replaces_the_replay_trace(self, small_predictor):
        """Hits after a re-evaluation replay the new anchor's row, not
        the replay trace built for the old one."""
        with _small_fleet(small_predictor) as fleet:
            [old] = fleet.decide([_request(mpki=2.0)], now=0.0)
            [old_hit] = fleet.decide([_request(mpki=2.0)], now=1.0)
            [new] = fleet.decide([_request(mpki=9.0)], now=2.0)
            [new_hit] = fleet.decide([_request(mpki=9.0)], now=3.0)
            assert not new.trace.skipped
            assert old_hit.trace == old.trace._replace(skipped=True)
            assert new_hit.trace == new.trace._replace(skipped=True)
            assert new.trace != old.trace

    def test_a_pre_swap_batch_is_never_anchored(self, small_predictor):
        """A batch dispatched before a swap and answered after it is
        served but not anchored, so the next request re-evaluates."""
        fleet = _small_fleet(
            small_predictor, service=ServiceConfig(max_batch_size=4)
        )
        with fleet:
            assert fleet.submit(_request(), now=0.0) == []
            fleet.swap_model(small_predictor)  # dispatches the buffer
            [answered] = fleet.flush(now=1.0)
            assert answered.accepted and not answered.trace.skipped
            assert fleet.registry.get("phone-0").last_response is None
            [again] = fleet.decide([_request()], now=2.0)
            assert not again.trace.skipped
            assert fleet.stats.skips_total == 0
            # The post-swap evaluation anchors as usual.
            [hit] = fleet.decide([_request()], now=3.0)
            assert hit.trace.skipped
            assert fleet.registry.get("phone-0").last_response is again

    def test_an_older_response_never_replaces_a_newer_anchor(self):
        # The cache does not trust its caller to store in ticket order;
        # the anchor's ticket is what tells a late, older response from
        # the newest one.
        cache = SkipCache(SessionRegistry(clock=lambda: 0.0), tolerance=0.0)
        trace = DecisionTrace(
            candidate_index=0, load_time_s=1.0, power_w=2.0, ppw=0.5,
            effective_deadline_s=3.0, feasible=True, batch_size=2,
        )
        for ticket, fopt_hz in ((5, 2.0e9), (3, 1.0e9)):
            response = DecisionResponse(
                request_id=ticket, device_id="phone-0", fopt_hz=fopt_hz,
                accepted=True, trace=trace,
            )
            cache.store(_request(mpki=float(ticket)), response, now=0.0)
        anchor = cache.registry.get("phone-0").last_response
        assert (anchor.request_id, anchor.fopt_hz) == (5, 2.0e9)

    def test_rejections_neither_anchor_nor_clobber(self, small_predictor):
        with _small_fleet(small_predictor) as fleet:
            # A rejection before any anchor: the next valid request is
            # evaluated, not replayed.
            fleet.decide([_request(deadline=0.02)], now=0.0)
            [first] = fleet.decide([_request()], now=1.0)
            assert not first.trace.skipped
            # A rejection after an anchor leaves the anchor intact: the
            # exact repeat still hits.
            fleet.decide([_request(deadline=0.02)], now=2.0)
            [hit] = fleet.decide([_request()], now=3.0)
            assert hit.trace.skipped
            assert hit.fopt_hz == first.fopt_hz

    def test_anchor_expires_with_the_session(self, small_predictor):
        clock = _Clock()
        fleet = _small_fleet(
            small_predictor,
            clock=clock,
            service=ServiceConfig(max_batch_size=1, session_ttl_s=5.0),
        )
        with fleet:
            [first] = fleet.decide([_request("gone")])
            clock.now = 20.0
            fleet.decide([_request("other")])  # the flush evicts "gone"
            assert "gone" not in fleet.registry
            [again] = fleet.decide([_request("gone")])
            assert not again.trace.skipped  # re-evaluated from scratch
            assert fleet.stats.skips_total == 0
            assert again.fopt_hz == first.fopt_hz  # same vector, same bits

    def test_returning_device_never_replays_a_stale_anchor(
        self, small_predictor
    ):
        """Regression: a device returning after more than a TTL of
        silence must re-evaluate, even though lazy eviction has not
        removed its session yet."""
        clock = _Clock()
        fleet = _small_fleet(
            small_predictor,
            clock=clock,
            service=ServiceConfig(max_batch_size=1, session_ttl_s=5.0),
        )
        with fleet:
            request = _request("sleeper")
            [first] = fleet.decide([request])
            clock.now = 5.0  # exactly the TTL: the anchor is still live
            [hit] = fleet.decide([request])
            assert hit.trace.skipped
            clock.now = 11.0  # silent past the TTL since the refresh
            [stale] = fleet.decide([request])
            assert not stale.trace.skipped  # re-evaluated, not replayed
            assert stale.fopt_hz == first.fopt_hz  # same vector, same bits
            # The fresh evaluation re-anchors: the *next* request hits.
            [again] = fleet.decide([request])
            assert again.trace.skipped

    def test_a_rejection_after_the_ttl_does_not_revive_the_anchor(
        self, small_predictor
    ):
        """Regression: a rejected request arriving after more than a TTL
        of silence starts a fresh session instead of refreshing the
        expired one, whose anchor would otherwise replay again."""
        fleet = _small_fleet(
            small_predictor,
            service=ServiceConfig(max_batch_size=1, session_ttl_s=5.0),
        )
        with fleet:
            [first] = fleet.submit(_request(), now=0.0)
            assert not first.trace.skipped
            [rejected] = fleet.submit(_request(deadline=0.02), now=20.0)
            assert not rejected.accepted
            [again] = fleet.submit(_request(), now=20.0)
            assert not again.trace.skipped  # re-evaluated, not replayed
            assert again.fopt_hz == first.fopt_hz
            assert fleet.stats.skips_total == 0

    @given(
        mpki=st.floats(0.0, 20.0),
        util=st.floats(0.0, 1.0),
        temp=st.floats(20.0, 80.0),
        tolerance=st.sampled_from([0.0, 1e-9, 1e-3, 0.5]),
        page=st.sampled_from(["amazon", "espn"]),
    )
    def test_hits_are_bit_equal_to_full_evaluation(
        self, small_predictor, mpki, util, temp, tolerance, page
    ):
        """Property: a replayed response carries exactly the bits a full
        re-evaluation of the same vector would produce, at any
        tolerance."""
        request = _request(mpki=mpki, util=util, temp=temp, page=page)
        with _small_fleet(
            small_predictor, skip_tolerance=tolerance
        ) as fleet:
            [evaluated] = fleet.decide([request], now=0.0)
            [hit] = fleet.decide([request], now=1.0)
            assert fleet.stats.skips_total == 1
        [fresh] = DecisionService(small_predictor).decide(
            [request], now=0.0
        )
        assert hit.trace.skipped
        assert hit.fopt_hz == evaluated.fopt_hz == fresh.fopt_hz
        assert hit.accepted == evaluated.accepted == fresh.accepted

    @given(
        drifts=st.lists(
            st.sampled_from([0.0, 0.0, 0.25, 1.5]), min_size=1, max_size=10
        )
    )
    def test_zero_tolerance_stream_is_lossless(self, small_predictor, drifts):
        """Property: at tolerance 0 the fleet's answer stream is the
        single service's, hit or miss -- the cache only ever absorbs
        exact repeats, which are bit-stable by determinism."""
        mpki, requests = 2.0, []
        for drift in drifts:
            mpki += drift
            requests.append(_request(mpki=mpki))
        with _small_fleet(small_predictor, skip_tolerance=0.0) as fleet:
            got = []
            for step, request in enumerate(requests):
                got.extend(fleet.decide([request], now=float(step)))
            assert fleet.stats.skips_total == sum(
                1 for drift in drifts[1:] if drift == 0.0
            )
        single = DecisionService(small_predictor)
        expected = []
        for step, request in enumerate(requests):
            expected.extend(single.decide([request], now=float(step)))
        assert [r.fopt_hz for r in got] == [r.fopt_hz for r in expected]


class TestServingSurface:
    @pytest.fixture
    def clock(self):
        return _Clock()

    @pytest.fixture
    def fleet(self, small_predictor, clock):
        with FleetDecisionService(
            small_predictor,
            FleetConfig(
                service=ServiceConfig(max_batch_size=4, max_wait_s=0.01),
            ),
            clock=clock,
        ) as service:
            yield service

    def test_submit_buffers_until_the_batch_fills(self, fleet):
        for i in range(3):
            assert fleet.submit(_request(f"phone-{i}")) == []
        assert fleet.pending() == 3
        responses = fleet.submit(_request("phone-3"))
        assert [r.request_id for r in responses] == [0, 1, 2, 3]
        assert fleet.pending() == 0
        assert fleet.stats.flushes_on_size == 1

    def test_poll_flushes_after_the_wait_budget(self, fleet, clock):
        fleet.submit(_request())
        clock.now = 0.005
        assert fleet.poll() == []
        clock.now = 0.010
        [response] = fleet.poll()
        assert fleet.stats.flushes_on_wait == 1
        assert response.queue_delay_s == pytest.approx(0.010)

    def test_rejection_is_immediate_and_answers_fmax(self, fleet):
        [response] = fleet.submit(_request(deadline=0.02))
        assert not response.accepted
        assert response.trace is None
        assert response.fopt_hz == fleet.decision.fmax_hz
        assert fleet.pending() == 0
        assert fleet.stats.rejected_total == 1
        assert fleet.registry.get("phone-0").rejections == 1

    def test_decide_orders_by_ticket(self, fleet):
        requests = [
            _request("a", mpki=1.0),
            _request("b", deadline=0.02),
            _request("c", mpki=3.0),
            _request("a", mpki=1.0),
        ]
        responses = fleet.decide(requests)
        assert [r.request_id for r in responses] == [0, 1, 2, 3]
        assert [r.device_id for r in responses] == ["a", "b", "c", "a"]
        assert [r.accepted for r in responses] == [True, False, True, True]


#: The ask vectors the interleaving property draws from: re-drawing
#: an index re-sends that exact vector (a skip-cache hit once it is
#: the device's latest evaluated one), and two vectors carry a
#: deadline below the model's load-time floor (rejected at admission).
_VECTORS = (
    _request("a", mpki=1.0),
    _request("a", mpki=4.0),
    _request("b", mpki=1.0, page="espn"),
    _request("b", deadline=0.02),
    _request("c", mpki=9.0, temp=60.0),
    _request("c", mpki=9.0, temp=60.0, deadline=0.02),
)

#: One step per element: ``(op, vector index, clock advance)``.  A
#: submit sends ``_VECTORS[index]``; a poll first advances the injected
#: clock; a flush forces everything out.  Submits are drawn three times
#: as often as the others so that batches fill.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(("submit", "submit", "submit", "poll", "flush")),
        st.integers(0, len(_VECTORS) - 1),
        st.sampled_from((0.0, 0.002, 0.005, 0.02)),
    ),
    min_size=1,
    max_size=60,
)


class TestInterleavings:
    @given(
        ops=_OPS,
        max_batch_size=st.integers(1, 5),
        skip_cache=st.booleans(),
    )
    def test_every_ticket_answered_once_with_the_scalar_fopt(
        self, small_predictor, ops, max_batch_size, skip_cache
    ):
        """Property: any interleaving of submit, poll (the injected
        clock advancing) and flush answers every ticket exactly once,
        with the scalar oracle's fopt, and the router's counters add
        up -- through DecisionService and through the router with the
        skip cache on."""
        clock = _Clock()
        config = ServiceConfig(max_batch_size=max_batch_size, max_wait_s=0.005)
        if skip_cache:
            service = FleetDecisionService(
                small_predictor,
                FleetConfig(service=config),
                clock=clock,
            )
        else:
            service = DecisionService(small_predictor, config, clock=clock)
        submitted: list[int] = []
        responses = []
        with service:
            for op, index, advance_s in ops:
                if op == "submit":
                    submitted.append(index)
                    responses.extend(service.submit(_VECTORS[index]))
                elif op == "poll":
                    clock.now += advance_s
                    responses.extend(service.poll())
                else:
                    responses.extend(service.flush())
            responses.extend(service.flush())
            stats = service.merged_stats()
        assert sorted(r.request_id for r in responses) == list(
            range(len(submitted))
        )
        for response in responses:
            request = _VECTORS[submitted[response.request_id]]
            table = small_predictor.prediction_table(
                page_features=request.page,
                corunner_mpki=request.corunner_mpki,
                corunner_utilization=request.corunner_utilization,
                temperature_c=request.temperature_c,
            )
            assert response.fopt_hz == (
                select_fopt(table, request.deadline_s).freq_hz
            )
        evaluated = sum(
            1 for r in responses if r.accepted and not r.trace.skipped
        )
        assert stats.requests_total == len(submitted)
        assert stats.requests_total == (
            stats.rejected_total + stats.skips_total + stats.accepted_total
        )
        assert stats.accepted_total == evaluated
        assert stats.largest_batch <= max_batch_size
        if not skip_cache:
            assert stats.skips_total == 0


class TestTelemetryAndLifecycle:
    def test_merged_stats_snapshot_the_router_counters(self, small_predictor):
        with FleetDecisionService(small_predictor, FleetConfig()) as fleet:
            batch = [_request(f"d{i}", mpki=float(i)) for i in range(6)]
            fleet.decide(batch, now=0.0)
            fleet.decide(batch, now=1.0)  # all six replay from the cache
            merged = fleet.merged_stats()
        assert isinstance(merged, FleetStats)
        assert merged.requests_total == 12
        assert merged.skips_total == 6
        assert merged.skip_rate() == pytest.approx(0.5)
        assert merged.accepted_total == 6  # only the misses were evaluated
        assert merged.batches_total >= 1
        assert merged.mean_batch_size() > 0
        assert merged.largest_batch <= 6

    def test_one_worker_stays_serial(self, small_predictor):
        """The router decides in the calling process: serving starts no
        worker process."""
        before = set(multiprocessing.active_children())
        with FleetDecisionService(
            small_predictor, FleetConfig(workers=1)
        ) as fleet:
            fleet.decide(
                [_request(f"d{i}", mpki=float(i)) for i in range(4)], now=0.0
            )
            assert set(multiprocessing.active_children()) <= before

    def test_close_is_idempotent(self, small_predictor):
        fleet = _small_fleet(small_predictor)
        fleet.decide([_request()], now=0.0)
        fleet.close()
        fleet.close()
