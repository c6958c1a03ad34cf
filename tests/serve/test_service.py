"""Decision service: micro-batching, admission, tracing, sessions."""

import math

import pytest

from repro.browser.pages import page_by_name
from repro.models.performance_model import MIN_PREDICTED_LOAD_TIME_S
from repro.serve.fleet import DecisionService
from repro.serve.service import DecisionRequest, ServiceConfig


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _request(device="phone-0", deadline=3.0, mpki=2.0, util=0.5, temp=48.0):
    return DecisionRequest(
        device_id=device,
        page=page_by_name("amazon").features,
        corunner_mpki=mpki,
        corunner_utilization=util,
        temperature_c=temp,
        deadline_s=deadline,
    )


@pytest.fixture
def clock():
    return _Clock()


@pytest.fixture
def service(small_predictor, clock):
    return DecisionService(
        small_predictor,
        config=ServiceConfig(max_batch_size=4, max_wait_s=0.01),
        clock=clock,
    )


class TestBatching:
    def test_submit_queues_until_batch_fills(self, service):
        for i in range(3):
            assert service.submit(_request(f"phone-{i}")) == []
        assert service.pending() == 3
        responses = service.submit(_request("phone-3"))
        assert len(responses) == 4
        assert service.pending() == 0
        assert service.stats.flushes_on_size == 1
        assert [r.request_id for r in responses] == [0, 1, 2, 3]

    def test_poll_flushes_after_the_wait_budget(self, service, clock):
        service.submit(_request())
        clock.now = 0.005
        assert service.poll() == []  # oldest has waited 5 ms < 10 ms
        clock.now = 0.010
        responses = service.poll()
        assert len(responses) == 1
        assert service.stats.flushes_on_wait == 1
        assert responses[0].queue_delay_s == pytest.approx(0.010)

    def test_flush_forces_a_partial_batch(self, service):
        service.submit(_request("a"))
        service.submit(_request("b"))
        responses = service.flush()
        assert {r.device_id for r in responses} == {"a", "b"}
        assert service.flush() == []

    def test_decide_answers_in_submission_order(self, service):
        requests = [_request(f"phone-{i}", mpki=float(i)) for i in range(6)]
        responses = service.decide(requests)
        assert [r.request_id for r in responses] == list(range(6))
        assert [r.device_id for r in responses] == [
            r.device_id for r in requests
        ]

    def test_batch_size_shows_up_in_traces(self, service):
        responses = service.decide([_request(f"p{i}") for i in range(3)])
        assert all(r.trace.batch_size == 3 for r in responses)


class TestAdmission:
    def test_tight_deadline_rejected_immediately(self, service):
        [response] = service.submit(_request(deadline=0.02))
        assert not response.accepted
        assert response.trace is None
        assert service.pending() == 0
        assert service.stats.rejected_total == 1
        # The answer is the highest candidate frequency (Algorithm 1's
        # infeasible fallback).
        assert response.fopt_hz == max(service.decision.kernel.freqs_hz)

    def test_margin_tightens_admission(self, small_predictor):
        # 0.06 s deadline passes with no margin (floor is 0.05 s) but
        # fails once a 20 % margin shrinks it to 0.048 s.
        lax = DecisionService(small_predictor)
        assert lax.decision.admits(_request(deadline=0.06))
        margined = DecisionService(
            small_predictor, config=ServiceConfig(qos_margin=0.2)
        )
        assert not margined.decision.admits(_request(deadline=0.06))

    def test_exactly_at_the_floor_is_admitted(self, small_predictor):
        # Admission is >=, so a deadline equal to the predicted-load
        # floor is the tightest request that still gets a decision.
        decision = DecisionService(small_predictor).decision
        at_floor = _request(deadline=MIN_PREDICTED_LOAD_TIME_S)
        assert decision.effective_deadline_s(at_floor) == (
            MIN_PREDICTED_LOAD_TIME_S
        )
        assert decision.admits(at_floor)
        just_under = _request(
            deadline=math.nextafter(MIN_PREDICTED_LOAD_TIME_S, 0.0)
        )
        assert not decision.admits(just_under)

    def test_margin_boundary_lands_exactly_on_the_floor(
        self, small_predictor
    ):
        # 0.1 s halved by a 50 % margin is exactly the 0.05 s floor in
        # binary floating point, so the boundary case is admitted; one
        # ulp less deadline is not.
        decision = DecisionService(
            small_predictor, config=ServiceConfig(qos_margin=0.5)
        ).decision
        assert decision.effective_deadline_s(_request(deadline=0.1)) == (
            MIN_PREDICTED_LOAD_TIME_S
        )
        assert decision.admits(_request(deadline=0.1))
        assert not decision.admits(
            _request(deadline=math.nextafter(0.1, 0.0))
        )

    def test_exactly_at_deadline_stays_feasible(self, small_predictor):
        # Algorithm 1's feasibility test is <=: a candidate whose
        # predicted load time equals the effective deadline is kept,
        # and (being PPW-optimal over the wider set) still wins.
        service = DecisionService(small_predictor)
        [probe] = service.decide([_request(deadline=3.0)])
        pinned_deadline = probe.trace.load_time_s
        [pinned] = service.decide(
            [_request("phone-pin", deadline=pinned_deadline)]
        )
        assert pinned.trace.feasible
        assert pinned.fopt_hz == probe.fopt_hz
        assert pinned.trace.load_time_s == pinned_deadline

    def test_request_validation(self):
        with pytest.raises(ValueError, match="deadline"):
            _request(deadline=0.0)
        with pytest.raises(ValueError, match="MPKI"):
            _request(mpki=-1.0)
        with pytest.raises(ValueError, match="utilization"):
            _request(util=1.5)
        with pytest.raises(ValueError, match="utilization"):
            _request(util=math.nan)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="MPKI"):
                _request(mpki=bad)
            with pytest.raises(ValueError, match="temperature"):
                _request(temp=bad)
            with pytest.raises(ValueError, match="deadline"):
                _request(deadline=bad)


class TestConfigValidation:
    def test_qos_margin_range(self):
        with pytest.raises(ValueError, match=r"qos_margin must lie in \[0, 1\)"):
            ServiceConfig(qos_margin=1.0)
        with pytest.raises(ValueError, match=r"qos_margin"):
            ServiceConfig(qos_margin=-0.01)
        assert ServiceConfig(qos_margin=0.0).qos_margin == 0.0
        assert ServiceConfig(qos_margin=0.999).qos_margin == 0.999

    def test_batch_and_wait_bounds(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            ServiceConfig(max_batch_size=0)
        with pytest.raises(ValueError, match="max_wait_s"):
            ServiceConfig(max_wait_s=-0.001)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_batch_size", math.nan),
            ("max_batch_size", 2.5),
            ("max_batch_size", 64.0),
            ("max_wait_s", math.nan),
            ("max_wait_s", -math.inf),
            ("session_ttl_s", math.nan),
            ("session_ttl_s", 0.0),
            ("session_ttl_s", -1.0),
        ],
    )
    def test_out_of_range_fields_are_refused(self, field, value):
        # NaN compares false with everything, so a check that tests for
        # the invalid range lets it through; ``--batch-size`` and
        # ``--max-wait-ms`` reach the first two fields from the CLI.
        with pytest.raises(ValueError, match=field):
            ServiceConfig(**{field: value})

    def test_infinite_wait_and_ttl_mean_never(self, small_predictor, clock):
        service = DecisionService(
            small_predictor,
            config=ServiceConfig(
                max_batch_size=4, max_wait_s=math.inf, session_ttl_s=math.inf
            ),
            clock=clock,
        )
        service.submit(_request())
        clock.now = 1e9
        assert service.poll() == []  # the wait budget never expires
        assert service.stats.flushes_on_wait == 0
        [response] = service.flush()
        assert response.accepted
        assert "phone-0" in service.registry  # nor does the session


class TestSessions:
    def test_decisions_update_the_registry(self, service, clock):
        service.decide([_request("phone-7", mpki=4.0, temp=51.0)])
        session = service.registry.get("phone-7")
        assert session.decisions == 1
        assert session.corunner_mpki == 4.0
        assert session.temperature_c == 51.0
        assert session.current_freq_hz > 0

    def test_rejections_update_the_registry(self, service):
        service.submit(_request("phone-8", deadline=0.02))
        assert service.registry.get("phone-8").rejections == 1

    def test_rejection_refreshes_but_never_records_the_vector(
        self, small_predictor, clock
    ):
        # A rejected request keeps the device's session alive (it is
        # activity) but its feature vector is never recorded -- only
        # served decisions may become skip-cache anchors.
        service = DecisionService(
            small_predictor,
            config=ServiceConfig(max_batch_size=1, session_ttl_s=5.0),
            clock=clock,
        )
        service.decide([_request("dev", mpki=4.0)])
        clock.now = 4.0
        service.submit(_request("dev", deadline=0.02, mpki=9.0))
        session = service.registry.get("dev")
        assert session.rejections == 1
        assert session.corunner_mpki == 4.0
        assert session.last_seen_s == 4.0
        clock.now = 8.0
        service.decide([_request("other")])  # eviction pass at t=8
        assert "dev" in service.registry  # the rejection kept it alive

    def test_silent_devices_evicted_on_later_flushes(
        self, small_predictor, clock
    ):
        service = DecisionService(
            small_predictor,
            config=ServiceConfig(max_batch_size=1, session_ttl_s=5.0),
            clock=clock,
        )
        service.decide([_request("gone")])
        clock.now = 20.0
        service.decide([_request("here")])
        assert "gone" not in service.registry
        assert "here" in service.registry

    def test_stats_mean_batch_size(self, service):
        service.decide([_request(f"p{i}") for i in range(4)])  # one pass of 4
        service.decide([_request("solo")])  # one pass of 1
        assert service.stats.batches_total == 2
        assert service.stats.mean_batch_size() == pytest.approx(2.5)
        assert service.stats.largest_batch == 4
