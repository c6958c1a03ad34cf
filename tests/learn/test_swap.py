"""Fleet hot-swap and shadow window: batch boundaries, anchors, promote."""

import pytest

from repro.browser.pages import page_by_name
from repro.learn.shadow import ShadowScorer, page_class
from repro.serve.fleet import DecisionService, FleetConfig, FleetDecisionService
from repro.serve.service import DecisionRequest, ServiceConfig


def _request(device="phone-0", mpki=2.0, util=0.5, temp=48.0, page="amazon"):
    return DecisionRequest(
        device_id=device,
        page=page_by_name(page).features,
        corunner_mpki=mpki,
        corunner_utilization=util,
        temperature_c=temp,
        deadline_s=3.0,
    )


def _varied_requests():
    return [
        _request(
            f"dev-{index}",
            mpki=0.5 + 0.9 * index,
            util=0.2 + 0.05 * index,
            temp=45.0 + 1.5 * index,
            page=("amazon", "msn", "espn")[index % 3],
        )
        for index in range(12)
    ]


def _fopts(predictor, requests):
    return [
        r.fopt_hz for r in DecisionService(predictor).decide(requests, now=0.0)
    ]


@pytest.fixture(scope="module")
def disagreement(small_predictor, alt_predictor):
    """Requests plus both models' reference fopts; they must differ."""
    requests = _varied_requests()
    old = _fopts(small_predictor, requests)
    new = _fopts(alt_predictor, requests)
    assert old != new, "fixtures must disagree for swap tests to have power"
    return requests, old, new


class TestHotSwap:
    def test_swap_is_a_batch_boundary(
        self, small_predictor, alt_predictor, disagreement
    ):
        requests, old, new = disagreement
        config = FleetConfig(skip_cache=False, service=ServiceConfig())
        with FleetDecisionService(small_predictor, config) as fleet:
            responses = []
            # Buffered but not yet dispatched when the swap lands: these
            # tickets must still be answered by the old model.
            for request in requests:
                responses.extend(fleet.submit(request, now=0.0))
            fleet.swap_model(alt_predictor)
            responses.extend(fleet.flush(now=1.0))
            assert len(responses) == len(requests)
            responses.sort(key=lambda r: r.request_id)
            assert [r.fopt_hz for r in responses] == old
            # The swap decides the batch; the next call answers it, at
            # its own clock.
            assert {r.queue_delay_s for r in responses} == {1.0}
            # Post-swap traffic is decided by the candidate.
            after = fleet.decide(requests, now=2.0)
            assert [r.fopt_hz for r in after] == new
            assert fleet.model_version == 1

    def test_swap_clears_skip_anchors(
        self, small_predictor, alt_predictor, disagreement
    ):
        requests, old, new = disagreement
        changed = next(
            i for i, (a, b) in enumerate(zip(old, new)) if a != b
        )
        request = requests[changed]
        config = FleetConfig(service=ServiceConfig(max_batch_size=1))
        with FleetDecisionService(small_predictor, config) as fleet:
            [first] = fleet.decide([request], now=0.0)
            [hit] = fleet.decide([request], now=0.5)
            assert hit.trace is not None and hit.trace.skipped
            assert hit.fopt_hz == first.fopt_hz == old[changed]
            fleet.swap_model(alt_predictor)
            # The anchor is gone: same vector re-evaluates on the new
            # model instead of replaying the old model's decision.
            [post] = fleet.decide([request], now=1.5)
            assert post.trace is not None and not post.trace.skipped
            assert post.fopt_hz == new[changed]
            # ... and re-anchors freshly under the new model.
            [again] = fleet.decide([request], now=2.0)
            assert again.trace is not None and again.trace.skipped
            assert again.fopt_hz == new[changed]

    def test_swap_on_closed_fleet_is_an_error(
        self, small_predictor, alt_predictor
    ):
        fleet = FleetDecisionService(small_predictor, FleetConfig())
        fleet.close()
        with pytest.raises(RuntimeError, match="closed"):
            fleet.swap_model(alt_predictor)


class TestShadowWindow:
    def test_self_shadow_scores_clean_and_promotes(self, small_predictor):
        requests = _varied_requests()
        config = FleetConfig(skip_cache=False)
        with FleetDecisionService(small_predictor, config) as fleet:
            fleet.start_shadow(small_predictor)
            fleet.decide(requests, now=0.0)
            report = fleet.shadow_report()
            assert report.scored == len(requests)
            assert report.mismatches == 0
            assert fleet.promote() is True
            assert fleet.shadow_report() is None
            assert fleet.model_version == 1

    def test_mismatching_candidate_is_not_promoted(
        self, small_predictor, alt_predictor, disagreement
    ):
        requests, old, new = disagreement
        config = FleetConfig(skip_cache=False)
        with FleetDecisionService(small_predictor, config) as fleet:
            fleet.start_shadow(alt_predictor)
            fleet.decide(requests, now=0.0)
            report = fleet.shadow_report()
            assert report.mismatches > 0
            assert fleet.promote() is False
            # Still in shadow, old model still serving.
            assert fleet.shadow_report() is not None
            assert fleet.model_version == 0
            fleet.rollback()
            assert fleet.shadow_report() is None
            assert fleet.model_version == 0

    def test_promote_without_shadow_is_an_error(self, small_predictor):
        with FleetDecisionService(
            small_predictor, FleetConfig()
        ) as fleet:
            with pytest.raises(RuntimeError, match="no shadow"):
                fleet.promote()
            fleet.start_shadow(small_predictor)
            with pytest.raises(RuntimeError, match="scored no decisions"):
                fleet.promote()

    def test_skip_hits_are_not_shadow_scored(self, small_predictor):
        request = _request()
        config = FleetConfig(service=ServiceConfig(max_batch_size=1))
        with FleetDecisionService(small_predictor, config) as fleet:
            fleet.start_shadow(small_predictor)
            fleet.decide([request], now=0.0)
            fleet.decide([request], now=0.5)  # pure skip-cache replay
            assert fleet.shadow_report().scored == 1


class TestShadowScoring:
    def test_page_class_bucketing(self):
        assert page_class(360) == "small"
        assert page_class(999) == "small"
        assert page_class(1000) == "medium"
        assert page_class(3999) == "medium"
        assert page_class(4000) == "large"
        assert page_class(7081) == "large"

    def test_forced_mismatch_accumulates_regret(self, small_predictor):
        requests = _varied_requests()[:4]
        served = _fopts(small_predictor, requests)
        scorer = ShadowScorer(small_predictor)
        # Lie about what was served: claim a feasible frequency with
        # strictly worse candidate-view PPW than the real winner, so the
        # mismatch carries positive regret.
        request = requests[0]
        table = small_predictor.prediction_table(
            request.page,
            request.corunner_mpki,
            request.corunner_utilization,
            request.temperature_c,
        )
        by_freq = {point.freq_hz: point for point in table}
        winner_ppw = 1.0 / (
            by_freq[served[0]].load_time_s * by_freq[served[0]].power_w
        )
        wrong = next(
            point.freq_hz
            for point in table
            if point.load_time_s <= request.deadline_s
            and 1.0 / (point.load_time_s * point.power_w) < winner_ppw
        )
        scorer.score_batch(requests, [wrong] + served[1:])
        assert scorer.report.scored == 4
        assert scorer.report.mismatches == 1
        assert scorer.report.mismatch_rate() == 0.25
        assert scorer.report.regret_sum > 0.0
        record = scorer.report.to_record()
        assert record["by_class"]["small"]["scored"] >= 1
