"""Retraining: vector harvest, exact-recovery labeling, publishing."""

import pytest

from repro.browser.pages import page_by_name
from repro.learn.registry import ModelRegistry
from repro.learn.retrain import (
    RetrainConfig,
    harvest_vectors,
    retrain_from_telemetry,
)
from repro.learn.shadow import ShadowScorer
from repro.learn.telemetry import TelemetryStore, decision_record
from repro.serve.fleet import DecisionService
from repro.serve.service import DecisionRequest


def _requests():
    """Varied accepted traffic across the small campaign's pages."""
    requests = []
    for index, page in enumerate(("amazon", "msn", "espn")):
        for step in range(4):
            requests.append(
                DecisionRequest(
                    device_id=f"phone-{index}-{step}",
                    page=page_by_name(page).features,
                    corunner_mpki=0.5 + 1.75 * step,
                    corunner_utilization=0.2 + 0.15 * step,
                    temperature_c=46.0 + 2.5 * step,
                    deadline_s=3.0,
                )
            )
    return requests


def _harvested_store(tmp_path, predictor):
    """A telemetry store filled by serving ``_requests`` once."""
    requests = _requests()
    responses = DecisionService(predictor).decide(requests, now=0.0)
    store = TelemetryStore(tmp_path / "telemetry", batch_size=8)
    with store.writer() as writer:
        for request, response in zip(requests, responses):
            writer.append(decision_record(request, response, now_s=0.0))
    return store, requests, responses


class TestHarvestVectors:
    def _record(self, mpki=1.0, accepted=True, page=(1, 2, 3, 4, 5)):
        return {
            "accepted": accepted,
            "page": list(page),
            "corunner_mpki": mpki,
            "corunner_utilization": 0.5,
            "temperature_c": 48.0,
        }

    def test_dedups_preserving_first_seen_order(self):
        records = [
            self._record(mpki=2.0),
            self._record(mpki=1.0),
            self._record(mpki=2.0),  # revisit traffic: exact duplicate
            self._record(mpki=1.0),
        ]
        vectors = harvest_vectors(records)
        assert [v[1] for v in vectors] == [2.0, 1.0]

    def test_rejections_are_excluded(self):
        records = [self._record(accepted=False), self._record(mpki=4.0)]
        vectors = harvest_vectors(records)
        assert len(vectors) == 1
        assert vectors[0][1] == 4.0


class TestConfigValidation:
    def test_chunk_floor(self):
        with pytest.raises(ValueError, match="chunk"):
            RetrainConfig(chunk_size=0)

    def test_ridge_sign(self):
        with pytest.raises(ValueError, match="ridge"):
            RetrainConfig(ridge_cross=-0.1)


class TestClosedLoop:
    """The tentpole invariant: retraining on a model's own telemetry
    reproduces its decisions exactly."""

    def test_candidate_reproduces_every_served_decision(
        self, small_predictor, tmp_path
    ):
        store, requests, responses = _harvested_store(
            tmp_path, small_predictor
        )
        registry = ModelRegistry(tmp_path / "registry")
        result = retrain_from_telemetry(
            store, small_predictor, registry=registry
        )
        assert result.records_seen == len(requests)
        assert result.vectors_unique == len(requests)  # all distinct
        assert result.vectors_dropped == 0
        assert result.version == 1

        candidate = result.models.predictor
        scorer = ShadowScorer(candidate)
        served = [
            (request, response.fopt_hz)
            for request, response in zip(requests, responses)
            if response.accepted
        ]
        scorer.score_batch(
            [request for request, _ in served],
            [fopt for _, fopt in served],
        )
        assert scorer.report.scored == len(served)
        assert scorer.report.mismatches == 0

    def test_candidate_surfaces_recover_the_generating_predictions(
        self, small_predictor, tmp_path
    ):
        store, requests, _ = _harvested_store(tmp_path, small_predictor)
        result = retrain_from_telemetry(store, small_predictor)
        candidate = result.models.predictor
        request = requests[0]
        for freq_hz in small_predictor.candidates():
            original = small_predictor.predict_at(
                request.page,
                request.corunner_mpki,
                request.corunner_utilization,
                request.temperature_c,
                freq_hz,
            )
            refit = candidate.predict_at(
                request.page,
                request.corunner_mpki,
                request.corunner_utilization,
                request.temperature_c,
                freq_hz,
            )
            assert refit.load_time_s == pytest.approx(
                original.load_time_s, rel=1e-9
            )
            assert refit.power_w == pytest.approx(original.power_w, rel=1e-9)

    def test_publish_meta_carries_the_harvest_counts(
        self, small_predictor, tmp_path
    ):
        store, requests, _ = _harvested_store(tmp_path, small_predictor)
        registry = ModelRegistry(tmp_path / "registry")
        result = retrain_from_telemetry(
            store, small_predictor, registry=registry, parent_version=None
        )
        meta = registry.meta(result.version)
        assert meta["source"] == "retrain"
        assert meta["records_seen"] == len(requests)
        assert meta["ridge_cross"] == 0.0

    def test_empty_store_is_an_error(self, small_predictor, tmp_path):
        store = TelemetryStore(tmp_path / "telemetry")
        with pytest.raises(ValueError, match="no trainable telemetry"):
            retrain_from_telemetry(store, small_predictor)
