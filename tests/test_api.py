"""Top-level API tests (quick_run plumbing)."""

import pytest

import repro
import repro.api


@pytest.fixture(autouse=True)
def small_bundle(monkeypatch, small_models):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setattr(
        repro.api, "default_predictor", lambda config=None: small_models.predictor
    )


class TestQuickRun:
    def test_dora_run_returns_a_result(self):
        result = repro.quick_run("amazon", kernel="bfs", governor="DORA")
        assert result.load_time_s is not None
        assert result.ppw > 0
        assert result.governor_name == "DORA"

    def test_governor_names_are_case_insensitive(self):
        result = repro.quick_run("amazon", governor="dora_no_lkg")
        assert result.governor_name == "DORA_no_lkg"

    def test_ondemand_resolves_like_every_listed_governor(self):
        result = repro.quick_run("amazon", governor="ONDEMAND")
        assert result.governor_name == "ondemand"

    def test_plain_governors_skip_training(self):
        result = repro.quick_run("amazon", governor="performance")
        assert result.governor_name == "performance"

    def test_unknown_governor_rejected(self):
        with pytest.raises(KeyError):
            repro.quick_run("amazon", governor="warp-speed")

    def test_unknown_page_rejected(self):
        with pytest.raises(KeyError):
            repro.quick_run("geocities", governor="performance")

    def test_trace_recording_toggle(self):
        traced = repro.quick_run("amazon", governor="performance")
        untraced = repro.quick_run(
            "amazon", governor="performance", record_trace=False
        )
        assert len(traced.trace) > 0
        assert len(untraced.trace) == 0

    def test_deadline_is_forwarded(self):
        tight = repro.quick_run(
            "espn", kernel="backprop", governor="DORA", deadline_s=1.0
        )
        loose = repro.quick_run(
            "espn", kernel="backprop", governor="DORA", deadline_s=30.0
        )
        assert tight.decisions.frequencies_hz[-1] >= (
            loose.decisions.frequencies_hz[-1]
        )

    def test_lazy_wrappers_resolve(self):
        assert repro.__version__ == "1.0.0"
        assert callable(repro.default_predictor)
