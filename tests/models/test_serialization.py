"""Model persistence round-trip tests."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.browser.dom import PageFeatures
from repro.models.serialization import (
    load_predictor,
    predictor_from_dict,
    predictor_to_dict,
    save_predictor,
)


def _first_segment(data, surface):
    segments = data[surface]["segments"]
    return segments[next(iter(segments))]


def _nan_coefficient(data):
    _first_segment(data, "load_time_model")["coefficients"][0] = math.nan


def _inf_mean(data):
    _first_segment(data, "power_model")["means"][0] = math.inf


def _negative_inf_scale(data):
    _first_segment(data, "load_time_model")["scales"][-1] = -math.inf


def _nan_segment_key(data):
    segments = data["power_model"]["segments"]
    segments["nan"] = segments.pop(next(iter(segments)))


def _inf_leakage_parameter(data):
    data["leakage"]["parameters"][2] = math.inf


def _nan_rms_error(data):
    data["leakage"]["rms_error_w"] = math.nan


def _nan_candidate_frequency(data):
    data["candidate_freqs_hz"] = [729.6e6, math.nan]


#: (in-place edit of a serialized bundle, pattern of the field the
#: error must name).
NON_FINITE_EDITS = [
    (_nan_coefficient, r"load_time_model\.segments\[.+\]\.coefficients"),
    (_inf_mean, r"power_model\.segments\[.+\]\.means"),
    (_negative_inf_scale, r"load_time_model\.segments\[.+\]\.scales"),
    (_nan_segment_key, r"power_model\.segments holds"),
    (_inf_leakage_parameter, r"leakage\.parameters"),
    (_nan_rms_error, r"leakage\.rms_error_w"),
    (_nan_candidate_frequency, r"candidate_freqs_hz"),
]


@pytest.fixture()
def census():
    return PageFeatures(1500, 150, 300, 280, 120)


class TestRoundTrip:
    def test_dict_round_trip_preserves_predictions(self, small_predictor, census):
        data = predictor_to_dict(small_predictor)
        rebuilt = predictor_from_dict(data)
        original = small_predictor.prediction_table(census, 5.0, 1.0, 55.0)
        restored = rebuilt.prediction_table(census, 5.0, 1.0, 55.0)
        for a, b in zip(original, restored):
            assert a.freq_hz == b.freq_hz
            assert a.load_time_s == pytest.approx(b.load_time_s, rel=1e-12)
            assert a.power_w == pytest.approx(b.power_w, rel=1e-12)

    def test_file_round_trip(self, small_predictor, census, tmp_path):
        path = tmp_path / "models.json"
        save_predictor(small_predictor, path)
        rebuilt = load_predictor(path)
        point = rebuilt.predict_at(census, 0.0, 0.0, 48.0, 2265.6e6)
        expected = small_predictor.predict_at(census, 0.0, 0.0, 48.0, 2265.6e6)
        assert point.load_time_s == pytest.approx(expected.load_time_s)

    def test_artifact_is_plain_json(self, small_predictor, tmp_path):
        path = tmp_path / "models.json"
        save_predictor(small_predictor, path)
        data = json.loads(path.read_text())
        assert data["format"] == "repro-dora-models"
        assert "load_time_model" in data
        assert "leakage" in data


@pytest.fixture(scope="module")
def rebuilt_predictor(small_predictor):
    """One dict round trip, shared across every property example."""
    return predictor_from_dict(predictor_to_dict(small_predictor))


class TestRoundTripProperty:
    """JSON floats round-trip exactly (repr emits the shortest string
    that parses back to the same double), so a persisted model must be
    *bit-identical* to the original -- the property the learn registry
    and the closed-loop retraining invariant build on."""

    @given(
        census=st.builds(
            PageFeatures,
            dom_nodes=st.integers(100, 9000),
            class_attributes=st.integers(0, 2000),
            href_attributes=st.integers(0, 1500),
            a_tags=st.integers(0, 1500),
            div_tags=st.integers(0, 3000),
        ),
        mpki=st.floats(0.0, 20.0),
        util=st.floats(0.0, 1.0),
        temp=st.floats(20.0, 80.0),
    )
    def test_bit_identical_on_the_page_frequency_grid(
        self, small_predictor, rebuilt_predictor, census, mpki, util, temp
    ):
        for freq_hz in small_predictor.candidates():
            original = small_predictor.predict_at(
                census, mpki, util, temp, freq_hz
            )
            restored = rebuilt_predictor.predict_at(
                census, mpki, util, temp, freq_hz
            )
            # Equality, not approx: the round trip may not move a bit.
            assert restored.load_time_s == original.load_time_s
            assert restored.power_w == original.power_w

    @given(temp=st.floats(20.0, 90.0))
    def test_leakage_round_trips_bit_for_bit(
        self, small_predictor, rebuilt_predictor, temp
    ):
        for state in small_predictor.spec.evaluation_states():
            assert rebuilt_predictor.leakage_model.predict(
                state.voltage_v, temp
            ) == small_predictor.leakage_model.predict(state.voltage_v, temp)


class TestValidation:
    def test_foreign_artifact_rejected(self):
        with pytest.raises(ValueError, match="not a repro"):
            predictor_from_dict({"format": "something-else"})

    def test_future_version_rejected(self, small_predictor):
        data = predictor_to_dict(small_predictor)
        data["version"] = 999
        with pytest.raises(ValueError, match="newer"):
            predictor_from_dict(data)

    def test_platform_mismatch_rejected(self, small_predictor):
        data = predictor_to_dict(small_predictor)
        data["platform"] = "pixel-9000"
        with pytest.raises(ValueError, match="trained for"):
            predictor_from_dict(data)

    @pytest.mark.parametrize(
        "edit,field",
        NON_FINITE_EDITS,
        ids=[edit.__name__.lstrip("_") for edit, _ in NON_FINITE_EDITS],
    )
    def test_non_finite_number_rejected(self, small_predictor, edit, field):
        data = predictor_to_dict(small_predictor)
        edit(data)
        with pytest.raises(ValueError, match=field):
            predictor_from_dict(data)

    def test_non_finite_number_rejected_from_a_file(
        self, small_predictor, tmp_path
    ):
        data = predictor_to_dict(small_predictor)
        _nan_coefficient(data)
        path = tmp_path / "models.json"
        path.write_text(json.dumps(data))
        assert "NaN" in path.read_text()
        with pytest.raises(ValueError, match="coefficients"):
            load_predictor(path)
