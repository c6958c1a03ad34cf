"""Telemetry store: record shape, fsync batching, partitioning, torn
tails."""

import json

import numpy as np
import pytest

from repro.browser.pages import page_by_name
from repro.learn.telemetry import (
    REQUIRED_FIELDS,
    TELEMETRY_SCHEMA,
    TelemetryStore,
    TelemetryWriter,
    decision_record,
)
from repro.serve.service import DecisionRequest, DecisionResponse, DecisionTrace


def _record(device="phone-0", mpki=2.0, accepted=True):
    return {
        "device_id": device,
        "page": [1500, 150, 300, 280, 120],
        "corunner_mpki": mpki,
        "corunner_utilization": 0.5,
        "temperature_c": 48.0,
        "deadline_s": 3.0,
        "fopt_hz": 1.19e9,
        "accepted": accepted,
    }


class TestDecisionRecord:
    def test_carries_every_required_field(self):
        request = DecisionRequest(
            device_id="phone-7",
            page=page_by_name("amazon").features,
            corunner_mpki=3.25,
            corunner_utilization=0.75,
            temperature_c=51.5,
            deadline_s=2.5,
        )
        response = DecisionResponse(
            request_id=42,
            device_id="phone-7",
            fopt_hz=1.7280e9,
            accepted=True,
            queue_delay_s=0.0,
            trace=None,
        )
        record = decision_record(request, response, now_s=1.5, model_version=3)
        for field in REQUIRED_FIELDS:
            assert field in record
        assert record["page"] == list(request.page.as_tuple())
        assert record["model_version"] == 3
        assert record["skipped"] is False
        assert record["simulated_load_time_s"] is None

    def test_records_of_each_response_kind_are_pinned(self):
        """An evaluated answer, its skip-cache replay and a rejection
        each give the record below, key order included."""
        request = DecisionRequest(
            device_id="phone-7",
            page=page_by_name("amazon").features,
            corunner_mpki=3.25,
            corunner_utilization=0.75,
            temperature_c=51.5,
            deadline_s=2.5,
        )
        row = dict(
            candidate_index=2, load_time_s=1.25, power_w=2.5, ppw=0.32,
            effective_deadline_s=2.5, feasible=True, batch_size=3,
        )
        evaluated = DecisionResponse(
            request_id=42, device_id="phone-7", fopt_hz=1.728e9,
            accepted=True, queue_delay_s=0.004, trace=DecisionTrace(**row),
        )
        replayed = DecisionResponse(
            request_id=43, device_id="phone-7", fopt_hz=1.728e9,
            accepted=True, trace=DecisionTrace(**row, skipped=True),
        )
        rejected = DecisionResponse(
            request_id=44, device_id="phone-7", fopt_hz=2.2656e9,
            accepted=False,
        )
        inputs = {
            "page": list(request.page.as_tuple()),
            "corunner_mpki": 3.25,
            "corunner_utilization": 0.75,
            "temperature_c": 51.5,
            "deadline_s": 2.5,
        }
        outcome = {"simulated_load_time_s": None, "simulated_energy_j": None}
        for response, skipped, fopt_hz, predicted in (
            (evaluated, False, 1.728e9, (1.25, 2.5)),
            (replayed, True, 1.728e9, (1.25, 2.5)),
            (rejected, False, 2.2656e9, (None, None)),
        ):
            record = decision_record(request, response, now_s=1.5, model_version=3)
            expected = {
                "device_id": "phone-7",
                "ticket": response.request_id,
                "now_s": 1.5,
                **inputs,
                "accepted": response.accepted,
                "skipped": skipped,
                "fopt_hz": fopt_hz,
                "predicted_load_time_s": predicted[0],
                "predicted_power_w": predicted[1],
                "model_version": 3,
                **outcome,
            }
            assert record == expected
            assert list(record) == list(expected)
            assert json.dumps(record) == json.dumps(expected)

    def test_schema_tag_is_versioned(self):
        assert TELEMETRY_SCHEMA.endswith("/1")


class TestWriterBatching:
    def test_records_buffer_until_the_batch_boundary(self, tmp_path):
        path = tmp_path / "shard-0000.jsonl"
        writer = TelemetryWriter(path, batch_size=4)
        for index in range(3):
            writer.append(_record(mpki=float(index)))
        # Below the batch size nothing has been synced yet.
        assert writer.sync_batches == 0
        assert path.read_text() == ""
        writer.append(_record(mpki=3.0))
        assert writer.sync_batches == 1
        assert writer.records_written == 4
        assert len(path.read_text().splitlines()) == 4
        writer.close()

    def test_close_flushes_the_tail(self, tmp_path):
        path = tmp_path / "shard-0000.jsonl"
        with TelemetryWriter(path, batch_size=64) as writer:
            writer.append(_record())
        assert writer.records_written == 1
        assert len(path.read_text().splitlines()) == 1
        writer.close()  # idempotent

    def test_missing_fields_are_rejected(self, tmp_path):
        writer = TelemetryWriter(tmp_path / "s.jsonl", batch_size=1)
        bad = _record()
        del bad["fopt_hz"]
        with pytest.raises(ValueError, match="fopt_hz"):
            writer.append(bad)
        writer.close()

    def test_batch_size_floor(self, tmp_path):
        with pytest.raises(ValueError, match="batch size"):
            TelemetryWriter(tmp_path / "s.jsonl", batch_size=0)

    def test_lines_round_trip_floats_exactly(self, tmp_path):
        path = tmp_path / "shard-0000.jsonl"
        record = _record(mpki=2.0 / 3.0)
        with TelemetryWriter(path, batch_size=1) as writer:
            writer.append(record)
        replayed = json.loads(path.read_text())
        assert replayed["corunner_mpki"] == record["corunner_mpki"]


class TestStorePartitioning:
    def test_records_land_under_the_fingerprint(self, tmp_path):
        store = TelemetryStore(tmp_path, fingerprint="cafe0123")
        assert store.partition == tmp_path / "cafe0123"
        assert store.shard_path(3).name == "shard-0003.jsonl"
        with pytest.raises(ValueError, match="shard index"):
            store.shard_path(-1)

    def test_different_calibrations_never_mix(self, tmp_path):
        old = TelemetryStore(tmp_path, fingerprint="aaaa")
        new = TelemetryStore(tmp_path, fingerprint="bbbb")
        with old.writer() as writer:
            writer.append(_record(device="old-phone"))
        with new.writer() as writer:
            writer.append(_record(device="new-phone"))
        devices = {record["device_id"] for record in new.iter_records()}
        assert devices == {"new-phone"}

    def test_iter_is_shard_major_append_order(self, tmp_path):
        store = TelemetryStore(tmp_path, fingerprint="cafe", batch_size=1)
        with store.writer(shard=1) as writer:
            writer.append(_record(device="s1-a"))
        with store.writer(shard=0) as writer:
            writer.append(_record(device="s0-a"))
            writer.append(_record(device="s0-b"))
        devices = [record["device_id"] for record in store.iter_records()]
        assert devices == ["s0-a", "s0-b", "s1-a"]
        assert store.record_count() == 3

    def test_export_npz_encodes_missing_outcomes_as_nan(self, tmp_path):
        store = TelemetryStore(tmp_path, fingerprint="cafe", batch_size=1)
        with store.writer() as writer:
            record = _record()
            record["simulated_load_time_s"] = 1.25
            writer.append(record)
            writer.append(_record(accepted=False))
        out = tmp_path / "telemetry.npz"
        assert store.export_npz(out) == 2
        arrays = np.load(out)
        assert arrays["accepted"].tolist() == [True, False]
        assert arrays["simulated_load_time_s"][0] == 1.25
        assert np.isnan(arrays["simulated_energy_j"]).all()


def _tear(path, device="torn"):
    """Append the first half of a record line, as a crashed sync would."""
    line = json.dumps(_record(device=device), sort_keys=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line[: len(line) // 2])


def _devices(store):
    return [record["device_id"] for record in store.iter_records()]


class TestTornTails:
    @pytest.fixture()
    def store(self, tmp_path):
        store = TelemetryStore(tmp_path, fingerprint="cafe", batch_size=1)
        with store.writer() as writer:
            writer.append(_record(device="whole-a"))
            writer.append(_record(device="whole-b"))
        _tear(store.shard_path(0))
        return store

    def test_reader_skips_a_torn_last_line(self, store, tmp_path):
        assert _devices(store) == ["whole-a", "whole-b"]
        assert store.record_count() == 2
        assert store.export_npz(tmp_path / "telemetry.npz") == 2

    def test_reader_raises_on_a_bad_line_with_records_after_it(
        self, tmp_path
    ):
        store = TelemetryStore(tmp_path, fingerprint="cafe")
        whole = json.dumps(_record(), sort_keys=True)
        store.shard_path(0).write_text(f"{whole}\n{{not json\n{whole}\n")
        with pytest.raises(json.JSONDecodeError):
            list(store.iter_records())

    def test_restarted_writer_truncates_the_torn_tail(self, store):
        with store.writer() as writer:
            writer.append(_record(device="after-restart"))
        assert _devices(store) == ["whole-a", "whole-b", "after-restart"]
        assert store.shard_path(0).read_text().endswith("\n")

    def test_a_shard_holding_only_a_fragment_is_emptied(self, tmp_path):
        store = TelemetryStore(tmp_path, fingerprint="cafe", batch_size=1)
        _tear(store.shard_path(0))
        with store.writer() as writer:
            writer.append(_record(device="first"))
        assert _devices(store) == ["first"]
