"""Shard layer: partitioning, worker protocol, crash recovery."""

import os

import pytest

from repro.browser.pages import page_by_name
from repro.runtime.jobs import JobError
from repro.runtime.pool import FORCE_POOL_ENV
from repro.serve.fleet import DecisionService
from repro.serve.service import DecisionRequest, ServiceConfig
from repro.serve.shard import ProcessShard, SerialShard, make_shards, shard_for


def _request(device="phone-0", mpki=2.0):
    return DecisionRequest(
        device_id=device,
        page=page_by_name("amazon").features,
        corunner_mpki=mpki,
        corunner_utilization=0.5,
        temperature_c=48.0,
    )


class TestShardFor:
    def test_deterministic_and_in_range(self):
        for shards in (1, 2, 4, 7):
            for device in range(50):
                index = shard_for(f"device-{device:04d}", shards)
                assert 0 <= index < shards
                assert index == shard_for(f"device-{device:04d}", shards)

    def test_single_shard_owns_everything(self):
        assert shard_for("anything", 1) == 0

    def test_partition_actually_spreads(self):
        owners = {shard_for(f"device-{d:04d}", 4) for d in range(64)}
        assert owners == {0, 1, 2, 3}

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="at least one shard"):
            shard_for("x", 0)


class TestSerialShard:
    def test_dispatch_then_collect_round_trip(self, small_predictor):
        shard = SerialShard(0, small_predictor, ServiceConfig())
        shard.dispatch([10, 11], [_request("a"), _request("b")])
        [(tickets, answers)] = shard.collect()
        assert tickets == [10, 11]
        assert [trace.batch_size for _, trace in answers] == [2, 2]
        assert shard.collect() == []

    def test_answers_match_a_plain_service(self, small_predictor):
        requests = [_request(f"d{i}", mpki=float(i)) for i in range(6)]
        shard = SerialShard(0, small_predictor, ServiceConfig())
        shard.dispatch(list(range(6)), requests)
        [(_, answers)] = shard.drain()
        expected = DecisionService(small_predictor).decide(requests, now=0.0)
        assert [fopt for fopt, _ in answers] == [r.fopt_hz for r in expected]


@pytest.fixture
def force_pool(monkeypatch):
    """Run real worker processes even on single-CPU hosts."""
    monkeypatch.setenv(FORCE_POOL_ENV, "1")


class TestProcessShard:
    def _shard(self, predictor, **kwargs):
        return ProcessShard(0, predictor, ServiceConfig(), **kwargs)

    def test_round_trip_matches_serial(self, small_predictor, force_pool):
        requests = [_request(f"d{i}", mpki=float(i)) for i in range(5)]
        shard = self._shard(small_predictor)
        try:
            shard.dispatch(list(range(5)), requests)
            [(tickets, answers)] = shard.drain()
        finally:
            shard.close()
        reference = DecisionService(small_predictor).decide(requests, now=0.0)
        assert tickets == [0, 1, 2, 3, 4]
        assert [fopt for fopt, _ in answers] == [r.fopt_hz for r in reference]

    def test_worker_runs_in_another_process(self, small_predictor, force_pool):
        shard = self._shard(small_predictor)
        try:
            assert shard.worker._process.pid != os.getpid()
            shard.dispatch([0], [_request()])
            shard.drain()
        finally:
            shard.close()

    def test_crash_mid_flight_recovers_with_same_answers(
        self, small_predictor, force_pool
    ):
        requests = [_request(f"d{i}", mpki=float(i)) for i in range(4)]
        shard = self._shard(small_predictor, backoff_s=0.0)
        try:
            # Kill the worker before it can answer; the drain must spot
            # the EOF, respawn, re-dispatch, and still return the exact
            # reference bits (retry is idempotent by construction).
            shard.worker._process.kill()
            shard.worker._process.join(5.0)
            shard.dispatch(list(range(4)), requests)
            [(tickets, answers)] = shard.drain()
        finally:
            shard.close()
        reference = DecisionService(small_predictor).decide(requests, now=0.0)
        assert shard.restarts >= 1
        assert tickets == [0, 1, 2, 3]
        assert [fopt for fopt, _ in answers] == [r.fopt_hz for r in reference]

    def test_crashes_exhaust_bounded_attempts(self, small_predictor, force_pool):
        shard = self._shard(small_predictor, max_attempts=1, backoff_s=0.0)
        try:
            shard.worker._process.kill()
            shard.worker._process.join(5.0)
            # The recovery may trip in dispatch (broken pipe on send) or
            # in drain (EOF on poll) depending on pipe buffering; both
            # must give up after the single allowed attempt.
            with pytest.raises(JobError, match="attempts"):
                shard.dispatch([0], [_request()])
                shard.drain()
        finally:
            shard.close()

    def test_worker_error_reply_raises(self, small_predictor, force_pool):
        shard = self._shard(small_predictor)
        try:
            # A non-request payload makes the worker's decide raise; the
            # error comes back as a reply, not a hang or a crash.
            shard.dispatch([0], [object()])
            with pytest.raises(JobError, match="worker error"):
                shard.drain()
        finally:
            shard.close()


def _varied(count=6):
    return [_request(f"d{i}", mpki=0.5 + 1.1 * i) for i in range(count)]


class TestModelSwap:
    """The swap verb is a batch boundary: it never changes the decisions
    of tickets already handed to the shard."""

    def test_serial_swap_respects_dispatch_order(
        self, small_predictor, alt_predictor
    ):
        requests = _varied()
        old = DecisionService(small_predictor).decide(requests, now=0.0)
        new = DecisionService(alt_predictor).decide(requests, now=0.0)
        assert [r.fopt_hz for r in old] != [r.fopt_hz for r in new]
        shard = SerialShard(0, small_predictor, ServiceConfig())
        shard.dispatch(list(range(6)), requests)
        shard.swap(alt_predictor)
        shard.dispatch(list(range(6, 12)), requests)
        [(_, before), (_, after)] = shard.drain()
        assert [fopt for fopt, _ in before] == [r.fopt_hz for r in old]
        assert [fopt for fopt, _ in after] == [r.fopt_hz for r in new]

    def test_pipe_swap_lands_behind_inflight_batches(
        self, small_predictor, alt_predictor, force_pool
    ):
        requests = _varied()
        old = DecisionService(small_predictor).decide(requests, now=0.0)
        new = DecisionService(alt_predictor).decide(requests, now=0.0)
        shard = ProcessShard(0, small_predictor, ServiceConfig())
        try:
            # The batch is in the pipe, not yet collected, when the swap
            # verb goes out; FIFO ordering must keep it on the old model.
            shard.dispatch(list(range(6)), requests)
            shard.swap(alt_predictor)
            shard.dispatch(list(range(6, 12)), requests)
            results = shard.drain()
        finally:
            shard.close()
        by_ticket = {tickets[0]: answers for tickets, answers in results}
        assert [fopt for fopt, _ in by_ticket[0]] == [r.fopt_hz for r in old]
        assert [fopt for fopt, _ in by_ticket[6]] == [r.fopt_hz for r in new]

    def test_crash_recovery_replays_the_swap_in_order(
        self, small_predictor, alt_predictor, force_pool
    ):
        requests = _varied()
        old = DecisionService(small_predictor).decide(requests, now=0.0)
        new = DecisionService(alt_predictor).decide(requests, now=0.0)
        shard = ProcessShard(0, small_predictor, ServiceConfig(), backoff_s=0.0)
        try:
            shard.dispatch(list(range(6)), requests)
            shard.swap(alt_predictor)
            shard.dispatch(list(range(6, 12)), requests)
            # Kill the worker with all three verbs potentially unanswered:
            # recovery must replay batch, swap, batch in insertion order.
            shard.worker._process.kill()
            shard.worker._process.join(5.0)
            results = shard.drain()
        finally:
            shard.close()
        assert shard.restarts >= 1
        by_ticket = {tickets[0]: answers for tickets, answers in results}
        assert [fopt for fopt, _ in by_ticket[0]] == [r.fopt_hz for r in old]
        assert [fopt for fopt, _ in by_ticket[6]] == [r.fopt_hz for r in new]


class TestMakeShards:
    def test_builds_the_requested_kind(self, small_predictor, monkeypatch):
        serial = make_shards(
            small_predictor, ServiceConfig(), shards=3, process_based=False
        )
        assert [type(s) for s in serial] == [SerialShard] * 3
        monkeypatch.setenv(FORCE_POOL_ENV, "1")
        procs = make_shards(
            small_predictor, ServiceConfig(), shards=2, process_based=True
        )
        try:
            assert [type(s) for s in procs] == [ProcessShard] * 2
            assert [s.index for s in procs] == [0, 1]
        finally:
            for shard in procs:
                shard.close()
