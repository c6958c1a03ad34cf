"""The router keeps its session store in last-activity order.

Every request the router answers -- a rejection, a skip-cache hit or
an evaluated miss -- moves its device to the end of the store, so TTL
eviction can pop the aged front.  A device whose session expired but
was not swept yet misses the cache and gets a fresh session, also at
the end.
"""

import subprocess
import sys
from pathlib import Path

import repro
from repro.browser.pages import page_by_name
from repro.serve.fleet import FleetConfig, FleetDecisionService
from repro.serve.service import DecisionRequest, ServiceConfig


def _request(device, deadline=3.0, mpki=2.0):
    return DecisionRequest(
        device_id=device,
        page=page_by_name("amazon").features,
        corunner_mpki=mpki,
        corunner_utilization=0.5,
        temperature_c=48.0,
        deadline_s=deadline,
    )


def _fleet(predictor, ttl_s=300.0):
    return FleetDecisionService(
        predictor,
        FleetConfig(service=ServiceConfig(max_batch_size=1, session_ttl_s=ttl_s)),
        clock=lambda: 0.0,
    )


def _seed(fleet, devices, now=0.0):
    for device in devices:
        [response] = fleet.submit(_request(device), now=now)
        assert not response.trace.skipped
    assert fleet.registry.active_ids() == tuple(devices)


def test_a_rejection_moves_the_device_to_the_end(small_predictor):
    with _fleet(small_predictor) as fleet:
        _seed(fleet, ("a", "b", "c"))
        [rejected] = fleet.submit(_request("a", deadline=0.02), now=1.0)
        assert not rejected.accepted
        assert fleet.registry.active_ids() == ("b", "c", "a")


def test_a_hit_moves_the_device_to_the_end(small_predictor):
    with _fleet(small_predictor) as fleet:
        _seed(fleet, ("a", "b", "c"))
        [hit] = fleet.submit(_request("a"), now=1.0)
        assert hit.trace.skipped
        assert fleet.registry.active_ids() == ("b", "c", "a")
        assert fleet.registry.get("a").last_seen_s == 1.0


def test_a_miss_moves_the_device_to_the_end(small_predictor):
    with _fleet(small_predictor) as fleet:
        _seed(fleet, ("a", "b", "c"))
        [miss] = fleet.submit(_request("b", mpki=7.0), now=1.0)
        assert not miss.trace.skipped
        assert fleet.registry.active_ids() == ("a", "c", "b")
        assert fleet.registry.get("b").last_response is miss


def test_an_expired_unswept_session_misses_and_is_recreated_at_the_end(
    small_predictor,
):
    with _fleet(small_predictor, ttl_s=5.0) as fleet:
        _seed(fleet, ("a", "b"))
        [hit] = fleet.submit(_request("b"), now=4.0)
        assert hit.trace.skipped
        old = fleet.registry.get("a")
        # "a" has been silent for more than the TTL; no flush swept it.
        [miss] = fleet.submit(_request("a"), now=6.0)
        assert not miss.trace.skipped
        session = fleet.registry.get("a")
        assert session is not old
        assert (session.created_s, session.decisions) == (6.0, 1)
        assert session.last_response is miss
        assert fleet.registry.active_ids() == ("b", "a")
        assert fleet.registry.evicted_total == 1
        assert fleet.stats.skips_total == 1


def test_serving_imports_no_scipy():
    """Loading and serving a bundle never import ``scipy.optimize``
    (only the leakage fit needs it)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import repro.serve.fleet, repro.models.serialization\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
