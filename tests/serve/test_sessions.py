"""Device-session registry: touch, decision recording, TTL eviction."""

import math

import pytest

from repro.browser.pages import page_by_name
from repro.serve.sessions import SessionRegistry


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return _Clock()


@pytest.fixture
def registry(clock):
    return SessionRegistry(ttl_s=10.0, clock=clock)


class TestTtlValidation:
    @pytest.mark.parametrize("ttl_s", [math.nan, 0.0, -1.0, -math.inf])
    def test_a_ttl_outside_the_positive_range_is_refused(self, ttl_s):
        # A NaN TTL would make ``live`` keep every session while
        # ``evict_expired`` dropped them all.
        with pytest.raises(ValueError, match="TTL must be positive"):
            SessionRegistry(ttl_s=ttl_s)

    def test_an_infinite_ttl_never_expires(self, clock):
        registry = SessionRegistry(ttl_s=math.inf, clock=clock)
        registry.touch("a")
        clock.now = 1e12
        assert registry.live("a") is not None
        assert registry.evict_expired() == ()
        assert "a" in registry


class TestLifecycle:
    def test_touch_creates_then_refreshes(self, registry, clock):
        session = registry.touch("phone-1")
        assert session.created_s == 0.0
        assert len(registry) == 1
        clock.now = 4.0
        again = registry.touch("phone-1")
        assert again is session
        assert again.last_seen_s == 4.0
        assert again.created_s == 0.0

    def test_record_decision_updates_state(self, registry):
        page = page_by_name("amazon").features
        session = registry.record_decision(
            "phone-1",
            page=page,
            corunner_mpki=3.0,
            corunner_utilization=0.4,
            temperature_c=52.0,
            freq_hz=1.19e9,
        )
        assert session.page is page
        assert session.current_freq_hz == 1.19e9
        assert session.decisions == 1
        assert session.rejections == 0

    def test_record_rejection_counts(self, registry):
        registry.record_rejection("phone-2")
        registry.record_rejection("phone-2")
        assert registry.get("phone-2").rejections == 2

    def test_contains_and_active_ids(self, registry):
        registry.touch("a")
        registry.touch("b")
        assert "a" in registry
        assert "missing" not in registry
        assert registry.active_ids() == ("a", "b")


class TestTtlEviction:
    def test_silent_sessions_expire(self, registry, clock):
        registry.touch("old")
        clock.now = 8.0
        registry.touch("fresh")
        clock.now = 11.0  # old silent for 11 s > 10 s TTL, fresh for 3 s
        assert registry.evict_expired() == ("old",)
        assert "old" not in registry
        assert "fresh" in registry
        assert registry.evicted_total == 1

    def test_activity_resets_the_clock(self, registry, clock):
        registry.touch("busy")
        clock.now = 9.0
        registry.touch("busy")
        clock.now = 15.0  # 6 s since last touch: still live
        assert registry.evict_expired() == ()

    def test_boundary_is_exclusive(self, registry, clock):
        registry.touch("edge")
        clock.now = 10.0  # exactly the TTL: not yet expired
        assert registry.evict_expired() == ()
        clock.now = 10.0001
        assert registry.evict_expired() == ("edge",)

    def test_touch_after_the_ttl_starts_a_fresh_session(
        self, registry, clock
    ):
        registry.record_rejection("gone")
        registry.touch("other")
        registry.get("gone").last_response = "anchor"
        clock.now = 10.0001  # silent past the TTL, not yet swept
        session = registry.record_rejection("gone")
        assert session.created_s == 10.0001
        assert (session.rejections, session.last_response) == (1, None)
        assert registry.evicted_total == 1
        # The replacement is the youngest session, and the sweeper
        # leaves it alone.
        assert registry.active_ids() == ("other", "gone")
        assert registry.evict_expired() == ("other",)

    def test_ttl_must_be_positive(self):
        with pytest.raises(ValueError, match="TTL"):
            SessionRegistry(ttl_s=0.0)

    def test_eviction_order_is_oldest_activity_first(self, registry, clock):
        for index, device in enumerate(("c", "a", "b")):
            clock.now = float(index)
            registry.touch(device)
        clock.now = 100.0
        assert registry.evict_expired() == ("c", "a", "b")

    def test_refresh_keeps_a_fetched_session_alive(self, registry, clock):
        session = registry.touch("phone-1")
        clock.now = 8.0
        registry.refresh(session, clock.now)
        assert session.last_seen_s == 8.0
        clock.now = 15.0  # 7 s since the refresh: inside the TTL
        assert registry.evict_expired() == ()
        clock.now = 19.0
        assert registry.evict_expired() == ("phone-1",)

    def test_anchor_fields_are_recorded(self, registry):
        page = page_by_name("amazon").features
        anchor = object()
        session = registry.record_decision(
            "phone-1",
            page=page,
            corunner_mpki=3.0,
            corunner_utilization=0.4,
            temperature_c=52.0,
            freq_hz=1.19e9,
            deadline_s=2.5,
            response=anchor,
        )
        assert session.deadline_s == 2.5
        assert session.last_response is anchor
        # Omitting them on a later decision leaves both untouched, so a
        # plain (cacheless) service never clears fleet anchors.
        registry.record_decision(
            "phone-1",
            page=page,
            corunner_mpki=3.5,
            corunner_utilization=0.4,
            temperature_c=52.0,
            freq_hz=1.19e9,
        )
        assert session.deadline_s == 2.5
        assert session.last_response is anchor


class TestLiveReads:
    """TTL enforcement at read time: eviction is lazy, ``live`` is not."""

    def test_live_inside_the_ttl(self, registry, clock):
        session = registry.touch("phone-1")
        clock.now = 9.0
        assert registry.live("phone-1") is session

    def test_boundary_matches_the_sweeper(self, registry, clock):
        # Exactly the TTL of silence: the sweeper keeps it, so a read
        # must too -- the two rules share the exclusive boundary.
        registry.touch("edge")
        clock.now = 10.0
        assert registry.live("edge") is not None
        clock.now = 10.0001
        assert registry.live("edge") is None

    def test_expired_session_is_dead_before_eviction_runs(
        self, registry, clock
    ):
        registry.touch("phone-1")
        clock.now = 11.0
        # The sweeper has not run: the store still holds the session...
        assert registry.get("phone-1") is not None
        # ... but a TTL-aware read must not resurrect it.  This is the
        # skip-cache staleness hole: lookup via ``get`` would replay an
        # anchor the TTL already declared dead.
        assert registry.live("phone-1") is None

    def test_unknown_device(self, registry):
        assert registry.live("missing") is None

    def test_explicit_now_overrides_the_clock(self, registry, clock):
        registry.touch("phone-1")
        clock.now = 50.0
        assert registry.live("phone-1", now=5.0) is not None


class TestAnchorClearing:
    def test_clear_anchors_counts_only_anchored_sessions(self, registry):
        page = page_by_name("amazon").features
        registry.record_decision(
            "anchored",
            page=page,
            corunner_mpki=3.0,
            corunner_utilization=0.4,
            temperature_c=52.0,
            freq_hz=1.19e9,
            response=object(),
        )
        registry.record_decision(
            "plain",
            page=page,
            corunner_mpki=3.0,
            corunner_utilization=0.4,
            temperature_c=52.0,
            freq_hz=1.19e9,
        )
        assert registry.clear_anchors() == 1
        assert registry.get("anchored").last_response is None
        # Sessions survive; only the replayable responses are dropped.
        assert "anchored" in registry
        assert registry.clear_anchors() == 0


class TestEvictionCost:
    """The satellite-1 bound: eviction work scales with what expired."""

    def test_quiet_polls_examine_nothing(self, registry, clock):
        for device in range(500):
            registry.touch(f"phone-{device}")
        clock.now = 5.0  # everyone inside the TTL
        for _ in range(100):
            assert registry.evict_expired() == ()
        # O(evicted): 100 polls over 500 live sessions never pop a
        # single activity-log entry -- the deque-head check suffices.
        assert registry.expiry_scans == 0

    def test_scans_are_proportional_to_expiries(self, registry, clock):
        for device in range(100):
            registry.touch(f"old-{device}")
        clock.now = 9.0
        for device in range(100):
            registry.touch(f"fresh-{device}")
        clock.now = 11.0  # only the first hundred have aged out
        evicted = registry.evict_expired()
        assert len(evicted) == 100
        assert registry.expiry_scans == 100

    def test_the_store_is_ordered_by_last_activity(self, registry, clock):
        registry.touch("hot")
        registry.touch("cold")
        for step in range(10_000):
            clock.now = step * 1e-3
            registry.touch("hot")
        # One entry per session, however often a device is touched.
        assert len(registry._sessions) == 2
        assert registry.active_ids() == ("cold", "hot")
        # A refresh moves a session to the end as well.
        clock.now = 10.0
        registry.refresh(registry.get("cold"), clock.now)
        assert registry.active_ids() == ("hot", "cold")
        # Eviction follows last activity: "hot" (last seen at 9.999 s)
        # ages out first, and only the popped sessions are examined.
        clock.now = 20.0
        assert registry.evict_expired() == ("hot",)
        assert registry.expiry_scans == 1
        clock.now = 100.0
        assert registry.evict_expired() == ("cold",)
        assert registry.expiry_scans == 2 == registry.evicted_total
