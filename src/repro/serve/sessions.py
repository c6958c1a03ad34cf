"""Per-device session state for the decision service.

On the phone, DORA's state lives in the governor process: the page
census arrives before rendering, counter observations refresh every
decision interval, and the actuator remembers the current frequency so
unchanged decisions skip the switch.  Served fleet-side, that state
becomes a session: one entry per device, refreshed by every request,
and evicted after a TTL of silence (a device that stopped asking has
finished its load or gone offline).

The registry is deliberately clock-injected: production uses
``time.monotonic``, tests and the load generator drive a virtual clock
so TTL behaviour is deterministic.  Clocks must be monotone (both are);
TTL bookkeeping relies on activity timestamps never going backwards.

Eviction is O(evicted), not O(active): every touch appends
``(last_seen_s, device_id)`` to a monotone deque, and
:meth:`SessionRegistry.evict_expired` pops only the prefix that has
aged past the TTL, lazily discarding entries superseded by a later
touch.  :meth:`~repro.serve.fleet.FleetDecisionService.flush`, which
evicts after every drain, therefore costs a single deque-head
comparison over a million live sessions when nothing expired, instead
of a full dictionary scan.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.browser.dom import PageFeatures

#: Rebuild the expiry deque once it holds this many entries per live
#: session (plus slack): hot devices touched many times inside one TTL
#: window would otherwise grow it without bound.
_COMPACTION_FACTOR = 4
_COMPACTION_SLACK = 64


@dataclass
class DeviceSession:
    """Everything the service remembers about one device.

    Attributes:
        device_id: Stable client identifier.
        page: Census of the page the device is currently loading.
        corunner_mpki: Last observed co-runner shared-L2 MPKI.
        corunner_utilization: Last observed co-runner utilization.
        temperature_c: Last observed package temperature.
        current_freq_hz: The frequency the service last told the
            device to run at (0 before the first decision).
        deadline_s: QoS deadline of the last accepted request
            (``None`` before the first decision).
        decisions: Number of accepted decisions served.
        rejections: Number of requests rejected at admission.
        skips: Number of requests answered from the skip cache
            (fleet front-end; always 0 on a plain service).
        last_response: The anchor ``DecisionResponse`` the fleet skip
            cache replays while this session's feature/condition
            vector is unchanged (``None`` when no cache is attached).
        created_s: Registry-clock time the session was created.
        last_seen_s: Registry-clock time of the latest request.
    """

    device_id: str
    page: PageFeatures | None = None
    corunner_mpki: float = 0.0
    corunner_utilization: float = 0.0
    temperature_c: float = 45.0
    current_freq_hz: float = 0.0
    deadline_s: float | None = None
    decisions: int = 0
    rejections: int = 0
    skips: int = 0
    last_response: object | None = None
    created_s: float = 0.0
    last_seen_s: float = 0.0


@dataclass
class SessionRegistry:
    """Device-session store with TTL eviction.

    Attributes:
        ttl_s: Seconds of silence after which a session is evicted.
        clock: Zero-argument monotonic-seconds source.
    """

    ttl_s: float = 300.0
    clock: Callable[[], float] = time.monotonic
    _sessions: dict[str, DeviceSession] = field(default_factory=dict)
    #: Monotone (last_seen_s, device_id) activity log backing
    #: O(evicted) TTL eviction; superseded entries are discarded
    #: lazily as they age past the TTL.
    _expiry: deque = field(default_factory=deque, repr=False)
    #: Total sessions ever evicted (telemetry).
    evicted_total: int = field(default=0, init=False)
    #: Activity-log entries examined by ``evict_expired`` (telemetry;
    #: tests pin the O(evicted) bound on it).
    expiry_scans: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.ttl_s <= 0:
            raise ValueError("session TTL must be positive")

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, device_id: str) -> bool:
        return device_id in self._sessions

    def get(self, device_id: str) -> DeviceSession | None:
        """The stored session for a device, without refreshing it.

        Pure dictionary lookup: a session silent past the TTL but not
        yet swept by :meth:`evict_expired` is still returned.  Readers
        that must not observe expired state (the fleet skip cache, whose
        anchors replay cached *decisions*) go through :meth:`live`.
        """
        return self._sessions.get(device_id)

    def live(self, device_id: str, now: float | None = None) -> DeviceSession | None:
        """The session for a device, ``None`` if absent *or expired*.

        Eviction is lazy (:meth:`evict_expired` runs on flushes), so a
        session can linger in the store after its TTL has elapsed.
        Anything that *reads* session state -- in particular the skip
        cache, which would otherwise replay a stale anchor recorded
        before the device went silent -- must use this accessor: the
        expiry check happens at read time, with the same exclusive
        boundary the sweeper uses (exactly ``ttl_s`` of silence is
        still live).
        """
        now = self.clock() if now is None else now
        session = self._sessions.get(device_id)
        if session is None or now - session.last_seen_s > self.ttl_s:
            return None
        return session

    def clear_anchors(self) -> int:
        """Drop every session's cached anchor response.

        Called on a model hot-swap: anchors replay *decisions*, and a
        decision cached under the old model must not short-circuit
        requests the new model would answer differently.  Session
        identity, counters and condition state survive -- only the
        replayable responses go.

        Returns:
            The number of anchors cleared.
        """
        cleared = 0
        for device_id in sorted(self._sessions):
            session = self._sessions[device_id]
            if session.last_response is not None:
                session.last_response = None
                cleared += 1
        return cleared

    def active_ids(self) -> tuple[str, ...]:
        """Device ids with a live session, oldest-created first."""
        return tuple(self._sessions)

    def refresh(self, session: DeviceSession, now: float) -> None:
        """Refresh an already-fetched live session's ``last_seen_s``.

        The skip cache's hot path: it has the session in hand, so
        re-resolving the device id through :meth:`touch` would pay a
        second dictionary lookup per hit.
        """
        session.last_seen_s = now
        self._note_activity(session.device_id, now)

    def touch(self, device_id: str, now: float | None = None) -> DeviceSession:
        """Fetch-or-create a session and refresh its ``last_seen_s``.

        A session silent past the TTL is dead even before the sweeper
        removes it: it is evicted here and a fresh one created, so
        nothing it held -- the skip cache's anchor above all -- comes
        back to life with the device.
        """
        now = self.clock() if now is None else now
        session = self._sessions.get(device_id)
        if session is not None and now - session.last_seen_s > self.ttl_s:
            del self._sessions[device_id]
            self.evicted_total += 1
            session = None
        if session is None:
            session = DeviceSession(
                device_id=device_id, created_s=now, last_seen_s=now
            )
            self._sessions[device_id] = session
        else:
            session.last_seen_s = now
        self._note_activity(device_id, now)
        return session

    def record_decision(
        self,
        device_id: str,
        page: PageFeatures,
        corunner_mpki: float,
        corunner_utilization: float,
        temperature_c: float,
        freq_hz: float,
        now: float | None = None,
        deadline_s: float | None = None,
        response: object | None = None,
    ) -> DeviceSession:
        """Update a session with a served decision's inputs and output.

        Args:
            deadline_s: The request's QoS deadline, kept so a skip
                cache can require deadline equality on later hits.
            response: Optional anchor response for the skip cache
                (left untouched when omitted, so a plain service never
                pays the storage).
        """
        session = self.touch(device_id, now)
        session.page = page
        session.corunner_mpki = corunner_mpki
        session.corunner_utilization = corunner_utilization
        session.temperature_c = temperature_c
        session.current_freq_hz = freq_hz
        if deadline_s is not None:
            session.deadline_s = deadline_s
        if response is not None:
            session.last_response = response
        session.decisions += 1
        return session

    def record_rejection(
        self, device_id: str, now: float | None = None
    ) -> DeviceSession:
        """Note a rejected request (the device still counts as seen)."""
        session = self.touch(device_id, now)
        session.rejections += 1
        return session

    # ------------------------------------------------------------------
    # TTL eviction
    # ------------------------------------------------------------------
    def _note_activity(self, device_id: str, now: float) -> None:
        self._expiry.append((now, device_id))
        if (
            len(self._expiry)
            > _COMPACTION_FACTOR * len(self._sessions) + _COMPACTION_SLACK
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the activity log with one entry per live session."""
        self._expiry = deque(
            sorted(
                (session.last_seen_s, device_id)
                for device_id, session in self._sessions.items()
            )
        )

    def evict_expired(self, now: float | None = None) -> tuple[str, ...]:
        """Drop sessions silent for longer than the TTL.

        Pops the aged prefix of the activity log: entries superseded by
        a later touch are discarded, entries that still name a
        session's latest activity evict it.  The loop stops at the
        first entry inside the TTL window, so the cost is proportional
        to what actually expired (plus superseded stale entries), not
        to the number of active sessions.

        Returns:
            The evicted device ids, oldest activity first (possibly
            empty).
        """
        now = self.clock() if now is None else now
        cutoff = now - self.ttl_s
        expired: list[str] = []
        while self._expiry:
            seen_s, device_id = self._expiry[0]
            if seen_s >= cutoff:
                break  # everything behind it is younger still
            self._expiry.popleft()
            self.expiry_scans += 1
            session = self._sessions.get(device_id)
            if session is None or session.last_seen_s > seen_s:
                continue  # evicted already, or touched since
            del self._sessions[device_id]
            expired.append(device_id)
        self.evicted_total += len(expired)
        return tuple(expired)
