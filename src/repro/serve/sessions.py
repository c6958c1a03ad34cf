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

Eviction is O(evicted), not O(active): the store is ordered by last
activity, least recent first -- every touch moves its session to the
end -- so the sessions aged past the TTL are always a prefix, and
:meth:`SessionRegistry.evict_expired` pops only that prefix.
:meth:`~repro.serve.fleet.FleetDecisionService.flush`, which evicts
after every drain, therefore costs a single comparison at the front of
the store over a million live sessions when nothing expired, instead
of a full dictionary scan.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from repro.browser.dom import PageFeatures


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
        last_response: The skip cache's anchor: the evaluated
            ``DecisionResponse`` this device was last served, itself
            (its trace keeps ``skipped=False``).  Responses and traces
            are immutable named tuples, so sharing the object with the
            caller that received it is safe.  While the session's
            feature/condition vector is unchanged, each replay copies
            its fopt and trace row under the new ticket, with
            ``skipped=True``.  ``None`` when no cache is attached.
        replay_trace: That ``skipped=True`` trace, built at the
            anchor's first hit and shared by its later hits (``None``
            until then).
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
    replay_trace: object | None = None
    created_s: float = 0.0
    last_seen_s: float = 0.0


@dataclass
class SessionRegistry:
    """Device-session store with TTL eviction.

    Attributes:
        ttl_s: Seconds of silence after which a session is evicted
            (positive; ``inf`` never evicts, NaN is refused).
        clock: Zero-argument monotonic-seconds source.
    """

    ttl_s: float = 300.0
    clock: Callable[[], float] = time.monotonic
    #: Sessions in last-activity order, least recently active first:
    #: every touch moves its session to the end, so the sessions aged
    #: past the TTL are always a prefix.
    _sessions: OrderedDict[str, DeviceSession] = field(
        default_factory=OrderedDict
    )
    #: Total sessions ever evicted (telemetry).
    evicted_total: int = field(default=0, init=False)
    #: Sessions ``evict_expired`` popped from the front of the store
    #: (telemetry; tests pin the O(evicted) bound on it).
    expiry_scans: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not self.ttl_s > 0:
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
                session.replay_trace = None
                cleared += 1
        return cleared

    def active_ids(self) -> tuple[str, ...]:
        """Device ids in the store, least recently active first."""
        return tuple(self._sessions)

    def refresh(self, session: DeviceSession, now: float) -> None:
        """Refresh an already-fetched live session's ``last_seen_s``.

        The skip cache's hit path: it has the session in hand and has
        checked it is live, so it skips :meth:`renew`'s TTL test.
        """
        session.last_seen_s = now
        self._sessions.move_to_end(session.device_id)

    def touch(self, device_id: str, now: float | None = None) -> DeviceSession:
        """Fetch-or-create a session and refresh its ``last_seen_s``."""
        now = self.clock() if now is None else now
        return self.renew(device_id, self._sessions.get(device_id), now)

    def renew(
        self, device_id: str, session: DeviceSession | None, now: float
    ) -> DeviceSession:
        """:meth:`touch` for a session the caller already fetched.

        Args:
            device_id: The device asking.
            session: What :meth:`get` returned for it (``None`` when
                absent).
            now: Registry-clock time of the activity.

        A session silent past the TTL is dead even before the sweeper
        removes it: it is evicted here and a fresh one created, so
        nothing it held -- the skip cache's anchor above all -- comes
        back to life with the device.
        """
        sessions = self._sessions
        if session is not None:
            if now - session.last_seen_s > self.ttl_s:
                del sessions[device_id]
                self.evicted_total += 1
            else:
                session.last_seen_s = now
                sessions.move_to_end(device_id)
                return session
        session = sessions[device_id] = DeviceSession(
            device_id, created_s=now, last_seen_s=now
        )
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
    def evict_expired(self, now: float | None = None) -> tuple[str, ...]:
        """Drop sessions silent for longer than the TTL.

        Pops the aged prefix of the last-activity-ordered store and
        stops at the first session inside the TTL window, so the cost
        is proportional to what actually expired, not to the number of
        active sessions.

        Returns:
            The evicted device ids, oldest activity first (possibly
            empty).
        """
        now = self.clock() if now is None else now
        cutoff = now - self.ttl_s
        sessions = self._sessions
        expired: list[str] = []
        for device_id, session in sessions.items():
            if session.last_seen_s >= cutoff:
                break  # everything behind it is younger still
            expired.append(device_id)
        for device_id in expired:
            del sessions[device_id]
        self.expiry_scans += len(expired)
        self.evicted_total += len(expired)
        return tuple(expired)
