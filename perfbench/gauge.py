"""A host-speed gauge for the timed phase.

The reference host's speed drifts: the same work runs a tenth to a fifth
slower for seconds to minutes at a time, and no run is long enough to
average that out.  Most of the drift is common to the program and to a
small fixed loop run in the same process, so the benchmark samples the
host with such a loop between ops, evenly over the op time of the timed
phase, and scales each wall-clock figure by how fast the loop ran around
it: a figure is then what the same work would have measured on the
reference host.  The op clock (:meth:`Gauge.now`) is wall time minus the
time spent sampling, so no op's latency and no span includes a sample.

The loop mixes interpreter work (dict updates, float arithmetic) with
reads scattered over a table larger than a core's private caches,
because the drift does not always hit the same resource.  Two 200 s
traces on the reference host, taken at different times, interleaved
blocks of ``engine``, ``serve`` and ``fleetsim`` work (and, in the
second, the CSS matching that dominates ``reproduce``) with each kind of
loop.  Over 6-8 s windows, dividing the blocks' times by the mixed
loop's cut their coefficient of variation from 8.4-9.4 % to 3.6-5.2 % in
the first trace and from 10.6-14.5 % to 2.4-6.8 % in the second.  The
interpreter work alone left 6.5-8.0 % in the first trace; the scattered
reads alone left 3.5-7.2 % in the second.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from array import array

#: Iterations of the reference work per sample.
SAMPLE_ITERATIONS = 20_000
#: Entries of the reference work's table: 2 MB of doubles read in a
#: fixed random order through a 2 MB index.
TABLE_SIZE = 1 << 18
#: Mean seconds one sample took on the reference host (2 vCPU Xeon at
#: 2.1 GHz, CPython 3.11).  It only scales the figures: any constant
#: gives the same ratio between two commits.
REFERENCE_SAMPLE_S = 0.0065
#: Op-clock seconds per sample: the samples are spread evenly over the
#: op time of the timed phase, whether an op takes a millisecond or a
#: second.
SAMPLE_EVERY_S = 0.1
#: Samples on each side of a moment whose median is the host's speed
#: then (a window of about a second of op time).
WINDOW_SAMPLES = 5
#: Samples whose median is the host's speed just before or after a
#: set-up.
SPOT_SAMPLES = 10


class Gauge:
    """Samples the host between ops and keeps the op clock."""

    def __init__(self) -> None:
        #: Wall seconds of each sample, in order.
        self.samples: list[float] = []
        self._paused = 0.0
        self._start = self._due = math.inf
        self._order = array("q", range(TABLE_SIZE))
        random.Random(0).shuffle(self._order)
        self._table = array("d", range(TABLE_SIZE))
        self._offset = 0

    def now(self) -> float:
        """The op clock: wall time minus the time spent sampling."""
        return time.perf_counter() - self._paused

    def reference_work(self) -> float:
        """A fixed piece of pure-Python work: dict updates, float
        arithmetic and reads scattered over the table, each sample
        continuing where the last one stopped."""
        table, order = self._table, self._order
        mask = TABLE_SIZE - 1
        start = self._offset
        counts: dict[int, int] = {}
        total = 0.0
        for i in range(start, start + SAMPLE_ITERATIONS):
            key = i & 255
            counts[key] = counts.get(key, 0) + 1
            total += table[order[i & mask]] / (key + 1.0)
        self._offset = (start + SAMPLE_ITERATIONS) & mask
        return total

    def _work_seconds(self) -> float:
        begun = time.perf_counter()
        self.reference_work()
        return time.perf_counter() - begun

    def sample(self) -> None:
        """Run the reference work once and time it."""
        took = self._work_seconds()
        self.samples.append(took)
        self._paused += took

    def spot_speed(self) -> float:
        """The host's speed now, relative to the reference host, from
        ``SPOT_SAMPLES`` samples kept apart from the timed phase's."""
        return statistics.median(
            REFERENCE_SAMPLE_S / self._work_seconds() for _ in range(SPOT_SAMPLES)
        )

    def start(self) -> None:
        """Begin the timed phase with one sample."""
        self._start = self._due = self.now()
        self.tick()

    def tick(self) -> None:
        """Between two ops: one sample per ``SAMPLE_EVERY_S`` of op time
        since :meth:`start` that has not had one yet."""
        while self.now() >= self._due:
            self.sample()
            self._due += SAMPLE_EVERY_S

    def speeds(self) -> list[float]:
        """The host's speed in each ``SAMPLE_EVERY_S`` of op time since
        :meth:`start`, relative to the reference host (below 1 when it
        ran slower): the median of ``REFERENCE_SAMPLE_S / sample`` over
        the samples due within ``WINDOW_SAMPLES`` of it."""
        ratios = [REFERENCE_SAMPLE_S / took for took in self.samples]
        return [
            statistics.median(ratios[max(0, k - WINDOW_SAMPLES): k + WINDOW_SAMPLES + 1])
            for k in range(len(ratios))
        ]

    def speed(self) -> float:
        """The host's mean speed over the timed phase: the phase's op
        time times this is its time on the reference host."""
        return statistics.fmean(self.speeds())

    def calibrate(self, durations, starts) -> array:
        """Each duration times the host's speed when it started (op-clock
        ``starts``): the durations on the reference host."""
        speeds = self.speeds()
        last = len(speeds) - 1
        origin = self._start
        return array("d", (
            duration * speeds[min(max(int((begun - origin) / SAMPLE_EVERY_S), 0), last)]
            for duration, begun in zip(durations, starts)
        ))
