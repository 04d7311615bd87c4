"""Machine-speed probe for normalising the benchmark's times.

On a shared two-CPU host the same serving loop runs up to 1.7x slower
from one run to the next, and the kinds of work it does slow down by
different amounts.  The probe therefore does three fixed pieces of work
in the client thread, while the server is idle between launches, and
adds their times:

* a walk over a shuffled set of dictionary entries and objects, several
  megabytes of them, which misses the caches the way the interpreter does
  when it serves (thread CPU time);
* a tight interpreter loop that stays in the first-level cache (thread
  CPU time);
* round trips to a helper thread through a queue and an event, the
  hand-off every launch makes between client and worker (wall time).

Thread CPU time excludes waiting for the interpreter lock, so busy
threads in the serving process cannot slow the first two parts.  Over
eight runs of ``mix14`` and ``shapes-loaded`` in one period the three
together tracked raw throughput with correlation 0.96 and 0.85, where
the walk alone reached 0.43 and 0.69.

Each figure is scaled by the probes around the moment it was measured: a
latency by the factor at its completion, a throughput by the timed
seconds each scaled by the factor of its stretch, and a set-up by the
probes before and after it.
"""

from __future__ import annotations

import bisect
import queue
import random
import statistics
import threading
import time

#: Probe time that normalised figures are scaled to.
REFERENCE_S = 3.0e-3
#: Seconds of timed work between probes.
INTERVAL_S = 0.1
#: A probe's factor is the mean of this many probes on each side of it
#: and itself; one probe alone is too short to be steady.
NEIGHBOURS = 2
#: Entries in the walked table, and entries one probe visits.
TABLE = 1 << 16
STEPS = 2000
#: Iterations of the tight loop, and round trips to the helper thread,
#: in one probe; each part takes about as long as the walk.
LOOPS = 10000
ROUND_TRIPS = 50


class _Entry:
    __slots__ = ("value", "next")

    def __init__(self, value: int):
        self.value = value
        self.next = value + 1


class SpeedProbe:
    """Times the probe's work on request and scales figures by it."""

    def __init__(self):
        rng = random.Random(0)
        self._table = {rng.getrandbits(40): _Entry(i) for i in range(TABLE)}
        self._keys = list(self._table)
        rng.shuffle(self._keys)
        self._at = 0
        self._requests: queue.SimpleQueue = queue.SimpleQueue()
        threading.Thread(target=self._answer, name="speed-probe",
                         daemon=True).start()
        #: (clock seconds, probe seconds) of the current interval
        self.points: list[tuple[float, float]] = []
        self._next = 0.0
        #: wall time spent probing, for callers that keep a wall clock
        self.paused_s = 0.0

    def sample(self, clock_s: float = 0.0) -> None:
        started = time.perf_counter()
        table, keys, at = self._table, self._keys, self._at
        cpu = time.thread_time()
        total = 0
        for key in keys[at:at + STEPS]:
            entry = table[key]
            total += entry.value + entry.next
        for i in range(LOOPS):
            total += i & 7
        spent = time.thread_time() - cpu
        wall = time.perf_counter()
        for _ in range(ROUND_TRIPS):
            done = threading.Event()
            self._requests.put(done)
            done.wait()
        spent += time.perf_counter() - wall
        self.points.append((clock_s, spent))
        self._at = (at + STEPS) % (TABLE - STEPS)
        self.paused_s += time.perf_counter() - started

    def _answer(self) -> None:
        while True:
            self._requests.get().set()

    def due(self, clock_s: float) -> bool:
        """Whether ``clock_s`` of timed work has passed the next probe."""
        if clock_s < self._next:
            return False
        self._next = clock_s + INTERVAL_S
        return True

    def tick(self, clock_s: float) -> None:
        if self.due(clock_s):
            self.sample(clock_s)

    def start(self) -> None:
        """Begin a new interval: forget earlier probes, probe once."""
        self.points.clear()
        self.sample()
        self._next = INTERVAL_S
        self.paused_s = 0.0

    def factor(self) -> float:
        """Mean probe time of the interval over :data:`REFERENCE_S`.

        Above 1 the machine ran slower than the reference: a rate is
        multiplied by a factor and a time divided by it.
        """
        return statistics.fmean(t for _, t in self.points) / REFERENCE_S

    def _factors(self) -> list[float]:
        times = [t for _, t in self.points]
        return [statistics.fmean(times[max(0, i - NEIGHBOURS):
                                       i + NEIGHBOURS + 1]) / REFERENCE_S
                for i in range(len(times))]

    def scale_latencies(self, ends: list[float],
                        latencies: list[float]) -> list[float]:
        """Each latency over the factor at its end (a clock time)."""
        clocks = [c for c, _ in self.points]
        factors = self._factors()
        return [latency / factors[max(0, bisect.bisect_right(clocks, end) - 1)]
                for end, latency in zip(ends, latencies)]

    def scale_seconds(self, total_s: float) -> float:
        """``total_s`` of timed clock, each stretch over its factor."""
        clocks = [c for c, _ in self.points] + [total_s]
        factors = self._factors()
        return sum(max(0.0, clocks[i + 1] - clocks[i]) / factors[i]
                   for i in range(len(factors)))
