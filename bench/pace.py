"""Host-speed probe: timings scaled to a reference host speed.

The benchmark runs on shared hosts whose speed changes by up to ~1.8x
from one second to the next and drifts over minutes, for every process
alike.  A wall time alone then measures the host as much as the program.
So a timer signal runs a fixed probe every ``INTERVAL_S`` seconds, in the
benchmark process and, through ``cli_child.py``, in every command-line
process it starts.  The probe is benchmark code that calls nothing of
``plkb``: it parses a slice of a shuffled text of clause-like lines into a
dict, work of the kind ``plkb`` spends its time on, over a working set of
a few MB, so that it slows down with the host as much as the program does.

An operation's time is its wall time less the probes that ran inside it,
multiplied by ``PROBE_REF_S`` over the mean probe time from
``WINDOW_S`` before its start to ``WINDOW_S`` after its end: the time the
operation would take on a host where the probe takes ``PROBE_REF_S``.  A
change to ``plkb`` moves the operation and not the probe, so it moves the
scaled time in full.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import random
import signal
import statistics
import time

PROBE_REF_S = 0.002  # probe time that defines the reference host speed
LINES = 40_000       # probe text; about 5 MB of str objects
BATCH = 1_500        # lines per probe: a median near PROBE_REF_S on a shared 2-vCPU x86 VM
INTERVAL_S = 0.1     # timer period
WINDOW_S = 0.5       # probes this close to an operation scale it
MIN_PROBES = 3       # fewer in the window: the nearest ones are taken instead


def probe_text(n: int = LINES) -> list[str]:
    lines = [f"0.{i % 97:02d} pos | a{i % 10 + 1}={i % 4} | a{i * 7 % 10 + 1}={i // 4 % 9}"
             for i in range(n)]
    random.Random(0).shuffle(lines)
    return lines


class Pace:
    """Probe record of one process, and the scaling of timings it gives.

    ``probes`` holds the (start, end) perf_counter interval of each probe;
    ``overhead`` other intervals of probe work (building the text) that are
    taken out of the operations they fall in but say nothing of speed.
    perf_counter is the system's monotonic clock, so intervals recorded in
    a child process line up with the parent's.
    """

    def __init__(self, ref_s: float = PROBE_REF_S):
        self.ref_s = ref_s
        self.probes: list[tuple[float, float]] = []
        self.overhead: list[tuple[float, float]] = []
        self._text: list[str] | None = None
        self._at = 0
        self._previous = None

    def _kernel(self) -> int:
        at = self._at
        self._at = (at + BATCH) % (len(self._text) - BATCH)
        table = {}
        for line in self._text[at:at + BATCH]:
            head, *literals = line.split(" | ")
            p, _, atom = head.partition(" ")
            table[atom, tuple(sorted(literals))] = float(p)
        return len(table)

    def probe(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not host speed
        try:
            if self._text is None:
                start = time.perf_counter()
                self._text = probe_text()
                self.overhead.append((start, time.perf_counter()))
            start = time.perf_counter()
            self._kernel()
            self.probes.append((start, time.perf_counter()))
        finally:
            if enabled:
                gc.enable()

    def _on_timer(self, signum, frame) -> None:
        self.probe()

    def start(self) -> None:
        """Probe now and then every INTERVAL_S seconds (SIGALRM)."""
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    @contextlib.contextmanager
    def paused(self):
        """No probe here, e.g. while a child process probes for itself."""
        running = self._previous is not None
        if running:
            self.stop()
        try:
            yield
        finally:
            if running:
                self.start()

    def export(self) -> dict:
        return {"probes": self.probes, "overhead": self.overhead}

    def add(self, record: dict) -> None:
        """Merge a child process's record."""
        self.probes = sorted(self.probes + [tuple(p) for p in record["probes"]])
        self.overhead = sorted(self.overhead + [tuple(p) for p in record["overhead"]])

    def durations(self) -> list[float]:
        return [end - start for start, end in self.probes]

    def excluded(self, start: float, end: float) -> float:
        """Probe work inside [start, end]."""
        return sum(min(e, end) - max(s, start)
                   for s, e in self.probes + self.overhead if s < end and e > start)

    def factor(self, start: float, end: float) -> float:
        """PROBE_REF_S over the mean probe time around [start, end].  The
        mean, not the median: where the window spans a change of host
        speed, the median jumps to one speed while the mean weighs both."""
        if not self.probes:
            raise ValueError("no probe recorded")
        mids = [(s + e) / 2 for s, e in self.probes]
        lo = bisect.bisect_left(mids, start - WINDOW_S)
        hi = bisect.bisect_right(mids, end + WINDOW_S)
        if hi - lo < MIN_PROBES:
            at = bisect.bisect_left(mids, (start + end) / 2)
            lo = max(0, min(at - MIN_PROBES // 2, len(mids) - MIN_PROBES))
            hi = min(len(mids), lo + MIN_PROBES)
        return self.ref_s / statistics.fmean(e - s for s, e in self.probes[lo:hi])

    def raw(self, interval: tuple[float, float]) -> float:
        """Wall time of the interval less the probes in it."""
        start, end = interval
        return end - start - self.excluded(start, end)

    def scaled(self, interval: tuple[float, float]) -> float:
        """``raw`` times the speed factor around the interval."""
        return self.raw(interval) * self.factor(*interval)

    def median_ms(self) -> float:
        return statistics.median(self.durations()) * 1000 if self.probes else 0.0
