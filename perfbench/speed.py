"""Host-speed reference for the benchmark's timings.

On a shared host the same pure-Python work runs up to 40% slower in some
stretches of a minute than in others, which swamps a change worth
measuring. A fixed pure-Python loop of about 3.5 ms, run from a SIGALRM
handler every 0.1 s while requests run, tracks that drift, also inside a
single long call. Each request's time, less the loop's own time, is
multiplied by the loop's nominal time over its median time from half a
second before to half a second after the request, so it reads in seconds
of the reference host (the 2-core Xeon the baseline was recorded on)
whatever stretch the run fell in. Raw timings are printed alongside.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

LOOP = 2500
# median time of one loop on the reference host
NOMINAL_S = 0.0035
PERIOD_S = 0.1
# probes this close to a request, in seconds, set its scale
WINDOW_S = 0.5


def _loop() -> int:
    # dict, tuple, sort and string work as well as integer arithmetic: a
    # loop of arithmetic alone tracks the host's slow stretches only half
    # as well, because they slow memory-bound code more
    d: dict = {}
    for i in range(LOOP):
        k = (i % 97, str(i % 13))
        d[k] = d.get(k, 0) + len(k[1])
        t = sorted((i * 7919 % 101, i % 5, i))
        f"{t[0]}-{t[1]}"
    return len(d)


class Speed:
    """Samples host speed while it is entered; times requests against it.

    Use as a context manager around the requests; clock() is
    time.perf_counter less the time spent in the sampler, and interval()
    records one request's wall interval for scale().
    """

    def __init__(self):
        self._ends: list[float] = []
        self._loops: list[float] = []
        self._spent = 0.0
        self._old = None

    def sample(self, signum=None, frame=None) -> None:
        """Time the loop once; the SIGALRM handler while entered."""
        t0 = time.perf_counter()
        try:
            _loop()
        finally:
            t1 = time.perf_counter()
            self._ends.append(t1)
            self._loops.append(t1 - t0)
            self._spent += t1 - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        for _ in range(5):
            self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        for _ in range(5):
            self.sample()
        return False

    def clock(self) -> float:
        """Seconds of request work: wall time less the sampler's own time."""
        return time.perf_counter() - self._spent

    def factor_now(self) -> float:
        """Reference time over raw time, from the last ten samples."""
        return NOMINAL_S / statistics.median(self._loops[-10:])

    def scale(self, start: float, end: float) -> float:
        """Reference time over raw time around the wall interval [start, end]."""
        lo = bisect.bisect_left(self._ends, start - WINDOW_S)
        hi = bisect.bisect_right(self._ends, end + WINDOW_S)
        near = self._loops[max(0, min(lo, hi - 5)):max(hi, lo + 5)]
        return NOMINAL_S / statistics.median(near)
