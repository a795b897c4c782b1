"""A fixed pure-Python reference loop that measures the host's current speed.

The benchmark runs on shared virtual CPUs whose speed changes by up to
~1.8x from one stretch of seconds to the next, as other tenants load the
host.  A ``Speedometer`` times this loop every ``PERIOD_S`` on a
background thread; scaling a stretch of wall time by ``REFERENCE_S`` over
the loop's mean time around that stretch reports it at a fixed reference
speed.  The loop does not touch the library, so a change to the program
moves the scaled time exactly as it moves the wall time.

On the Intel Xeon x86-64 virtual CPUs (CPython 3.11.7) where the benchmark
was defined, one loop takes about ``REFERENCE_S`` when the host is quiet.
There, across five 20-second runs of ``solve``, the quartile spread of
``ops_per_s`` was 31% of its median in wall time and 2% scaled.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left, bisect_right

#: Seconds one loop takes at the reference speed.
REFERENCE_S = 2e-4

#: Seconds between loop timings.  Each timing holds the interpreter lock
#: for one loop, about 0.4% of the measured process's time.
PERIOD_S = 0.05

#: Loop timings this close to either end of a stretch also count for it,
#: so that short ops see about ten of them.
MARGIN_S = 0.25

_XS = tuple(i * 1e-3 for i in range(250))


def _loop() -> float:
    acc = 0.0
    for _ in range(8):
        acc += sum(tuple(math.expm1(-x) * 0.5 for x in _XS))
    return acc


class Speedometer:
    """Times the reference loop every ``PERIOD_S`` while in its ``with``
    block; ``scale`` then converts wall time to the reference speed."""

    def __init__(self):
        self.starts: list[float] = []
        self.loops: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "Speedometer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while True:
            start = time.perf_counter()
            _loop()
            self.loops.append(time.perf_counter() - start)
            self.starts.append(start)
            if self._stop.wait(PERIOD_S):
                return

    def scale(self, t0: float, t1: float) -> float:
        """Factor taking wall time spent between ``t0`` and ``t1`` (from
        ``time.perf_counter``) to the reference speed."""
        lo = bisect_left(self.starts, t0 - MARGIN_S)
        hi = bisect_right(self.starts, t1 + MARGIN_S)
        window = self.loops[lo:hi] or self.loops[max(0, lo - 1):lo + 1]
        return REFERENCE_S * len(window) / sum(window)
