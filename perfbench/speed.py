"""Machine-speed reference for normalised timings.

The CPU speed of a shared host drifts by up to 30%, in phases that last
seconds to minutes, and every interpreter-bound timing moves with it. A fixed
pure-Python loop, run every fraction of a second during the measurement,
tracks that drift. Each request latency t is reported as
t * NOMINAL_S / m, where m is the median loop time from WINDOW_S before the
request starts to WINDOW_S after it ends: the latency on a machine on which
the loop takes NOMINAL_S.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

ITERATIONS = 10_000
NOMINAL_S = 1e-3
WINDOW_S = 1.0


def reference_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work."""
    start = perf_counter()
    x = 0
    for j in range(ITERATIONS):
        x += j * j
    return perf_counter() - start


def scale(loop_times: list[float]) -> float:
    """Factor that maps timings taken alongside these loop times to the
    nominal machine."""
    return NOMINAL_S / statistics.median(loop_times)


def local_scales(loop_at: list[float], loop_times: list[float],
                 spans: list[tuple[float, float]]) -> list[float]:
    """Scale factor for each (start, end) in `spans`, from the reference
    loops run from WINDOW_S before start to WINDOW_S after end (`loop_at`
    ascending; the nearest loop if none)."""
    out = []
    for start, end in spans:
        lo = bisect_left(loop_at, start - WINDOW_S)
        hi = bisect_right(loop_at, end + WINDOW_S)
        if lo == hi:
            lo = min(bisect_left(loop_at, start), len(loop_at) - 1)
            hi = lo + 1
        out.append(scale(loop_times[lo:hi]))
    return out
