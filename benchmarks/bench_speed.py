"""Machine-speed calibration for timings taken on a shared host.

The speed of the host drifts by tens of percent within seconds (other tenants,
frequency changes), and it drifts alike for the library and for any other
pure-Python code. The benchmark therefore runs a fixed pure-Python loop, which
does not depend on the library, after every operation of at least
PAIR_OVER_S and otherwise every CALIBRATION_EVERY_S. Each operation's time is
then scaled by REFERENCE_S divided by the median loop time from WINDOW_S
before the operation's start to WINDOW_S after its end, so a long operation is
scaled by the samples on both sides of it. A scaled time reads as
milliseconds on a machine where one loop takes exactly REFERENCE_S, about the
speed of the 2-core Xeon the benchmark was written on.
"""

from __future__ import annotations

import bisect
import statistics
import time

REFERENCE_S = 0.0015
CALIBRATION_EVERY_S = 0.02
PAIR_OVER_S = 0.001
WINDOW_S = 0.1
MIN_SAMPLES = 6  # fewer in the window, and the nearest MIN_SAMPLES are used


def calibration_loop() -> int:
    """Fixed work like the library's: int bit rows, tuples, dict counts, calls."""
    rows = [0] * 16
    seen: dict[tuple[int, int], int] = {}
    for k in range(2500):
        u, v = k % 16, (k * 7 + 3) % 16
        if u != v:
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
        key = (u, rows[u] & 0xFF)
        seen[key] = seen.get(key, 0) + 1
    return sum(row.bit_count() for row in rows) + len(seen)


class Speed:
    """Calibration samples over time, and the scale factor they give."""

    def __init__(self) -> None:
        self.times: list[float] = []  # end time of each sample
        self.seconds: list[float] = []
        self._cache: dict[int, float] = {}
        for _ in range(3):  # warm the loop up before it counts
            calibration_loop()

    def sample(self) -> None:
        t0 = time.perf_counter()
        calibration_loop()
        t1 = time.perf_counter()
        self.add(t1, t1 - t0)

    def add(self, at: float, seconds: float) -> None:
        """Record one loop time ending at `at`."""
        self.times.append(at)
        self.seconds.append(seconds)
        self._cache.clear()

    def due(self, now: float, op_seconds: float) -> bool:
        return op_seconds >= PAIR_OVER_S or not self.times or now - self.times[-1] >= CALIBRATION_EVERY_S

    def factor(self, start: float, end: float | None = None) -> float:
        """REFERENCE_S over the median loop time within WINDOW_S of start..end.

        With fewer than MIN_SAMPLES there, the nearest are used: half before
        start and half after end.
        """
        end = start if end is None else end
        key = (int(start * 40), int(end * 40))
        if key not in self._cache:
            lo = bisect.bisect_left(self.times, start - WINDOW_S)
            hi = bisect.bisect_right(self.times, end + WINDOW_S)
            if hi - lo < MIN_SAMPLES:
                lo = max(0, bisect.bisect_left(self.times, start) - MIN_SAMPLES // 2)
                hi = min(len(self.times), bisect.bisect_right(self.times, end) + MIN_SAMPLES // 2)
            self._cache[key] = REFERENCE_S / statistics.median(self.seconds[lo:hi])
        return self._cache[key]

    def bracket(self, fn):
        """Run fn between two pairs of samples; return (result, seconds, scaled seconds)."""
        first = len(self.seconds)
        self.sample()
        self.sample()
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        self.sample()
        self.sample()
        return result, seconds, seconds * REFERENCE_S / statistics.median(self.seconds[first:])
