"""Turning measured times into the reported figures.

The host this benchmark runs on is shared, and its speed drifts by tens
of percent within minutes; a fixed calibration task slows down by about
the same share as the ops do. Every time the benchmark reports is
therefore in reference seconds: the measured wall time multiplied by the
workload's reference calibration time over the calibration time
measured next to it. On a machine where one calibration sample takes
exactly the reference time the two are equal. The raw wall times are
printed alongside.
"""

from __future__ import annotations

import bisect
import statistics

NEAREST = 15  # calibration samples that scale an op


def speed_factors(n_ops: int, samples: list[tuple[int, float]], reference: float) -> list[float]:
    """Per op, the reference calibration time over the median of the
    ``NEAREST`` samples taken closest to it. ``samples`` holds (index
    of the op a sample followed, sample time), in order."""
    after = [op for op, _s in samples]
    times = [s for _op, s in samples]
    k = min(NEAREST, len(times))
    factors = []
    for i in range(n_ops):
        lo = min(max(0, bisect.bisect_left(after, i) - k // 2), len(times) - k)
        factors.append(reference / statistics.median(times[lo:lo + k]))
    return factors


def scaled(loop: dict, reference: float) -> tuple[list[float], float]:
    """Reference-second latencies of the ops that succeeded, and the
    reference-second total of every op's cycle (op, check and next
    argv)."""
    factors = speed_factors(len(loop["cycles"]), loop["samples"], reference)
    latencies = [x * f for x, f in zip(loop["latencies"], factors) if x is not None]
    busy = sum(c * f for c, f in zip(loop["cycles"], factors))
    return latencies, busy


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples above
    it: (value, percentile, samples above). Below 20 samples that
    percentile would not exceed the median, so the maximum is reported
    instead."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10
