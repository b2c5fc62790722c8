"""Op timing and the order statistics the benchmark reports.

Standard library only: the launcher imports this before any child process
exists, and the BLAS thread count must be pinned before numpy is loaded.
"""

from __future__ import annotations

import math
import statistics
import time


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(values)
    return ordered[math.ceil(p / 100 * len(ordered)) - 1]


def beyond(n: int, p: float) -> int:
    """How many of n samples lie strictly above the nearest-rank p-th
    percentile's rank."""
    return n - math.ceil(p / 100 * n) if n else 0


def spread(values) -> float:
    """Interquartile distance as a share of the median, the way the
    benchmark's bounds are checked (``statistics.quantiles``, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


class OpClock:
    """Times a closed loop of ops: one caller, the next op starts only
    after the previous one returned.

    ``start`` returns False when the loop should stop: the measuring time
    is up (at least ``min_ops`` ops were timed), ``max_ops`` ops were
    timed, or ``probe`` is set, in which case only the end of set-up is
    recorded. Start/end hooks let a tracer tag the spans of each op.
    """

    def __init__(self, seconds: float | None = None, max_ops: int | None = None,
                 probe: bool = False, min_ops: int = 1,
                 on_start=None, on_end=None, clock=time.monotonic):
        self.seconds = seconds
        self.max_ops = max_ops
        self.probe = probe
        self.min_ops = min_ops
        self.on_start = on_start
        self.on_end = on_end
        self.clock = clock
        self.first_start: float | None = None
        self.last_end: float | None = None
        self.times_ms: list[float] = []
        self.failures: list[tuple[int, str]] = []
        self._t0: float | None = None

    @property
    def ops(self) -> int:
        return len(self.times_ms)

    def start(self) -> bool:
        now = self.clock()
        if self.first_start is None:
            self.first_start = now
        if self.probe:
            return False
        if self.max_ops is not None and self.ops >= self.max_ops:
            return False
        if (self.seconds is not None and self.ops >= self.min_ops
                and now - self.first_start >= self.seconds):
            return False
        if self.on_start is not None:
            self.on_start(self.ops)
        self._t0 = self.clock()
        return True

    def end(self) -> int:
        """Close the running op; returns its index."""
        if self._t0 is None:
            raise RuntimeError("end() without a running op")
        self.last_end = self.clock()
        self.times_ms.append((self.last_end - self._t0) * 1000.0)
        self._t0 = None
        if self.on_end is not None:
            self.on_end()
        return self.ops - 1

    @property
    def running(self) -> bool:
        return self._t0 is not None

    def fail(self, op: int, reason: str) -> None:
        self.failures.append((op, reason))

    @property
    def wall_s(self) -> float:
        if self.first_start is None or self.last_end is None:
            return 0.0
        return self.last_end - self.first_start
