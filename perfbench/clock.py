"""Host-speed-normalised timing for the end-to-end throughput.

The benchmark runs on a few cores of a shared host whose speed drifts: a
fixed pure-Python loop runs 30% faster or slower from one half-minute to the
next, in steps, so wall time alone cannot tell a 25% regression from the
neighbours getting busy.  A :class:`HostClock` therefore times each segment
of timed work in wall seconds and, right after it, times a fixed calibration
kernel (interpreted integer work over a buffer larger than the caches, like
the program's pointer-chasing over its heap).  A segment's cost in *calibration units* ("cal") is its wall time divided by
the mean kernel time measured just before and just after it.  Host slowdowns
stretch both and cancel; a change to the program moves only the segment.

The kernel belongs to the benchmark and must never change, or the figures
of two commits stop being comparable.
"""

from __future__ import annotations

import time

#: Calibration kernels per sample; a sample is the fastest of them, which
#: drops a kernel hit by a garbage collection or an interrupt.
KERNEL_REPEATS = 3
KERNEL_STEPS = 40_000
#: The kernel's working set.  The program's heap (tens of MB of small
#: Python objects) does not fit in a core's caches; a kernel that did would
#: miss the slowdowns that come from neighbours sharing the last-level cache
#: and memory bandwidth.  Its pages count in ``peak_rss_mb``.
BUFFER_BYTES = 16 << 20

_buffer: bytearray | None = None


def calibration_kernel() -> int:
    """Fixed work: integer arithmetic in the interpreter plus pseudo-random
    reads and writes over a 16 MB buffer (about 20 ms on a 2-CPU host)."""
    global _buffer
    if _buffer is None:
        _buffer = bytearray(BUFFER_BYTES)
    buffer = _buffer
    mask = BUFFER_BYTES - 1
    total = 0
    x = 12345
    for step in range(KERNEL_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        total += buffer[x & mask]
        buffer[(x >> 5) & mask] = step & 0xFF
    return total


def kernel_seconds() -> float:
    """Wall seconds of the calibration kernel, now (fastest of a few)."""
    best = float("inf")
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        calibration_kernel()
        best = min(best, time.perf_counter() - start)
    return best


class HostClock:
    """Accumulates the wall time and the calibration-unit cost of timed
    segments.  The kernel runs between segments, outside their timing."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.cal = 0.0
        self._kernel_s = kernel_seconds()

    def time(self, fn):
        """Run ``fn()`` as one timed segment and return its value."""
        start = time.perf_counter()
        value = fn()
        wall = time.perf_counter() - start
        after = kernel_seconds()
        self.wall_s += wall
        self.cal += wall / ((self._kernel_s + after) / 2)
        self._kernel_s = after
        return value
