"""Host speed probe: scale wall times to a fixed reference speed.

The benchmark runs on shared hardware whose speed swings by up to 2x within
seconds, which no run length averages out.  A fixed pure-Python loop that
does not touch germpack is timed between operations and, from a timer
signal, during long ones.  An operation's time is then scaled by
REFERENCE_S / (the median of the loop's times around and during it), which
gives the time the operation would take on a host where the loop takes
REFERENCE_S.  On a host of steady speed this is wall time times a constant,
so the ratio of two commits' figures is the ratio of their wall times.
Between states the loop and germpack's code slow by nearly, not exactly,
the same factor.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# The loop's time on the fast state of a 2-vCPU Intel Xeon VM (Python 3.11).
REFERENCE_S = 0.0006
LOOP_ITERATIONS = 150


def speed_loop() -> Fraction:
    """Fraction and big-int arithmetic.  Interleaved with germpack operations
    over a 1.9x swing of the host, their times rose as this loop's to the
    power 0.93-0.96; a big-int-only loop followed them as closely, a loop of
    dict and string work less so."""
    total = Fraction(0)
    big = 1
    for i in range(1, LOOP_ITERATIONS + 1):
        total += Fraction(i, i + 7)
        big = (big * 3 + i) % (1 << 200)
    return total


def time_loop() -> float:
    """Seconds the loop takes now."""
    start = time.perf_counter()
    speed_loop()
    return time.perf_counter() - start


class Probe:
    """Timed samples of the loop: one after every operation and, if started,
    one every `interval_s` from a timer signal, during the operations.

    `scale(began, ended)` is an operation's factor: REFERENCE_S over the
    median sample taken from WINDOW_S before it began to WINDOW_S after it
    ended.  The median of a window, rather than the samples right beside the
    operation, keeps one sample that the scheduler interrupted from skewing
    a short operation; the host's speed changes over seconds, not within
    the window.
    """

    WINDOW_S = 0.1

    def __init__(self, interval_s: float = 0.0):
        self.interval_s = interval_s
        self.times: list[float] = []  # when each sample ended, ascending
        self.samples: list[float] = []
        self.ticks_s = 0.0  # total time spent in timer samples

    def sample(self) -> None:
        duration = time_loop()
        self.times.append(time.perf_counter())
        self.samples.append(duration)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.sample()
        self.ticks_s += time.perf_counter() - start

    def start(self) -> None:
        if self.interval_s > 0:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        if self.interval_s > 0:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, began: float, ended: float) -> float:
        low = bisect.bisect_left(self.times, began - self.WINDOW_S)
        high = bisect.bisect_right(self.times, ended + self.WINDOW_S)
        return REFERENCE_S / statistics.median(self.samples[low:high])
