"""Host speed, sampled in the benchmark's own thread, and times in reference seconds.

The benchmark runs on a few cores of a shared host whose CPU throughput
drifts: a fixed pure-Python loop runs up to 25% slower or faster from one
second to the next, and `time.process_time` drifts with it.  Wall times
taken minutes apart then differ by more than any change worth measuring.

So the benchmark times a small fixed reference kernel (Fraction matrix
products and integer polynomial products, the arithmetic qwalk's exact
layer does, written here and not taken from qwalk) at the same moments
as the program, and reports each time in *reference seconds*: the wall
time the same work would take at the speed at which one kernel run takes
REFERENCE_S.  A wall time of t seconds during which the kernel took d_i
seconds per run counts as  t * REFERENCE_S * mean(1 / d_i).

While a `Speedometer` is running, a CPU-time timer (ITIMER_VIRTUAL, so it
does not clash with the per-command budget on ITIMER_REAL) runs the
kernel every PERIOD_S of the process's CPU time, in the main thread,
between two bytecodes of whatever qwalk is doing.  The kernel's own time
is taken out of the interval it fell in.  For a subprocess (the set-up
time) the child calls `burst` right before and after its work and hands
over the kernel times.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

# Nominal duration of one kernel run: about its median on a 2-core host
# (Python 3.11), so reference seconds there read close to wall seconds.
REFERENCE_S = 0.00075
PERIOD_S = 0.01
# A command shorter than MIN_SAMPLES sampling periods is rated by the
# samples nearest to it in time.
MIN_SAMPLES = 4

_A = tuple(tuple(Fraction(i + 2 * j + 1, 3 + (i * j) % 5) for j in range(5)) for i in range(5))


def kernel() -> None:
    """The fixed reference work, about 0.75 ms."""
    cols = tuple(zip(*_A))
    [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in _A]
    p = [1]
    for m in range(1, 12):
        q = [0] * (len(p) + 2)
        for i, x in enumerate(p):
            q[i] += x
            q[i + 1] += m * x
            q[i + 2] -= m * m * x
        p = q


class Speedometer:
    def __init__(self) -> None:
        self.starts: list[float] = []  # perf_counter at the start of each kernel run
        self.durations: list[float] = []

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        kernel()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def burst(self, runs: int = 8) -> None:
        """Sample back to back, for an interval the timer cannot see into."""
        for _ in range(runs):
            self._sample()

    def spent(self, a: float, b: float) -> float:
        """Seconds of [a, b) the kernel itself took."""
        i, j = bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)
        return sum(self.durations[i:j])

    def reference_seconds(self, a: float, b: float) -> float:
        """The wall interval [a, b), less the kernel's own time in it, in
        reference seconds, rated by the samples inside it or, when there
        are fewer than MIN_SAMPLES, by the MIN_SAMPLES nearest to it."""
        n = len(self.starts)
        if not n:
            raise RuntimeError("no speed samples")
        i, j = bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)
        own = sum(self.durations[i:j])
        while j - i < min(MIN_SAMPLES, n):
            before = a - self.starts[i - 1] if i > 0 else float("inf")
            after = self.starts[j] - b if j < n else float("inf")
            if before <= after:
                i -= 1
            else:
                j += 1
        return rate(b - a - own, self.durations[i:j])


def rate(wall: float, durations: list[float]) -> float:
    """wall seconds, at the speed at which one kernel run took each of
    durations in turn, in reference seconds."""
    return wall * REFERENCE_S * sum(1 / d for d in durations) / len(durations)
