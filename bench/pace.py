"""The machine's pace during a run, from a fixed reference computation.

The machine the benchmark was built on is shared: the same call takes from
1x to 2x its usual time depending on what other tenants do, and that state
lasts from a fraction of a second to minutes. Over a 30 s run that moves
every wall-clock metric by 15-25% from run to run. A fixed computation that
uses only the standard library (`reference`) slows down with it: repeated
for 200 s next to a 7 ms voteboard call, the ratio of the two means over
10 s blocks varied by 2% (interquartile range / median), the call itself by
22%.

So the benchmark runs the reference once after every op, outside the op's
timing, and in a timed run also every 50 ms from a timer signal, inside
an op if one is running; the time of those calls is taken out of the
op's latency. Each op's time is divided by the pace around it: the mean
time of the reference calls that started within 0.2 s of the op, over the
reference's nominal 1 ms. A reported millisecond is then the time of one
nominal reference call. The raw wall-clock figures are printed next to
the paced ones.

The pace is taken per op, and inside long ops, because the machine's
state also changes within a run. Over six runs of one seed of `wide-lib`,
one pace factor per run left the median op latency spreading by 20%
(interquartile range / median); the pace around each op, sampled only
between ops, brought that to 5%, but left the summed time of the
`threshold` ops, each 2 to 9 s long, spreading by 15%, as the calls after
such an op sample only its end. With the timer's calls inside ops as well,
`ops_per_s` spread by 3% over six more runs.

The reference runs with the garbage collector off. Otherwise a collection
that the program's allocations have made due could start inside it, and
its cost, which grows with the program's heap, would raise the pace factor
and divide a slowdown of the program back out.
"""

from __future__ import annotations

import gc
import signal
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from fractions import Fraction

NOMINAL_S = 1e-3
SPACING_S = 0.05
WINDOW_S = 0.2


def reference() -> None:
    """About 1 ms of Fraction arithmetic, dict writes and a sort."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 160):
        acc += Fraction(i, i + 3)
        table[i % 29] = acc
    sorted(table.values())


class Pacer:
    """Runs the reference between ops, and inside them under `timer`, and
    keeps the time of every call."""

    def __init__(self) -> None:
        self.calls: list[tuple[float, float]] = []  # (start, seconds) per reference call
        self.ops: list[tuple[float, float]] = []  # (start, seconds) per op
        self.timer_seconds = 0.0  # time of the calls the timer made
        self._sampling = False

    def after(self, start: float, busy_seconds: float) -> None:
        """Sample the pace once after an op that began at `start` and took
        `busy_seconds`."""
        self.ops.append((start, busy_seconds))
        self.sample(1)

    def sample(self, calls: int) -> float:
        """Run the reference `calls` times; returns the time it took."""
        enabled = gc.isenabled()
        gc.disable()
        self._sampling = True
        took = 0.0
        try:
            for _ in range(calls):
                start = time.perf_counter()
                reference()
                self.calls.append((start, time.perf_counter() - start))
                took += self.calls[-1][1]
        finally:
            self._sampling = False
            if enabled:
                gc.enable()
        return took

    def _on_timer(self, signum, frame) -> None:
        if not self._sampling:
            self.timer_seconds += self.sample(1)

    @contextmanager
    def timer(self):
        """Also sample every SPACING_S of wall time, inside ops too; subtract
        the change of `timer_seconds` over an op from its latency."""
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SPACING_S, SPACING_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def factor(self) -> float:
        """How much slower than nominal the machine ran over all the calls."""
        return sum(seconds for _, seconds in self.calls) / len(self.calls) / NOMINAL_S

    def paced(self) -> list[float]:
        """Each op's time divided by the pace within WINDOW_S of it.

        Every op is followed by a call, so no window is empty.
        """
        starts = [start for start, _ in self.calls]
        out = []
        for start, busy in self.ops:
            lo = bisect_left(starts, start - WINDOW_S)
            hi = bisect_right(starts, start + busy + WINDOW_S)
            near = [seconds for _, seconds in self.calls[lo:hi]]
            out.append(busy / (sum(near) / len(near) / NOMINAL_S))
        return out
