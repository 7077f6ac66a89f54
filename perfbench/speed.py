"""Machine-speed normalisation of measured times.

Small shared virtual machines (2 cores, other tenants on the same host)
change speed by up to 2x within seconds.  A fixed pure-Python
reference workload, rerun between ops at least every INTERVAL seconds, tracks
that speed: across such swings the time of a legch op divided by the time of
the reference around it stays within a few percent, while either time alone
moves by up to 2x.  Every reported time is therefore scaled by R0 / (reference
time around it), and reads as seconds on a machine where the reference takes
exactly R0.  Samples are taken between legch calls only, never inside a
traced span, and the time they take is left out of every measured interval.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from time import perf_counter as clock

R0 = 5e-4
INTERVAL = 0.02


def reference():
    """Dict, string, sort and Fraction work, the mix legch's own code spends its time on."""
    table = {}
    for i in range(1500):
        table[i] = str(i * 7)
    ordered = sorted(table.values(), reverse=True)
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(1, i)
    return len(ordered), total


class Speed:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.refs: list[float] = []

    def sample(self) -> None:
        start = clock()
        reference()
        end = clock()
        self.starts.append(start)
        self.ends.append(end)
        self.refs.append(end - start)

    def maybe_sample(self) -> None:
        if not self.ends or clock() - self.ends[-1] >= INTERVAL:
            self.sample()

    def factor(self, t: float) -> float:
        """R0 over the mean reference time of the two samples before t and the two after."""
        k = bisect_right(self.ends, t)
        near = self.refs[max(k - 2, 0):k + 2]
        return R0 / (sum(near) / len(near))

    def scale(self, start: float, end: float) -> float:
        """Normalised seconds of an interval that holds no sample."""
        return (end - start) * self.factor(start)

    def between(self, start: float, end: float) -> float:
        """Normalised seconds from start to end, less the samples taken in between."""
        total, t = 0.0, start
        for k in range(bisect_right(self.ends, start), len(self.starts)):
            if self.starts[k] >= end:
                break
            total += self.scale(t, self.starts[k])
            t = self.ends[k]
        return total + self.scale(t, end)
