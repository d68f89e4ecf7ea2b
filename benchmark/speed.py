"""Scaling of the benchmark's timings by the machine's current speed.

On a shared 2-core 2.1 GHz Xeon virtual machine, a fixed pure-Python loop
ran up to twice as slowly at one moment as at another, in stretches of
seconds to minutes.  So the benchmark times a fixed reference task between
items and scales every time by NOMINAL_S over the reference time around it:
a scaled time is the time the work would take when the reference task
takes NOMINAL_S.  The task is the oracle evaluating a fixed word.  It is
pure Python like the package, and no change to the package changes it.
"""

from __future__ import annotations

import time

import oracle

NOMINAL_S = 0.004   # the reference task, typical on a 2-core 2.1 GHz Xeon
EVERY_S = 0.25      # item time between two reference timings
_WORD = [("L" if k % 3 else "R", 1 + 7 * k % 20) for k in range(40)]


def reference_seconds():
    """Best of three timings of the reference task."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        oracle.evaluate(21, _WORD)
        best = min(best, time.perf_counter() - t0)
    return best


def around(fn):
    """Call `fn`; return its result and the scale factor for that moment."""
    before = reference_seconds()
    result = fn()
    return result, 2 * NOMINAL_S / (before + reference_seconds())


class Speed:
    """Reference timings taken between items, every EVERY_S of item time."""

    def __init__(self):
        self.marks = [0]                # items done at each reference timing
        self.refs = [reference_seconds()]
        self._since = 0.0

    def tick(self, done, seconds):
        """Count `seconds` of item time; `done` items have finished."""
        self._since += seconds
        if self._since >= EVERY_S:
            self._mark(done)

    def _mark(self, done):
        self.marks.append(done)
        self.refs.append(reference_seconds())
        self._since = 0.0

    def factors(self, count):
        """Scale factor of each of the first `count` items.

        An item's factor uses the mean of the two reference timings taken
        just before and just after the stretch of items that holds it.
        """
        if self.marks[-1] < count:
            self._mark(count)
        out = []
        for j in range(len(self.marks) - 1):
            f = 2 * NOMINAL_S / (self.refs[j] + self.refs[j + 1])
            out += [f] * (self.marks[j + 1] - self.marks[j])
        return out[:count]
