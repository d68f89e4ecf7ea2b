"""In-memory spans recorded around the benchmark's calls into the package."""

from __future__ import annotations

import json
import time
from collections import defaultdict


class _Span:
    __slots__ = ("tracer", "name", "item")

    def __init__(self, tracer, name, item):
        self.tracer, self.name, self.item = tracer, name, item

    def __enter__(self):
        tr = self.tracer
        parent = tr.stack[-1] if tr.stack else None
        if self.item is None and parent is not None:
            self.item = tr.spans[parent][4]
        tr.stack.append(len(tr.spans))
        tr.spans.append([self.name, time.perf_counter(), None, parent,
                         self.item])

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[tr.stack.pop()][2] = time.perf_counter()


class Tracer:
    """Spans as [name, start, end, parent index, item id], kept in memory.

    A span with no item id inherits its parent's.  Nothing is written until
    `dump` is called once, at the end of the run.
    """

    def __init__(self):
        self.spans = []
        self.stack = []

    def span(self, name, item=None):
        return _Span(self, name, item)

    def self_times(self):
        """Each span's duration minus the durations of its direct children."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                out[s[3]] -= s[2] - s[1]
        return out

    def per_name(self, weight=lambda item: 1.0):
        """Summed self time in seconds by span name, times `weight(item)`."""
        total = defaultdict(float)
        for s, t in zip(self.spans, self.self_times()):
            total[s[0]] += t * weight(s[4])
        return total

    def dump(self, path):
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{"name": s[0], "start": s[1], "end": s[2],
                        "parent": s[3], "item": s[4], "self": t}
                       for s, t in zip(self.spans, selfs)], fh)
