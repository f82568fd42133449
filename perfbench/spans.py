"""In-memory spans recorded around calls into eegsong's public functions.

A span is (name, start, end, parent index).  Spans stay in memory while the
traced work runs and are written out once at the end.  A layer's self time is
its span's duration minus the time covered by its child spans; work here is
single-threaded, so children never overlap and that cover is their sum.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()


def self_times(spans: list[list]) -> dict[str, float]:
    """Summed self time per span name, in seconds."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        totals[name] += (end - start) - child_time[i]
    return dict(totals)
