"""Spans around calls into the library, kept in memory.

The benchmark wraps each call into a layer in ``Tracer.call``.  When
tracing is off that is one extra function call; when it is on, each
call records (name, start, end, parent span, item id).  A span's self
time is its length minus what its child spans cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, int, object]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.item: object = None
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, 0.0, 0.0, parent, self.item))
        self._open.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[idx] = (name, start, end, parent, self.item)

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            total[name] += end - start - inner
            calls[name] += 1
        return total, calls

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, item in self.spans:
                f.write(json.dumps([name, start, end, parent, item]) + "\n")
