"""In-memory spans and counters recorded by the benchmark around its own calls.

The library is not instrumented: every span wraps one call that the benchmark
itself makes into a public function of a ``src/phasestar`` module, so the
same benchmark code runs traced and untraced.  A span is
``(name, start, end, parent, op)``: ``parent`` is the index of the enclosing
span (``-1`` for a root) and ``op`` the id of the operation it belongs to.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """Records spans and counters when ``on``; otherwise only forwards calls."""

    def __init__(self, on: bool):
        self.on = on
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self._stack: list = []
        self.op = -1

    def call(self, name: str, fn, *args, **kwargs):
        """Return ``fn(*args, **kwargs)``, recording a span named ``name``."""
        if not self.on:
            return fn(*args, **kwargs)
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def begin(self, name: str, op: int) -> int:
        """Open a root-level span for operation ``op``; close it with ``end``."""
        self.op = op
        return self._open(name) if self.on else -1

    def end(self, index: int) -> None:
        if index >= 0:
            self._close(index)

    def count(self, name: str, value) -> None:
        if self.on:
            self.counts[name] += value

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self.op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self._stack.pop()

    def self_times(self) -> dict:
        """Total self time per span name: duration minus time in child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: defaultdict = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start": start - origin,
                                      "end": end - origin, "parent": parent,
                                      "op": op}) + "\n")
