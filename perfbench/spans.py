"""A minimal in-memory span recorder for the traced replay.

Each span has a name, a start, an end, the span that caused it and the
request it belongs to; a span's self time is its duration minus the
time its child spans cover.  ``units`` lets one span stand for several
units of work (keys probed in one vectorized call), so a per-unit time
can be reported.  Spans are kept in memory and written out at the end.
A disabled recorder records nothing and costs one attribute test.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Spans:
    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: list = []  # (request, name, parent index, start, end, units)
        self.counts: dict = defaultdict(int)
        self.request = None
        self._stack: list = []  # (index, name) of the open spans

    @contextmanager
    def span(self, name: str, units: int = 1):
        if not self.enabled:
            yield
            return
        index = len(self.records)
        parent = self._stack[-1][0] if self._stack else None
        self.records.append(None)
        self._stack.append((index, name))
        started = time.perf_counter()
        try:
            yield
        finally:
            ended = time.perf_counter()
            self._stack.pop()
            self.records[index] = (self.request, name, parent, started, ended, units)

    def active(self, name: str) -> bool:
        """Whether a span called ``name`` is open."""
        return any(open_name == name for _index, open_name in self._stack)

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counts[name] += amount

    def table(self) -> dict:
        """``{name: {"calls", "units", "self_s", "total_s"}}``."""
        child = defaultdict(float)
        for _request, _name, parent, started, ended, _units in self.records:
            if parent is not None:
                child[parent] += ended - started
        out: dict = {}
        for index, (_request, name, _parent, started, ended, units) in enumerate(self.records):
            row = out.setdefault(name, {"calls": 0, "units": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["units"] += units
            row["total_s"] += ended - started
            row["self_s"] += ended - started - child[index]
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line, times in microseconds."""
        origin = self.records[0][3] if self.records else 0.0
        with open(path, "w") as out:
            for index, (request, name, parent, started, ended, units) in enumerate(self.records):
                out.write(json.dumps([index, request, name, parent, round((started - origin) * 1e6, 1),
                                      round((ended - started) * 1e6, 1), units]) + "\n")
