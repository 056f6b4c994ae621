"""Spans around the benchmark's calls into the program, kept in memory.

A span is (name, start, end, parent, item, ok, work): ``parent`` is the
index of the enclosing span (the item span for a layer call), ``item`` the
item id, ``ok`` False when the call raised, and ``work`` a count of the
units the call processed (requests, subsets, grid nodes) or 0.  Spans are
recorded only at the benchmark's own call sites, so a layer's self time
equals its busy time unless the benchmark nests its calls.
"""

from __future__ import annotations

import json
from time import perf_counter


class Tracer:
    """Records spans and counters when enabled; a pass-through otherwise."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {}
        self.item = ""
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, work=0):
        """Run ``fn(*args)`` inside a span named ``name``.

        ``work`` is a count, or a function of the result giving the count.
        """
        if not self.enabled:
            return fn(*args)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        ok = False
        start = perf_counter()
        try:
            result = fn(*args)
            ok = True
        finally:
            end = perf_counter()
            self._stack.pop()
            if ok and callable(work):
                work = work(result)
            self.spans[index] = (name, start, end, parent, self.item, ok, work if ok else 0)
        return result

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + amount

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: busy_s, self_s, calls, errors and summed work."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _item, _ok, _work in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _parent, _item, ok, work) in enumerate(self.spans):
            row = table.setdefault(
                name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0, "errors": 0, "work": 0}
            )
            row["busy_s"] += end - start
            row["self_s"] += end - start - child_time[index]
            row["calls"] += 1
            row["errors"] += 0 if ok else 1
            row["work"] += work
        return table

    def write(self, path) -> None:
        """Write one JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item, ok, work in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "item": item,
                            "ok": ok,
                            "work": work,
                        }
                    )
                    + "\n"
                )
