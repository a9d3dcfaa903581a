"""In-memory spans recorded by the benchmark around each layer's calls.

Tracing lives in the benchmark, not in the program: a traced op calls the
same public entry points an untraced op reaches, one layer at a time, and
times each call.  Spans stay in a list until the run ends; :meth:`dump`
writes them out and :func:`self_time_table` turns them into the per-layer
self-time table (a span's duration minus the part its children cover).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("name", "parent", "start", "end")

    def __init__(self, name: str, parent: int, start: float) -> None:
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Spans:
    """A flat list of spans; ``parent`` is an index into it (-1 = root)."""

    def __init__(self) -> None:
        self.records: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Time the block; the yielded span may be renamed inside it (the
        decide span takes the name of the stage that decided)."""
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, parent, perf_counter())
        self._stack.append(len(self.records))
        self.records.append(record)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def child(self, name: str, seconds: float) -> None:
        """Record work measured elsewhere (the daemon's own wall time) as
        a child of the open span, ending when that span ends."""
        end = perf_counter()
        record = Span(name, self._stack[-1], end - seconds)
        record.end = end
        self.records.append(record)

    def durations(self, name: str) -> List[float]:
        return [r.seconds for r in self.records if r.name == name]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([[r.name, r.parent, r.start, r.end]
                       for r in self.records], fh)


def self_times(spans: Spans) -> Dict[str, List[float]]:
    """Span name → [calls, self seconds, total seconds]."""
    child_time = [0.0] * len(spans.records)
    for record in spans.records:
        if record.parent >= 0:
            child_time[record.parent] += record.seconds
    table: Dict[str, List[float]] = {}
    for record, covered in zip(spans.records, child_time):
        row = table.setdefault(record.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += record.seconds - covered
        row[2] += record.seconds
    return table


def self_time_table(spans: Spans, root: str = "bench.op",
                    title: Optional[str] = None) -> str:
    """Rows by descending self time, with shares of the root spans' time."""
    table = self_times(spans)
    op_total = table.get(root, [0, 0.0, 0.0])[2] or 1.0
    lines = [title] if title else []
    lines.append(f"{'span':<28} {'calls':>7} {'self ms':>10} "
                 f"{'ms/call':>9} {'share':>7}")
    for name, (calls, self_s, _) in sorted(table.items(),
                                           key=lambda kv: -kv[1][1]):
        lines.append(f"{name:<28} {int(calls):>7} {self_s * 1e3:>10.1f} "
                     f"{self_s * 1e3 / calls:>9.3f} "
                     f"{100 * self_s / op_total:>6.1f}%")
    return "\n".join(lines)
