"""Span recorder for the traced benchmark run.

A span is (name, start, end, parent). Spans are opened and closed by one
thread in last-in-first-out order, so the stack of open spans gives each new
span its parent. Counters sit beside the spans so that ratios are formed
from work counted at the same boundaries. Everything stays in memory until
the run writes it out at the end.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter, defaultdict


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def layer_of(name: str) -> str:
    """Span names are ``<layer>.<function>``."""
    return name.split(".", 1)[0]


class SpanRecorder:
    """Spans and counters of one traced cycle."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a finished span; returns its index."""
        if end < start:
            raise ValueError("span ends before it starts")
        if not -1 <= parent < len(self.names):
            raise ValueError(f"unknown parent span {parent}")
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(math.nan)
        self._open.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        if self._open.pop() != index:
            raise RuntimeError("spans must close in the reverse order they opened")

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def self_times(self) -> list[float]:
        """Per span: its duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append((self.starts[index], self.ends[index]))
        return [
            self.ends[i] - self.starts[i] - covered_length(children.get(i, ()), self.starts[i], self.ends[i])
            for i in range(len(self.names))
        ]

    def outermost(self, layer: str) -> list[int]:
        """Spans of ``layer`` with no ancestor in the same layer."""
        return [i for i, name in enumerate(self.names) if layer_of(name) == layer and not self.under(i, layer)]

    def under(self, index: int, layer: str) -> bool:
        """Whether span ``index`` has an ancestor in ``layer``."""
        parent = self.parents[index]
        while parent >= 0:
            if layer_of(self.names[parent]) == layer:
                return True
            parent = self.parents[parent]
        return False

    def to_json(self) -> dict:
        table = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(table)}
        return {
            "names": table,
            "spans": [
                [ids[n], s, e, p] for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
            "counts": dict(self.counts),
        }


def write_spans(path, recorders) -> None:
    """Write every recorder's spans, one list entry per traced cycle."""
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "cycles": [r.to_json() for r in recorders]}, fh)
        fh.write("\n")
