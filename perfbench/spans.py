"""In-memory span recording and self-time arithmetic.

A span is one timed call at a layer boundary: name, start, end, the id of the
span that caused it, and the thread it ran on. Spans are appended to a list
while the workload runs and written out once it ends; nothing here does I/O
on the hot path.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi].

    Overlapping intervals (child spans running on two threads at once) are
    counted once.
    """
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_start = cur_end = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered_length(children.get(s.id, ()), s.start, s.end)
            for s in spans}


class Tracer:
    """Records spans for wrapped callables; the parent is tracked per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        """``fn`` recorded as span ``name``; ``on_result(args, kwargs, result)`` sees each return."""

        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, parent, name, start, end,
                                       threading.get_ident()))
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def carry(self, fn: Callable) -> Callable:
        """``fn`` run with the caller's current span as parent, on any thread."""
        parent = self.current()

        def run(*args, **kwargs):
            saved = getattr(self._local, "stack", None)
            self._local.stack = [] if parent is None else [parent]
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.stack = saved

        return run

    def take(self) -> list[Span]:
        """Spans recorded since the last call, removed from the tracer."""
        taken, self.spans = self.spans, []
        return taken


def write_spans(path, passes) -> None:
    """One JSON line per span, tagged with its pass index; gzip-compressed."""
    with gzip.open(path, "wt") as fh:
        for index, spans in enumerate(passes):
            for s in spans:
                fh.write(json.dumps({"pass": index, **s._asdict()}) + "\n")
