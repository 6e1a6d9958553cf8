"""In-memory span recorder for single-threaded, nested calls.

A span is one call into a wrapped function: its name, start and end on
one clock, and the index of the span that was open when it started. Spans
stay in memory until the caller writes them out. Self time is a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    note: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans of wrapped calls made on one thread.

    ``notes`` maps a span name to ``note(args, kwargs, result) -> dict``,
    called after the wrapped function returns, for counts that belong to
    the call (points evaluated, matrix shape, iterations).
    """

    def __init__(self, clock=time.perf_counter, notes=None):
        self.clock = clock
        self.notes = notes or {}
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        span = Span(name, self.clock(), parent=self._open[-1] if self._open else -1)
        self.spans.append(span)
        self._open.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._open.pop()
        note = self.notes.get(name)
        if note is not None:
            span.note = note(args, kwargs, result)
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def self_times(self) -> list[float]:
        """Duration of each span minus the union of its children's intervals."""
        children: list[list[tuple[float, float]]] = [[] for _ in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                children[span.parent].append((span.start, span.end))
        return [
            span.duration - _covered(span.start, span.end, kids)
            for span, kids in zip(self.spans, children)
        ]

    def records(self):
        """One JSON-ready dict per span, with its self time."""
        for span, own in zip(self.spans, self.self_times()):
            record = {"name": span.name, "start": span.start, "end": span.end,
                      "parent": span.parent, "self": own}
            if span.note:
                record["note"] = span.note
            yield record


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


@contextmanager
def instrumented(recorder: Recorder, targets):
    """Replace each ``(owner, attribute, span_name)`` by a recording wrapper.

    ``owner`` is the module or class through which callers look the name
    up. The originals are restored on exit.
    """
    saved = []
    try:
        for owner, attr, name in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
