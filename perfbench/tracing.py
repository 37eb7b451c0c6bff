"""In-memory spans recorded around calls into the aqvq package.

A ``Tracer`` keeps every span in a list and writes nothing until the
benchmark asks for it at the end. Wrappers are installed from outside
the package: ``patch`` replaces a function under the name that the
calling module looks it up by, so no file under ``src/`` changes.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Span:
    """One timed call: name, start and end (perf_counter seconds), the
    index of the enclosing span, and the train step it belongs to."""

    __slots__ = ("name", "start", "end", "parent", "step")

    def __init__(self, name, start, end=None, parent=None, step=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.step = step

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Stack of open spans plus the closed ones, and per-step counters.

    ``step`` holds the index of the train step in progress (``None``
    outside training); spans and counters opened meanwhile carry it.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: list[tuple] = []  # (name, step, value)
        self.step = None
        self.steps_started = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, parent=parent, step=self.step)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def count(self, name: str, value) -> None:
        self.counters.append((name, self.step, value))

    def timed(self, name: str, fn, count=None):
        """Wrap ``fn`` in a span; ``count(*args)`` adds to counter ``name``."""

        def wrapper(*args, **kwargs):
            if count is not None:
                self.count(name, count(*args, **kwargs))
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return wrapper

    def stepped(self, name: str, fn):
        """Wrap a train-step function: its span and everything inside it
        carry the step index."""

        def wrapper(*args, **kwargs):
            self.step = self.steps_started
            self.steps_started += 1
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)
                self.step = None

        return wrapper

    def patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def unpatch(self) -> None:
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        """Dump spans and counters as one JSON document."""
        doc = {
            "fields": ["name", "start", "end", "parent", "step"],
            "spans": [[s.name, s.start, s.end, s.parent, s.step] for s in self.spans],
            "counters": [list(c) for c in self.counters],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and
    do not overlap; the part of the parent they cover is their sum.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def step_totals(spans, counters) -> dict:
    """Per span name, summed over spans inside train steps: ``calls``,
    ``total`` and ``self`` seconds; per counter name, the summed value."""
    selfs = self_times(spans)
    out: dict = {}
    for span, own in zip(spans, selfs):
        if span.step is None:
            continue
        entry = out.setdefault(span.name, {"calls": 0, "total": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["total"] += span.end - span.start
        entry["self"] += own
    for name, step, value in counters:
        if step is not None:
            entry = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            entry["count"] = entry.get("count", 0) + value
    return out
