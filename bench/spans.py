"""Spans kept in memory around calls into jordankit's public functions.

A traced run wraps a few module attributes of the package (the names a
search, an audit or the CLI look up when they call into another module)
and restores them afterwards; nothing inside ``src/jordankit`` changes.
Untraced runs install no wrappers, so the end-to-end timings carry no
tracing cost beyond a handful of coarse spans at the benchmark's own call
sites, which use the no-op tracer.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Tracer used for untraced iterations: records nothing."""

    enabled = False

    def span(self, name):
        return nullcontext()


class Tracer:
    """Collects (name, start, end, parent) spans; parent is a span index or -1."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def total(self, name) -> float:
        """Summed duration of every span with this name."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def self_times(self) -> dict[str, float]:
        """Per span name, duration minus the time covered by direct children.

        Children of one span never overlap (a single thread runs them in
        turn), so their durations add up to the covered part.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out


@contextmanager
def instrumented(tracer, patches):
    """Replace ``module.attr`` by a traced wrapper for each (module, attr, span).

    ``span`` may also be a callable taking the original function and
    returning the replacement, for wrappers that do more than time a call.
    """
    saved = []
    try:
        for module, attr, span in patches:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            replacement = span(original) if callable(span) else tracer.wrap(span, original)
            setattr(module, attr, replacement)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
