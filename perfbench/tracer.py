"""Tracing from outside the package: wrap functions where they are imported.

``Tracer.patch(module, attr, name)`` replaces ``module.attr`` with a wrapper
and ``unpatch()`` puts every original back, so untraced passes run the
package untouched.

Two kinds of wrapper share one thread-local frame stack:

- span wrappers (stages and per-record calls) keep a
  ``(id, name, start, end, parent_id)`` record;
- leaf wrappers (tokenize, the kernels, prompt builds, ...) are too frequent
  to keep one record each, so they only add calls, seconds and a unit
  count (tokens, cells, bytes) to a table keyed by (parent name, name).

Span wrappers feed the same table, so a layer's self time is its total
minus the time of everything directly under it. Work in pool threads has an
empty stack and is parented to the current stage.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Spans kept per pass; per-record spans beyond this are counted, not stored.
MAX_SPANS = 20000


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._ids = itertools.count(1)
        self._patches = []
        self.stage = ("", 0)
        self.spans = []
        self.dropped_spans = 0

    def _frames(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], defaultdict(lambda: [0, 0.0, 0]))
            with self._lock:
                self._threads.append(state)
        return state

    def reset(self) -> None:
        """Drop everything recorded so far (patches stay in place)."""
        with self._lock:
            for _, table in self._threads:
                table.clear()
            self.spans = []
            self.dropped_spans = 0

    def table(self) -> dict:
        """(parent, name) -> [calls, seconds, units], merged over threads."""
        merged = defaultdict(lambda: [0, 0.0, 0])
        with self._lock:
            for _, table in self._threads:
                for key, (calls, seconds, units) in list(table.items()):
                    entry = merged[key]
                    entry[0] += calls
                    entry[1] += seconds
                    entry[2] += units
        return merged

    def _record_span(self, span):
        with self._lock:
            if len(self.spans) < MAX_SPANS:
                self.spans.append(span)
            else:
                self.dropped_spans += 1

    def wrap(self, name, fn, span=False, units=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, table = tracer._frames()
            parent = stack[-1] if stack else tracer.stage
            own_id = next(tracer._ids) if span else parent[1]
            stack.append((name, own_id))
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                entry = table[(parent[0], name)]
                entry[0] += 1
                entry[1] += end - start
                if units is not None:
                    entry[2] += units(args, result)
                if span:
                    tracer._record_span((own_id, name, start, end, parent[1]))

        return traced

    def patch(self, module, attr, name, **kwargs) -> bool:
        """Wrap ``module.attr``; a name the package no longer has is skipped."""
        original = getattr(module, attr, None)
        if original is None:
            return False
        setattr(module, attr, self.wrap(name, original, **kwargs))
        self._patches.append((module, attr, original))
        return True

    def unpatch(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    @contextmanager
    def stage_span(self, name):
        """Mark a pipeline stage; pool threads parent their work to it."""
        stack, table = self._frames()
        own_id = next(self._ids)
        outer = self.stage
        self.stage = (name, own_id)
        stack.append(self.stage)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.stage = outer
            entry = table[(outer[0], name)]
            entry[0] += 1
            entry[1] += end - start
            self._record_span((own_id, name, start, end, outer[1]))


def totals(table: dict) -> dict:
    """name -> [calls, seconds, units] summed over parents."""
    out = defaultdict(lambda: [0, 0.0, 0])
    for (_, name), (calls, seconds, units) in table.items():
        entry = out[name]
        entry[0] += calls
        entry[1] += seconds
        entry[2] += units
    return out


def self_seconds(table: dict, name: str) -> float:
    """Total seconds of ``name`` minus the seconds of its direct children."""
    own = sum(s for (_, n), (_, s, _) in table.items() if n == name)
    children = sum(s for (p, _), (_, s, _) in table.items() if p == name)
    return own - children


def units_under(table: dict, parent: str, name: str) -> int:
    entry = table.get((parent, name))
    return entry[2] if entry else 0
