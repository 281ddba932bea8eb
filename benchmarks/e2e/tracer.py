"""In-memory span recorder for the traced benchmark run.

The harness measures the simulator from outside: :meth:`Tracer.install`
swaps each listed public function or method for a wrapper that records
a span around the call, everywhere the object is bound (the defining
module, package re-exports and every ``from ... import`` copy inside
``repro``), and :meth:`Tracer.uninstall` puts the originals back.
Nothing in ``src/`` changes.

A span holds its name, start and end (``perf_counter_ns``), the index
of its parent span and the job id current when it opened.  Spans stay
in memory and are written once, at exit, in Chrome trace-event format
(opens in Perfetto).  Calls made inside forked farm workers are not
recorded: the wrappers are inherited across ``fork`` but only the
tracing process keeps spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "args")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.job = job
        self.args = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration_s(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._pid = os.getpid()

    def mark(self, job: str) -> None:
        """Attribute the spans opened from now on to ``job``."""
        self.job = job

    @contextlib.contextmanager
    def span(self, name: str):
        span = Span(name, time.perf_counter_ns(),
                    self._stack[-1] if self._stack else None, self.job)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, function, name, after):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                return function(*args, **kwargs)
            with self.span(name) as span:
                result = function(*args, **kwargs)
                if after is not None:
                    after(span, args, result)
                return result
        return traced

    def install(self, targets) -> None:
        """Wrap every ``(owner, attribute, span_name, after)`` target.

        ``owner`` is a class (the method is replaced on it) or a module
        (every binding of the function inside ``repro`` is replaced).
        ``after(span, call_args, result)`` may annotate the span.
        """
        modules = [module for name, module in list(sys.modules.items())
                   if module is not None and name.split(".")[0] == "repro"]
        for owner, attribute, name, after in targets:
            original = getattr(owner, attribute)
            wrapped = self._wrap(original, name, after)
            if isinstance(owner, type):
                bindings = [(owner, attribute)]
            else:
                bindings = [(module, key) for module in modules
                            for key, value in list(vars(module).items())
                            if value is original]
            for holder, key in bindings:
                setattr(holder, key, wrapped)
                self._patches.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the children's durations."""
        own = [span.duration_s for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration_s
        return own

    def self_by_name(self) -> dict[str, list[float]]:
        grouped = defaultdict(list)
        for span, own in zip(self.spans, self.self_times()):
            grouped[span.name].append(own)
        return grouped

    def self_by_layer(self) -> dict[tuple, float]:
        """Self time summed per ``(root span name, layer)``."""
        roots = []
        for span in self.spans:
            roots.append(span.name if span.parent is None
                         else roots[span.parent])
        totals = defaultdict(float)
        for span, root, own in zip(self.spans, roots, self.self_times()):
            totals[(root, span.layer)] += own
        return dict(totals)

    def write_chrome(self, path) -> None:
        """Chrome trace-event JSON (complete ``X`` events, microseconds)."""
        origin = min((span.start for span in self.spans), default=0)
        events = [{
            "name": span.name,
            "cat": span.layer,
            "ph": "X",
            "ts": (span.start - origin) / 1e3,
            "dur": (span.end - span.start) / 1e3,
            "pid": self._pid,
            "tid": 0,
            "args": {"span": index, "parent": span.parent, "job": span.job,
                     **span.args},
        } for index, span in enumerate(self.spans)]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)
