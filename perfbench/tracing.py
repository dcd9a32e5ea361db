"""In-memory span tracer that wraps public functions from outside the program.

A traced run replaces module attributes (``forest.predict``,
``pipeline.stage_train``, ...) with wrappers that record one span per call:
name, start, end, parent span and the trace (root span) it belongs to, plus
optional counts taken from the call's arguments or result. Because a module's
functions look each other up through the module's globals, replacing the
attribute also catches calls made inside that module. Spans stay in memory
and are written out once, when the run ends.

A wrapped name that no longer exists is reported in ``missing`` and skipped,
so a renamed function shows up as a missing layer rather than a crash.
"""

from contextlib import contextmanager
import json
import statistics
import time


class Tracer:
    def __init__(self):
        self.spans = []  # dicts: id, name, trace, parent, start, end, attrs
        self.missing = []
        self._stack = []
        self._targets = []  # (owner, attr, original, wrapper)

    def _open(self, name):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "trace": self._stack[0]["id"] if self._stack else len(self.spans),
            "attrs": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span around the benchmark's own code; the outermost one starts a trace."""
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def add(self, owner, attr, name, attrs=None):
        """Register ``owner.attr`` to be wrapped while tracing is enabled.

        ``attrs(args, kwargs, result)`` may return a dict of counts to keep on
        the span.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return

        def wrapper(*args, **kwargs):
            s = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(s)
            if attrs is not None:
                s["attrs"].update(attrs(args, kwargs, result))
            return result

        wrapper.__wrapped__ = original
        self._targets.append((owner, attr, original, wrapper))

    def enable(self):
        for owner, attr, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)

    def disable(self):
        """Put every original back; the program then runs untraced."""
        for owner, attr, original, _ in self._targets:
            setattr(owner, attr, original)

    # ---- queries -------------------------------------------------------

    def select(self, name, traces=None, parent=None, attr=None):
        """Spans called ``name``, optionally only inside the given trace ids,
        directly under a span called ``parent``, or with ``attrs[key] == value``
        for ``attr=(key, value)``."""
        return [s for s in self.spans
                if s["name"] == name and "end" in s and (traces is None or s["trace"] in traces)
                and (parent is None or (s["parent"] is not None and self.spans[s["parent"]]["name"] == parent))
                and (attr is None or s["attrs"].get(attr[0]) == attr[1])]

    def traces_of(self, root_name):
        return {s["id"] for s in self.spans if s["name"] == root_name and s["parent"] is None}

    def total_s(self, name, traces=None):
        return sum(s["end"] - s["start"] for s in self.select(name, traces))

    def median_ms(self, name, traces=None, parent=None, attr=None):
        durations = [s["end"] - s["start"] for s in self.select(name, traces, parent, attr)]
        return 1000.0 * statistics.median(durations) if durations else None

    def count(self, name, key, traces=None):
        return sum(s["attrs"].get(key, 0) for s in self.select(name, traces))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
