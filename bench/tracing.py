"""In-memory spans around the calls the benchmark makes into qmor.

A span records its name, start, end, parent span and op id.  Spans stay in
memory and are written once when the run ends.  The layer of a span is the
part of its name before the first dot (``analysis.error_report`` belongs to
``analysis``); op spans belong to the ``bench`` layer, which is the
benchmark's own glue between the layer calls.
"""

import time
from contextlib import contextmanager


class NullTracer:
    """Tracing off: calls go straight through."""

    def call(self, name, fn, *args, **attrs):
        return fn(*args)

    @contextmanager
    def op(self, op_id, kind):
        yield None


class Tracer:
    """Tracing on: every call becomes a span under the open op span, if any."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op_id = None

    def _open(self, name, attrs):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "op": self._op_id,
            "start": time.perf_counter(),
            "end": None,
        }
        span.update(attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **attrs):
        span = self._open(name, attrs)
        try:
            return fn(*args)
        except Exception:
            span["error"] = True
            raise
        finally:
            self._close(span)

    @contextmanager
    def op(self, op_id, kind):
        self._op_id = op_id
        span = self._open("bench.op", {"kind": kind})
        try:
            yield span
        finally:
            self._close(span)
            self._op_id = None

    def probe(self, op_id, name, fn, *args, **attrs):
        """A root span that times one layer call on an op's own inputs."""
        self._op_id = op_id
        try:
            return self.call(name, fn, *args, **attrs)
        finally:
            self._op_id = None


def layer_of(span):
    return span["name"].split(".", 1)[0]


def duration(span):
    return span["end"] - span["start"]


def self_times(spans):
    """Seconds of each layer's self time: span time not covered by its children.

    Children run inside their parent and never overlap (one thread), so the
    self time of a span is its duration minus its children's durations.
    """
    child_time = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + duration(span)
    totals = {}
    for span in spans:
        own = duration(span) - child_time.get(span["id"], 0.0)
        totals[layer_of(span)] = totals.get(layer_of(span), 0.0) + own
    return totals


def op_tree(spans):
    """Spans that belong to op trees (op spans and their descendants)."""
    op_ids = {s["id"] for s in spans if s["name"] == "bench.op"}
    keep = []
    by_id = {s["id"]: s for s in spans}
    for span in spans:
        node = span
        while node["parent"] is not None:
            node = by_id[node["parent"]]
        if node["id"] in op_ids:
            keep.append(span)
    return keep
