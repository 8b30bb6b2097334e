"""Span recording and the arithmetic the traced run reports.

A span is one call of a wrapped ``vdm`` function: its name (``layer.what``),
start and end in seconds, the index of the enclosing span (or None), the
run id of the command it belongs to, and optional counters taken from the
call's arguments or result.  Spans stay in memory until the command ends.
"""
from __future__ import annotations

import functools
import time


class SpanRecorder:
    """In-memory span log with a call stack for parent links."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, counters=None):
        """Return ``fn`` wrapped so each call records one span.

        ``counters(args, kwargs, result)`` returns a dict of numbers stored
        on the span; it runs after the span has ended.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "name": name,
                "start": 0.0,
                "end": 0.0,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counters is not None:
                span.update(counters(args, kwargs, result))
            return result

        return wrapper


def covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per-span self time: duration minus the part its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return [
        (s["end"] - s["start"]) - covered(kids) for s, kids in zip(spans, children)
    ]


def layer_self_times(spans, wall):
    """Sum self time per layer and the wall time no span covers.

    Returns ``(per_layer, remainder)``; when spans nest properly (one thread,
    children inside parents) ``sum(per_layer.values()) + remainder == wall``.
    """
    per_layer = {}
    for span, own in zip(spans, self_times(spans)):
        layer = span["name"].split(".", 1)[0]
        per_layer[layer] = per_layer.get(layer, 0.0) + own
    roots = [(s["start"], s["end"]) for s in spans if s["parent"] is None]
    return per_layer, wall - covered(roots)


def has_ancestor(spans, index, name):
    parent = spans[index]["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by nearest rank, or None when fewer
    than ten samples lie beyond it.

    A p90 therefore needs at least 100 samples and a median at least 20.
    """
    n = len(values)
    if n == 0 or n * (100 - q) / 100 < 10:
        return None
    ordered = sorted(values)
    rank = max(1, -(-n * q // 100))
    return ordered[int(rank) - 1]
