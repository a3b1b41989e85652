"""A small in-memory span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own code around calls into the
package's public functions: each operation gets one trace id (carried in
a context variable, so client threads keep their own), and every span
records its name, start, end and parent. Nothing is written until
:meth:`Tracer.dump`, which emits one JSON object per line.

A disabled tracer hands out one shared no-op context manager, so the
untraced runs pay a single attribute check per span site.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)
_NOOP = nullcontext()


class Tracer:
    """Collects spans as ``(trace, id, parent, name, start, end)`` records."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def new_trace(self) -> int:
        """A fresh trace id, for operations recorded with :meth:`record`."""
        return self._new_id()

    def record(
        self,
        name: str,
        start: float,
        end: float,
        *,
        trace: int,
        parent: "int | None",
        **attrs,
    ) -> int:
        """Add one finished span with explicit bounds; returns its id."""
        span_id = self._new_id()
        span = {
            "trace": trace,
            "id": span_id,
            "parent": parent,
            "name": name,
            "start": start,
            "end": max(start, end),
        }
        if attrs:
            span["attrs"] = attrs
        with self._lock:
            self.spans.append(span)
        return span_id

    @contextmanager
    def _span(self, name: str, root: bool, attrs: dict):
        current = _CURRENT.get()
        if root or current is None:
            trace, parent = self._new_id(), None
        else:
            trace, parent = current
        span_id = self._new_id()
        token = _CURRENT.set((trace, span_id))
        start = time.monotonic()
        try:
            yield (trace, span_id)
        finally:
            end = time.monotonic()
            _CURRENT.reset(token)
            span = {
                "trace": trace,
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": start,
                "end": end,
            }
            if attrs:
                span["attrs"] = attrs
            with self._lock:
                self.spans.append(span)

    def op(self, name: str, **attrs):
        """A root span: a fresh trace id for one operation."""
        if not self.enabled:
            return _NOOP
        return self._span(name, True, attrs)

    def span(self, name: str, **attrs):
        """A child of the current span (a root if there is none)."""
        if not self.enabled:
            return _NOOP
        return self._span(name, False, attrs)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _covered(intervals: "list[tuple[float, float]]") -> float:
    """Length of the union of ``intervals``."""
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


def self_times(spans: "list[dict]") -> "dict[int, float]":
    """Each span's duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered(children.get(span["id"], []))
        for span in spans
    }


def summarize(spans: "list[dict]") -> dict:
    """Per-name self-time medians and the per-operation self-time check.

    ``self_over_wall_max`` is the largest, over operations, of the summed
    self times of every span in the operation divided by the operation's
    wall time; well-nested spans give exactly 1.0, overlapping siblings
    more.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[float]] = defaultdict(list)
    per_trace: dict[int, float] = defaultdict(float)
    roots: dict[int, float] = {}
    for span in spans:
        by_name[span["name"]].append(selfs[span["id"]])
        per_trace[span["trace"]] += selfs[span["id"]]
        if span["parent"] is None:
            roots[span["trace"]] = span["end"] - span["start"]
    ratios = [
        per_trace[trace] / wall for trace, wall in roots.items() if wall > 0
    ]
    return {
        "spans": len(spans),
        "self_over_wall_max": max(ratios) if ratios else 0.0,
        "self_ms_p50": {
            name: sorted(values)[len(values) // 2] * 1e3
            for name, values in sorted(by_name.items())
        },
    }
