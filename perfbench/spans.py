"""In-memory span recorder for the traced run.

Spans are opened only from benchmark code: ``patched`` swaps a module-level
name of the program for a wrapper that records a span around each call and
restores the original name afterwards.  Nothing inside ``steeplab`` changes.

A span holds its name, start, end, the id of the span that caused it, the id
of the op it belongs to, and any counters read from the call's result.
Spans opened in a worker thread that has no open span of its own (the sweep's
thread pool) take the innermost open span of the op's own thread as parent.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Collects spans in memory; ``write_jsonl`` writes them out at the end."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op: str | None = None
        self._op_stack: list[int] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def op(self, op_id: str):
        """Mark every span opened inside as belonging to ``op_id``."""
        self._op, self._op_stack = op_id, self._stack()
        try:
            yield
        finally:
            self._op = None

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span; the caller may add counters to the yielded dict."""
        stack = self._stack()
        parent_stack = stack or self._op_stack
        with self._lock:
            span_id = next(self._ids)
        rec = {"id": span_id, "name": name, "op": self._op,
               "parent": parent_stack[-1] if parent_stack else None}
        stack.append(span_id)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def wrap(self, name: str, fn, counters=None, memory: bool = False):
        """``fn`` with a span around each call.

        ``counters(result, args)`` returns counters to store on the span.
        ``memory`` records the call's tracemalloc peak as ``peak_mb``.
        """
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                if memory:
                    tracemalloc.start()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if memory:
                        rec["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                        tracemalloc.stop()
                if counters is not None:
                    rec.update(counters(result, args))
                return result
        return traced

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in sorted(self.spans, key=lambda r: r["id"]):
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Wrap each ``(module, attr, span_name, counters, memory)`` target."""
    saved = []
    try:
        for module, attr, name, counters, memory in targets:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, counters, memory))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
