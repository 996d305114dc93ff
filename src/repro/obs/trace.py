"""Per-request stage timelines: spans, traces, and a bounded tracer.

A ``Trace`` is one request's (or one micro-batch's) timeline through
the serving stack: queue-wait → execute (plan building included) →
respond.  Each stage is a ``Span`` with monotonic start/end offsets
relative to the trace origin, so a dumped trace reads as a waterfall.

The ``Tracer`` keeps a fixed-capacity ring buffer of the most recent
traces (old ones fall off the back) and serialises them to JSON for
``python -m repro serve --trace-dump PATH``.  All mutation is
lock-guarded; recording a span is two ``perf_counter`` calls and a
dataclass append, and a disabled tracer reduces every call to a no-op
object.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Span", "Trace", "Tracer"]


@dataclass
class Span:
    """One named stage inside a trace; times are seconds from origin."""

    name: str
    start_s: float
    end_s: Optional[float] = None
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "seconds": self.seconds,
        }
        if self.meta:
            data["meta"] = dict(self.meta)
        return data


class _SpanContext:
    __slots__ = ("_trace", "_span")

    def __init__(self, trace: "Trace", span: Span):
        self._trace = trace
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._trace.finish_span(self._span)


class Trace:
    """A bounded-lifetime timeline of spans for one request/batch."""

    __slots__ = ("name", "meta", "spans", "wall_time", "_origin", "_lock")

    def __init__(self, name: str, meta: Optional[Dict[str, object]] = None):
        self.name = name
        self.meta: Dict[str, object] = dict(meta or {})
        self.spans: List[Span] = []
        self.wall_time = time.time()
        self._origin = time.perf_counter()
        self._lock = threading.Lock()

    def elapsed(self) -> float:
        return time.perf_counter() - self._origin

    def span(self, name: str, **meta: object) -> _SpanContext:
        """Context manager recording ``name`` from enter to exit."""
        span = Span(name=name, start_s=self.elapsed(), meta=dict(meta))
        with self._lock:
            self.spans.append(span)
        return _SpanContext(self, span)

    def finish_span(self, span: Span) -> None:
        if span.end_s is None:
            span.end_s = self.elapsed()

    def add_span(self, name: str, start_s: float, end_s: float,
                 **meta: object) -> Span:
        """Record an already-measured stage (offsets from trace origin)."""
        span = Span(
            name=name, start_s=start_s, end_s=end_s, meta=dict(meta)
        )
        with self._lock:
            self.spans.append(span)
        return span

    def to_dict(self) -> Dict[str, object]:
        with self._lock:
            spans = [span.to_dict() for span in self.spans]
        return {
            "name": self.name,
            "wall_time": self.wall_time,
            "meta": dict(self.meta),
            "spans": spans,
        }


class Tracer:
    """Fixed-capacity ring buffer of recent traces.

    ``enabled=False`` makes ``start`` return a ``Trace`` that is simply
    never retained — callers keep one code path either way.
    """

    def __init__(self, capacity: int = 256, enabled: bool = True):
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.capacity = capacity
        self.enabled = bool(enabled)
        self._traces: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def start(self, name: str, **meta: object) -> Trace:
        trace = Trace(name, meta)
        if self.enabled:
            with self._lock:
                self._traces.append(trace)
        return trace

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def recent(self, n: Optional[int] = None) -> List[Trace]:
        with self._lock:
            traces = list(self._traces)
        if n is not None:
            traces = traces[-n:]
        return traces

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()

    def dump(self, n: Optional[int] = None) -> List[Dict[str, object]]:
        return [trace.to_dict() for trace in self.recent(n)]

    def dump_json(self, n: Optional[int] = None, indent: int = 2) -> str:
        return json.dumps(self.dump(n), indent=indent)

    def dump_to(self, path, n: Optional[int] = None) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dump_json(n))
            handle.write("\n")
