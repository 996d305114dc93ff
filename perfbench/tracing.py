"""In-memory span recording for the benchmark's traced runs.

Spans are recorded by the benchmark around its own calls into the
library (nothing inside ``src/`` is instrumented): each span has a name,
start and end (``time.perf_counter`` seconds), the index of its parent
span, and the id of the frame or request it belongs to.  Spans stay in
memory and are written out once, when the run ends.

A layer's *self time* is its span's duration minus the time covered by
its child spans; the root span's self time is the part of an operation
no layer span explains (loop bookkeeping), reported as the remainder.
Durations are reported at the reference host speed: each operation's
spans are scaled by the factor in ``scale`` for its id (see
``measure.HostSpeed``); the dump keeps the raw times.

The library's own ``repro.obs.trace`` is not used on purpose.  The
benchmark must measure a change to it, not be shifted by one: its
overhead and its ring capacity would become part of every traced
number.  Its ``Trace`` also takes only offsets from a private origin,
while the serving spans here are measured on another thread in
absolute ``perf_counter`` time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op_id: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans while ``enabled``; costs one check when not."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        #: Operation id -> host-speed factor of that operation.
        self.scale: Dict[int, float] = {}
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, op_id: int) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, 0.0, 0.0, parent, op_id))
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, op_id)

    def record(
        self, name: str, start: float, end: float, parent: Optional[int], op_id: int
    ) -> int:
        """Add a span measured elsewhere (e.g. on another thread)."""
        self.spans.append(Span(name, start, end, parent, op_id))
        return len(self.spans) - 1

    def seconds(self, span: Span) -> float:
        """The span's duration at the reference host speed."""
        return span.seconds * self.scale.get(span.op_id, 1.0)

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name, at the reference host speed."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += self.seconds(span)
        totals: Dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            totals[span.name] += self.seconds(span) - child[index]
        return dict(totals)

    def roots(self) -> List[Span]:
        return [span for span in self.spans if span.parent is None]

    def dump(self, path: str, header: dict) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    **header,
                    "scale": self.scale,
                    "spans": [asdict(span) for span in self.spans],
                },
                handle,
            )
