"""Dependency-free metric registry: counters, gauges, histograms.

The registry is the single telemetry surface shared by the session,
server and cluster tiers.  Design points, in order of importance:

* **Thread-safe.**  Every mutation takes the registry lock.  Counters
  and gauges are therefore safe to bump from the asyncio dispatch loop,
  executor threads and client threads at once — this is what backs the
  ``ServeStats`` accounting that used to race.
* **Near-zero overhead when disabled.**  ``registry.enabled = False``
  turns every ``Histogram.observe`` and timing helper into a single
  attribute check.  Counters and gauges keep counting regardless: they
  are the accounting backbone of ``ServeStats``/``ClusterStats`` and a
  plain locked add is already cheap.
* **One home per count.**  A count that already lives elsewhere (a
  session's frame count, a cache's hits) is exposed through a *reader*
  counter, ``registry.counter(name, help, labels, read=fn)``: every
  read calls ``fn``, so the registry never holds a second copy that
  could drift, and ``inc`` on it raises.
* **Small-tuple labels.**  A metric declares its label *names* once
  (``labels=("stage",)``); each observation supplies the label *values*
  and series are keyed on the resulting tuple.  Cardinality is expected
  to stay tiny (stages, backends, shed reasons, worker addresses).
* **Quantiles from buckets.**  Histograms use fixed log-spaced latency
  buckets and estimate p50/p90/p99 by linear interpolation inside the
  bucket holding the target rank — the classic Prometheus
  ``histogram_quantile`` scheme, computed locally.

Rendering: ``registry.render()`` emits Prometheus text exposition
format; ``registry.render("json")`` emits a JSON document with the same
content.  ``registry.snapshot()`` returns the raw dict for programmatic
use (periodic snapshot logging, tests).
"""

from __future__ import annotations

import json
import math
import re
import threading
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_S",
    "BATCH_SIZE_BUCKETS",
    "MetricRegistry",
]

# Log-spaced latency buckets: 50us .. 10s in 1-2.5-5 steps.  Wide
# enough for a sub-millisecond warm frame and a multi-second cold
# cluster batch on the same axis.
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.00005,
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

# Powers of two for micro-batch sizes (max_batch defaults to 16 but
# callers may raise it).
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_series(name: str, labels: Tuple[str, ...],
                   key: Tuple[str, ...], extra: str = "") -> str:
    pairs = [
        f'{label}="{_escape_label_value(value)}"'
        for label, value in zip(labels, key)
    ]
    if extra:
        pairs.append(extra)
    if not pairs:
        return name
    return f"{name}{{{','.join(pairs)}}}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Metric:
    """Base class: name, help text, declared label names, shared lock."""

    kind = "untyped"

    def __init__(self, registry: "MetricRegistry", name: str, help: str,
                 labels: Tuple[str, ...]):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self._registry = registry
        self._lock = registry._lock
        self.name = name
        self.help = help
        self.labels = tuple(labels)

    def _key(self, label_values: Dict[str, str]) -> Tuple[str, ...]:
        if len(label_values) != len(self.labels):
            raise ValueError(
                f"{self.name} expects labels {self.labels}, "
                f"got {tuple(sorted(label_values))}"
            )
        try:
            return tuple(str(label_values[label]) for label in self.labels)
        except KeyError as exc:
            raise ValueError(
                f"{self.name} expects labels {self.labels}, "
                f"got {tuple(sorted(label_values))}"
            ) from exc

    def series(self) -> Dict[Tuple[str, ...], float]:
        raise NotImplementedError

    def render_prometheus(self) -> List[str]:
        """One sample line per series (counters, gauges)."""
        lines = self._header()
        for key, value in sorted(self.series().items()):
            lines.append(
                f"{_format_series(self.name, self.labels, key)} "
                f"{_format_value(value)}"
            )
        return lines

    def to_dict(self) -> Dict[str, object]:
        with self._lock:
            series = {
                ",".join(key) if key else "": value
                for key, value in self.series().items()
            }
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "labels": list(self.labels),
            "series": series,
        }

    def _header(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class Counter(Metric):
    """Monotonic (per series) float counter.

    Declared with ``read=fn`` it is a read-only view of a count kept by
    its owner: ``fn()`` returns the value of an unlabelled counter, or a
    ``{label-value tuple: value}`` mapping for a labelled one, and is
    called on every ``value`` / ``total`` / ``series`` / render.  It
    returns ``None`` once its owner is gone, and the counter then has no
    series.  ``inc`` on a reader counter raises ``TypeError``.
    """

    kind = "counter"

    def __init__(self, registry, name, help, labels,
                 read: Optional[Callable[[], object]] = None):
        super().__init__(registry, name, help, labels)
        self._values: Dict[Tuple[str, ...], float] = {}
        self._read = read

    def inc(self, amount: float = 1.0, **label_values: str) -> None:
        if self._read is not None:
            raise TypeError(
                f"{self.name} reads its value from its owner; "
                "it cannot be incremented"
            )
        key = self._key(label_values)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **label_values: str) -> float:
        return self.series().get(self._key(label_values), 0.0)

    def total(self) -> float:
        return sum(self.series().values())

    def series(self) -> Dict[Tuple[str, ...], float]:
        read = self._read
        if read is None:
            with self._lock:
                return dict(self._values)
        values = read()
        if values is None:
            return {}
        if not self.labels:
            return {(): float(values)}
        return {key: float(value) for key, value in values.items()}


class Gauge(Metric):
    """A value that goes up and down (queue depth, warm sessions)."""

    kind = "gauge"

    def __init__(self, registry, name, help, labels):
        super().__init__(registry, name, help, labels)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **label_values: str) -> None:
        key = self._key(label_values)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **label_values: str) -> None:
        key = self._key(label_values)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **label_values: str) -> None:
        self.inc(-amount, **label_values)

    def value(self, **label_values: str) -> float:
        key = self._key(label_values)
        with self._lock:
            return self._values.get(key, 0.0)

    def series(self) -> Dict[Tuple[str, ...], float]:
        with self._lock:
            return dict(self._values)


class _HistogramSeries:
    __slots__ = ("counts", "total", "sum")

    def __init__(self, num_buckets: int):
        self.counts = [0] * (num_buckets + 1)  # +1 overflow (+Inf)
        self.total = 0
        self.sum = 0.0


class Histogram(Metric):
    """Fixed-bucket histogram with bucket-based quantile estimation.

    ``observe`` is the only hot-path call and honours the registry's
    ``enabled`` flag: when telemetry is off it is a single attribute
    check and return.
    """

    kind = "histogram"

    def __init__(self, registry, name, help, labels,
                 buckets: Iterable[float] = LATENCY_BUCKETS_S):
        super().__init__(registry, name, help, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"{name}: buckets must be a non-empty ascending sequence"
            )
        self.buckets = bounds
        self._series: Dict[Tuple[str, ...], _HistogramSeries] = {}

    def observe(self, value: float, **label_values: str) -> None:
        if not self._registry.enabled:
            return
        key = self._key(label_values)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(
                    len(self.buckets)
                )
            idx = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    idx = i
                    break
            series.counts[idx] += 1
            series.total += 1
            series.sum += value

    def count(self, **label_values: str) -> int:
        key = self._key(label_values)
        with self._lock:
            series = self._series.get(key)
            return series.total if series else 0

    def sum(self, **label_values: str) -> float:
        key = self._key(label_values)
        with self._lock:
            series = self._series.get(key)
            return series.sum if series else 0.0

    def quantile(self, q: float, **label_values: str) -> float:
        """Estimate the q-quantile (q in [0, 1]) from bucket counts.

        Linear interpolation inside the target bucket; observations in
        the overflow bucket clamp to the highest finite bound.  Returns
        ``nan`` for an empty series.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        key = self._key(label_values)
        with self._lock:
            series = self._series.get(key)
            if series is None or series.total == 0:
                return math.nan
            counts = list(series.counts)
            total = series.total
        rank = q * total
        cumulative = 0.0
        for i, count in enumerate(counts):
            if count == 0:
                continue
            if cumulative + count >= rank:
                if i >= len(self.buckets):
                    return self.buckets[-1]
                lower = self.buckets[i - 1] if i > 0 else 0.0
                upper = self.buckets[i]
                fraction = (rank - cumulative) / count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
            cumulative += count
        return self.buckets[-1]

    def series(self) -> Dict[Tuple[str, ...], float]:
        with self._lock:
            return {key: s.total for key, s in self._series.items()}

    def summaries(self) -> Dict[Tuple[str, ...], Dict[str, float]]:
        """Per-series count/sum/p50/p90/p99 — the snapshot-log payload."""
        with self._lock:
            keys = list(self._series)
        out = {}
        for key in keys:
            label_values = dict(zip(self.labels, key))
            out[key] = {
                "count": self.count(**label_values),
                "sum": self.sum(**label_values),
                "p50": self.quantile(0.50, **label_values),
                "p90": self.quantile(0.90, **label_values),
                "p99": self.quantile(0.99, **label_values),
            }
        return out

    def render_prometheus(self) -> List[str]:
        lines = self._header()
        with self._lock:
            snapshot = {
                key: (list(s.counts), s.total, s.sum)
                for key, s in self._series.items()
            }
        bucket_name = self.name + "_bucket"
        for key, (counts, total, total_sum) in sorted(snapshot.items()):
            cumulative = 0
            for bound, count in zip(self.buckets, counts):
                cumulative += count
                le = 'le="%s"' % _format_value(bound)
                series = _format_series(bucket_name, self.labels, key, le)
                lines.append(f"{series} {cumulative}")
            series = _format_series(
                bucket_name, self.labels, key, 'le="+Inf"'
            )
            lines.append(f"{series} {total}")
            lines.append(
                f"{_format_series(self.name + '_sum', self.labels, key)} "
                f"{repr(float(total_sum))}"
            )
            lines.append(
                f"{_format_series(self.name + '_count', self.labels, key)} "
                f"{total}"
            )
        return lines

    def to_dict(self) -> Dict[str, object]:
        data = super().to_dict()
        data["buckets"] = list(self.buckets)
        data["summaries"] = {
            ",".join(key) if key else "": summary
            for key, summary in self.summaries().items()
        }
        return data


class MetricRegistry:
    """Named metric registry with idempotent declarations.

    Declaring the same name twice with the same kind/labels returns the
    existing metric (so a session and a server can both "declare" a
    shared metric); conflicting redeclarations raise.  Re-declaring a
    reader counter rebinds it to the newest ``read`` function.
    """

    def __init__(self, enabled: bool = True):
        self._lock = threading.RLock()
        self._metrics: Dict[str, Metric] = {}
        self.enabled = bool(enabled)

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def _declare(self, cls, name, help, labels, **kwargs) -> Metric:
        labels = tuple(labels)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labels != labels:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labels}"
                    )
                return existing
            metric = cls(self, name, help, labels, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labels: Iterable[str] = (),
                read: Optional[Callable[[], object]] = None) -> Counter:
        """Declare a counter; ``read`` makes it a reader counter."""
        with self._lock:
            counter = self._declare(Counter, name, help, labels, read=read)
            if (counter._read is None) != (read is None):
                raise ValueError(
                    f"metric {name!r} already registered as a "
                    f"{'plain' if read is not None else 'reader'} counter"
                )
            counter._read = read
            return counter

    def gauge(self, name: str, help: str = "",
              labels: Iterable[str] = ()) -> Gauge:
        return self._declare(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Iterable[str] = (),
                  buckets: Iterable[float] = LATENCY_BUCKETS_S) -> Histogram:
        return self._declare(Histogram, name, help, labels, buckets=buckets)

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> List[Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {metric.name: metric.to_dict() for metric in self.metrics()}

    def render(self, fmt: str = "prometheus") -> str:
        if fmt == "prometheus":
            lines: List[str] = []
            for metric in self.metrics():
                lines.extend(metric.render_prometheus())
            return "\n".join(lines) + "\n" if lines else ""
        if fmt == "json":
            return json.dumps(self.snapshot(), indent=2, sort_keys=True)
        raise ValueError(f"unknown render format {fmt!r}")
