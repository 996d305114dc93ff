"""Tests for the metric registry core (repro.obs.metrics)."""

import json
import math
import threading

import numpy as np
import pytest

from repro.obs.metrics import (
    BATCH_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS_S,
    MetricRegistry,
)


# ----------------------------------------------------------------------
# Registry declaration semantics
# ----------------------------------------------------------------------
def test_declarations_are_idempotent():
    reg = MetricRegistry()
    a = reg.counter("repro_x_total", "help", labels=("stage",))
    b = reg.counter("repro_x_total", "other help", labels=("stage",))
    assert a is b
    assert reg.names() == ["repro_x_total"]


def test_conflicting_redeclaration_raises():
    reg = MetricRegistry()
    reg.counter("repro_x_total", labels=("stage",))
    with pytest.raises(ValueError, match="already registered"):
        reg.gauge("repro_x_total")
    with pytest.raises(ValueError, match="already registered"):
        reg.counter("repro_x_total", labels=("other",))


def test_invalid_names_and_labels_raise():
    reg = MetricRegistry()
    with pytest.raises(ValueError, match="invalid metric name"):
        reg.counter("bad name")
    with pytest.raises(ValueError, match="invalid label name"):
        reg.counter("repro_ok_total", labels=("bad-label",))


def test_get_and_names():
    reg = MetricRegistry()
    c = reg.counter("repro_b_total")
    reg.gauge("repro_a")
    assert reg.get("repro_b_total") is c
    assert reg.get("missing") is None
    assert reg.names() == ["repro_a", "repro_b_total"]


# ----------------------------------------------------------------------
# Counter / Gauge
# ----------------------------------------------------------------------
def test_counter_inc_value_total_with_labels():
    reg = MetricRegistry()
    c = reg.counter("repro_hits_total", labels=("cache", "result"))
    c.inc(cache="plan", result="hit")
    c.inc(3, cache="plan", result="miss")
    assert c.value(cache="plan", result="hit") == 1
    assert c.value(cache="plan", result="miss") == 3
    assert c.value(cache="rulebook", result="hit") == 0
    assert c.total() == 4
    assert c.series() == {("plan", "hit"): 1.0, ("plan", "miss"): 3.0}


def test_reader_counter_reads_its_owner_live():
    owner = {"frames": 0, "plan_hits": 0, "plan_misses": 0}
    reg = MetricRegistry(enabled=False)  # readers ignore the flag
    frames = reg.counter(
        "repro_frames_total", "frames", read=lambda: owner["frames"]
    )
    lookups = reg.counter(
        "repro_lookups_total",
        "lookups",
        labels=("cache", "result"),
        read=lambda: {
            ("plan", "hit"): owner["plan_hits"],
            ("plan", "miss"): owner["plan_misses"],
        },
    )
    owner.update(frames=3, plan_hits=2, plan_misses=5)
    assert frames.value() == 3 and frames.total() == 3
    assert lookups.value(cache="plan", result="hit") == 2
    assert lookups.value(cache="rulebook", result="hit") == 0
    assert lookups.total() == 7
    text = reg.render()
    assert "repro_frames_total 3\n" in text
    assert 'repro_lookups_total{cache="plan",result="miss"} 5' in text
    doc = json.loads(reg.render("json"))
    assert doc["repro_frames_total"]["series"] == {"": 3.0}
    assert doc["repro_lookups_total"]["series"] == {
        "plan,hit": 2.0, "plan,miss": 5.0,
    }
    owner["frames"] = 4
    assert reg.snapshot()["repro_frames_total"]["series"] == {"": 4.0}
    with pytest.raises(TypeError, match="cannot be incremented"):
        frames.inc()
    with pytest.raises(TypeError, match="cannot be incremented"):
        lookups.inc(cache="plan", result="hit")


def test_reader_counter_redeclaration_rebinds_and_conflicts_raise():
    reg = MetricRegistry()
    first = reg.counter("repro_frames_total", read=lambda: 1)
    second = reg.counter("repro_frames_total", read=lambda: 2)
    assert second is first
    assert first.value() == 2  # the newest owner is read
    with pytest.raises(ValueError, match="already registered"):
        reg.gauge("repro_frames_total")
    with pytest.raises(ValueError, match="already registered"):
        reg.counter("repro_frames_total", labels=("cache",), read=dict)
    with pytest.raises(ValueError, match="reader counter"):
        reg.counter("repro_frames_total")
    reg.counter("repro_plain_total").inc()
    with pytest.raises(ValueError, match="plain counter"):
        reg.counter("repro_plain_total", read=lambda: 0)
    assert reg.get("repro_frames_total").value() == 2


def test_counter_label_mismatch_raises():
    reg = MetricRegistry()
    c = reg.counter("repro_hits_total", labels=("cache",))
    with pytest.raises(ValueError, match="expects labels"):
        c.inc()
    with pytest.raises(ValueError, match="expects labels"):
        c.inc(wrong="x")


def test_counters_count_even_when_registry_disabled():
    # Counters back ServeStats/ClusterStats accounting: they must stay
    # correct with telemetry off.
    reg = MetricRegistry(enabled=False)
    c = reg.counter("repro_requests_total")
    c.inc()
    assert c.value() == 1


def test_gauge_set_inc_dec():
    reg = MetricRegistry()
    g = reg.gauge("repro_depth", labels=("worker",))
    g.set(4, worker="a:1")
    g.inc(worker="a:1")
    g.dec(2, worker="a:1")
    assert g.value(worker="a:1") == 3
    assert g.value(worker="b:2") == 0


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------
def test_histogram_bucketing_and_count_sum():
    reg = MetricRegistry()
    h = reg.histogram("repro_lat_seconds", buckets=(0.001, 0.01, 0.1))
    for v in (0.0005, 0.005, 0.05, 0.5):
        h.observe(v)
    assert h.count() == 4
    assert h.sum() == pytest.approx(0.5555)


def test_histogram_quantile_interpolates_within_bucket():
    reg = MetricRegistry()
    h = reg.histogram("repro_lat_seconds", buckets=(1.0, 2.0, 4.0))
    for _ in range(10):
        h.observe(1.5)  # all land in the (1, 2] bucket
    # rank 5 of 10 -> half-way through the (1.0, 2.0] bucket
    assert h.quantile(0.5) == pytest.approx(1.5)
    assert h.quantile(1.0) == pytest.approx(2.0)


def test_histogram_overflow_clamps_to_last_bound():
    reg = MetricRegistry()
    h = reg.histogram("repro_lat_seconds", buckets=(0.001, 0.01))
    h.observe(5.0)  # beyond every finite bucket
    assert h.quantile(0.99) == pytest.approx(0.01)


def test_histogram_empty_series_is_nan():
    reg = MetricRegistry()
    h = reg.histogram("repro_lat_seconds")
    assert math.isnan(h.quantile(0.5))
    with pytest.raises(ValueError, match="quantile"):
        h.quantile(1.5)


def test_histogram_disabled_observe_is_noop():
    reg = MetricRegistry(enabled=False)
    h = reg.histogram("repro_lat_seconds")
    h.observe(0.01)
    assert h.count() == 0
    reg.enable()
    h.observe(0.01)
    assert h.count() == 1


def test_histogram_rejects_bad_buckets():
    reg = MetricRegistry()
    with pytest.raises(ValueError, match="ascending"):
        reg.histogram("repro_bad", buckets=(2.0, 1.0))
    with pytest.raises(ValueError, match="ascending"):
        reg.histogram("repro_bad2", buckets=())


def test_default_bucket_layouts():
    assert list(LATENCY_BUCKETS_S) == sorted(LATENCY_BUCKETS_S)
    assert LATENCY_BUCKETS_S[0] == pytest.approx(50e-6)
    assert LATENCY_BUCKETS_S[-1] == pytest.approx(10.0)
    assert list(BATCH_SIZE_BUCKETS) == [1, 2, 4, 8, 16, 32, 64, 128]


def test_histogram_summaries():
    reg = MetricRegistry()
    h = reg.histogram(
        "repro_lat_seconds", labels=("stage",), buckets=(1.0, 2.0)
    )
    h.observe(0.5, stage="gemm")
    h.observe(1.5, stage="gemm")
    summary = h.summaries()[("gemm",)]
    assert summary["count"] == 2
    assert summary["sum"] == pytest.approx(2.0)
    assert 0.0 < summary["p50"] <= 2.0


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def test_prometheus_render_counter_gauge():
    reg = MetricRegistry()
    c = reg.counter("repro_hits_total", "Cache hits.", labels=("cache",))
    c.inc(2, cache="plan")
    g = reg.gauge("repro_depth", "Queue depth.")
    g.set(3)
    text = reg.render()
    assert "# HELP repro_hits_total Cache hits." in text
    assert "# TYPE repro_hits_total counter" in text
    assert 'repro_hits_total{cache="plan"} 2' in text
    assert "# TYPE repro_depth gauge" in text
    assert "repro_depth 3" in text
    assert text.endswith("\n")


def test_prometheus_render_histogram_cumulative_buckets():
    reg = MetricRegistry()
    h = reg.histogram("repro_lat_seconds", buckets=(0.001, 0.01))
    h.observe(0.0005)
    h.observe(0.005)
    h.observe(5.0)
    text = reg.render()
    assert 'repro_lat_seconds_bucket{le="0.001"} 1' in text
    assert 'repro_lat_seconds_bucket{le="0.01"} 2' in text
    assert 'repro_lat_seconds_bucket{le="+Inf"} 3' in text
    assert "repro_lat_seconds_count 3" in text
    assert "repro_lat_seconds_sum" in text


def test_prometheus_label_values_are_escaped():
    reg = MetricRegistry()
    c = reg.counter("repro_odd_total", labels=("tag",))
    c.inc(tag='he said "hi"\\n')
    text = reg.render()
    assert '\\"hi\\"' in text


def test_json_render_round_trips():
    reg = MetricRegistry()
    reg.counter("repro_hits_total", labels=("cache",)).inc(cache="plan")
    h = reg.histogram("repro_lat_seconds", buckets=(1.0,))
    h.observe(0.5)
    doc = json.loads(reg.render("json"))
    assert doc["repro_hits_total"]["kind"] == "counter"
    assert doc["repro_hits_total"]["series"] == {"plan": 1.0}
    assert doc["repro_lat_seconds"]["buckets"] == [1.0]
    assert doc["repro_lat_seconds"]["summaries"][""]["count"] == 1
    with pytest.raises(ValueError, match="unknown render format"):
        reg.render("xml")


def test_snapshot_contains_every_metric():
    reg = MetricRegistry()
    reg.counter("repro_a_total")
    reg.gauge("repro_b")
    snap = reg.snapshot()
    assert set(snap) == {"repro_a_total", "repro_b"}


# ----------------------------------------------------------------------
# Thread safety
# ----------------------------------------------------------------------
def test_counter_is_thread_safe_under_contention():
    reg = MetricRegistry()
    c = reg.counter("repro_contended_total")
    h = reg.histogram("repro_contended_seconds", buckets=(1.0,))
    per_thread, threads = 2000, 8

    def worker():
        for _ in range(per_thread):
            c.inc()
            h.observe(0.5)

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    assert c.value() == per_thread * threads
    assert h.count() == per_thread * threads


def test_quantile_tracks_numpy_for_dense_buckets():
    """Bucketed p50/p90 stay within one bucket of exact percentiles."""
    rng = np.random.default_rng(0)
    values = rng.exponential(scale=0.01, size=2000)
    reg = MetricRegistry()
    h = reg.histogram("repro_lat_seconds")
    for v in values:
        h.observe(float(v))
    for q in (0.5, 0.9):
        exact = float(np.percentile(values, q * 100))
        estimate = h.quantile(q)
        # Same log-spaced bucket or the adjacent one.
        bounds = [b for b in LATENCY_BUCKETS_S if b >= exact]
        upper = bounds[0] if bounds else LATENCY_BUCKETS_S[-1]
        assert estimate <= upper * 2.5
        assert estimate >= exact / 2.5
