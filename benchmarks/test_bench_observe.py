"""Observability benchmarks: telemetry overhead and tail latency.

Two claims from the telemetry PR, asserted against a live server:

* **Instrumentation is close to free.**  A session dispatching with
  telemetry enabled (histograms + counter publishing per call) stays
  within 5% of the same session with its registry disabled.
* **Shedding bounds the tail.**  An open-loop Poisson load at 2x the
  measured single-node capacity drives an unbounded queue into
  linearly growing latency; with ``max_pending`` + ``deadline_s``
  configured the server sheds instead, and p99 end-to-end latency of
  the *completed* requests stays under a bound derived from the
  backlog it is allowed to keep.  ``results/serve_tail_latency.txt``
  is the artifact the tier2-observe CI leg uploads.
"""

import time

import numpy as np

from repro.engine import InferenceSession
from repro.nn import UNetConfig
from repro.obs.loadgen import run_load
from repro.obs.metrics import MetricRegistry

BENCH_CFG = UNetConfig(in_channels=2, num_classes=5, base_channels=4, levels=3)
OVERHEAD_CEILING = 1.05


def bench_frame(seed=1, resolution=24, nnz=600):
    rng = np.random.default_rng(seed)
    coords = np.unique(
        rng.integers(0, resolution, size=(nnz, 3)), axis=0
    )
    features = rng.standard_normal((coords.shape[0], 2))
    from repro.sparse.coo import SparseTensor3D

    return SparseTensor3D(coords, features, (resolution,) * 3)


def _min_loop_seconds(session, frame, runs=20, repeats=5):
    """Fastest of ``repeats`` timings of ``runs`` dispatches."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(runs):
            session.run(frame)
        best = min(best, time.perf_counter() - start)
    return best / runs


def _paired_dispatch_seconds(session, frame, pairs=300):
    """Per-dispatch times with the registry enabled and disabled.

    One session serves both sides, so the pair differs only in its
    telemetry.  Dispatches alternate one by one and the order flips
    every pair, so a host whose speed drifts during the loop slows both
    sides alike instead of biasing whichever side ran last.
    """
    registry = session.registry
    enabled, disabled = [], []
    for i in range(pairs):
        for on in ((True, False) if i % 2 else (False, True)):
            registry.enabled = on
            start = time.perf_counter()
            session.run(frame)
            (enabled if on else disabled).append(time.perf_counter() - start)
    registry.enabled = True
    return np.array(enabled), np.array(disabled)


def test_bench_telemetry_overhead_under_five_percent(write_report):
    frame = bench_frame()
    session = InferenceSession(unet_config=BENCH_CFG)
    session.warm(frame)
    # A throwaway pass so both sides start on hot caches.
    _paired_dispatch_seconds(session, frame, pairs=10)

    with_obs, without_obs = _paired_dispatch_seconds(session, frame)
    ratios = with_obs / without_obs
    ratio = float(np.median(ratios))
    q1, q3 = np.percentile(ratios, [25, 75])
    lines = [
        "Telemetry overhead: session dispatch, enabled vs disabled registry",
        f"({ratios.size} interleaved dispatch pairs on one session)",
        "",
        f"  disabled registry   {np.median(without_obs) * 1e3:8.3f} "
        "ms/dispatch (median)",
        f"  enabled registry    {np.median(with_obs) * 1e3:8.3f} "
        "ms/dispatch (median)",
        f"  paired ratio        {ratio:8.3f}x median, IQR {q1:.3f}-{q3:.3f} "
        f"(ceiling {OVERHEAD_CEILING}x)",
    ]
    write_report("telemetry_overhead", "\n".join(lines))
    assert ratio < OVERHEAD_CEILING, (
        f"telemetry-enabled dispatch is {ratio:.3f}x the disabled path "
        f"(median of paired ratios; ceiling {OVERHEAD_CEILING}x) — see "
        "results/telemetry_overhead.txt"
    )


def test_bench_tail_latency_under_overload_with_shedding(write_report):
    frames = [bench_frame(seed) for seed in (1, 2)]
    session = InferenceSession(unet_config=BENCH_CFG)
    for frame in frames:
        session.warm(frame)

    # Measured single-node capacity: steady dispatch time per frame.
    service_s = _min_loop_seconds(session, frames[0], runs=10, repeats=3)
    capacity_hz = 1.0 / service_s
    offered_hz = 2.0 * capacity_hz

    max_pending = 8
    deadline_s = max(0.05, 10.0 * service_s)
    num_requests = 150
    registry = MetricRegistry()
    result, stats = run_load(
        frames,
        rate_hz=offered_hz,
        num_requests=num_requests,
        session=session,
        seed=11,
        max_batch=4,
        max_pending=max_pending,
        deadline_s=deadline_s,
        registry=registry,
    )

    # A completed request queued at most deadline_s, then executed in a
    # micro-batch; generous slack for executor scheduling noise.
    p99_bound_s = deadline_s + 20.0 * service_s
    p99 = result.percentile(99.0)
    lines = [
        "Open-loop tail latency at 2x capacity (shedding enabled)",
        "",
        f"  measured capacity   {capacity_hz:8.1f} req/s "
        f"({service_s * 1e3:.3f} ms/frame)",
        f"  backpressure        max_pending={max_pending}, "
        f"deadline {deadline_s * 1e3:.1f} ms",
        *result.summary_lines(),
        f"  p99 bound           {p99_bound_s * 1e3:8.2f} ms "
        "(deadline + 20x service)",
    ]
    write_report("serve_tail_latency", "\n".join(lines))

    assert result.submitted == num_requests
    assert result.completed > 0 and result.errors == 0
    assert result.shed_total > 0, (
        "2x overload never tripped the shedding path — the tail bound "
        "below would be meaningless"
    )
    assert stats.rejected_overload + stats.rejected_deadline == (
        result.shed_total
    )
    assert registry.get("repro_serve_e2e_seconds").count() == (
        result.completed
    )
    assert p99 <= p99_bound_s, (
        f"p99 {p99 * 1e3:.1f} ms exceeds the shedding-derived bound "
        f"{p99_bound_s * 1e3:.1f} ms — see results/serve_tail_latency.txt"
    )
