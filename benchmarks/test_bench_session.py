"""Session-overhead smoke benchmark.

The :class:`repro.engine.session.InferenceSession` is the mandatory
front door, so its dispatch cost must be negligible: resolving a
rulebook through the session and running the fused engine may add at
most 5 % over calling ``RulebookCache`` + ``apply_rulebook`` directly on
the default streaming workload.  A second check covers the batching
surface: ``run_batch`` over repeated site sets must not be slower than
sequential ``run`` calls by more than the same margin, both on a small
64^3 grid and on a ~2000-site 192^3 chair on two backend x precision
cells.  A report-only row prices the ``int`` precision's fixed-point
wrap: warm ``int`` against warm ``float64`` ``run`` on a drifting chair.
"""

import statistics
import time

import numpy as np

from repro.engine import InferenceSession
from repro.geometry.synthetic import make_shapenet_like_cloud
from repro.geometry.voxelizer import Voxelizer
from repro.nn import RulebookCache, UNetConfig, apply_rulebook
from repro.runtime import DriftingSceneSource


def default_workload():
    """The StreamingRunner default: occupancy grid at 192^3, Sub-Conv 1->16."""
    cloud = make_shapenet_like_cloud(seed=0, n_points=60000)
    grid = Voxelizer(resolution=192, normalize=False, occupancy_only=True).voxelize(
        cloud
    )
    rng = np.random.default_rng(0)
    weights = rng.standard_normal((27, 1, 16))
    return grid, weights


def interleaved_medians(fn_a, fn_b, reps=100, warmup=3):
    """Median seconds of two closely-matched paths, and of their ratio.

    Each rep times one call of each path back to back, alternating
    which runs first, so neither path always inherits the other's cache
    state.  The ratio ``b / a`` is taken per pair and its median
    returned: load drift (noisy CI neighbors, thermal throttling) that
    spans a pair cancels inside it, which is what a small
    relative-overhead assertion needs.  An even ``reps`` puts each path
    first equally often.
    """
    for _ in range(warmup):
        fn_a()
        fn_b()
    samples_a, samples_b = [], []
    for rep in range(reps):
        order = [(fn_a, samples_a), (fn_b, samples_b)]
        if rep % 2:
            order.reverse()
        for fn, samples in order:
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
    ratios = [b / a for a, b in zip(samples_a, samples_b)]
    return (
        statistics.median(samples_a),
        statistics.median(samples_b),
        statistics.median(ratios),
    )


def test_session_dispatch_overhead_under_5_percent(write_report):
    grid, weights = default_workload()

    cache = RulebookCache()
    cache.submanifold(grid, 3)  # warm both paths

    def direct_layer():
        rulebook = cache.submanifold(grid, 3)
        return apply_rulebook(rulebook, grid.features, weights, grid.nnz)

    session = InferenceSession(rulebook_cache=cache)
    session.subconv(grid, weights)  # warm

    def session_layer():
        return session.subconv(grid, weights)

    assert np.array_equal(direct_layer(), session_layer().features)

    direct_s, session_s, ratio = interleaved_medians(
        direct_layer, session_layer
    )
    overhead = ratio - 1.0

    report = "\n".join(
        [
            "Session dispatch overhead — default ShapeNet-like workload "
            f"(nnz={grid.nnz}, Sub-Conv 1->16)",
            f"direct cache + apply_rulebook: {direct_s * 1e3:8.3f} ms",
            f"session.subconv dispatch:      {session_s * 1e3:8.3f} ms",
            f"overhead (median paired ratio): {overhead * 100:7.2f} %",
        ]
    )
    write_report("session_overhead", report)
    assert overhead < 0.05, (
        f"session dispatch overhead {overhead * 100:.2f}% exceeds the 5% budget"
    )


def batch_vs_sequential(session, frames, reps):
    """Interleaved median seconds of ``len(frames)`` ``run`` calls and of
    one ``run_batch`` over the same frames, and the median paired ratio
    batched / sequential, after one warm-up batch."""
    session.run_batch(frames)  # warm plan + caches
    return interleaved_medians(
        lambda: [session.run(frame) for frame in frames],
        lambda: session.run_batch(frames),
        reps=reps,
        warmup=1,
    )


def test_run_batch_amortizes_planning(write_report):
    """Batched execution over repeated site sets must not cost more than
    sequential per-frame runs (it shares one plan lookup per group)."""
    cloud = make_shapenet_like_cloud(seed=1, n_points=8000)
    grid = Voxelizer(resolution=64, normalize=False, occupancy_only=True).voxelize(
        cloud
    )
    rng = np.random.default_rng(2)
    frames = [
        grid.with_features(rng.standard_normal((grid.nnz, 1))) for _ in range(4)
    ]
    session = InferenceSession(
        unet_config=UNetConfig(in_channels=1, num_classes=8, base_channels=8,
                               levels=3)
    )
    rows = [
        (f"4 frames, nnz={grid.nnz}, 64^3, numpy float64",
         batch_vs_sequential(session, frames, reps=30))
    ]

    # At 290 sites per-call overhead dominates; a feature layout that
    # falls out of cache only shows at a realistic ~2000-site frame.
    chair = make_shapenet_like_cloud(seed=1, category="chair", n_points=3800)
    sites = Voxelizer(
        resolution=192, normalize=False, occupancy_only=True
    ).voxelize(chair)
    frames = [
        sites.with_features(rng.standard_normal((sites.nnz, 1)))
        for _ in range(8)
    ]
    for backend, precision in (("numpy", "float64"), ("scipy", "float32")):
        session = InferenceSession(backend=backend, precision=precision)
        rows.append(
            (f"8 frames, nnz={sites.nnz}, 192^3, {backend} {precision}",
             batch_vs_sequential(session, frames, reps=30))
        )

    lines = [
        "Batched execution — session.run_batch vs sequential session.run "
        "over one shared site set",
        f"{'workload':44s} {'sequential':>12s} {'run_batch':>12s} {'ratio':>7s}",
    ]
    for label, (sequential_s, batched_s, ratio) in rows:
        lines.append(
            f"{label:44s} {sequential_s * 1e3:9.3f} ms {batched_s * 1e3:9.3f} ms "
            f"{ratio:7.3f}"
        )
    lines.append("ratio: median over interleaved pairs of run_batch / sequential")
    write_report("session_batching", "\n".join(lines))
    for label, (sequential_s, batched_s, ratio) in rows:
        assert ratio <= 1.05, (
            f"{label}: run_batch ({batched_s * 1e3:.3f} ms) slower than "
            f"sequential runs ({sequential_s * 1e3:.3f} ms) beyond the 5% "
            f"margin (median paired ratio {ratio:.3f})"
        )


def test_int_precision_cost_report(write_report):
    """Warm ``int`` / ``float64`` ``run`` on scipy over drift frames of
    the ~2000-site 192^3 chair.  Both sessions run the same float64
    GEMMs, so the ratio is the cost of the fixed-point wrap around them
    (quantize, saturate, dequantize, requantize).  Report only: the
    ratio is not gated."""
    chair = make_shapenet_like_cloud(seed=1, category="chair", n_points=3800)
    voxelizer = Voxelizer(resolution=192, normalize=False, occupancy_only=True)
    frames = [
        voxelizer.voxelize(cloud)
        for cloud in DriftingSceneSource(
            base_cloud=chair, num_frames=4, churn=0.004, seed=1
        )
    ]
    sessions = [
        InferenceSession(backend="scipy", precision=precision)
        for precision in ("float64", "int")
    ]
    for session in sessions:
        session.run_batch(frames)  # warm one plan per frame

    def runs(session):
        return lambda: [session.run(frame) for frame in frames]

    float_s, int_s, ratio = interleaved_medians(
        *(runs(session) for session in sessions), reps=20, warmup=1
    )
    nnz = round(statistics.mean(frame.nnz for frame in frames))
    write_report(
        "session_int_cost",
        "\n".join(
            [
                "Fixed-point cost — warm session.run, scipy backend, "
                f"{len(frames)} drift frames of a 192^3 chair (mean nnz={nnz})",
                f"float64: {float_s / len(frames) * 1e3:8.3f} ms/frame",
                f"int:     {int_s / len(frames) * 1e3:8.3f} ms/frame",
                f"int / float64 (median paired ratio): {ratio:.3f}",
            ]
        ),
    )
