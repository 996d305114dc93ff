"""Mapping-ops benchmark: sorted buckets vs brute force, delta vs cold.

Two comparisons, both recorded in ``results/mapping_speedup.txt``:

1. The sorting-based kNN kernel against the dense-distance-matrix
   reference on one static voxelized cloud (bit-identity asserted) —
   the payoff of the PointAcc-style bucket dataflow on the integer
   grids the accelerator actually serves — and against scipy's
   ``cKDTree`` (build + query), the strongest CPU baseline, whose
   ratio is the kernel figure reported.
2. Warm-stream self-query kNN through a :class:`DeltaMappingCache`
   (neighbor tables spliced under churn) against a digest-only
   :class:`MappingCache` (every drifted frame rebuilds) on a drifting
   voxel scene — the acceptance criterion: at <= 5% per-frame voxel
   churn, delta splicing is at least 2x faster.
3. The kNN kernel and ``cKDTree`` on degenerate clouds (duplicates,
   lines, a plane, far outliers) that once took seconds to over a
   minute; each kNN row is gated at 2 s, and subsampled copies small
   enough for the dense reference are checked bit-identical.
"""

import time

import numpy as np
from scipy.spatial import cKDTree

from repro.engine import mapping as M
from repro.engine.delta import coordinate_delta
from repro.engine.mapping_delta import DeltaMappingCache, MappingCache
from repro.geometry.synthetic import make_shapenet_like_cloud
from repro.geometry.voxelizer import Voxelizer

RESOLUTION = 192
K = 8
KERNEL_POINTS = 8000
KERNEL_RESOLUTION = 128
DEGENERATE_POINTS = 5000
#: About 10x the kernel's time on these clouds: catches a return of the
#: >60 s pathologies without tripping on a slow host.
DEGENERATE_GATE_S = 2.0
DEGENERATE_SUBSAMPLE = 5


def degenerate_clouds(seed=0):
    """Clouds that break a naive grid search: a tower of duplicates, an
    axis-aligned line, a diagonal line, a plane, and a dense blob with
    three outliers 1000 units out (float64 and float32)."""
    rng = np.random.default_rng(seed)
    n = DEGENERATE_POINTS
    blob = np.concatenate([rng.normal(size=(n, 3)), 1000.0 * np.eye(3)])
    return {
        "1500 duplicates + 1500 normal": np.concatenate(
            [np.zeros((1500, 3)), rng.normal(size=(1500, 3))]
        ),
        f"axis-aligned line of {n}": np.concatenate(
            [rng.normal(size=(n, 1)), np.zeros((n, 2))], axis=1
        ),
        f"diagonal line of {n}": np.outer(rng.normal(size=n), [1.0, 1.0, 1.0]),
        f"plane of {n}": np.concatenate(
            [rng.normal(size=(n, 2)), np.zeros((n, 1))], axis=1
        ),
        "blob + 3 outliers at 1000, float64": blob,
        "blob + 3 outliers at 1000, float32": blob.astype(np.float32),
    }


def drifting_coords(num_frames=6, churn=0.005, seed=0):
    """Canonically sorted voxel coordinates of a slowly drifting scene.

    0.5% point churn lands at ~1-2% per-frame voxel churn (several
    points share a voxel) — comfortably inside the <= 5% acceptance
    regime, where most cached neighborhood rows survive a splice.
    """
    from repro.runtime import DriftingSceneSource

    cloud = make_shapenet_like_cloud(
        seed=seed, n_points=30000, grid_fraction=0.9
    )
    source = DriftingSceneSource(
        base_cloud=cloud,
        num_frames=num_frames,
        churn=churn,
        jitter_sigma=0.0,
        seed=seed,
    )
    voxelizer = Voxelizer(
        resolution=RESOLUTION, normalize=False, occupancy_only=True
    )
    return [voxelizer.voxelize(frame).coords for frame in source]


def best_of(callables, reps=5):
    """Per-strategy minimum over interleaved reps (low-noise estimator)."""
    best = [float("inf")] * len(callables)
    for _ in range(reps):
        for index, fn in enumerate(callables):
            start = time.perf_counter()
            fn()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def warm_stream_seconds(cache_factories, frames, reps=5):
    """Best total lookup time for frames 1..N on a warm stream.

    Each rep uses a fresh cache per strategy and feeds frame 0 untimed
    (both strategies pay one full build there), then times the
    remaining lookups — the steady-state per-frame cost.  Strategies
    are interleaved within each rep so machine noise hits both alike.
    """
    best = [float("inf")] * len(cache_factories)
    for _ in range(reps):
        for index, factory in enumerate(cache_factories):
            cache = factory()
            cache.knn(frames[0], K)
            start = time.perf_counter()
            for coords in frames[1:]:
                cache.knn(coords, K)
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def test_bench_mapping_speedups(write_report):
    # -- sorted buckets vs brute force on one static voxel cloud --------
    rng = np.random.default_rng(0)
    cloud = np.unique(
        rng.integers(
            0, KERNEL_RESOLUTION, size=(KERNEL_POINTS, 3)
        ).astype(np.int64),
        axis=0,
    )
    bucket = M.knn(cloud, k=K)
    brute = M.knn_bruteforce(cloud, k=K)
    assert np.array_equal(bucket.indices, brute.indices)
    assert np.array_equal(bucket.distances, brute.distances)
    points = cloud.astype(np.float64)
    bucket_s, brute_s, kdtree_s = best_of(
        [
            lambda: M.knn(cloud, k=K),
            lambda: M.knn_bruteforce(cloud, k=K),
            lambda: cKDTree(points).query(points, k=K),
        ],
        reps=3,
    )
    kernel_speedup = brute_s / bucket_s

    # -- warm delta splicing vs cold rebuilds on a drifting scene -------
    frames = drifting_coords()
    ratios = [
        coordinate_delta(a, b).ratio for a, b in zip(frames, frames[1:])
    ]
    assert max(ratios) <= 0.05, f"scene churn out of regime: {ratios}"

    # Bit-identity of every spliced table against a cold search.
    check = DeltaMappingCache(threshold=0.25)
    for coords in frames:
        warm = check.knn(coords, K)
        cold = M.knn(coords, k=K)
        assert np.array_equal(warm.indices, cold.indices)
        assert np.array_equal(warm.distances, cold.distances)
    assert check.patches == len(frames) - 1
    assert check.rebuilds == 1

    digest_s, delta_s = warm_stream_seconds(
        [MappingCache, lambda: DeltaMappingCache(threshold=0.25)], frames
    )
    delta_speedup = digest_s / delta_s

    # -- degenerate clouds: kNN and cKDTree times, bit-identity -------
    degenerate = []
    for name, pts in degenerate_clouds().items():
        small = pts[::DEGENERATE_SUBSAMPLE]
        got, want = M.knn(small, k=K), M.knn_bruteforce(small, k=K)
        assert got.distances.dtype == want.distances.dtype, name
        assert np.array_equal(got.indices, want.indices), name
        assert np.array_equal(got.distances, want.distances), name
        knn_s, tree_s = best_of(
            [
                lambda: M.knn(pts, k=K),
                lambda: cKDTree(pts).query(pts, k=K),
            ],
            reps=3,
        )
        degenerate.append((name, knn_s, tree_s))

    warm_frames = len(frames) - 1
    lines = [
        "Mapping-ops subsystem: sorting-based kernels and delta splicing",
        "(bit-identity vs brute force / cold rebuild asserted throughout)",
        "",
        f"kNN kernel, static voxel cloud ({len(cloud)} occupied voxels "
        f"on a {KERNEL_RESOLUTION}^3 grid, k={K}):",
        f"  brute force (dense distance matrix) {brute_s * 1e3:9.3f} ms",
        f"  scipy cKDTree (build + query)       {kdtree_s * 1e3:9.3f} ms",
        f"  sorted buckets (expanding cubes)    {bucket_s * 1e3:9.3f} ms",
        f"  bucket / cKDTree: {bucket_s / kdtree_s:.2f}x",
        f"  speedup vs brute force: {kernel_speedup:.2f}x (acceptance: >= 1.5x)",
        "",
        f"warm self-query kNN stream ({RESOLUTION}^3 grid, nnz "
        f"{min(len(c) for c in frames)}-{max(len(c) for c in frames)}, "
        f"{warm_frames} warm frames, voxel churn "
        f"{min(ratios):.2%}-{max(ratios):.2%}):",
        f"  digest-only cache (rebuild per frame) "
        f"{digest_s * 1e3 / warm_frames:9.3f} ms/frame",
        f"  delta cache       (splice per frame)  "
        f"{delta_s * 1e3 / warm_frames:9.3f} ms/frame",
        f"  speedup: {delta_speedup:.2f}x (acceptance: >= 2x)",
        "",
        f"kNN on degenerate clouds (k={K}; subsampled 1/{DEGENERATE_SUBSAMPLE} "
        "copies bit-identical to brute force):",
        f"  {'cloud':36s} {'kNN ms':>9s} {'cKDTree ms':>11s}",
    ]
    lines += [
        f"  {name:36s} {knn_s * 1e3:9.1f} {tree_s * 1e3:11.1f}"
        for name, knn_s, tree_s in degenerate
    ]
    lines.append(f"  gate: every kNN row <= {DEGENERATE_GATE_S:.0f} s")
    write_report("mapping_speedup", "\n".join(lines))

    assert kernel_speedup >= 1.5, (
        f"bucket kNN speedup {kernel_speedup:.2f}x below 1.5x"
    )
    # PR acceptance: warm delta-patched kNN at <= 5% churn is >= 2x
    # faster than cold rebuilds.
    assert delta_speedup >= 2.0, (
        f"delta splice speedup {delta_speedup:.2f}x below 2x"
    )
    for name, knn_s, _ in degenerate:
        assert knn_s <= DEGENERATE_GATE_S, (
            f"kNN on {name} took {knn_s:.2f} s, above {DEGENERATE_GATE_S:.0f} s"
        )
