"""MappingCache / DeltaMappingCache: digest caching and delta splicing.

Acceptance (tentpole): warm lookups hit without recomputation, and a
delta-spliced neighbor table is bit-identical to a from-scratch search
on the churned coordinates.
"""

import numpy as np
import pytest

from repro.engine import mapping as M
from repro.engine.mapping_delta import (
    DeltaMappingCache,
    MappingCache,
    array_digest,
)

RESOLUTION = 128


def voxel_coords(seed, n=2500):
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, RESOLUTION, size=(n, 3)).astype(np.int64)
    return np.unique(coords, axis=0)


def churned(coords, remove, add, seed):
    """A canonically sorted near-copy with ``remove``/``add`` row churn."""
    rng = np.random.default_rng(seed)
    keep = np.ones(len(coords), dtype=bool)
    keep[rng.choice(len(coords), size=remove, replace=False)] = False
    extra = rng.integers(0, RESOLUTION, size=(add, 3)).astype(np.int64)
    return np.unique(np.concatenate([coords[keep], extra]), axis=0)


# ---------------------------------------------------------------------------
# Plain digest cache
# ---------------------------------------------------------------------------
def test_cache_hits_on_identical_operands():
    cache = MappingCache()
    coords = voxel_coords(0)
    first = cache.knn(coords, 8)
    second = cache.knn(coords.copy(), 8)
    assert second is first  # digest-keyed: same content, same object
    assert cache.hits == 1 and cache.misses == 1
    assert cache.hit_rate == 0.5
    # Different parameters are different entries.
    cache.knn(coords, 4)
    assert cache.misses == 2
    cache.ball_query(coords, 2.0, 8)
    cache.farthest_point_sample(coords, 32)
    assert cache.misses == 4 and len(cache) == 4


def test_cache_results_match_direct_kernels():
    cache = MappingCache()
    coords = voxel_coords(1)
    assert np.array_equal(
        cache.knn(coords, 6).indices, M.knn(coords, k=6).indices
    )
    assert np.array_equal(
        cache.ball_query(coords, 2.0, 8).indices,
        M.ball_query(coords, radius=2.0, max_samples=8).indices,
    )
    assert np.array_equal(
        cache.farthest_point_sample(coords, 16).indices,
        M.farthest_point_sample(coords, 16).indices,
    )


def test_cache_explicit_queries_are_keyed_separately():
    cache = MappingCache()
    coords = voxel_coords(2)
    queries = coords[:40]
    self_result = cache.knn(coords, 4)
    query_result = cache.knn(coords, 4, queries=queries)
    assert cache.misses == 2
    assert query_result.indices.shape == (40, 4)
    assert self_result.indices.shape == (len(coords), 4)


def test_cache_lru_eviction():
    cache = MappingCache(capacity=2)
    coords = [voxel_coords(seed, n=50) for seed in range(3)]
    cache.knn(coords[0], 2)
    cache.knn(coords[1], 2)
    cache.knn(coords[0], 2)  # refresh 0 -> 1 is now least recent
    cache.knn(coords[2], 2)  # evicts 1
    assert len(cache) == 2
    cache.knn(coords[1], 2)
    assert cache.misses == 4  # 0, 1, 2, then 1 again after eviction


def test_cache_validation_and_reset():
    with pytest.raises(ValueError, match="capacity"):
        MappingCache(capacity=0)
    cache = MappingCache()
    cache.knn(voxel_coords(0, n=30), 2)
    cache.reset_stats()
    assert cache.lookups == 0 and len(cache) == 1
    cache.clear()
    assert len(cache) == 0


def test_array_digest_distinguishes_dtype_shape_content():
    base = np.arange(12, dtype=np.int64).reshape(4, 3)
    assert array_digest(base) == array_digest(base.copy())
    assert array_digest(base) != array_digest(base.astype(np.int32))
    assert array_digest(base) != array_digest(base.reshape(3, 4))
    bumped = base.copy()
    bumped[0, 0] += 1
    assert array_digest(base) != array_digest(bumped)


# ---------------------------------------------------------------------------
# Delta splicing
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("op", ["knn", "ball_query"])
def test_delta_patched_tables_bit_identical_to_cold(op):
    cache = DeltaMappingCache(threshold=0.25)
    coords = voxel_coords(0)
    for step in range(4):
        if op == "knn":
            warm = cache.knn(coords, 8)
            cold = M.knn(coords, k=8)
        else:
            warm = cache.ball_query(coords, 2.5, 8)
            cold = M.ball_query(coords, radius=2.5, max_samples=8)
        assert np.array_equal(warm.indices, cold.indices), step
        assert np.array_equal(warm.distances, cold.distances), step
        assert np.array_equal(warm.counts, cold.counts), step
        coords = churned(coords, remove=25, add=25, seed=step + 1)
    assert cache.patches == 3
    assert cache.rebuilds == 1
    assert cache.patched_added > 0 and cache.patched_removed > 0
    # Patched results advertise their provenance.
    assert warm.stats.method == "delta-patch"


def test_delta_threshold_gates_patching():
    cache = DeltaMappingCache(threshold=0.01)
    coords = voxel_coords(3)
    cache.knn(coords, 4)
    # ~40% churn is far over the 1% threshold: rebuild, never patch.
    heavy = churned(coords, remove=len(coords) // 2, add=200, seed=7)
    result = cache.knn(heavy, 4)
    assert cache.patches == 0 and cache.rebuilds == 2
    assert result.stats.method == "bucket"
    assert np.array_equal(result.indices, M.knn(heavy, k=4).indices)


def test_delta_ineligible_lookups_fall_back():
    cache = DeltaMappingCache(threshold=0.25)
    coords = voxel_coords(4)
    floats = coords.astype(np.float64)
    cache.knn(floats, 4)
    cache.knn(churned(coords, 10, 10, seed=1).astype(np.float64), 4)
    # Float clouds are digest-cached but never delta-tracked.
    assert cache.patches == 0 and cache.rebuilds == 0
    # Explicit-query lookups are likewise ineligible.
    cache.knn(coords, 4, queries=coords[:10])
    assert cache.rebuilds == 0
    # FPS is rebuild-only by design (cascading picks).
    cache.farthest_point_sample(coords, 8)
    cache.farthest_point_sample(churned(coords, 5, 5, seed=2), 8)
    assert cache.patches == 0


def test_delta_unsorted_coords_ineligible():
    cache = DeltaMappingCache(threshold=0.25)
    coords = voxel_coords(5)
    shuffled = coords[::-1].copy()  # valid rows, non-canonical order
    cache.knn(shuffled, 4)
    assert cache.rebuilds == 0  # not tracked for splicing
    result = cache.knn(shuffled, 4)
    assert cache.hits == 1  # still digest-cached
    assert np.array_equal(result.indices, M.knn(shuffled, k=4).indices)


def test_delta_geometry_must_match_source():
    cache = DeltaMappingCache(threshold=0.25)
    coords = voxel_coords(6)
    cache.knn(coords, 4)
    moved = churned(coords, 10, 10, seed=3)
    # Same point set lineage, different k: no patch source.
    cache.knn(moved, 8)
    assert cache.patches == 0 and cache.rebuilds == 2
    # Matching geometry patches.
    cache.knn(churned(moved, 10, 10, seed=4), 8)
    assert cache.patches == 1


def test_delta_stats_snapshot_and_reset():
    cache = DeltaMappingCache(threshold=0.25)
    coords = voxel_coords(7)
    cache.knn(coords, 4)
    cache.knn(churned(coords, 10, 10, seed=5), 4)
    snap = cache.stats
    assert snap.patches == 1 and snap.rebuilds == 1
    assert snap.patch_rate == 0.5
    assert snap.lookups == 2
    cache.reset_stats()
    assert cache.stats.lookups == 0 and cache.stats.patches == 0
    assert len(cache) == 2  # reset clears counters, not entries


def test_delta_validation():
    with pytest.raises(ValueError, match="threshold"):
        DeltaMappingCache(threshold=0.0)
    with pytest.raises(ValueError, match="threshold"):
        DeltaMappingCache(threshold=1.5)
    with pytest.raises(ValueError, match="max_candidates"):
        DeltaMappingCache(max_candidates=0)


def test_delta_eviction_drops_coord_sets():
    cache = DeltaMappingCache(capacity=1, threshold=0.25)
    a = voxel_coords(8, n=60)
    b = churned(a, 2, 2, seed=1)
    cache.knn(a, 2)
    cache.knn(b, 2)  # patches from a, then evicts a's entry
    assert len(cache) == 1
    assert len(cache._coord_sets) == 1  # bookkeeping follows eviction
