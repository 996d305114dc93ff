"""Tests for the fused sparse-conv engine and the rulebook cache."""

import numpy as np
import pytest

from repro.nn import (
    ApplyStats,
    RulebookCache,
    apply_rulebook,
    apply_rulebook_reference,
    build_sparse_conv_rulebook,
    build_submanifold_rulebook,
    sparse_conv3d,
    sparse_inverse_conv3d,
    submanifold_conv3d,
)
from repro.sparse import SparseTensor3D
from repro.sparse.ops import relu, scale_features
from tests.conftest import random_sparse_tensor


def make_weights(rng, kernel_size, cin, cout):
    return rng.standard_normal((kernel_size ** 3, cin, cout))


# ----------------------------------------------------------------------
# Fused apply_rulebook
# ----------------------------------------------------------------------
def test_fused_apply_bit_identical_to_reference():
    rng = np.random.default_rng(0)
    tensor = random_sparse_tensor(seed=1, shape=(14, 14, 14), nnz=90, channels=5)
    rulebook = build_submanifold_rulebook(tensor, 3)
    weights = make_weights(rng, 3, 5, 7)
    fused = apply_rulebook(rulebook, tensor.features, weights, tensor.nnz)
    reference = apply_rulebook_reference(
        rulebook, tensor.features, weights, tensor.nnz
    )
    assert np.array_equal(fused, reference)


def test_fused_apply_bit_identical_on_strided_rulebook():
    rng = np.random.default_rng(2)
    tensor = random_sparse_tensor(seed=3, shape=(8, 8, 8), nnz=50, channels=3)
    rulebook, out_coords = build_sparse_conv_rulebook(tensor, 2, 2)
    weights = make_weights(rng, 2, 3, 4)
    fused = apply_rulebook(rulebook, tensor.features, weights, len(out_coords))
    reference = apply_rulebook_reference(
        rulebook, tensor.features, weights, len(out_coords)
    )
    assert np.array_equal(fused, reference)


def test_fused_apply_empty_rulebook():
    tensor = SparseTensor3D.empty((6, 6, 6), channels=2)
    rulebook = build_submanifold_rulebook(tensor, 3)
    out = apply_rulebook(rulebook, tensor.features, np.zeros((27, 2, 3)), 0)
    assert out.shape == (0, 3)


def test_apply_stats_accumulate():
    rng = np.random.default_rng(4)
    tensor = random_sparse_tensor(seed=5, nnz=40, channels=2)
    rulebook = build_submanifold_rulebook(tensor, 3)
    weights = make_weights(rng, 3, 2, 2)
    stats = ApplyStats()
    apply_rulebook(rulebook, tensor.features, weights, tensor.nnz, stats=stats)
    apply_rulebook(rulebook, tensor.features, weights, tensor.nnz, stats=stats)
    assert stats.matches == 2 * rulebook.total_matches
    assert stats.scatter_seconds > 0.0
    assert stats.total_seconds >= stats.scatter_seconds


# ----------------------------------------------------------------------
# Satellite: accumulator dtype follows the promoted input dtype
# ----------------------------------------------------------------------
def test_apply_rulebook_preserves_float32():
    rng = np.random.default_rng(6)
    tensor = random_sparse_tensor(seed=7, nnz=30, channels=3)
    f32 = tensor.with_features(tensor.features.astype(np.float32))
    weights = make_weights(rng, 3, 3, 4).astype(np.float32)
    out = submanifold_conv3d(f32, weights)
    assert out.features.dtype == np.float32


def test_apply_rulebook_preserves_integer_accumulation():
    """Quantized fixed-point features must accumulate in integer, not float64."""
    rng = np.random.default_rng(8)
    tensor = random_sparse_tensor(seed=9, nnz=25, channels=2)
    acts = np.rint(tensor.features * 100).astype(np.int64)
    weights = np.rint(make_weights(rng, 3, 2, 3) * 10).astype(np.int64)
    rulebook = build_submanifold_rulebook(tensor, 3)
    out = apply_rulebook(rulebook, acts, weights, tensor.nnz)
    assert out.dtype == np.int64
    # Values agree with the float reference exactly (small integers).
    reference = apply_rulebook_reference(rulebook, acts, weights, tensor.nnz)
    assert np.array_equal(out.astype(np.float64), reference)


def test_narrow_integer_inputs_widen_to_int64():
    """INT16 x INT8 per-match products fit, but cross-offset sums must not wrap."""
    coords = np.argwhere(np.ones((3, 3, 3), dtype=bool))
    features = np.full((27, 1), 2000, dtype=np.int16)
    tensor = SparseTensor3D(coords, features, (3, 3, 3))
    weights = np.ones((27, 1, 1), dtype=np.int8)
    rulebook = build_submanifold_rulebook(tensor, 3)
    out = apply_rulebook(rulebook, tensor.features, weights, tensor.nnz)
    assert out.dtype == np.int64
    # The center voxel sees all 27 neighbors: 27 * 2000 = 54000 > int16 max.
    center = 13
    assert out[center, 0] == 54000
    reference = apply_rulebook_reference(
        rulebook, tensor.features, weights, tensor.nnz
    )
    assert np.array_equal(out.astype(np.float64), reference)


def test_dtype_promotion_mixed():
    rng = np.random.default_rng(10)
    tensor = random_sparse_tensor(seed=11, nnz=20, channels=2)
    rulebook = build_submanifold_rulebook(tensor, 3)
    out = apply_rulebook(
        rulebook,
        tensor.features.astype(np.float32),
        make_weights(rng, 3, 2, 2),  # float64
        tensor.nnz,
    )
    assert out.dtype == np.float64


def test_with_features_preserves_dtype():
    tensor = random_sparse_tensor(seed=12, nnz=10, channels=2)
    f32 = tensor.with_features(tensor.features.astype(np.float32))
    assert f32.features.dtype == np.float32
    i16 = tensor.with_features(np.ones((tensor.nnz, 4), dtype=np.int16))
    assert i16.features.dtype == np.int16


# ----------------------------------------------------------------------
# Satellite: stride validation regression
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stride", [0, -1, -2])
def test_sparse_conv_rejects_nonpositive_stride(stride):
    rng = np.random.default_rng(13)
    tensor = random_sparse_tensor(seed=14, shape=(8, 8, 8), nnz=20, channels=2)
    with pytest.raises(ValueError, match="stride"):
        sparse_conv3d(tensor, make_weights(rng, 2, 2, 4), stride=stride)


@pytest.mark.parametrize("stride", [0, -1])
def test_sparse_inverse_conv_rejects_nonpositive_stride(stride):
    rng = np.random.default_rng(15)
    fine = random_sparse_tensor(seed=16, shape=(8, 8, 8), nnz=20, channels=2)
    down = sparse_conv3d(fine, make_weights(rng, 2, 2, 4), stride=2)
    with pytest.raises(ValueError, match="stride"):
        sparse_inverse_conv3d(
            down, make_weights(rng, 2, 4, 2), reference=fine, stride=stride
        )


def test_sparse_conv_rejects_fractional_stride():
    rng = np.random.default_rng(17)
    tensor = random_sparse_tensor(seed=18, shape=(8, 8, 8), nnz=20, channels=2)
    with pytest.raises(ValueError, match="integer"):
        sparse_conv3d(tensor, make_weights(rng, 2, 2, 4), stride=1.5)


# ----------------------------------------------------------------------
# Satellite: vectorized matches_per_output
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed,nnz", [(20, 1), (21, 40), (22, 120)])
def test_matches_per_output_matches_loop(seed, nnz):
    tensor = random_sparse_tensor(seed=seed, shape=(10, 10, 10), nnz=nnz, channels=1)
    rulebook = build_submanifold_rulebook(tensor, 3)
    vectorized = rulebook.matches_per_output()
    # The seed implementation: per-offset np.add.at histogram.
    loop = np.zeros(rulebook.num_outputs, dtype=np.int64)
    for rule in rulebook.rules:
        if len(rule):
            np.add.at(loop, rule[:, 1], 1)
    assert np.array_equal(vectorized, loop)
    assert vectorized.dtype == np.int64
    assert vectorized.sum() == rulebook.total_matches


def test_matches_per_output_empty():
    tensor = SparseTensor3D.empty((5, 5, 5))
    rulebook = build_submanifold_rulebook(tensor, 3)
    assert rulebook.matches_per_output().shape == (0,)


# ----------------------------------------------------------------------
# RulebookCache behavior
# ----------------------------------------------------------------------
def test_cache_hit_on_same_site_set():
    cache = RulebookCache()
    tensor = random_sparse_tensor(seed=23, nnz=30, channels=2)
    rb1 = cache.submanifold(tensor, 3)
    rb2 = cache.submanifold(tensor.with_features(tensor.features * 2.0), 3)
    assert rb1 is rb2
    assert cache.hits == 1 and cache.misses == 1
    assert cache.hit_rate == pytest.approx(0.5)


def test_cache_distinguishes_kernel_and_shape():
    cache = RulebookCache()
    tensor = random_sparse_tensor(seed=24, shape=(12, 12, 12), nnz=30, channels=1)
    cache.submanifold(tensor, 3)
    cache.submanifold(tensor, 5)
    assert cache.misses == 2 and cache.hits == 0
    bigger = SparseTensor3D(tensor.coords, tensor.features, (13, 13, 13))
    cache.submanifold(bigger, 3)
    assert cache.misses == 3


def test_cache_miss_on_changed_sites():
    cache = RulebookCache()
    tensor = random_sparse_tensor(seed=25, shape=(9, 9, 9), nnz=30, channels=1)
    cache.submanifold(tensor, 3)
    cropped = SparseTensor3D(
        tensor.coords[:-1], tensor.features[:-1], tensor.shape
    )
    cache.submanifold(cropped, 3)
    assert cache.misses == 2 and cache.hits == 0


def test_cache_lru_eviction():
    cache = RulebookCache(capacity=2)
    tensors = [
        random_sparse_tensor(seed=s, nnz=10 + s, channels=1) for s in (1, 2, 3)
    ]
    for tensor in tensors:
        cache.submanifold(tensor, 3)
    assert len(cache) == 2
    # tensor[0] was evicted; tensor[2] is still resident.
    cache.submanifold(tensors[2], 3)
    assert cache.hits == 1
    cache.submanifold(tensors[0], 3)
    assert cache.misses == 4


def test_cache_validates_capacity():
    with pytest.raises(ValueError):
        RulebookCache(capacity=0)


def test_cache_shared_between_down_and_inverse_conv():
    """The transposed conv reuses the forward matching pass of its encoder."""
    rng = np.random.default_rng(26)
    cache = RulebookCache()
    fine = random_sparse_tensor(seed=27, shape=(8, 8, 8), nnz=40, channels=3)
    down = sparse_conv3d(fine, make_weights(rng, 2, 3, 6), stride=2, cache=cache)
    assert cache.misses == 1 and cache.hits == 0
    w_up = make_weights(rng, 2, 6, 3)
    up = sparse_inverse_conv3d(down, w_up, reference=fine, cache=cache)
    assert cache.misses == 1 and cache.hits == 1
    # And the cached path equals the uncached one bit-for-bit.
    up_plain = sparse_inverse_conv3d(down, w_up, reference=fine)
    assert np.array_equal(up.features, up_plain.features)


# ----------------------------------------------------------------------
# Satellite: property-style cache-validity test
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel_size", [3, 5])
@pytest.mark.parametrize("seed", [30, 31, 32])
def test_cached_rulebook_valid_across_site_preserving_ops(seed, kernel_size):
    """Sites unchanged => the cached rulebook must stay valid.

    Random site sets are pushed through site-preserving ops (ReLU, folded
    batch norm) and re-convolved via the cache; the result must equal a
    convolution with a freshly built rulebook, bit for bit.
    """
    rng = np.random.default_rng(seed)
    nnz = int(rng.integers(5, 80))
    channels = int(rng.integers(1, 5))
    tensor = random_sparse_tensor(
        seed=seed, shape=(11, 11, 11), nnz=nnz, channels=channels
    )
    weights = make_weights(rng, kernel_size, channels, 4)
    cache = RulebookCache()

    # Populate the cache with the original tensor's rulebook.
    first_cached = submanifold_conv3d(
        tensor, weights, kernel_size=kernel_size, cache=cache
    )
    first_fresh = submanifold_conv3d(tensor, weights, kernel_size=kernel_size)
    assert np.array_equal(first_cached.features, first_fresh.features)

    # Site-preserving transformations: the cache must hit and stay valid.
    transformed = relu(
        scale_features(
            tensor,
            1.0 + 0.1 * rng.standard_normal(channels),
            0.05 * rng.standard_normal(channels),
        )
    )
    assert np.array_equal(transformed.coords, tensor.coords)
    misses_before = cache.misses
    cached_out = submanifold_conv3d(
        transformed, weights, kernel_size=kernel_size, cache=cache
    )
    assert cache.misses == misses_before, "site-preserving op must not miss"
    fresh_out = submanifold_conv3d(
        transformed, weights, kernel_size=kernel_size
    )
    assert np.array_equal(cached_out.features, fresh_out.features)
    assert np.array_equal(cached_out.coords, fresh_out.coords)
