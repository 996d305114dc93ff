"""Tests for the incremental rulebook delta engine (repro.engine.delta)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import AcceleratorConfig
from repro.engine import (
    DEFAULT_DELTA_THRESHOLD,
    CoordinateDelta,
    DeltaRulebookCache,
    InferenceSession,
    coordinate_delta,
    get_backend,
    patch_rulebook,
    patch_sparse_conv_rulebook,
    patch_submanifold_rulebook,
)
from repro.nn import (
    RulebookCache,
    UNetConfig,
    build_sparse_conv_rulebook,
    build_submanifold_rulebook,
    build_submanifold_rulebook_reference,
)
from repro.runtime import DriftingSceneSource, StreamingRunner
from repro.sparse.coo import SparseTensor3D
from repro.sparse.hashmap import pack_coords
from tests.conftest import random_sparse_tensor, site_sets

SMALL_CFG = UNetConfig(in_channels=2, num_classes=5, base_channels=4, levels=3)


def churned(
    tensor: SparseTensor3D, remove: int, add: int, seed: int
) -> SparseTensor3D:
    """A new tensor with ``remove`` voxels dropped and ``add`` fresh ones."""
    rng = np.random.default_rng(seed)
    keep = np.ones(tensor.nnz, dtype=bool)
    if remove:
        keep[rng.choice(tensor.nnz, size=remove, replace=False)] = False
    coords = tensor.coords[keep]
    existing = set(map(tuple, coords.tolist()))
    fresh = []
    while len(fresh) < add:
        candidate = tuple(
            int(v) for v in rng.integers(0, tensor.shape[0], size=3)
        )
        if candidate not in existing:
            existing.add(candidate)
            fresh.append(candidate)
    if fresh:
        coords = np.concatenate(
            [coords, np.array(fresh, dtype=np.int64).reshape(-1, 3)], axis=0
        )
    return SparseTensor3D(
        coords, np.ones((len(coords), 1), dtype=np.float64), tensor.shape
    )


def assert_rulebooks_identical(patched, scratch):
    assert patched.kernel_size == scratch.kernel_size
    assert patched.num_inputs == scratch.num_inputs
    assert patched.num_outputs == scratch.num_outputs
    assert np.array_equal(patched.offsets, scratch.offsets)
    assert len(patched.rules) == len(scratch.rules)
    for got, want in zip(patched.rules, scratch.rules):
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape
        assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# CoordinateDelta
# ----------------------------------------------------------------------
def test_coordinate_delta_identity():
    tensor = random_sparse_tensor(seed=1, nnz=60)
    delta = coordinate_delta(tensor.coords, tensor.coords)
    assert delta.is_identity
    assert delta.num_added == delta.num_removed == 0
    assert delta.num_stable == tensor.nnz
    assert delta.ratio == 0.0
    assert np.array_equal(delta.old_to_new, np.arange(tensor.nnz))


def test_coordinate_delta_accounting():
    old = random_sparse_tensor(seed=2, nnz=50)
    new = churned(old, remove=7, add=4, seed=3)
    delta = coordinate_delta(old.coords, new.coords)
    assert delta.old_size == 50
    assert delta.new_size == 47
    assert delta.num_removed == 7
    assert delta.num_added == 4
    assert delta.num_stable == 43
    assert delta.ratio == pytest.approx(11 / 50)
    # The mapping is monotone over stable rows (what splicing relies on).
    stable = delta.old_to_new[delta.old_to_new >= 0]
    assert np.all(np.diff(stable) > 0)
    # Accepts packed keys as well as coordinate arrays.
    again = coordinate_delta(pack_coords(old.coords), pack_coords(new.coords))
    assert np.array_equal(again.old_to_new, delta.old_to_new)
    assert np.array_equal(again.added_new_rows, delta.added_new_rows)


def test_coordinate_delta_empty_sets():
    tensor = random_sparse_tensor(seed=4, nnz=20)
    empty = np.zeros((0, 3), dtype=np.int64)
    grown = coordinate_delta(empty, tensor.coords)
    assert grown.num_added == tensor.nnz and grown.num_removed == 0
    assert grown.ratio == 1.0
    shrunk = coordinate_delta(tensor.coords, empty)
    assert shrunk.num_removed == tensor.nnz and shrunk.num_added == 0
    assert shrunk.ratio == 1.0
    nothing = coordinate_delta(empty, empty)
    assert nothing.is_identity and nothing.ratio == 0.0


def test_coordinate_delta_rejects_bad_shape():
    with pytest.raises(ValueError, match="packed keys"):
        coordinate_delta(np.zeros((2, 2, 2)), np.zeros((0, 3)))


# ----------------------------------------------------------------------
# Tentpole acceptance: patch_rulebook bit-identical to from-scratch
# matching for every conv kind under randomized add/remove deltas
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel_size", [1, 3])
@pytest.mark.parametrize("seed", range(8))
def test_patch_submanifold_bit_identical_random_deltas(kernel_size, seed):
    rng = np.random.default_rng(seed)
    old = random_sparse_tensor(
        seed=seed, shape=(18, 18, 18), nnz=40 + 30 * (seed % 4)
    )
    new = churned(
        old,
        remove=int(rng.integers(0, min(12, old.nnz))),
        add=int(rng.integers(0, 15)),
        seed=seed + 100,
    )
    delta = coordinate_delta(old.coords, new.coords)
    old_rulebook = build_submanifold_rulebook(old, kernel_size)
    patched = patch_submanifold_rulebook(
        old_rulebook, delta, new.shape, new_coords=new.coords
    )
    assert_rulebooks_identical(
        patched, build_submanifold_rulebook(new, kernel_size)
    )


@pytest.mark.parametrize("stride", [2, 3])
@pytest.mark.parametrize("seed", range(8))
def test_patch_strided_and_transposed_bit_identical(stride, seed):
    rng = np.random.default_rng(seed)
    old = random_sparse_tensor(
        seed=seed + 50, shape=(18, 18, 18), nnz=60 + 20 * (seed % 3)
    )
    new = churned(
        old,
        remove=int(rng.integers(0, 20)),
        add=int(rng.integers(0, 20)),
        seed=seed + 200,
    )
    delta = coordinate_delta(old.coords, new.coords)
    old_rulebook, old_out = build_sparse_conv_rulebook(old, stride, stride)
    patched, out_coords = patch_sparse_conv_rulebook(
        old_rulebook, old_out, delta, stride, new_coords=new.coords
    )
    scratch, scratch_out = build_sparse_conv_rulebook(new, stride, stride)
    assert np.array_equal(out_coords, scratch_out)
    assert out_coords.dtype == scratch_out.dtype
    assert_rulebooks_identical(patched, scratch)
    # Transposed convolutions derive from the forward rules, so the
    # patched rulebook's transpose must match the from-scratch one too.
    assert_rulebooks_identical(patched.transposed(), scratch.transposed())


def test_patch_from_and_to_degenerate_sets():
    tensor = random_sparse_tensor(seed=9, nnz=30)
    empty = SparseTensor3D.empty(tensor.shape)
    # Everything added (old empty) and everything removed (new empty).
    for old, new in ((empty, tensor), (tensor, empty)):
        delta = coordinate_delta(old.coords, new.coords)
        patched = patch_submanifold_rulebook(
            build_submanifold_rulebook(old, 3), delta, new.shape
        )
        assert_rulebooks_identical(patched, build_submanifold_rulebook(new, 3))


def test_patch_rulebook_dispatcher():
    old = random_sparse_tensor(seed=10, nnz=40)
    new = churned(old, remove=3, add=5, seed=11)
    delta = coordinate_delta(old.coords, new.coords)
    sub = patch_rulebook(
        build_submanifold_rulebook(old, 3), delta, shape=old.shape
    )
    assert_rulebooks_identical(sub, build_submanifold_rulebook(new, 3))
    old_down, old_out = build_sparse_conv_rulebook(old, 2, 2)
    down, out = patch_rulebook(
        old_down, delta, stride=2, old_out_coords=old_out
    )
    scratch, scratch_out = build_sparse_conv_rulebook(new, 2, 2)
    assert np.array_equal(out, scratch_out)
    assert_rulebooks_identical(down, scratch)
    with pytest.raises(ValueError, match="shape"):
        patch_rulebook(old_down, delta)
    with pytest.raises(ValueError, match="old_out_coords"):
        patch_rulebook(old_down, delta, stride=2)


OVERLAP_GEOMETRIES = [(3, 2), (4, 2), (3, 1)]


@pytest.mark.parametrize("kernel_size,stride", OVERLAP_GEOMETRIES)
@pytest.mark.parametrize("seed", range(6))
def test_patch_overlapping_strided_geometries_bit_identical(
    kernel_size, stride, seed
):
    """Tentpole: kernel != stride rulebooks are patched, not rebuilt.

    A changed input voxel perturbs at most ``ceil(kernel/stride)^3``
    output cells, so the patcher re-derives existence only for the
    affected neighborhood — and the result (rules, output coordinates,
    transposed derivation) must match from-scratch matching array for
    array under randomized add/remove deltas.
    """
    rng = np.random.default_rng(seed)
    old = random_sparse_tensor(
        seed=seed + 300, shape=(18, 18, 18), nnz=60 + 25 * (seed % 3)
    )
    new = churned(
        old,
        remove=int(rng.integers(0, 18)),
        add=int(rng.integers(0, 18)),
        seed=seed + 400,
    )
    delta = coordinate_delta(old.coords, new.coords)
    old_rulebook, old_out = build_sparse_conv_rulebook(
        old, kernel_size, stride
    )
    patched, out_coords = patch_sparse_conv_rulebook(
        old_rulebook, old_out, delta, stride, new_coords=new.coords
    )
    scratch, scratch_out = build_sparse_conv_rulebook(new, kernel_size, stride)
    assert np.array_equal(out_coords, scratch_out)
    assert out_coords.dtype == scratch_out.dtype
    assert_rulebooks_identical(patched, scratch)
    assert_rulebooks_identical(patched.transposed(), scratch.transposed())


@pytest.mark.parametrize("kernel_size,stride", OVERLAP_GEOMETRIES)
def test_patch_overlapping_degenerate_sets(kernel_size, stride):
    tensor = random_sparse_tensor(seed=14, nnz=30)
    empty = SparseTensor3D.empty(tensor.shape)
    for old, new in ((empty, tensor), (tensor, empty)):
        delta = coordinate_delta(old.coords, new.coords)
        old_rulebook, old_out = build_sparse_conv_rulebook(
            old, kernel_size, stride
        )
        patched, out = patch_sparse_conv_rulebook(
            old_rulebook, old_out, delta, stride, new_coords=new.coords
        )
        scratch, scratch_out = build_sparse_conv_rulebook(
            new, kernel_size, stride
        )
        assert np.array_equal(out, scratch_out)
        assert_rulebooks_identical(patched, scratch)


def assert_plans_identical(got, want):
    assert got.total_matches == want.total_matches
    assert got.in_rows.dtype == want.in_rows.dtype == np.int64
    assert np.array_equal(got.in_rows, want.in_rows)
    assert np.array_equal(got.segment_starts, want.segment_starts)
    assert got.active_offsets == want.active_offsets
    assert len(got.out_rows) == len(want.out_rows)
    for mine, theirs in zip(got.out_rows, want.out_rows):
        assert mine.dtype == theirs.dtype == np.int64
        assert np.array_equal(mine, theirs)


def test_patchers_preseed_gather_scatter_plan():
    """Patched rulebooks hand over their plan arrays (splice byproduct),
    array-for-array identical to a lazily built plan."""
    old = random_sparse_tensor(seed=15, shape=(18, 18, 18), nnz=120)
    new = churned(old, remove=8, add=8, seed=16)
    delta = coordinate_delta(old.coords, new.coords)
    sub = patch_submanifold_rulebook(
        build_submanifold_rulebook(old, 3), delta, new.shape,
        new_coords=new.coords,
    )
    assert sub._plan is not None
    assert_plans_identical(sub._plan, build_submanifold_rulebook(new, 3).plan())
    for kernel_size, stride in [(2, 2), (3, 2)]:
        old_rulebook, old_out = build_sparse_conv_rulebook(
            old, kernel_size, stride
        )
        patched, _ = patch_sparse_conv_rulebook(
            old_rulebook, old_out, delta, stride, new_coords=new.coords
        )
        scratch, _ = build_sparse_conv_rulebook(new, kernel_size, stride)
        assert patched._plan is not None
        assert_plans_identical(patched._plan, scratch.plan())


def test_patched_rulebook_carries_splice_provenance():
    from repro.engine import RulebookDelta

    old = random_sparse_tensor(seed=17, nnz=80)
    new = churned(old, remove=4, add=6, seed=18)
    delta = coordinate_delta(old.coords, new.coords)
    patched = patch_submanifold_rulebook(
        build_submanifold_rulebook(old, 3), delta, new.shape,
        new_coords=new.coords,
    )
    splice = patched._splice
    assert isinstance(splice, RulebookDelta)
    assert isinstance(splice, CoordinateDelta)  # drop-in for listeners
    assert splice.in_map is delta.old_to_new
    assert splice.out_map is delta.old_to_new  # submanifold: same sites
    assert len(splice.fresh_slots) == len(patched.rules)
    # Fresh slots + surviving pairs account for every merged pair.
    old_rulebook = build_submanifold_rulebook(old, 3)
    for k, slots in enumerate(splice.fresh_slots):
        rule = old_rulebook.rules[k]
        if len(rule):
            mapped_in = delta.old_to_new[rule[:, 0]]
            mapped_out = delta.old_to_new[rule[:, 1]]
            survivors = int(((mapped_in >= 0) & (mapped_out >= 0)).sum())
        else:
            survivors = 0
        assert survivors + len(slots) == len(patched.rules[k])


@st.composite
def site_set_pairs(draw):
    """An old site set and a churned new one on the same small grid."""
    old = draw(site_sets())
    keep = np.array(
        draw(st.lists(st.booleans(), min_size=old.nnz, max_size=old.nnz)),
        dtype=bool,
    )
    volume = int(np.prod(old.shape))
    occupied = set(pack_coords(old.coords).tolist())
    grid = np.stack(
        np.unravel_index(np.arange(volume, dtype=np.int64), old.shape), axis=1
    )
    free = grid[[key not in occupied for key in pack_coords(grid).tolist()]]
    picks = draw(
        st.lists(
            st.integers(0, max(len(free) - 1, 0)),
            unique=True,
            max_size=min(len(free), 20),
        )
    )
    coords = np.concatenate([old.coords[keep], free[picks].reshape(-1, 3)])
    new = SparseTensor3D(coords, np.ones((len(coords), 1)), old.shape)
    return old, new


def expected_fresh_slots(scratch, added_flags, strided):
    """Per offset, the positions of the pairs that touch an added site."""
    slots = []
    for rule in scratch.rules:
        fresh = added_flags[rule[:, 0]]
        if not strided:
            fresh = fresh | added_flags[rule[:, 1]]
        slots.append(np.flatnonzero(fresh))
    return slots


def assert_patch_matches_cold(patched, scratch, delta, strided):
    assert_rulebooks_identical(patched, scratch)
    assert_plans_identical(patched._plan, scratch.plan())
    added_flags = np.zeros(delta.new_size, dtype=bool)
    added_flags[delta.added_new_rows] = True
    want = expected_fresh_slots(scratch, added_flags, strided)
    got = patched._splice.fresh_slots
    assert len(got) == len(want)
    for mine, theirs in zip(got, want):
        assert mine.dtype == np.int64
        assert np.array_equal(mine, theirs)


@given(site_set_pairs(), st.sampled_from([1, 3, 5]))
@settings(max_examples=80)
def test_property_one_pass_submanifold_patch_matches_cold(pair, kernel_size):
    old, new = pair
    delta = coordinate_delta(old.coords, new.coords)
    patched = patch_submanifold_rulebook(
        build_submanifold_rulebook(old, kernel_size), delta, new.shape
    )
    scratch = build_submanifold_rulebook(new, kernel_size)
    assert_patch_matches_cold(patched, scratch, delta, strided=False)


@given(site_set_pairs(), st.sampled_from([(2, 2), (3, 1), (3, 2), (2, 1), (3, 3)]))
@settings(max_examples=80)
def test_property_one_pass_strided_patch_matches_cold(pair, geometry):
    old, new = pair
    kernel_size, stride = geometry
    delta = coordinate_delta(old.coords, new.coords)
    old_rulebook, old_out = build_sparse_conv_rulebook(old, kernel_size, stride)
    patched, out = patch_sparse_conv_rulebook(
        old_rulebook, old_out, delta, stride, new_coords=new.coords
    )
    scratch, scratch_out = build_sparse_conv_rulebook(new, kernel_size, stride)
    assert np.array_equal(out, scratch_out)
    assert_patch_matches_cold(patched, scratch, delta, strided=True)


def test_submanifold_patch_rejects_grid_beyond_key_limit():
    depth = 1 << 21
    old = SparseTensor3D(np.array([[1, 1, 0]]), np.ones((1, 1)), (4, 4, depth))
    new = SparseTensor3D(
        np.array([[1, 1, 0], [1, 0, depth - 1]]), np.ones((2, 1)), old.shape
    )
    # The per-offset reference has no key limit, so it can stand in for
    # a K = 3 rulebook cached on this grid.
    old_rulebook = build_submanifold_rulebook_reference(old, 3)
    with pytest.raises(ValueError):
        patch_submanifold_rulebook(
            old_rulebook, coordinate_delta(old.coords, new.coords), new.shape
        )


# ----------------------------------------------------------------------
# DeltaRulebookCache
# ----------------------------------------------------------------------
def test_delta_cache_patches_near_match_and_rebuilds_far_match():
    cache = DeltaRulebookCache(threshold=0.25)
    base = random_sparse_tensor(seed=20, shape=(20, 20, 20), nnz=200)
    near = churned(base, remove=5, add=5, seed=21)
    far = random_sparse_tensor(seed=22, shape=(20, 20, 20), nnz=200)
    cache.submanifold(base, 3)
    assert (cache.patches, cache.rebuilds) == (0, 1)
    patched = cache.submanifold(near, 3)
    assert (cache.patches, cache.rebuilds) == (1, 1)
    assert cache.delta_stats.patched_added == 5
    assert cache.delta_stats.patched_removed == 5
    assert_rulebooks_identical(patched, build_submanifold_rulebook(near, 3))
    cache.submanifold(far, 3)  # disjoint random set: over threshold
    assert (cache.patches, cache.rebuilds) == (1, 2)
    # Digest hits stay free and are counted separately.
    cache.submanifold(near, 3)
    assert cache.hits == 1
    stats = cache.delta_stats
    assert stats.misses == 3
    assert stats.patch_rate == pytest.approx(1 / 3)


def test_delta_cache_patches_sparse_conv_including_overlapping():
    cache = DeltaRulebookCache(threshold=0.25)
    base = random_sparse_tensor(seed=23, shape=(20, 20, 20), nnz=200)
    near = churned(base, remove=6, add=4, seed=24)
    cache.sparse_conv(base, 2, 2)
    rulebook, out_coords = cache.sparse_conv(near, 2, 2)
    assert cache.patches == 1
    scratch, scratch_out = build_sparse_conv_rulebook(near, 2, 2)
    assert np.array_equal(out_coords, scratch_out)
    assert_rulebooks_identical(rulebook, scratch)
    # Overlapping geometry (kernel != stride) patches too — the former
    # ``patchable = kernel_size == stride`` gate is gone.
    cache.sparse_conv(base, 3, 2)
    patched, patched_out = cache.sparse_conv(near, 3, 2)
    assert cache.patches == 2
    assert cache.rebuilds == 2
    scratch3, scratch3_out = build_sparse_conv_rulebook(near, 3, 2)
    assert np.array_equal(patched_out, scratch3_out)
    assert_rulebooks_identical(patched, scratch3)


def test_delta_cache_chains_patches_along_a_drift():
    cache = DeltaRulebookCache(threshold=0.25)
    tensor = random_sparse_tensor(seed=25, shape=(20, 20, 20), nnz=300)
    for step in range(5):
        cache.submanifold(tensor, 3)
        tensor = churned(tensor, remove=6, add=6, seed=30 + step)
    assert cache.rebuilds == 1  # only the first frame
    assert cache.patches == 4
    final = cache.submanifold(tensor, 3)
    assert_rulebooks_identical(final, build_submanifold_rulebook(tensor, 3))


def test_delta_cache_respects_threshold_parameterization():
    base = random_sparse_tensor(seed=26, shape=(20, 20, 20), nnz=100)
    near = churned(base, remove=10, add=10, seed=27)  # 20% churn
    tight = DeltaRulebookCache(threshold=0.1)
    tight.submanifold(base, 3)
    tight.submanifold(near, 3)
    assert tight.patches == 0 and tight.rebuilds == 2
    loose = DeltaRulebookCache(threshold=0.3)
    loose.submanifold(base, 3)
    loose.submanifold(near, 3)
    assert loose.patches == 1 and loose.rebuilds == 1


def test_delta_cache_geometry_isolation():
    """Entries only patch candidates of the same (kind, kernel, shape)."""
    cache = DeltaRulebookCache(threshold=0.5)
    base = random_sparse_tensor(seed=28, nnz=80)
    near = churned(base, remove=2, add=2, seed=29)
    cache.submanifold(base, 3)
    cache.submanifold(near, 1)  # different kernel: must rebuild
    assert cache.patches == 0 and cache.rebuilds == 2
    other_shape = SparseTensor3D(near.coords, near.features, (32, 32, 32))
    cache.submanifold(other_shape, 3)  # different grid shape: rebuild
    assert cache.patches == 0 and cache.rebuilds == 3


def test_delta_cache_eviction_prunes_patch_sources():
    cache = DeltaRulebookCache(capacity=2, threshold=0.5)
    a = random_sparse_tensor(seed=30, nnz=60)
    cache.submanifold(a, 3)
    cache.submanifold(churned(a, 4, 4, seed=31), 3)
    cache.submanifold(churned(a, 0, 20, seed=32), 3)
    assert len(cache) == 2
    assert len(cache._coord_sets) == 2  # pruned in lockstep


def test_delta_cache_validates_parameters():
    with pytest.raises(ValueError, match="threshold"):
        DeltaRulebookCache(threshold=0.0)
    with pytest.raises(ValueError, match="threshold"):
        DeltaRulebookCache(threshold=1.5)
    with pytest.raises(ValueError, match="max_candidates"):
        DeltaRulebookCache(max_candidates=0)
    with pytest.raises(TypeError, match="refresh"):
        DeltaRulebookCache().register_listener(object())


def test_delta_cache_notifies_backend_listener():
    """Satellite hook: patched rulebooks refresh prepared backend state."""
    cache = DeltaRulebookCache(threshold=0.25)
    backend = get_backend("numpy")
    cache.register_listener(backend)
    cache.register_listener(backend)  # idempotent
    base = random_sparse_tensor(seed=33, nnz=150)
    cache.submanifold(base, 3)
    assert backend.plans_refreshed == 0
    patched = cache.submanifold(churned(base, 4, 4, seed=34), 3)
    assert backend.plans_refreshed == 1
    # The patched rulebook's plan is already prepared (warm, not cold).
    assert id(patched) in backend._plans


def test_listener_registered_twice_notifies_once():
    """Satellite regression: duplicate registration must not double-fire
    ``refresh`` (which would double-count ``plans_refreshed``)."""
    from repro.engine import RulebookDelta

    class SpyListener:
        def __init__(self):
            self.calls = 0
            self.last = None

        def refresh(self, old, new, delta):
            self.calls += 1
            self.last = (old, new, delta)

    cache = DeltaRulebookCache(threshold=0.25)
    spy = SpyListener()
    cache.register_listener(spy)
    cache.register_listener(spy)  # re-registration: deduped by identity
    cache.register_listener(spy)
    assert len(cache._listeners) == 1
    base = random_sparse_tensor(seed=70, nnz=150)
    cache.submanifold(base, 3)
    cache.submanifold(churned(base, 4, 4, seed=71), 3)
    assert cache.patches == 1
    assert spy.calls == 1  # exactly one notification per patch
    # Listeners receive the enriched splice provenance, which is still a
    # CoordinateDelta for consumers that only diff coordinates.
    old, new, delta = spy.last
    assert isinstance(delta, RulebookDelta)
    assert delta.out_map is not None and delta.fresh_slots is not None
    # A session re-registering its backend on the shared cache is the
    # production shape of the same hazard.
    backend = get_backend("numpy")
    cache.register_listener(backend)
    cache.register_listener(backend)
    cache.submanifold(churned(base, 3, 3, seed=72), 3)
    assert backend.plans_refreshed == 1
    assert spy.calls == 2


def test_delta_cache_listeners_are_weak():
    """A shared cache must not keep discarded sessions' backends alive
    (or keep fanning refresh work out to them)."""
    import gc

    cache = DeltaRulebookCache(threshold=0.25)
    backend = get_backend("numpy")
    cache.register_listener(backend)
    assert len(cache._listeners) == 1
    del backend
    gc.collect()
    base = random_sparse_tensor(seed=35, nnz=120)
    cache.submanifold(base, 3)
    cache.submanifold(churned(base, 3, 3, seed=36), 3)  # notify prunes
    assert cache.patches == 1
    assert cache._listeners == []


# ----------------------------------------------------------------------
# Session integration: delta=, config threshold, stats
# ----------------------------------------------------------------------
def drift_frames(num=4, seed=40, nnz=120):
    frames = [
        random_sparse_tensor(seed=seed, shape=(16, 16, 16), nnz=nnz, channels=2)
    ]
    for step in range(1, num):
        frames.append(churned(frames[-1], remove=3, add=3, seed=seed + step))
    return [
        f.with_features(
            np.random.default_rng(seed + 50 + i).standard_normal((f.nnz, 2))
        )
        for i, f in enumerate(frames)
    ]


def test_session_delta_knob_forms():
    assert InferenceSession(unet_config=SMALL_CFG).delta_threshold == 0.0
    assert (
        InferenceSession(unet_config=SMALL_CFG, delta=True).delta_threshold
        == DEFAULT_DELTA_THRESHOLD
    )
    assert (
        InferenceSession(unet_config=SMALL_CFG, delta=0.1).delta_threshold
        == 0.1
    )
    config = AcceleratorConfig(delta_threshold=0.4)
    session = InferenceSession(unet_config=SMALL_CFG, accelerator_config=config)
    assert session.delta_threshold == 0.4
    assert isinstance(session.rulebook_cache, DeltaRulebookCache)
    off = InferenceSession(
        unet_config=SMALL_CFG, accelerator_config=config, delta=False
    )
    assert off.delta_threshold == 0.0
    assert not isinstance(off.rulebook_cache, DeltaRulebookCache)


def test_session_delta_knob_validation():
    with pytest.raises(ValueError, match="threshold"):
        InferenceSession(unet_config=SMALL_CFG, delta=1.5)
    with pytest.raises(ValueError, match="DeltaRulebookCache"):
        InferenceSession(
            unet_config=SMALL_CFG, delta=0.2, rulebook_cache=RulebookCache()
        )
    with pytest.raises(ValueError, match="delta=False"):
        InferenceSession(
            unet_config=SMALL_CFG,
            delta=False,
            rulebook_cache=DeltaRulebookCache(),
        )
    shared = DeltaRulebookCache(threshold=0.3)
    session = InferenceSession(
        unet_config=SMALL_CFG, delta=0.2, rulebook_cache=shared
    )
    assert session.rulebook_cache is shared


def test_config_delta_threshold_validation_and_serialization():
    with pytest.raises(ValueError, match="delta_threshold"):
        AcceleratorConfig(delta_threshold=-0.1)
    with pytest.raises(ValueError, match="delta_threshold"):
        AcceleratorConfig(delta_threshold=1.1)
    config = AcceleratorConfig(delta_threshold=0.35)
    assert config.to_dict()["delta_threshold"] == 0.35
    assert AcceleratorConfig.from_dict(config.to_dict()) == config


@pytest.mark.parametrize("precision", ["float64", "float32", "int"])
def test_session_delta_outputs_bit_identical_cold_and_warm(precision):
    """Acceptance: enabling delta never changes results, for every
    precision, cache-cold and cache-warm."""
    frames = drift_frames()
    reference = InferenceSession(unet_config=SMALL_CFG, precision=precision)
    expected = [reference.run(f) for f in frames]
    session = InferenceSession(
        unet_config=SMALL_CFG, precision=precision, delta=0.5
    )
    for sweep in range(2):  # cold, then fully warm (digest hits)
        for frame, want in zip(frames, expected):
            got = session.run(frame)
            assert got.features.dtype == want.features.dtype
            assert np.array_equal(got.features, want.features)
            assert np.array_equal(got.coords, want.coords)
    assert session.stats.delta_patches > 0


def test_session_delta_stats_and_streaming_runner():
    frames = drift_frames()
    session = InferenceSession(unet_config=SMALL_CFG, delta=0.5)
    for frame in frames:
        session.run(frame)
    stats = session.stats
    assert stats.delta_patches > 0
    assert stats.delta_rebuilds > 0
    assert stats.matching_passes == stats.delta_patches + stats.delta_rebuilds
    assert stats.plans_refreshed == stats.delta_patches  # eager numpy refresh
    assert stats.plans_spliced == 0
    session.reset_stats()
    assert session.stats.delta_patches == 0
    # Backend refresh counters are reported per stats era, like the rest.
    assert session.stats.plans_refreshed == 0
    assert session.stats.plans_spliced == 0

    runner = StreamingRunner(resolution=24, delta=0.5)
    assert isinstance(runner.session.rulebook_cache, DeltaRulebookCache)
    with pytest.raises(ValueError, match="session owns"):
        StreamingRunner(session=InferenceSession(), delta=0.5)


def test_streaming_runner_reports_patches_on_drifting_scene():
    source = DriftingSceneSource(num_frames=4, churn=0.01, seed=0)
    runner = StreamingRunner(resolution=48, delta=0.5)
    stats = runner.run(source)
    assert stats.rulebook_patches > 0
    assert stats.rulebook_patches <= stats.rulebook_misses
    per_frame = [f.rulebook_patches for f in stats.frames]
    assert per_frame[0] == 0  # nothing to patch from on the first frame
    assert sum(per_frame[1:]) == stats.rulebook_patches
    # The numpy backend refreshes eagerly (no splice path).
    assert stats.plan_refreshes == stats.rulebook_patches
    assert stats.plan_splices == 0


def test_streaming_runner_reports_spliced_plans_on_scipy_backend():
    pytest.importorskip("scipy")
    source = DriftingSceneSource(num_frames=4, churn=0.01, seed=0)
    runner = StreamingRunner(
        resolution=48, delta=0.5, backend="scipy", execute_reference=True
    )
    stats = runner.run(source)
    assert stats.rulebook_patches > 0
    # Every patched rulebook's plan was spliced: execute_reference keeps
    # the previous frame's plan warm in the backend memo.
    assert stats.plan_splices == stats.rulebook_patches
    assert stats.plan_refreshes == stats.plan_splices
    per_frame = [f.plan_splices for f in stats.frames]
    assert per_frame[0] == 0
    assert sum(per_frame) == stats.plan_splices


# ----------------------------------------------------------------------
# DriftingSceneSource
# ----------------------------------------------------------------------
def test_drifting_scene_source_is_deterministic_and_churns():
    source = DriftingSceneSource(num_frames=3, churn=0.05, seed=7)
    first = [cloud.points.copy() for cloud in source]
    second = [cloud.points.copy() for cloud in source]
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    assert not np.array_equal(first[0], first[1])  # the scene drifts
    moved = (first[0] != first[1]).any(axis=1).mean()
    assert 0.0 < moved <= 0.06  # about the requested churn fraction


def test_drifting_scene_source_zero_churn_is_static():
    source = DriftingSceneSource(num_frames=3, churn=0.0, seed=1)
    frames = [cloud.points.copy() for cloud in source]
    assert np.array_equal(frames[0], frames[1])
    assert np.array_equal(frames[1], frames[2])


def test_drifting_scene_source_validates_parameters():
    with pytest.raises(ValueError, match="num_frames"):
        DriftingSceneSource(num_frames=0)
    with pytest.raises(ValueError, match="churn"):
        DriftingSceneSource(churn=1.5)
    with pytest.raises(ValueError, match="jitter_sigma"):
        DriftingSceneSource(jitter_sigma=-0.1)
