"""Coordinate deltas, near-match lookups and the session's ``delta=`` knob.

Rulebooks are digest-cached and built cold on every miss; a cache warm
with an earlier frame must serve a churned frame exactly as a cold
build.  The delta mapping cache splices self-query neighbor tables; its
generated histories must match cold searches step by step.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.arch.config import AcceleratorConfig
from repro.engine import (
    DEFAULT_DELTA_THRESHOLD,
    DeltaMappingCache,
    InferenceSession,
    MappingCache,
    coordinate_delta,
)
from repro.engine import mapping as M
from repro.nn import (
    Rulebook,
    RulebookCache,
    UNetConfig,
    build_sparse_conv_rulebook,
    build_sparse_conv_rulebook_reference,
    build_submanifold_rulebook,
    build_submanifold_rulebook_reference,
)
from repro.runtime import DriftingSceneSource
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


def submanifold_near_match(old, new, kernel_size):
    """The submanifold lookup of ``new`` on a cache warm with ``old``.

    Unless the churn is empty, ``new`` is a near-match of the cached
    ``old`` entry but a digest miss, so it is built cold.
    """
    cache = RulebookCache()
    cache.submanifold(old, kernel_size)
    return cache.submanifold(new, kernel_size)


def strided_near_match(old, new, kernel_size, stride):
    """The strided lookup of ``new`` on a cache warm with ``old``.

    Unless the churn is empty, ``new`` is a near-match of the cached
    ``old`` entry but a digest miss, so it is built cold.
    """
    cache = RulebookCache()
    cache.sparse_conv(old, kernel_size, stride)
    return cache.sparse_conv(new, kernel_size, stride)


# ----------------------------------------------------------------------
# Near-matches under randomized add/remove deltas are built cold,
# bit-identical to from-scratch matching
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
    near = submanifold_near_match(old, new, kernel_size)
    assert_rulebooks_identical(
        near, build_submanifold_rulebook_reference(new, kernel_size)
    )
    assert_plans_identical(near._plan, lazy_plan(near))


def test_patch_from_and_to_degenerate_sets():
    tensor = random_sparse_tensor(seed=9, nnz=30)
    empty = SparseTensor3D.empty(tensor.shape)
    # Everything added (old empty) and everything removed (new empty).
    for old, new in ((empty, tensor), (tensor, empty)):
        assert_rulebooks_identical(
            submanifold_near_match(old, new, 3),
            build_submanifold_rulebook_reference(new, 3),
        )


def test_submanifold_patch_rejects_grid_beyond_key_limit():
    """A grid too deep for the padded key fields is rejected on every
    lookup; the failed build leaves no entry behind."""
    depth = 1 << 21
    tensor = SparseTensor3D(
        np.array([[1, 1, 0], [1, 0, depth - 1]]), np.ones((2, 1)), (4, 4, depth)
    )
    cache = RulebookCache()
    for _ in range(2):
        with pytest.raises(ValueError):
            cache.submanifold(tensor, 3)
    assert len(cache) == 0 and cache.hits == 0
    # K = 1 needs no padding, so the same grid is still matched.
    assert_rulebooks_identical(
        cache.submanifold(tensor, 1),
        build_submanifold_rulebook_reference(tensor, 1),
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
    patched, out_coords = strided_near_match(old, new, stride, stride)
    scratch, scratch_out = build_sparse_conv_rulebook(new, stride, stride)
    assert np.array_equal(out_coords, scratch_out)
    assert out_coords.dtype == scratch_out.dtype
    assert_rulebooks_identical(patched, scratch)
    # Transposed convolutions derive from the forward rules, so the
    # cached rulebook's transpose must match the from-scratch one too.
    assert_rulebooks_identical(patched.transposed(), scratch.transposed())


OVERLAP_GEOMETRIES = [(3, 2), (4, 2), (3, 1)]


@pytest.mark.parametrize("kernel_size,stride", OVERLAP_GEOMETRIES)
@pytest.mark.parametrize("seed", range(6))
def test_patch_overlapping_strided_geometries_bit_identical(
    kernel_size, stride, seed
):
    """Overlapping ``kernel != stride`` near-matches served by the delta
    cache (rules, output coordinates, transposed derivation) match
    from-scratch matching array for array under randomized deltas."""
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
    patched, out_coords = strided_near_match(old, new, kernel_size, stride)
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
        patched, out = strided_near_match(old, new, kernel_size, stride)
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


def lazy_plan(rulebook):
    """The plan a rulebook without a pre-seeded one builds from its rules."""
    return Rulebook(
        kernel_size=rulebook.kernel_size,
        offsets=rulebook.offsets,
        rules=[rule.copy() for rule in rulebook.rules],
        num_inputs=rulebook.num_inputs,
        num_outputs=rulebook.num_outputs,
    ).plan()


def test_patchers_preseed_gather_scatter_plan():
    """Cold-built submanifold and strided near-match rulebooks hand over
    their plan arrays, array-for-array identical to a lazily built plan."""
    old = random_sparse_tensor(seed=15, shape=(18, 18, 18), nnz=120)
    new = churned(old, remove=8, add=8, seed=16)
    sub = build_submanifold_rulebook(new, 3)
    assert sub._plan is not None
    assert_plans_identical(sub._plan, lazy_plan(sub))
    for kernel_size, stride in [(2, 2), (3, 2)]:
        patched, _ = strided_near_match(old, new, kernel_size, stride)
        scratch, _ = build_sparse_conv_rulebook(new, kernel_size, stride)
        assert patched._plan is not None
        assert_plans_identical(patched._plan, scratch.plan())
        assert_plans_identical(patched._plan, lazy_plan(scratch))


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


def assert_patch_matches_cold(patched, scratch):
    assert_rulebooks_identical(patched, scratch)
    assert_plans_identical(patched._plan, scratch.plan())


@given(site_set_pairs(), st.sampled_from([1, 3, 5, 7]))
@settings(max_examples=80)
def test_property_one_pass_submanifold_patch_matches_cold(pair, kernel_size):
    old, new = pair
    near = submanifold_near_match(old, new, kernel_size)
    assert_rulebooks_identical(
        near, build_submanifold_rulebook_reference(new, kernel_size)
    )
    assert_plans_identical(near._plan, lazy_plan(near))


@given(site_set_pairs(), st.sampled_from([(2, 2), (3, 1), (3, 2), (2, 1), (3, 3)]))
@settings(max_examples=80)
def test_property_one_pass_strided_patch_matches_cold(pair, geometry):
    old, new = pair
    kernel_size, stride = geometry
    patched, out = strided_near_match(old, new, kernel_size, stride)
    scratch, scratch_out = build_sparse_conv_rulebook(new, kernel_size, stride)
    assert np.array_equal(out, scratch_out)
    assert_patch_matches_cold(patched, scratch)


# ----------------------------------------------------------------------
# DeltaMappingCache under generated histories
# ----------------------------------------------------------------------
def assert_tables_identical(got, want):
    for name in ("indices", "distances", "counts"):
        mine, theirs = getattr(got, name), getattr(want, name)
        assert mine.dtype == theirs.dtype
        assert mine.shape == theirs.shape
        assert np.array_equal(mine, theirs)


class DeltaCacheHistories(RuleBasedStateMachine):
    """One delta mapping cache under random site-set histories.

    Each step adds sites, removes sites or revisits an earlier site set,
    then runs every self-query lookup on the current set.  Every result
    must equal a cold search array for array, dtype included, whether it
    was a digest hit, a splice or a rebuild.
    """

    KNN_KS = (1, 4)
    BALLS = ((1.5, 6), (2.0, 12))

    def __init__(self):
        super().__init__()
        self.cache = DeltaMappingCache(capacity=12, threshold=0.5)
        self.lookups = 0
        # Empty sets are digest-cached but never delta-tracked, so their
        # misses are neither splices nor rebuilds.
        self.untracked_misses = 0
        self.visited = []

    @initialize(tensor=site_sets())
    def start(self, tensor):
        self.shape = tensor.shape
        self.volume = int(np.prod(tensor.shape))
        self.sites = frozenset(
            np.ravel_multi_index(tensor.coords.T, tensor.shape).tolist()
        )
        self.look_up()

    @rule(data=st.data())
    def add_sites(self, data):
        picks = data.draw(
            st.lists(st.integers(0, self.volume - 1), max_size=6)
        )
        self.sites = self.sites | frozenset(picks)
        self.look_up()

    @precondition(lambda self: self.sites)
    @rule(data=st.data())
    def remove_sites(self, data):
        picks = data.draw(
            st.lists(st.sampled_from(sorted(self.sites)), max_size=6)
        )
        self.sites = self.sites - frozenset(picks)
        self.look_up()

    @rule(data=st.data())
    def revisit(self, data):
        self.sites = data.draw(st.sampled_from(self.visited))
        self.look_up()

    def check(self, lookup, cold):
        misses = self.cache.misses
        assert_tables_identical(lookup(), cold())
        self.lookups += 1
        if self.cache.misses > misses and not self.sites:
            self.untracked_misses += 1

    def look_up(self):
        self.visited.append(self.sites)
        flat = np.array(sorted(self.sites), dtype=np.int64)
        coords = np.stack(np.unravel_index(flat, self.shape), axis=1)
        tensor = SparseTensor3D(
            coords.reshape(-1, 3), np.ones((len(flat), 1)), self.shape
        )
        cache = self.cache
        for k in self.KNN_KS:
            self.check(
                lambda: cache.knn(tensor, k),
                lambda: M.knn(tensor.coords, k=k),
            )
        for radius, max_samples in self.BALLS:
            self.check(
                lambda: cache.ball_query(tensor, radius, max_samples),
                lambda: M.ball_query(
                    tensor.coords, radius=radius, max_samples=max_samples
                ),
            )

    @invariant()
    def counters_add_up(self):
        cache = self.cache
        assert cache.hits + cache.misses == self.lookups == cache.lookups
        assert (
            cache.patches + cache.rebuilds + self.untracked_misses
            == cache.misses
        )
        stats = cache.stats
        assert (stats.hits, stats.misses) == (cache.hits, cache.misses)
        assert (stats.patches, stats.rebuilds) == (cache.patches, cache.rebuilds)


DeltaCacheHistories.TestCase.settings = settings(
    max_examples=40, stateful_step_count=12
)
test_delta_cache_histories_match_reference = DeltaCacheHistories.TestCase


def test_delta_cache_patches_near_match_and_rebuilds_far_match():
    cache = DeltaMappingCache(threshold=0.25)
    base = random_sparse_tensor(seed=20, shape=(20, 20, 20), nnz=200)
    near = churned(base, remove=5, add=5, seed=21)
    far = random_sparse_tensor(seed=22, shape=(20, 20, 20), nnz=200)
    cache.knn(base, 4)
    assert (cache.patches, cache.rebuilds) == (0, 1)
    patched = cache.knn(near, 4)
    assert (cache.patches, cache.rebuilds) == (1, 1)
    assert (cache.patched_added, cache.patched_removed) == (5, 5)
    assert patched.stats.method == "delta-patch"
    assert_tables_identical(patched, M.knn(near.coords, k=4))
    cache.knn(far, 4)  # disjoint random set: over threshold
    assert (cache.patches, cache.rebuilds) == (1, 2)
    # Digest hits stay free and are counted separately.
    cache.knn(near, 4)
    assert cache.hits == 1
    stats = cache.stats
    assert stats.misses == 3
    assert stats.patch_rate == pytest.approx(1 / 3)


def test_delta_cache_builds_strided_near_match_cold():
    """Rulebooks have no delta path: strided and submanifold near-matches
    are digest misses built cold.  Only the mapping cache splices the
    same churn."""
    rulebooks = RulebookCache()
    base = random_sparse_tensor(seed=23, shape=(20, 20, 20), nnz=200)
    near = churned(base, remove=6, add=4, seed=24)
    for kernel_size, stride in [(2, 2), (3, 2)]:
        rulebooks.sparse_conv(base, kernel_size, stride)
        rulebook, out_coords = rulebooks.sparse_conv(near, kernel_size, stride)
        want, want_out = build_sparse_conv_rulebook_reference(
            near, kernel_size, stride
        )
        assert np.array_equal(out_coords, want_out)
        assert_rulebooks_identical(rulebook, want)
    rulebooks.submanifold(base, 3)
    assert_rulebooks_identical(
        rulebooks.submanifold(near, 3),
        build_submanifold_rulebook_reference(near, 3),
    )
    assert (rulebooks.hits, rulebooks.misses) == (0, 6)
    mapping = DeltaMappingCache(threshold=0.25)
    mapping.knn(base, 4)
    mapping.knn(near, 4)
    assert (mapping.patches, mapping.rebuilds) == (1, 1)


def test_delta_cache_chains_patches_along_a_drift():
    cache = DeltaMappingCache(threshold=0.25)
    tensor = random_sparse_tensor(seed=25, shape=(20, 20, 20), nnz=300)
    for step in range(5):
        got = cache.ball_query(tensor, 2.0, 8)
        assert_tables_identical(
            got, M.ball_query(tensor.coords, radius=2.0, max_samples=8)
        )
        tensor = churned(tensor, remove=6, add=6, seed=30 + step)
    assert cache.rebuilds == 1  # only the first frame
    assert cache.patches == 4  # each splice sources the previous one
    assert (cache.patched_added, cache.patched_removed) == (24, 24)


def test_delta_cache_respects_threshold_parameterization():
    base = random_sparse_tensor(seed=26, shape=(20, 20, 20), nnz=100)
    near = churned(base, remove=10, add=10, seed=27)  # 20% churn
    tight = DeltaMappingCache(threshold=0.1)
    tight.knn(base, 4)
    tight.knn(near, 4)
    assert tight.patches == 0 and tight.rebuilds == 2
    loose = DeltaMappingCache(threshold=0.3)
    loose.knn(base, 4)
    loose.knn(near, 4)
    assert loose.patches == 1 and loose.rebuilds == 1


def test_delta_cache_geometry_isolation():
    """Entries only patch candidates of the same (op, parameters)."""
    cache = DeltaMappingCache(threshold=0.5)
    base = random_sparse_tensor(seed=28, nnz=80)
    near = churned(base, remove=2, add=2, seed=29)
    cache.ball_query(base, 1.5, 6)
    cache.knn(near, 6)  # different op: must rebuild
    cache.ball_query(near, 2.0, 6)  # different radius: rebuild
    cache.ball_query(near, 1.5, 12)  # different cap: rebuild
    assert cache.patches == 0 and cache.rebuilds == 4
    cache.ball_query(near, 1.5, 6)  # same geometry as base: patch
    assert cache.patches == 1


def test_delta_cache_eviction_prunes_patch_sources():
    cache = DeltaMappingCache(capacity=2, threshold=0.5)
    a = random_sparse_tensor(seed=30, nnz=60)
    cache.knn(a, 3)
    cache.knn(churned(a, 4, 4, seed=31), 3)
    cache.knn(churned(a, 0, 20, seed=32), 3)
    assert len(cache) == 2
    assert len(cache._coord_sets) == 2  # pruned in lockstep
    assert all(key in cache._entries for key in cache._coord_sets)


def test_delta_cache_validates_parameters():
    with pytest.raises(ValueError, match="threshold"):
        DeltaMappingCache(threshold=0.0)
    with pytest.raises(ValueError, match="threshold"):
        DeltaMappingCache(threshold=1.5)
    with pytest.raises(ValueError, match="max_candidates"):
        DeltaMappingCache(max_candidates=0)
    with pytest.raises(ValueError, match="capacity"):
        DeltaMappingCache(capacity=0)


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
    """``delta=`` picks the session's mapping cache; rulebooks are always
    digest-cached."""
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
    assert isinstance(session.mapping_cache, DeltaMappingCache)
    assert session.mapping_cache.threshold == 0.4
    assert type(session.rulebook_cache) is RulebookCache
    off = InferenceSession(
        unet_config=SMALL_CFG, accelerator_config=config, delta=False
    )
    assert off.delta_threshold == 0.0
    assert type(off.mapping_cache) is MappingCache
    assert type(off.rulebook_cache) is RulebookCache


def test_session_delta_knob_validation():
    for bad in (1.5, 0.0, -0.2):
        with pytest.raises(ValueError, match="threshold"):
            InferenceSession(unet_config=SMALL_CFG, delta=bad)
    shared = RulebookCache()
    session = InferenceSession(
        unet_config=SMALL_CFG, delta=0.2, rulebook_cache=shared
    )
    assert session.rulebook_cache is shared
    assert session.mapping_cache.threshold == 0.2


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
    stats = session.stats
    assert stats.rulebook_hits > 0 and stats.rulebook_misses > 0


def test_session_rulebook_delta_counters_read_zero():
    """Every rulebook miss is a cold build: the rulebook delta and plan
    refresh counters stay 0 and ``matching_passes`` counts the misses."""
    frames = drift_frames()
    for backend in ("numpy", "scipy"):
        session = InferenceSession(
            unet_config=SMALL_CFG, backend=backend, delta=0.5
        )
        for frame in frames:
            session.run(frame)
        stats = session.stats
        assert stats.matching_passes == stats.rulebook_misses > 0
        assert (stats.delta_patches, stats.delta_rebuilds) == (0, 0)
        assert (stats.plans_refreshed, stats.plans_spliced) == (0, 0)


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
