"""Tests for rulebook construction — the reference matching operation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.synthetic import make_shapenet_like_cloud
from repro.geometry.voxelizer import Voxelizer
from repro.nn import (
    Rulebook,
    build_sparse_conv_rulebook,
    build_sparse_conv_rulebook_reference,
    build_submanifold_rulebook,
    build_submanifold_rulebook_reference,
    kernel_offsets,
)
from repro.nn.rulebook import lookup_rows
from repro.sparse import SparseTensor3D, pack_coords
from tests.conftest import random_sparse_tensor, site_sets

SUBMANIFOLD_KERNELS = [1, 3, 5]
STRIDED_GEOMETRIES = [(2, 2), (3, 1), (3, 2), (2, 1), (3, 3)]


def brute_force_submanifold_pairs(tensor, kernel_size):
    """O(N * K^3) reference: for each output site, scan every offset."""
    offsets = kernel_offsets(kernel_size, center=True)
    pairs = {k: [] for k in range(len(offsets))}
    for out_row, coord in enumerate(tensor.coords):
        for k, offset in enumerate(offsets):
            neighbor = tuple(coord + offset)
            if min(neighbor) < 0 or any(
                neighbor[a] >= tensor.shape[a] for a in range(3)
            ):
                continue
            in_row = tensor.row_of(neighbor)
            if in_row is not None:
                pairs[k].append((in_row, out_row))
    return pairs


def test_kernel_offsets_centered():
    offsets = kernel_offsets(3, center=True)
    assert offsets.shape == (27, 3)
    assert offsets.min() == -1 and offsets.max() == 1
    assert [0, 0, 0] in offsets.tolist()


def test_kernel_offsets_corner():
    offsets = kernel_offsets(2, center=False)
    assert offsets.shape == (8, 3)
    assert offsets.min() == 0 and offsets.max() == 1


def test_kernel_offsets_validation():
    with pytest.raises(ValueError):
        kernel_offsets(0)
    with pytest.raises(ValueError):
        kernel_offsets(2, center=True)


def test_submanifold_rulebook_matches_brute_force():
    tensor = random_sparse_tensor(seed=21, shape=(8, 8, 8), nnz=40, channels=1)
    rulebook = build_submanifold_rulebook(tensor, kernel_size=3)
    expected = brute_force_submanifold_pairs(tensor, 3)
    for k in range(27):
        got = {tuple(pair) for pair in rulebook.rules[k].tolist()}
        assert got == set(expected[k])


def test_center_offset_is_identity():
    tensor = random_sparse_tensor(seed=22, nnz=15)
    rulebook = build_submanifold_rulebook(tensor, kernel_size=3)
    center_index = 13  # offset (0,0,0) of a 3x3x3 kernel
    assert np.array_equal(rulebook.offsets[center_index], [0, 0, 0])
    rule = rulebook.rules[center_index]
    assert len(rule) == tensor.nnz
    assert np.array_equal(rule[:, 0], rule[:, 1])


def test_isolated_point_has_single_match():
    tensor = SparseTensor3D(np.array([[5, 5, 5]]), np.ones((1, 1)), (12, 12, 12))
    rulebook = build_submanifold_rulebook(tensor, kernel_size=3)
    assert rulebook.total_matches == 1


def test_dense_block_match_count():
    """A fully dense interior block: every offset matches everywhere inside."""
    coords = np.array(
        [[x, y, z] for x in range(3) for y in range(3) for z in range(3)]
    ) + 2
    tensor = SparseTensor3D(coords, np.ones((27, 1)), (8, 8, 8))
    rulebook = build_submanifold_rulebook(tensor, kernel_size=3)
    # Equivalent to correlating two 3^3 boxes: sum over displacement d of
    # count(pairs at displacement d) = 4^3 interior overlaps... simplest
    # check: center of the block has all 27 neighbors.
    per_output = rulebook.matches_per_output()
    center_row = tensor.row_of((3, 3, 3))
    assert per_output[center_row] == 27
    # Corner of the block has exactly 8 neighbors (2x2x2 sub-block).
    corner_row = tensor.row_of((2, 2, 2))
    assert per_output[corner_row] == 8


def test_boundary_sites_no_out_of_bounds_matches():
    tensor = SparseTensor3D(
        np.array([[0, 0, 0], [1, 0, 0]]), np.ones((2, 1)), (4, 4, 4)
    )
    rulebook = build_submanifold_rulebook(tensor, kernel_size=3)
    assert rulebook.total_matches == 4  # 2 self + 2 cross


def test_effective_ops_accounting():
    tensor = random_sparse_tensor(seed=23, nnz=20)
    rulebook = build_submanifold_rulebook(tensor, 3)
    assert rulebook.effective_macs(4, 8) == rulebook.total_matches * 32
    assert rulebook.effective_ops(4, 8) == 2 * rulebook.effective_macs(4, 8)


def test_empty_tensor_rulebook():
    tensor = SparseTensor3D.empty((6, 6, 6))
    rulebook = build_submanifold_rulebook(tensor, 3)
    assert rulebook.total_matches == 0
    assert rulebook.num_outputs == 0


def test_sparse_conv_rulebook_stride2():
    coords = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2], [5, 5, 5]])
    tensor = SparseTensor3D(coords, np.ones((4, 1)), (8, 8, 8))
    rulebook, out_coords = build_sparse_conv_rulebook(tensor, kernel_size=2, stride=2)
    # Downsampled sites: (0,0,0) from the first two, (1,1,1), (2,2,2).
    assert np.array_equal(
        out_coords, np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2]])
    )
    # Every input contributes exactly once when K == stride.
    assert rulebook.total_matches == 4


def test_sparse_conv_rulebook_general_kernel():
    coords = np.array([[2, 2, 2]])
    tensor = SparseTensor3D(coords, np.ones((1, 1)), (8, 8, 8))
    rulebook, out_coords = build_sparse_conv_rulebook(tensor, kernel_size=3, stride=1)
    # A single input at (2,2,2) feeds all 27 outputs around it.
    assert rulebook.total_matches == 27
    assert len(out_coords) == 27


def test_matches_per_output_sums_to_total():
    tensor = random_sparse_tensor(seed=24, nnz=35)
    rulebook = build_submanifold_rulebook(tensor, 3)
    assert rulebook.matches_per_output().sum() == rulebook.total_matches


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_property_rulebook_symmetry(seed):
    """Sub-Conv matching is symmetric: (i -> o) under offset d implies
    (o -> i) under offset -d."""
    tensor = random_sparse_tensor(seed=seed, shape=(6, 6, 6), nnz=20)
    rulebook = build_submanifold_rulebook(tensor, kernel_size=3)
    pair_sets = [
        {tuple(p) for p in rule.tolist()} for rule in rulebook.rules
    ]
    for k, offset in enumerate(rulebook.offsets):
        mirror_k = int(np.where(
            (rulebook.offsets == -offset).all(axis=1)
        )[0][0])
        mirrored = {(o, i) for (i, o) in pair_sets[k]}
        assert mirrored == pair_sets[mirror_k]


# ----------------------------------------------------------------------
# One-pass builders against the per-offset references
# ----------------------------------------------------------------------
def assert_plans_identical(got, want):
    assert got.total_matches == want.total_matches
    assert got.active_offsets == want.active_offsets
    for mine, theirs in [(got.in_rows, want.in_rows), (got.segment_starts, want.segment_starts)]:
        assert mine.dtype == theirs.dtype == np.int64
        assert np.array_equal(mine, theirs)
    assert len(got.out_rows) == len(want.out_rows)
    for mine, theirs in zip(got.out_rows, want.out_rows):
        assert mine.dtype == theirs.dtype == np.int64
        assert np.array_equal(mine, theirs)


def assert_matches_reference(got, want):
    """Rule for rule equal, and the pre-seeded plan equals lazy plans."""
    assert got.kernel_size == want.kernel_size
    assert (got.num_inputs, got.num_outputs) == (want.num_inputs, want.num_outputs)
    assert np.array_equal(got.offsets, want.offsets)
    assert len(got.rules) == len(want.rules)
    for mine, theirs in zip(got.rules, want.rules):
        assert mine.dtype == theirs.dtype == np.int64
        assert mine.shape == theirs.shape
        assert np.array_equal(mine, theirs)
    assert got._plan is not None  # pre-seeded by the builder
    lazy = Rulebook(
        kernel_size=got.kernel_size,
        offsets=got.offsets,
        rules=list(got.rules),
        num_inputs=got.num_inputs,
        num_outputs=got.num_outputs,
    )
    assert_plans_identical(got.plan(), lazy.plan())
    assert_plans_identical(got.plan(), want.plan())


@given(site_sets(), st.sampled_from(SUBMANIFOLD_KERNELS))
@settings(max_examples=120)
def test_property_submanifold_matches_reference(tensor, kernel_size):
    assert_matches_reference(
        build_submanifold_rulebook(tensor, kernel_size),
        build_submanifold_rulebook_reference(tensor, kernel_size),
    )


@given(site_sets(), st.sampled_from(STRIDED_GEOMETRIES))
@settings(max_examples=120)
def test_property_strided_matches_reference(tensor, geometry):
    kernel_size, stride = geometry
    got, got_out = build_sparse_conv_rulebook(tensor, kernel_size, stride)
    want, want_out = build_sparse_conv_rulebook_reference(
        tensor, kernel_size, stride
    )
    assert got_out.dtype == want_out.dtype == np.int64
    assert got_out.shape == want_out.shape
    assert np.array_equal(got_out, want_out)
    assert_matches_reference(got, want)
    assert_matches_reference(got.transposed(), want.transposed())


@pytest.mark.parametrize("shape", [(1, 1, 1), (4, 1, 7), (9, 9, 9)])
def test_builders_match_reference_on_empty_sets(shape):
    tensor = SparseTensor3D.empty(shape)
    for kernel_size in SUBMANIFOLD_KERNELS:
        assert_matches_reference(
            build_submanifold_rulebook(tensor, kernel_size),
            build_submanifold_rulebook_reference(tensor, kernel_size),
        )
    for kernel_size, stride in STRIDED_GEOMETRIES:
        got, got_out = build_sparse_conv_rulebook(tensor, kernel_size, stride)
        want, want_out = build_sparse_conv_rulebook_reference(
            tensor, kernel_size, stride
        )
        assert got_out.shape == want_out.shape == (0, 3)
        assert_matches_reference(got, want)


def test_builders_match_reference_on_default_chair():
    """The default 192^3 ShapeNet-like chair, every builder geometry."""
    cloud = make_shapenet_like_cloud(seed=0, n_points=60000)
    tensor = Voxelizer(
        resolution=192, normalize=False, occupancy_only=True
    ).voxelize(cloud)
    for kernel_size in SUBMANIFOLD_KERNELS:
        assert_matches_reference(
            build_submanifold_rulebook(tensor, kernel_size),
            build_submanifold_rulebook_reference(tensor, kernel_size),
        )
    for kernel_size, stride in STRIDED_GEOMETRIES:
        got, got_out = build_sparse_conv_rulebook(tensor, kernel_size, stride)
        want, want_out = build_sparse_conv_rulebook_reference(
            tensor, kernel_size, stride
        )
        assert np.array_equal(got_out, want_out)
        assert_matches_reference(got, want)


def test_submanifold_grid_at_key_limit_matches_reference():
    """Padded by K//2 per side the grid just fits a 21-bit key field."""
    depth = (1 << 21) - 2
    coords = np.array(
        [[0, 0, 0], [0, 0, 1], [3, 3, depth - 1], [3, 2, depth - 1], [1, 1, 0]]
    )
    tensor = SparseTensor3D(coords, np.ones((5, 1)), (4, 4, depth))
    assert_matches_reference(
        build_submanifold_rulebook(tensor, 3),
        build_submanifold_rulebook_reference(tensor, 3),
    )


def test_submanifold_grid_beyond_key_limit_raises():
    """Past the limit a neighbour key could alias a site on the far face.

    On a grid ``2**21`` deep, ``(1, 1, 0) + (0, 0, -1)`` would pack to
    the key of ``(1, 0, 2**21 - 1)`` — a wrong rule, not an error, were
    the padded extent not checked.
    """
    depth = 1 << 21
    coords = np.array([[1, 1, 0], [1, 0, depth - 1]])
    tensor = SparseTensor3D(coords, np.ones((2, 1)), (4, 4, depth))
    with pytest.raises(ValueError):
        build_submanifold_rulebook(tensor, 3)
    assert_matches_reference(  # K = 1 needs no padding
        build_submanifold_rulebook(tensor, 1),
        build_submanifold_rulebook_reference(tensor, 1),
    )


# ----------------------------------------------------------------------
# lookup_rows: the sorted probe that maps coordinates to rows
# ----------------------------------------------------------------------
def test_lookup_rows_mixed_hits():
    keys = pack_coords(np.array([[0, 0, 0], [1, 1, 1]]))
    rows = lookup_rows(keys, pack_coords(np.array([[1, 1, 1], [9, 9, 9]])))
    assert rows.tolist() == [1, -1]
    assert lookup_rows(keys[:0], keys).tolist() == [-1, -1]


def test_lookup_rows_maps_rows():
    tensor = SparseTensor3D(
        np.array([[7, 8, 9], [1, 2, 3], [4, 5, 6]]), np.ones((3, 1)), (10, 10, 10)
    )
    keys = pack_coords(tensor.coords)
    assert lookup_rows(keys, keys).tolist() == [0, 1, 2]


@given(
    st.lists(
        st.tuples(
            st.integers(0, 300), st.integers(0, 300), st.integers(0, 300)
        ),
        min_size=0,
        max_size=80,
        unique=True,
    )
)
@settings(max_examples=50, deadline=None)
def test_property_lookup_rows_agrees_with_dict(coord_list):
    """The sorted probe must behave exactly like a Python dict."""
    coords = np.array(coord_list, dtype=np.int64).reshape(-1, 3)
    keys = np.sort(pack_coords(coords))
    reference = {key: row for row, key in enumerate(keys.tolist())}
    assert lookup_rows(keys, keys).tolist() == list(reference.values())
    missing = np.array(
        [key for key in (0, 1, 999_999_999) if key not in reference],
        dtype=np.int64,
    )
    assert (lookup_rows(keys, missing) == -1).all()
