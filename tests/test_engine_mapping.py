"""Property tests for the sorting-based mapping operators.

Acceptance (tentpole): every mapping op — kNN, ball query, FPS,
grouping — must be bit-identical to its brute-force reference across
randomized clouds, duplicate points, ``k > N``, empty-radius queries,
and both float dtypes.  The bucket kernels share their distance
expression and ``(d^2, index)`` ordering with the references, so the
comparisons below are exact equality, never approximate.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import mapping as M

SEEDS = (0, 1, 2, 3)


def random_cloud(seed, n=None, dtype=np.float64):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 700)) if n is None else n
    pts = rng.normal(size=(n, 3)) * rng.uniform(0.5, 20.0)
    return pts.astype(dtype)


def voxel_cloud(seed, n=2000, resolution=96):
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, resolution, size=(n, 3)).astype(np.int64)
    return np.unique(coords, axis=0)


def assert_knn_identical(got, want):
    # np.array_equal ignores dtype: a float64 pad or sentinel must not
    # upcast a float32 result unnoticed.
    assert got.distances.dtype == want.distances.dtype
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.distances, want.distances)
    assert np.array_equal(got.counts, want.counts)


def assert_ball_identical(got, want):
    assert got.distances.dtype == want.distances.dtype
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.distances, want.distances)
    assert np.array_equal(got.counts, want.counts)


def assert_fps_identical(points, num_samples):
    got = M.farthest_point_sample(points, num_samples)
    want = M.farthest_point_sample_bruteforce(points, num_samples)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.counts, want.counts)
    # The references differ only in method and in the pairs they
    # examine: the running minimum reads every point once per pick.
    take = int(want.counts[0])
    assert got.stats == dataclasses.replace(
        want.stats, method="bucket", candidates=take * want.stats.num_points
    )


def degenerate_clouds():
    """A plane, an axis-aligned line, a diagonal line and a dense blob
    with two far outliers, all from one seeded generator."""
    rng = np.random.default_rng(5)
    plane = np.concatenate(
        [rng.normal(size=(400, 2)), np.zeros((400, 1))], axis=1
    )
    line = np.concatenate(
        [rng.normal(size=(200, 1)), np.zeros((200, 2))], axis=1
    )
    diagonal = np.outer(rng.normal(size=300), [1.0, 1.0, 1.0])
    outliers = np.concatenate(
        [rng.random((400, 3)), [[300.0, 0.0, 0.0], [0.0, 0.0, -300.0]]]
    )
    return {"plane": plane, "line": line, "diagonal": diagonal, "outliers": outliers}


# ---------------------------------------------------------------------------
# kNN
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_knn_bit_identical_random_clouds(seed, dtype):
    pts = random_cloud(seed, dtype=dtype)
    qs = random_cloud(seed + 100, n=41, dtype=dtype)
    for k in (1, 5, 17):
        got = M.knn(pts, qs, k=k)
        want = M.knn_bruteforce(pts, qs, k=k)
        assert_knn_identical(got, want)
        assert got.stats.method == "bucket"
        assert want.stats.method == "bruteforce"


@pytest.mark.parametrize("seed", SEEDS)
def test_knn_self_query_voxel_coords(seed):
    coords = voxel_cloud(seed)
    got = M.knn(coords, k=8)
    want = M.knn_bruteforce(coords, k=8)
    assert_knn_identical(got, want)
    # Self-query: every point is its own nearest neighbor at distance 0.
    assert np.array_equal(got.indices[:, 0], np.arange(len(coords)))
    assert np.all(got.distances[:, 0] == 0.0)


def test_mixed_dtype_points_and_queries():
    """float32 points with float64 queries: distances are computed in
    float64, as the brute-force reference does, before the result takes
    the points' dtype."""
    pts = random_cloud(4, n=300, dtype=np.float32)
    qs = random_cloud(104, n=37) + 0.1
    for k in (1, 8):
        assert_knn_identical(M.knn(pts, qs, k=k), M.knn_bruteforce(pts, qs, k=k))
    radius = float(np.abs(pts).max()) * 0.3
    assert_ball_identical(
        M.ball_query(pts, qs, radius=radius, max_samples=8),
        M.ball_query_bruteforce(pts, qs, radius=radius, max_samples=8),
    )


def test_knn_duplicate_points_tie_break_by_index():
    pts = np.array(
        [[0.0, 0.0, 0.0]] * 4 + [[1.0, 0.0, 0.0]] * 3 + [[5.0, 5.0, 5.0]]
    )
    got = M.knn(pts, k=6)
    want = M.knn_bruteforce(pts, k=6)
    assert_knn_identical(got, want)
    # Ties at d^2 == 0 resolve to ascending point index.
    assert np.array_equal(got.indices[0, :4], [0, 1, 2, 3])


def test_knn_k_exceeds_points_pads():
    pts = random_cloud(7, n=5)
    got = M.knn(pts, k=9)
    want = M.knn_bruteforce(pts, k=9)
    assert_knn_identical(got, want)
    assert np.all(got.indices[:, 5:] == -1)
    assert np.all(np.isinf(got.distances[:, 5:]))
    assert np.all(got.counts == 5)


def test_knn_empty_and_zero_k():
    empty = np.empty((0, 3))
    pts = random_cloud(3, n=10)
    for result in (M.knn(empty, k=3), M.knn_bruteforce(empty, k=3)):
        assert result.indices.shape == (0, 3)
    got = M.knn(pts, k=0)
    want = M.knn_bruteforce(pts, k=0)
    assert_knn_identical(got, want)
    assert got.indices.shape == (len(pts), 0)
    got = M.knn(pts, empty, k=3)
    assert got.indices.shape == (0, 3)


def test_knn_rejects_negative_k_and_bad_shapes():
    pts = random_cloud(0, n=8)
    with pytest.raises(ValueError, match="non-negative"):
        M.knn(pts, k=-1)
    with pytest.raises(ValueError, match="expected \\(N, 3\\)"):
        M.knn(np.zeros((4, 2)), k=1)


def test_knn_far_outside_queries():
    """Queries far off the grid exercise the clamped-cell distance bound."""
    pts = random_cloud(11, n=300)
    qs = np.array([[1e4, -1e4, 1e4], [50.0, 50.0, 50.0], [0.0, 0.0, 0.0]])
    assert_knn_identical(M.knn(pts, qs, k=4), M.knn_bruteforce(pts, qs, k=4))


def test_knn_degenerate_geometry():
    """Planes and lines (lower-dimensional clouds) stress the adaptive
    cell-size refinement; identical points stress the zero-span path."""
    clouds = degenerate_clouds()
    plane, line = clouds["plane"], clouds["line"]
    assert_knn_identical(M.knn(plane, k=6), M.knn_bruteforce(plane, k=6))
    assert_knn_identical(M.knn(line, k=3), M.knn_bruteforce(line, k=3))
    same = np.ones((7, 3))
    assert_knn_identical(M.knn(same, k=4), M.knn_bruteforce(same, k=4))
    # A diagonal line and a dense blob with far outliers: the outliers'
    # cubes outgrow the occupied cells and are found by scanning them.
    diagonal, outliers = clouds["diagonal"], clouds["outliers"]
    assert_knn_identical(M.knn(diagonal, k=5), M.knn_bruteforce(diagonal, k=5))
    assert_knn_identical(M.knn(outliers, k=8), M.knn_bruteforce(outliers, k=8))


def face_points(points, k, rng, count):
    """Points exactly on the faces of the bucket grid :func:`M.knn` builds
    for ``points`` (``origin + j * cell_size``), some just off the grid —
    where the kNN retirement bound is tight."""
    pts = M.as_point_array(points)
    grid = M._knn_grid(M._columns(pts), k)
    steps = rng.integers(-2, grid.ncells + 3, size=(count, 3))
    return grid.origin + steps.astype(pts.dtype) * pts.dtype.type(grid.cell_size)


@st.composite
def generated_clouds(draw):
    """Float32 / float64 / integer-voxel clouds with duplicates, plus
    on-face and far-off query sets, and a ``k`` that may exceed ``N``."""
    kind = draw(st.sampled_from(["float64", "float32", "voxels"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 150))
    if kind == "voxels":
        side = draw(st.integers(1, 40))
        base = rng.integers(0, side, size=(n, 3)).astype(np.int64)
    else:
        scale = draw(st.sampled_from([1e-3, 1.0, 250.0]))
        base = (rng.normal(size=(n, 3)) * scale).astype(kind)
    repeats = rng.integers(0, n, size=draw(st.integers(0, n)))
    points = np.concatenate([base, base[repeats]])
    k = draw(st.integers(1, len(points) + 4))
    faces = face_points(points, k, rng, draw(st.integers(1, 40)))
    if kind != "voxels":
        # Points on the faces too: the grid is rebuilt for the union.
        points = np.concatenate([points, faces[: len(faces) // 2]])
        faces = face_points(points, k, rng, len(faces))
    span = float(np.ptp(M.as_point_array(points), axis=0).max()) + 1.0
    far = np.array([[40.0, -40.0, 40.0], [0.0, 0.0, -90.0]]) * span
    queries = np.concatenate([faces, far.astype(faces.dtype)])
    return points, queries, k


@given(generated_clouds())
@settings(max_examples=200, deadline=None)
def test_property_knn_and_ball_query_match_bruteforce(case):
    points, queries, k = case
    for qs in (None, queries):
        assert_knn_identical(
            M.knn(points, qs, k=k), M.knn_bruteforce(points, qs, k=k)
        )
    # Radii at exact pair distances put points on the inclusive boundary.
    pts = M.as_point_array(points)
    d2 = M._distance_matrix(pts[:3], pts)
    for radius in (0.0, float(np.sqrt(d2.max())), float(np.sqrt(np.median(d2)))):
        for qs in (None, queries):
            assert_ball_identical(
                M.ball_query(points, qs, radius=radius, max_samples=k),
                M.ball_query_bruteforce(points, qs, radius=radius, max_samples=k),
            )


@given(generated_clouds())
@settings(max_examples=200, deadline=None)
def test_property_fps_matches_bruteforce(case):
    points, _, _ = case
    for num_samples in (1, len(points), len(points) + 3):
        assert_fps_identical(points, num_samples)


def test_knn_float32_at_the_cell_cap():
    """A dense float32 block inside a wide bounding box drives the cell
    size down to the 4096-cells-per-axis floor, where float32 rounding
    of the cell assignment is largest.  Points in the block and queries
    around it sit exactly on cell faces (``origin + j * cell_size``)."""
    rng = np.random.default_rng(13)
    span = 1000.0
    corners = np.array([[0.0, 0.0, 0.0], [span, span, span]])
    block = 500.0 + rng.random((8000, 3)) * 2.0
    on_faces = rng.integers(2048, 2057, size=(100, 3)) * (span / 4096.0)
    points = np.concatenate([corners, block, on_faces]).astype(np.float32)
    grid = M._knn_grid(M._columns(M.as_point_array(points)), 8)
    assert grid.cell_size == span / 4096.0
    steps = rng.integers(2045, 2060, size=(300, 3)).astype(np.float32)
    queries = np.concatenate(
        [grid.origin + steps * np.float32(grid.cell_size), points[2::80]]
    )
    for k in (1, 8, 40):
        assert_knn_identical(
            M.knn(points, queries, k=k), M.knn_bruteforce(points, queries, k=k)
        )


def test_knn_retirement_bound_is_tight():
    """A query on a cell face, after two shells, must not retire on a
    neighbor 2.009 cells away while an unscanned point sits 2.005 cells
    away, so the bound can be at most 0.009 cells optimistic, barely
    more than the float32 rounding margin of 2^-7.  The float32 cell
    cap pins the grid (cell size 1000 / 4096, origin 0)."""
    rng = np.random.default_rng(3)
    cell = 1000.0 / 4096.0
    corners = np.array([[0.0, 0.0, 0.0], [1000.0, 1000.0, 1000.0]])
    cluster = 500.0 + rng.random((3000, 3)) * 1e-3
    # In cell units: the query on the lower x-face of cell 2050, one
    # point just inside cell 2047 (unscanned until shell 3) and one in
    # the scanned cell 2052.
    units = np.array([[2047.995, 2048.5, 2048.5], [2052.009, 2048.5, 2048.5]])
    points = np.concatenate([corners, cluster, units * cell]).astype(np.float32)
    assert M._knn_grid(M._columns(M.as_point_array(points)), 1).cell_size == cell
    query = (np.array([[2050.0, 2048.5, 2048.5]]) * cell).astype(np.float32)
    got = M.knn(points, query, k=1)
    assert_knn_identical(got, M.knn_bruteforce(points, query, k=1))
    assert got.indices[0, 0] == len(points) - 2


# ---------------------------------------------------------------------------
# Ball query
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_ball_query_bit_identical_random_clouds(seed, dtype):
    pts = random_cloud(seed, dtype=dtype)
    qs = random_cloud(seed + 200, n=29, dtype=dtype)
    span = float(np.abs(pts).max())
    for radius in (span * 0.05, span * 0.5):
        got = M.ball_query(pts, qs, radius=radius, max_samples=8)
        want = M.ball_query_bruteforce(pts, qs, radius=radius, max_samples=8)
        assert_ball_identical(got, want)


@pytest.mark.parametrize("seed", SEEDS)
def test_ball_query_self_query_voxel_coords(seed):
    coords = voxel_cloud(seed)
    got = M.ball_query(coords, radius=2.0, max_samples=16)
    want = M.ball_query_bruteforce(coords, radius=2.0, max_samples=16)
    assert_ball_identical(got, want)
    # Radius boundary is inclusive, so each point sees itself.
    assert np.all(got.counts >= 1)


def test_ball_query_zero_radius_matches_duplicates_only():
    pts = np.array(
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]
    )
    got = M.ball_query(pts, radius=0.0, max_samples=4)
    want = M.ball_query_bruteforce(pts, radius=0.0, max_samples=4)
    assert_ball_identical(got, want)
    assert np.array_equal(got.counts, [2, 2, 1, 1])
    # A radius matching nothing at all: rows pad entirely.
    far = np.array([[100.0, 100.0, 100.0]])
    res = M.ball_query(pts, far, radius=0.5, max_samples=4)
    ref = M.ball_query_bruteforce(pts, far, radius=0.5, max_samples=4)
    assert_ball_identical(res, ref)
    assert res.counts[0] == 0 and np.all(res.indices[0] == -1)


def test_ball_query_cap_keeps_lowest_indices():
    pts = np.zeros((10, 3))
    got = M.ball_query(pts, radius=1.0, max_samples=3)
    want = M.ball_query_bruteforce(pts, radius=1.0, max_samples=3)
    assert_ball_identical(got, want)
    assert np.array_equal(got.indices[0], [0, 1, 2])
    assert np.all(got.counts == 3)


def test_ball_query_validation():
    pts = random_cloud(1, n=6)
    with pytest.raises(ValueError, match="radius"):
        M.ball_query(pts, radius=-1.0, max_samples=4)
    with pytest.raises(ValueError, match="max_samples"):
        M.ball_query(pts, radius=1.0, max_samples=0)


# ---------------------------------------------------------------------------
# Farthest-point sampling
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_fps_bit_identical(seed, dtype):
    pts = random_cloud(seed, n=257, dtype=dtype)
    got = M.farthest_point_sample(pts, 32)
    want = M.farthest_point_sample_bruteforce(pts, 32)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.counts, want.counts)


def test_fps_oversample_pads_and_duplicates():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    got = M.farthest_point_sample(pts, 5)
    want = M.farthest_point_sample_bruteforce(pts, 5)
    assert np.array_equal(got.indices, want.indices)
    assert np.all(got.indices[3:] == -1)
    assert got.counts[0] == 3
    # First pick is canonical: index 0; second is the farthest point.
    assert got.indices[0] == 0 and got.indices[1] == 1


def test_fps_spreads_over_clusters():
    rng = np.random.default_rng(9)
    clusters = np.concatenate(
        [rng.normal(loc=center, scale=0.05, size=(50, 3))
         for center in ([0, 0, 0], [10, 0, 0], [0, 10, 0], [0, 0, 10])]
    )
    picks = M.farthest_point_sample(clusters, 4).indices
    assert len({int(p) // 50 for p in picks}) == 4  # one pick per cluster


# ---------------------------------------------------------------------------
# Grouping
# ---------------------------------------------------------------------------
def test_group_points_gathers_and_zeroes_padding():
    values = np.arange(12, dtype=np.float64).reshape(6, 2)
    idx = np.array([[0, 5, -1], [2, -1, -1]])
    result = M.group_points(values, idx)
    assert result.grouped.shape == (2, 3, 2)
    assert np.array_equal(result.grouped[0, 0], values[0])
    assert np.array_equal(result.grouped[0, 1], values[5])
    assert np.all(result.grouped[0, 2] == 0)
    assert np.all(result.grouped[1, 1:] == 0)
    assert result.stats.matches == 3
    assert result.stats.op == "group_points"


def test_group_points_validation():
    values = np.zeros((4, 2))
    with pytest.raises(ValueError, match="out of range"):
        M.group_points(values, np.array([[0, 4]]))
    with pytest.raises(ValueError, match="\\(N, C\\)"):
        M.group_points(np.zeros(4), np.array([[0]]))
    with pytest.raises(ValueError, match="\\(Q, k\\)"):
        M.group_points(values, np.array([0, 1]))


# ---------------------------------------------------------------------------
# Result/stats surface
# ---------------------------------------------------------------------------
def test_mapping_result_and_stats_shape():
    pts = voxel_cloud(0, n=500)
    result = M.knn(pts, k=4)
    assert result.op == "knn"
    stats = result.stats
    assert stats.num_points == stats.num_queries == len(pts)
    assert stats.matches == int((result.indices >= 0).sum())
    assert stats.cells > 0 and stats.shells >= 1
    # The bucket search must examine far fewer pairs than brute force on
    # a cloud this size — that is the point of the sorting dataflow.
    brute = M.knn_bruteforce(pts, k=4)
    assert stats.candidates < brute.stats.candidates


def test_knn_stats_and_modelled_cycles_pinned():
    """``MappingStats.candidates`` prices ``MappingCostModel``'s merge
    phase, so a search that counts its candidates differently would
    shift every modelled point-network figure silently.  The counts are
    pinned to the values the per-row-merge search recorded; a query's
    candidates are its cube population at retirement, which equals the
    sum of the shells it merged."""
    from repro.engine.session import InferenceSession
    from repro.geometry.synthetic import make_shapenet_like_cloud
    from repro.geometry.voxelizer import Voxelizer
    from repro.nn import PointNetClassifier

    clouds = degenerate_clouds()
    pinned = [
        (voxel_cloud(0), 8, (130294, 15976, 863, 2)),
        (clouds["plane"], 6, (5365, 2400, 345, 18)),
        (clouds["outliers"], 8, (32061, 3216, 111, 1279)),
    ]
    for points, k, want in pinned:
        stats = M.knn(points, k=k).stats
        assert (stats.candidates, stats.matches, stats.cells, stats.shells) == want
    cloud = make_shapenet_like_cloud(seed=1, category="chair", n_points=3800)
    voxelizer = Voxelizer(resolution=192, normalize=False, occupancy_only=True)
    frame = voxelizer.voxelize(cloud)
    assert frame.nnz == 2010
    stats = M.knn(frame, k=8).stats
    assert (stats.candidates, stats.matches, stats.cells, stats.shells) == (
        101788,
        16080,
        634,
        2,
    )
    estimate = InferenceSession(net=PointNetClassifier()).estimate(frame)
    assert estimate.total_mapping_cycles == 20544


def test_as_point_array_accepts_tensors_and_widens_ints():
    from repro.sparse.coo import SparseTensor3D

    coords = voxel_cloud(2, n=50)
    tensor = SparseTensor3D(
        coords, np.ones((len(coords), 1)), (96, 96, 96)
    )
    via_tensor = M.as_point_array(tensor)
    via_array = M.as_point_array(coords)
    assert via_tensor.dtype == np.float64
    assert np.array_equal(via_tensor, via_array)
    # Mapping ops accept the tensor directly.
    assert_knn_identical(M.knn(tensor, k=3), M.knn(coords, k=3))
