"""Sorting-based mapping operators: kNN, ball query, FPS, grouping.

The source paper accelerates the *convolution* half of point-cloud
inference; PointAcc (PAPERS.md) showed that the other half — the mapping
operations point-based networks spend their time in — reduces to one
unified sorting dataflow: bucket points by voxel cell (a radix sort over
packed cell keys), then answer every neighborhood query by merging the
handful of sorted buckets that can intersect it.  This module is the
software analogue of that datapath:

* :func:`knn` — expanding-shell search over the bucket grid.  Each round
  merges one more Chebyshev shell of buckets into every query's own
  top-``k`` (a per-row selection, never one global sort); a query
  retires once its ``k``-th candidate is provably closer than any
  unscanned bucket.
* :func:`ball_query` — single-shell merge with the cell size tied to the
  query radius, capped at ``max_samples`` per query.
* :func:`farthest_point_sample` — the inherently sequential greedy picker,
  vectorized across points per iteration.
* :func:`group_points` — the gather stage: neighbor tables to dense
  ``(queries, k, channels)`` feature stacks.

Every operator returns a typed :class:`MappingResult` and is bit-identical
to its ``*_bruteforce`` reference: both paths sum squared distances in
the same order, order candidates by ``(d^2, point index)``, and pad
short rows with ``-1`` indices / ``inf`` distances.
Integer inputs (voxel coordinates) are widened to float64 — exact for the
21-bit grids the packing supports — so cached results can be delta-spliced
(:mod:`repro.engine.mapping_delta`) without precision drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.sparse.hashmap import _AXIS_BITS, pack_coords

#: Cap on grid cells per axis; keeps packed keys in range and bounds the
#: cell-assignment rounding slop the kNN retirement margin must absorb
#: (see :func:`_shell_reach`).
_MAX_CELLS_F64 = 1 << 20
_MAX_CELLS_F32 = 1 << 12


@dataclass(frozen=True)
class MappingStats:
    """Workload counters for one mapping-operator invocation.

    ``candidates`` counts (query, point) distance evaluations — the merge
    phase's work; ``matches`` counts valid entries in the result — the
    gather phase's work; ``cells`` is the occupied-bucket count of the
    sort phase; ``shells`` the outermost Chebyshev shell merged (kNN).
    """

    op: str
    method: str
    num_points: int
    num_queries: int
    candidates: int
    matches: int
    cells: int
    shells: int


@dataclass(frozen=True, eq=False)
class MappingResult:
    """Typed result of a mapping operator.

    ``indices`` is ``(Q, k)`` (or ``(S,)`` for FPS) into the point array,
    padded with ``-1``; ``distances`` carries squared distances aligned
    with ``indices`` (``inf`` padding); ``counts`` the number of valid
    neighbors per query; ``grouped`` the gathered values (grouping only).
    """

    indices: np.ndarray
    distances: Optional[np.ndarray]
    counts: Optional[np.ndarray]
    grouped: Optional[np.ndarray]
    stats: MappingStats

    @property
    def op(self) -> str:
        return self.stats.op


def as_point_array(points) -> np.ndarray:
    """Coerce a point set (array or sparse tensor) to ``(N, 3)`` float rows.

    Integer voxel coordinates widen to float64, which represents the
    packable 21-bit range (and its squared distances) exactly.
    """
    pts = np.asarray(getattr(points, "coords", points))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (N, 3) points, got shape {pts.shape}")
    if pts.dtype.kind != "f":
        pts = pts.astype(np.float64)
    return np.ascontiguousarray(pts)


def _squared_distances(a, b) -> np.ndarray:
    """Squared distances between per-axis coordinate stacks ``a`` and ``b``
    (``a[0]`` holds x values, ...), broadcasting like ``a[i] - b[i]``.

    ``dx*dx + dy*dy + dz*dz`` adds left to right, which is exactly the
    order :func:`_distance_matrix` reduces its length-3 axis in, so bucket
    and brute-force paths agree bitwise; working on column vectors avoids
    the strided ``(M, 3)`` row reduction.
    """
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    dz = a[2] - b[2]
    return dx * dx + dy * dy + dz * dz


def _columns(points: np.ndarray) -> np.ndarray:
    """``(3, N)`` contiguous per-axis layout of ``(N, 3)`` rows."""
    return np.ascontiguousarray(points.T)


def _distance_matrix(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    diff = queries[:, None, :] - points[None, :, :]
    return (diff * diff).sum(axis=2)


def _offset_keys(offsets: np.ndarray) -> np.ndarray:
    """Signed packed-key deltas of cell offsets (``pack_coords`` layout)."""
    weights = np.array([1 << (2 * _AXIS_BITS), 1 << _AXIS_BITS, 1], dtype=np.int64)
    return offsets @ weights


def _shell_offsets(radius: int, ncells: np.ndarray) -> np.ndarray:
    """Cells at Chebyshev distance exactly ``radius`` (the full cube at 1)
    that can lie inside a grid of ``ncells`` cells per axis.

    An offset reaching ``ncells[a]`` or more along an axis leaves the
    grid from every center, so each axis range is clipped to
    ``ncells[a] - 1``: a flat or thin cloud walks a flat or thin shell.
    """
    reach = np.minimum(radius, ncells - 1)
    axes = [np.arange(-r, r + 1, dtype=np.int64) for r in reach]
    cube = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    if radius <= 1:
        return cube
    return cube[np.abs(cube).max(axis=1) == radius]


def _shell_size(radius: int, ncells: np.ndarray) -> int:
    """``len(_shell_offsets(radius, ncells))`` without building it."""
    outer = int(np.prod(2 * np.minimum(radius, ncells - 1) + 1))
    if radius <= 1:
        return outer
    return outer - int(np.prod(2 * np.minimum(radius - 1, ncells - 1) + 1))


@dataclass(frozen=True, eq=False)
class _BucketGrid:
    """Points radix-sorted into voxel buckets — the sort phase's output."""

    origin: np.ndarray
    cell_size: float
    ncells: np.ndarray
    order: np.ndarray
    cell_keys: np.ndarray
    cells: np.ndarray
    starts: np.ndarray

    @property
    def num_cells(self) -> int:
        return int(len(self.cell_keys))

    def mean_population(self) -> float:
        if not len(self.cell_keys):
            return 0.0
        return float(len(self.order)) / float(len(self.cell_keys))


def _max_cells(dtype: np.dtype) -> int:
    return _MAX_CELLS_F32 if dtype == np.float32 else _MAX_CELLS_F64


def _build_grid(points: np.ndarray, cell_size: float) -> _BucketGrid:
    origin = points.min(axis=0)
    limit = float(_max_cells(points.dtype) - 1)
    cells = np.clip(
        np.floor((points - origin) / points.dtype.type(cell_size)), 0.0, limit
    ).astype(np.int64)
    ncells = cells.max(axis=0) + 1
    keys = pack_coords(cells)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    fresh = np.empty(len(sorted_keys), dtype=bool)
    fresh[:1] = True
    fresh[1:] = sorted_keys[1:] != sorted_keys[:-1]
    boundaries = np.flatnonzero(fresh)
    starts = np.concatenate([boundaries, [len(sorted_keys)]])
    return _BucketGrid(
        origin=origin,
        cell_size=float(cell_size),
        ncells=ncells,
        order=order,
        cell_keys=sorted_keys[boundaries],
        cells=cells[order[boundaries]],
        starts=starts,
    )


def _scaled(grid: _BucketGrid, queries: np.ndarray) -> np.ndarray:
    """Query coordinates in cell units from the grid origin."""
    return (queries - grid.origin) / queries.dtype.type(grid.cell_size)


def _query_cells(grid: _BucketGrid, queries: np.ndarray) -> np.ndarray:
    """Per-query search-center cells, clamped into the occupied grid.

    Clamping keeps far-away queries' shells anchored to the point set
    (and overflows impossible) without weakening the distance bound: on
    any clamped axis the query lies strictly outside the grid, so points
    in unscanned cells are even farther than the in-grid bound promises.
    """
    top = (grid.ncells - 1).astype(np.float64)
    return np.clip(np.floor(_scaled(grid, queries)), 0.0, top).astype(np.int64)


def _shell_reach(
    grid: _BucketGrid, queries: np.ndarray, centers: np.ndarray, point_dtype
) -> np.ndarray:
    """Per-query ``m_q - eps``, in cells, of the kNN retirement bound.

    After merging shell ``s`` a query centered on cell ``c`` has scanned
    every cell within Chebyshev distance ``s`` of ``c``; an unscanned
    point's cell ``c'`` has ``|c'_a - c_a| >= s + 1`` on some axis ``a``.
    In cell units ``t = (x - origin) / cell_size`` such a point has
    ``t_a >= c_a + s + 1`` (or ``t_a < c_a - s``) while the query has
    ``c_a <= t_a < c_a + 1``, so it lies at least ``s + (c_a + 1 - t_a)``
    (or ``s + (t_a - c_a)``) cells away along ``a``.  Every unscanned
    point is thus at distance ``>= (s + m_q) * cell_size`` with
    ``m_q = min_a min(t_a - c_a, c_a + 1 - t_a)`` clipped at 0.  The clip
    covers clamped queries: on a clamped axis no cell lies beyond the
    query, and the cells on the other side are farther than ``s`` cells.

    Rounding.  Let ``u`` be the unit roundoff of the coarser input dtype
    and ``M`` the per-axis cell cap.  Every cell-unit value the argument
    compares is below ``2M`` (``c + s + 1 < 2M``).  Each computed ``t``
    carries three roundings (difference, dtype-rounded cell size,
    quotient), at most ``6Mu`` cells apiece for the point and the query;
    the squared distance (difference, square, monotone sum) and the
    bound's own float64 evaluation shrink the distance by less than
    ``7Mu`` cells more.  ``eps = 32Mu`` covers the ``< 19Mu`` total:
    ``2^-7`` of a cell for float32 (``M = 2^12, u = 2^-24``) and
    ``2^-28`` for float64 (``M = 2^20, u = 2^-53``).  A query whose k-th
    distance is strictly below ``((s + m_q - eps) * cell_size)^2``
    therefore has no unscanned point that could beat or tie it.
    """
    offset = _scaled(grid, queries) - centers
    gap = np.maximum(np.minimum(offset, 1.0 - offset).min(axis=1), 0.0)
    unit = max(np.finfo(point_dtype).eps, np.finfo(queries.dtype).eps) / 2.0
    return gap - 32.0 * _max_cells(point_dtype) * unit


def _shell_buckets(
    grid: _BucketGrid, centers: np.ndarray, shell: int
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Occupied buckets at Chebyshev distance ``shell`` from each center
    (the whole 27-cell cube at 1), as ``(center, bucket)`` pairs grouped
    by center, plus the next shell holding any occupied bucket.

    A shell has ``~24 shell^2`` cells but a grid only ``num_cells``
    occupied ones; whichever list is shorter is walked.  Near shells
    look up each offset cell's key; a wide shell — a query far from the
    cloud, or in a sparse or thin region — scans the occupied cells'
    Chebyshev distances instead, so its cost stops growing with the
    shell, and the scan names the next non-empty shell so empty ones
    are skipped.
    """
    if _shell_size(shell, grid.ncells) > grid.num_cells:
        gap = np.abs(centers[:, None, :] - grid.cells[None, :, :]).max(axis=2)
        owner, bucket = np.nonzero(gap <= 1 if shell == 1 else gap == shell)
        beyond = gap[gap > shell]
        following = int(beyond.min()) if beyond.size else int(grid.ncells.max())
        return owner, bucket, following
    offsets = _shell_offsets(shell, grid.ncells)
    # Unsigned views fold both bounds into one compare; inside the grid a
    # packed key is linear in its cell, so keys add center and offset.
    cells = centers[:, None, :] + offsets[None, :, :]
    inside = (cells.view(np.uint64) < grid.ncells.astype(np.uint64)).all(axis=2)
    keys = np.where(
        inside, pack_coords(centers)[:, None] + _offset_keys(offsets)[None, :], -1
    )
    pos = np.minimum(np.searchsorted(grid.cell_keys, keys), grid.num_cells - 1)
    owner, slot = np.nonzero(inside & (grid.cell_keys[pos] == keys))
    return owner, pos[owner, slot], shell + 1


def _gather_candidates(
    grid: _BucketGrid, centers: np.ndarray, shell: int
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Merge the buckets of shell ``shell`` around ``centers`` into flat
    candidate pairs.

    Returns ``(qidx, cand, following)``: for every (local) query, the
    indices of all points whose cell is in its shell, grouped by query,
    and the next shell in which any of these centers has an occupied
    bucket (every shell between is empty for all of them).  Each (query,
    point) pair appears at most once because shell cells are distinct
    per query.  Queries sharing a center cell share its bucket list, so
    buckets are found once per distinct center and the list is then
    replicated per query.
    """
    num_queries = len(centers)
    empty = np.empty(0, dtype=np.int64)
    if num_queries == 0 or grid.num_cells == 0:
        return empty, empty, shell + 1
    _, first, inverse = np.unique(
        pack_coords(centers), return_index=True, return_inverse=True
    )
    owner, bucket, following = _shell_buckets(grid, centers[first], shell)
    counts = grid.starts[bucket + 1] - grid.starts[bucket]
    # Sorted-order positions of every distinct center's candidates.
    runs = np.repeat(grid.starts[bucket] - (np.cumsum(counts) - counts), counts)
    center_cand = grid.order[runs + np.arange(len(runs), dtype=np.int64)]
    per_center = np.bincount(owner, weights=counts, minlength=len(first))
    per_center = per_center.astype(np.int64)
    per_query = per_center[inverse]
    total = int(per_query.sum())
    if total == 0:
        return empty, empty, following
    qidx = np.repeat(np.arange(num_queries, dtype=np.int64), per_query)
    shift = (np.cumsum(per_center) - per_center)[inverse] - (
        np.cumsum(per_query) - per_query
    )
    cand = center_cand[np.repeat(shift, per_query) + np.arange(total)]
    return qidx, cand, following


def _knn_grid(points: np.ndarray, k: int) -> _BucketGrid:
    """Bucket grid whose occupied buckets hold about ``k / 4`` points.

    At ``k / 4`` per bucket a 27-cell shell holds a few ``k`` candidates
    and, with :func:`_shell_reach`'s bound, most queries retire after
    one or two shells; fuller buckets merge more candidates than the
    saved shells are worth.  The population is averaged per occupied
    bucket, so duplicated points, which no cell size can split, do not
    drive the cells down to the cap.  One density estimate from the
    bounding box, then a bounded number of refinements (accepted within
    a factor of two) against the *measured* population so
    lower-dimensional clouds (surfaces, lines) converge too.
    """
    extent = points.max(axis=0) - points.min(axis=0)
    span = float(extent.max())
    if span <= 0.0:
        return _build_grid(points, 1.0)
    floor_size = span / float(_max_cells(points.dtype))
    volume = float(np.prod(np.maximum(extent, span * 1e-3)))
    target = max(1.0, 0.25 * float(k))
    size = max(floor_size, (volume * target / float(len(points))) ** (1.0 / 3.0))
    for _ in range(3):
        grid = _build_grid(points, size)
        mean = grid.mean_population()
        if mean <= 0.0 or 0.5 * target <= mean <= 2.0 * target:
            break
        size = max(floor_size, size * float((target / mean) ** (1.0 / 3.0)))
    size = min(size, span)
    return grid if grid.cell_size == size else _build_grid(points, size)


def _row_kth(
    prev_d: np.ndarray, qidx: np.ndarray, d2: np.ndarray, k: int
) -> np.ndarray:
    """Each row's k-th smallest distance over its kept ``prev_d`` entries
    and its new candidates ``d2`` (grouped by row ``qidx``).

    Rows are banded by candidate count into power-of-two widths, and each
    band takes a per-row ``np.partition`` of its padded ``(rows, k +
    width)`` table, so padding never exceeds the band's own candidates:
    one crowded row cannot widen every other row's table.
    """
    rows = len(prev_d)
    counts = np.bincount(qidx, minlength=rows)
    seg_starts = np.cumsum(counts) - counts
    col = k + np.arange(len(qidx), dtype=np.int64) - seg_starts[qidx]
    band = np.ceil(np.log2(np.maximum(counts, 1))).astype(np.int64)
    cand_band = band[qidx]
    slot = np.empty(rows, dtype=np.int64)
    kth = np.empty(rows, dtype=prev_d.dtype)
    for level in np.unique(band):
        members = np.flatnonzero(band == level)
        slot[members] = np.arange(len(members), dtype=np.int64)
        width = k + (1 << int(level))
        table = np.full((len(members), width), np.inf, dtype=prev_d.dtype)
        table[:, :k] = prev_d[members]
        hit = cand_band == level
        table[slot[qidx[hit]], col[hit]] = d2[hit]
        kth[members] = np.partition(table, k - 1, axis=1)[:, k - 1]
    return kth


def _merge_topk(
    prev_i: np.ndarray,
    prev_d: np.ndarray,
    qidx: np.ndarray,
    cand: np.ndarray,
    d2: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge one shell's candidate pairs into each row's running top-k.

    ``prev_i`` / ``prev_d`` are the ``(P, k)`` rows kept so far (``-1`` /
    ``inf`` padded); ``(qidx, cand, d2)`` are the shell's pairs, grouped
    by row.  Only entries at or below the row's k-th distance (ties
    included) are sorted by ``(row, d^2, index)`` — about ``k`` per row —
    and the first ``k`` kept.  Returns the merged rows and each row's
    k-th distance (``inf`` while fewer than ``k`` are known).
    """
    rows, k = prev_i.shape
    kth = _row_kth(prev_d, qidx, d2, k)
    old = (prev_i >= 0) & (prev_d <= kth[:, None])
    new = d2 <= kth[qidx]
    sq = np.concatenate([np.nonzero(old)[0], qidx[new]])
    sc = np.concatenate([prev_i[old], cand[new]])
    sd = np.concatenate([prev_d[old], d2[new]])
    order = np.lexsort((sc, sd, sq))
    sq, sc, sd = sq[order], sc[order], sd[order]
    counts = np.bincount(sq, minlength=rows)
    seg_starts = np.cumsum(counts) - counts
    rank = np.arange(len(sq), dtype=np.int64) - seg_starts[sq]
    keep = rank < k
    merged_i = np.full((rows, k), -1, dtype=np.int64)
    merged_d = np.full((rows, k), np.inf, dtype=prev_d.dtype)
    merged_i[sq[keep], rank[keep]] = sc[keep]
    merged_d[sq[keep], rank[keep]] = sd[keep]
    return merged_i, merged_d, kth


def knn(points, queries=None, *, k: int) -> MappingResult:
    """``k`` nearest neighbors by expanding-shell search over the grid.

    ``queries=None`` queries the point set against itself (every point is
    then its own nearest neighbor at distance 0).  Ties at equal squared
    distance resolve to the smaller point index; rows with fewer than
    ``k`` reachable points pad with ``-1`` / ``inf``.  Each round merges
    one more Chebyshev shell into every pending query's own top-k
    (:func:`_merge_topk`) and retires the queries whose k-th distance
    beats the :func:`_shell_reach` bound on every unscanned point.
    """
    pts = as_point_array(points)
    qs = pts if queries is None else as_point_array(queries)
    k = int(k)
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    num_queries, num_points = len(qs), len(pts)
    counts = np.full(num_queries, min(k, num_points), dtype=np.int64)
    if num_queries == 0 or num_points == 0 or k == 0:
        indices = np.full((num_queries, k), -1, dtype=np.int64)
        dists = np.full((num_queries, k), np.inf, dtype=pts.dtype)
        stats = MappingStats("knn", "bucket", num_points, num_queries, 0, 0, 0, 0)
        return MappingResult(indices, dists, counts, None, stats)

    grid = _knn_grid(pts, k)
    centers = _query_cells(grid, qs)
    reach = _shell_reach(grid, qs, centers, pts.dtype)
    q_cols, p_cols = _columns(qs), _columns(pts)
    indices = np.full((num_queries, k), -1, dtype=np.int64)
    dists = np.full((num_queries, k), np.inf, dtype=np.result_type(pts, qs))
    max_shell = int(grid.ncells.max())
    pending = np.arange(num_queries, dtype=np.int64)
    examined = 0
    scanned, shell = 0, 1
    while pending.size:
        local_q, cand, following = _gather_candidates(
            grid, centers[pending], shell
        )
        examined += len(cand)
        d2 = _squared_distances(
            np.take(q_cols[:, pending], local_q, axis=1),
            np.take(p_cols, cand, axis=1),
        )
        rows_i, rows_d, kth = _merge_topk(
            indices[pending], dists[pending], local_q, cand, d2
        )
        indices[pending] = rows_i
        dists[pending] = rows_d
        radius = np.maximum(shell + reach[pending], 0.0) * grid.cell_size
        done = (kth < radius * radius) | (shell >= max_shell)
        pending = pending[~done]
        scanned, shell = shell, following
    stats = MappingStats(
        "knn",
        "bucket",
        num_points,
        num_queries,
        examined,
        int((indices >= 0).sum()),
        grid.num_cells,
        scanned,
    )
    return MappingResult(
        indices, dists.astype(pts.dtype, copy=False), counts, None, stats
    )


def knn_bruteforce(points, queries=None, *, k: int) -> MappingResult:
    """Dense-distance-matrix reference for :func:`knn` (same contract)."""
    pts = as_point_array(points)
    qs = pts if queries is None else as_point_array(queries)
    k = int(k)
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    num_queries, num_points = len(qs), len(pts)
    indices = np.full((num_queries, k), -1, dtype=np.int64)
    dists = np.full((num_queries, k), np.inf, dtype=pts.dtype)
    counts = np.full(num_queries, min(k, num_points), dtype=np.int64)
    examined = 0
    if num_queries and num_points and k:
        d2 = _distance_matrix(qs, pts)
        examined = d2.size
        take = min(k, num_points)
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :take]
        indices[:, :take] = nearest
        dists[:, :take] = np.take_along_axis(d2, nearest, axis=1)
    stats = MappingStats(
        "knn",
        "bruteforce",
        num_points,
        num_queries,
        examined,
        int((indices >= 0).sum()),
        0,
        0,
    )
    return MappingResult(indices, dists, counts, None, stats)


def _cap_rows(
    qidx: np.ndarray,
    cand: np.ndarray,
    d2: np.ndarray,
    num_queries: int,
    max_samples: int,
    dtype,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack per-query candidate lists (sorted by point index) into dense
    ``(Q, max_samples)`` tables, ``-1`` / ``inf`` padded."""
    indices = np.full((num_queries, max_samples), -1, dtype=np.int64)
    dists = np.full((num_queries, max_samples), np.inf, dtype=dtype)
    counts = np.bincount(qidx, minlength=num_queries)
    seg_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    rank = np.arange(len(qidx), dtype=np.int64) - seg_starts[qidx]
    keep = rank < max_samples
    indices[qidx[keep], rank[keep]] = cand[keep]
    dists[qidx[keep], rank[keep]] = d2[keep]
    return indices, dists, np.minimum(counts, max_samples).astype(np.int64)


def ball_query(points, queries=None, *, radius: float, max_samples: int) -> MappingResult:
    """Neighbors within ``radius``, in point-index order, ``max_samples`` max.

    The cell size equals the radius, so the 27-cell neighborhood of a
    query's cell covers its whole ball; one merge pass answers every
    query.  A zero radius matches only exact duplicates (and the query
    itself in self-query mode).
    """
    pts = as_point_array(points)
    qs = pts if queries is None else as_point_array(queries)
    radius = float(radius)
    max_samples = int(max_samples)
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    if max_samples < 1:
        raise ValueError(f"max_samples must be positive, got {max_samples}")
    num_queries, num_points = len(qs), len(pts)
    if num_queries == 0 or num_points == 0:
        indices = np.full((num_queries, max_samples), -1, dtype=np.int64)
        dists = np.full((num_queries, max_samples), np.inf, dtype=pts.dtype)
        stats = MappingStats(
            "ball_query", "bucket", num_points, num_queries, 0, 0, 0, 0
        )
        return MappingResult(
            indices, dists, np.zeros(num_queries, dtype=np.int64), None, stats
        )

    extent = pts.max(axis=0) - pts.min(axis=0)
    span = float(extent.max())
    floor_size = span / float(_max_cells(pts.dtype)) if span > 0 else 1.0
    cell_size = max(radius, floor_size)
    grid = _build_grid(pts, cell_size)
    qidx, cand, _ = _gather_candidates(grid, _query_cells(grid, qs), 1)
    examined = len(cand)
    d2 = _squared_distances(
        np.take(_columns(qs), qidx, axis=1), np.take(_columns(pts), cand, axis=1)
    )
    within = d2 <= radius * radius
    qidx, cand, d2 = qidx[within], cand[within], d2[within]
    order = np.lexsort((cand, qidx))
    indices, dists, counts = _cap_rows(
        qidx[order], cand[order], d2[order], num_queries, max_samples, pts.dtype
    )
    stats = MappingStats(
        "ball_query",
        "bucket",
        num_points,
        num_queries,
        examined,
        int((indices >= 0).sum()),
        grid.num_cells,
        1,
    )
    return MappingResult(indices, dists, counts, None, stats)


def ball_query_bruteforce(
    points, queries=None, *, radius: float, max_samples: int
) -> MappingResult:
    """Dense-distance-matrix reference for :func:`ball_query`."""
    pts = as_point_array(points)
    qs = pts if queries is None else as_point_array(queries)
    radius = float(radius)
    max_samples = int(max_samples)
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    if max_samples < 1:
        raise ValueError(f"max_samples must be positive, got {max_samples}")
    num_queries, num_points = len(qs), len(pts)
    if num_queries == 0 or num_points == 0:
        indices = np.full((num_queries, max_samples), -1, dtype=np.int64)
        dists = np.full((num_queries, max_samples), np.inf, dtype=pts.dtype)
        stats = MappingStats(
            "ball_query", "bruteforce", num_points, num_queries, 0, 0, 0, 0
        )
        return MappingResult(
            indices, dists, np.zeros(num_queries, dtype=np.int64), None, stats
        )
    d2 = _distance_matrix(qs, pts)
    qidx, cand = np.nonzero(d2 <= radius * radius)
    indices, dists, counts = _cap_rows(
        qidx.astype(np.int64),
        cand.astype(np.int64),
        d2[qidx, cand],
        num_queries,
        max_samples,
        pts.dtype,
    )
    stats = MappingStats(
        "ball_query",
        "bruteforce",
        num_points,
        num_queries,
        int(d2.size),
        int((indices >= 0).sum()),
        0,
        1,
    )
    return MappingResult(indices, dists, counts, None, stats)


def farthest_point_sample(points, num_samples: int) -> MappingResult:
    """Greedy farthest-point sampling: start at index 0, then repeatedly
    take the point farthest from the selected set (ties to the smaller
    index).  Pads with ``-1`` when ``num_samples`` exceeds the points."""
    pts = as_point_array(points)
    num_samples = int(num_samples)
    if num_samples < 0:
        raise ValueError(f"num_samples must be non-negative, got {num_samples}")
    num_points = len(pts)
    indices = np.full(num_samples, -1, dtype=np.int64)
    take = min(num_samples, num_points)
    examined = 0
    if take > 0:
        cols = _columns(pts)
        indices[0] = 0
        best = _squared_distances(cols, pts[0])
        examined = num_points
        for step in range(1, take):
            far = int(np.argmax(best))
            indices[step] = far
            np.minimum(best, _squared_distances(cols, pts[far]), out=best)
            examined += num_points
    counts = np.asarray([take], dtype=np.int64)
    stats = MappingStats(
        "farthest_point_sample",
        "bucket",
        num_points,
        num_samples,
        examined,
        take,
        0,
        0,
    )
    return MappingResult(indices, None, counts, None, stats)


def farthest_point_sample_bruteforce(points, num_samples: int) -> MappingResult:
    """Reference FPS: full pairwise matrix, min over the whole selected
    set each step (no running minimum).  Same picks bit-for-bit."""
    pts = as_point_array(points)
    num_samples = int(num_samples)
    if num_samples < 0:
        raise ValueError(f"num_samples must be non-negative, got {num_samples}")
    num_points = len(pts)
    indices = np.full(num_samples, -1, dtype=np.int64)
    take = min(num_samples, num_points)
    examined = 0
    if take > 0:
        d2 = _distance_matrix(pts, pts)
        examined = d2.size
        indices[0] = 0
        for step in range(1, take):
            best = d2[:, indices[:step]].min(axis=1)
            indices[step] = int(np.argmax(best))
    counts = np.asarray([take], dtype=np.int64)
    stats = MappingStats(
        "farthest_point_sample",
        "bruteforce",
        num_points,
        num_samples,
        examined,
        take,
        0,
        0,
    )
    return MappingResult(indices, None, counts, None, stats)


def group_points(values, indices) -> MappingResult:
    """Gather ``values`` rows by a ``(Q, k)`` neighbor table; ``-1`` slots
    produce zero rows.  This is the gather phase every set-abstraction
    block runs after its neighborhood search."""
    vals = np.asarray(values)
    idx = np.asarray(indices, dtype=np.int64)
    if vals.ndim != 2:
        raise ValueError(f"expected (N, C) values, got shape {vals.shape}")
    if idx.ndim != 2:
        raise ValueError(f"expected (Q, k) indices, got shape {idx.shape}")
    if idx.size and idx.max() >= len(vals):
        raise ValueError("neighbor index out of range for the value rows")
    safe = np.where(idx < 0, 0, idx)
    grouped = vals[safe]
    grouped[idx < 0] = 0
    stats = MappingStats(
        "group_points",
        "gather",
        len(vals),
        len(idx),
        int(idx.size),
        int((idx >= 0).sum()),
        0,
        0,
    )
    return MappingResult(idx, None, None, grouped, stats)
