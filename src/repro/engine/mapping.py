"""Sorting-based mapping operators: kNN, ball query, FPS, grouping.

The source paper accelerates the *convolution* half of point-cloud
inference; PointAcc (PAPERS.md) showed that the other half — the mapping
operations point-based networks spend their time in — reduces to one
unified sorting dataflow: bucket points by voxel cell (a radix sort over
packed cell keys), then answer every neighborhood query by merging the
handful of sorted buckets that can intersect it.  This module is the
software analogue of that datapath:

* :func:`knn` — expanding-cube search over the bucket grid.  Each round
  builds, per distinct center cell, one table of the points in every
  bucket within Chebyshev distance ``s``, sorted by point index; each
  pending query takes its center's table, and one stable sort by
  ``d^2`` per row puts it in ``(d^2, index)`` order (a per-row
  selection, never one global sort or a cross-round merge).  A query
  retires once its ``k``-th candidate is provably closer than any point
  outside its cube, and otherwise re-scans a wider cube next round.
* :func:`ball_query` — the kNN's first round with the cell size tied to
  the query radius, capped at ``max_samples`` per query.
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
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.sparse.hashmap import _AXIS_BITS, _AXIS_MASK

#: Cap on grid cells per axis; keeps packed keys in range and bounds the
#: cell-assignment rounding slop the kNN retirement margin must absorb
#: (see :func:`_shell_reach`).
_MAX_CELLS_F64 = 1 << 20
_MAX_CELLS_F32 = 1 << 12


@dataclass(frozen=True)
class MappingStats:
    """Workload counters for one mapping-operator invocation.

    ``candidates`` counts (query, point) candidate pairs, each query's
    points in the neighborhood that answered it (for the kNN, its cube
    at retirement) — the merge phase's work; ``matches`` counts valid
    entries in the result — the gather phase's work; ``cells`` is the
    occupied-bucket count of the sort phase; ``shells`` the outermost
    Chebyshev shell merged (kNN).
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


def _squared_distances(a, b, out=None) -> np.ndarray:
    """Squared distances between per-axis coordinate stacks ``a`` and ``b``
    (``a[0]`` holds x values, ...), broadcasting like ``a - b``.

    ``dx*dx + dy*dy + dz*dz`` adds left to right, which is exactly the
    order :func:`_distance_matrix` reduces its length-3 axis in, so bucket
    and brute-force paths agree bitwise; working on column vectors avoids
    the strided ``(M, 3)`` row reduction.  ``out`` (``b`` itself, say)
    takes the per-axis differences and squares in place, and the sum
    lands in ``out[0]``.
    """
    return _sum_of_squares(np.subtract(a, b, out=out))


def _sum_of_squares(diff: np.ndarray) -> np.ndarray:
    """``diff[0]**2 + diff[1]**2 + diff[2]**2``, left to right, squared in
    place and summed into ``diff[0]``."""
    diff *= diff
    d2 = diff[0]
    d2 += diff[1]
    d2 += diff[2]
    return d2


def _columns(points: np.ndarray, dtype=None) -> np.ndarray:
    """``(3, N)`` contiguous per-axis layout of ``(N, 3)`` rows, widened
    to ``dtype`` (exactly, as the arithmetic would promote them)."""
    return np.ascontiguousarray(points.T, dtype=dtype)


def _point_columns(
    pts: np.ndarray, qs: np.ndarray, self_query: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The column layouts one search needs: ``(3, N + 1)`` point columns
    and the query columns, both in the common dtype distances are
    computed in, and the points' columns in their own dtype, which the
    grid buckets.  A self-query, and points already in the common dtype,
    share one array.  The last point column is ``inf``: a ``-1`` pad of
    a candidate table gathers it, so pad slots read ``inf`` distances
    with no mask."""
    dtype = np.result_type(pts, qs)
    p_cols = np.empty((3, len(pts) + 1), dtype=dtype)
    p_cols[:, :-1] = pts.T
    p_cols[:, -1] = np.inf
    grid_cols = p_cols[:, :-1] if dtype == pts.dtype else _columns(pts)
    q_cols = p_cols[:, :-1] if self_query else _columns(qs, dtype)
    return p_cols, grid_cols, q_cols


def _distance_matrix(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    diff = queries[:, None, :] - points[None, :, :]
    return (diff * diff).sum(axis=2)


#: Packed-key weight of one cell step along each axis (``pack_coords``).
_KEY_STEP = np.array([1 << (2 * _AXIS_BITS), 1 << _AXIS_BITS, 1], dtype=np.int64)


def _pack_columns(cells: np.ndarray) -> np.ndarray:
    """:func:`pack_coords` of ``(3, n)`` cell columns already known to lie
    in ``[0, 2^21)`` per axis (so the checks are skipped)."""
    return (cells[0] << (2 * _AXIS_BITS)) | (cells[1] << _AXIS_BITS) | cells[2]


def _column_keys(reach) -> np.ndarray:
    """Signed packed-key deltas, ascending, of every ``(dx, dy)`` cell
    column offset reaching at most ``reach[a]`` cells along axis ``a``."""
    x, y = (
        np.arange(-r, r + 1, dtype=np.int64) * step
        for r, step in zip(reach[:2], _KEY_STEP[:2])
    )
    return (x[:, None] + y[None, :]).ravel()


@dataclass(frozen=True, eq=False)
class _BucketGrid:
    """Points radix-sorted into voxel buckets — the sort phase's output.

    ``cells`` holds the occupied cells as ``(3, C)`` columns in
    ``cell_keys`` order; bucket ``b``'s points are
    ``order[starts[b]:starts[b + 1]]``.
    """

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


def _max_cells(dtype: np.dtype) -> int:
    return _MAX_CELLS_F32 if dtype == np.float32 else _MAX_CELLS_F64


def _cell_keys(cols: np.ndarray, lo: np.ndarray, cell_size: float) -> np.ndarray:
    """Packed key of each point's cell ``floor((x - lo) / cell_size)``,
    capped at the cell cap, for ``(3, N)`` point columns whose per-axis
    minimum is ``lo`` (``x - lo`` never rounds below 0)."""
    scaled = np.subtract(cols, lo[:, None])
    scaled /= cols.dtype.type(cell_size)
    np.floor(scaled, out=scaled)
    np.minimum(scaled, float(_max_cells(cols.dtype) - 1), out=scaled)
    return _pack_columns(scaled.astype(np.int64))


def _build_grid(
    keys: np.ndarray, lo: np.ndarray, hi: np.ndarray, cell_size: float
) -> _BucketGrid:
    """Bucket points by their :func:`_cell_keys` ``keys`` (cells of
    ``cell_size`` from ``lo``); ``hi`` is the points' per-axis maximum.

    Every step of the cell assignment is monotone in ``x``, so the
    grid's extent is the cell of ``hi``.
    """
    size = lo.dtype.type(cell_size)
    limit = float(_max_cells(lo.dtype) - 1)
    ncells = np.minimum(np.floor((hi - lo) / size), limit).astype(np.int64) + 1
    # Bucket members need no particular order: candidate tables are
    # sorted by point index after they are filled.
    order = np.argsort(keys)
    sorted_keys = keys[order]
    boundaries = np.flatnonzero(_run_heads(sorted_keys))
    cell_keys = sorted_keys[boundaries]
    cells = np.empty((3, len(cell_keys)), dtype=np.int64)
    np.right_shift(cell_keys, 2 * _AXIS_BITS, out=cells[0])
    np.right_shift(cell_keys, _AXIS_BITS, out=cells[1])
    cells[1] &= _AXIS_MASK
    np.bitwise_and(cell_keys, _AXIS_MASK, out=cells[2])
    return _BucketGrid(
        origin=lo,
        cell_size=float(cell_size),
        ncells=ncells,
        order=order,
        cell_keys=cell_keys,
        cells=cells,
        starts=np.append(boundaries, len(sorted_keys)),
    )


def _run_heads(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal ``sorted_keys``."""
    heads = np.empty(len(sorted_keys), dtype=bool)
    heads[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=heads[1:])
    return heads


def _extent(cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray, float]:
    """Per-axis minimum and maximum of ``(3, N)`` columns, and the span
    (the widest axis extent)."""
    lo, hi = cols.min(axis=1), cols.max(axis=1)
    return lo, hi, float((hi - lo).max())


def _query_cells(
    grid: _BucketGrid, q_cols: np.ndarray, q_dtype
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-query search-center cells as ``(3, Q)`` columns, clamped into
    the occupied grid, and the queries' offsets within them in cell units
    (``q_cols`` holds queries whose own dtype is ``q_dtype``, widened).

    Clamping keeps far-away queries' shells anchored to the point set
    (and overflows impossible) without weakening the distance bound: on
    any clamped axis the query lies strictly outside the grid, so points
    in unscanned cells are even farther than the in-grid bound promises.
    """
    scaled = np.subtract(q_cols, grid.origin[:, None])
    scaled /= q_dtype.type(grid.cell_size)
    top = (grid.ncells - 1).astype(np.float64)[:, None]
    centers = np.clip(np.floor(scaled), 0.0, top).astype(np.int64)
    return centers, scaled - centers


def _shell_reach(offset: np.ndarray, point_dtype, q_dtype) -> np.ndarray:
    """Per-query ``m_q - eps``, in cells, of the kNN retirement bound,
    from the ``(3, Q)`` in-cell ``offset`` of :func:`_query_cells`.

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
    side = np.minimum(offset, 1.0 - offset)
    gap = np.minimum(np.minimum(side[0], side[1]), side[2])
    np.maximum(gap, 0.0, out=gap)
    unit = max(np.finfo(point_dtype).eps, np.finfo(q_dtype).eps) / 2.0
    gap -= 32.0 * _max_cells(point_dtype) * unit
    return gap


def _distinct_cells(cells: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct ``(3, Q)`` cell columns in ascending key order, their
    packed keys, and each column's distinct-cell number."""
    keys = _pack_columns(cells)
    perm = np.argsort(keys)
    sorted_keys = keys[perm]
    heads = _run_heads(sorted_keys)
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[perm] = np.cumsum(heads) - 1
    return cells[:, perm[heads]], sorted_keys[heads], inverse


def _cube_runs(
    grid: _BucketGrid, centers: np.ndarray, keys: np.ndarray, radius: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The points of the occupied buckets within Chebyshev distance
    ``radius`` of each center (``(3, U)`` cell columns with packed
    ``keys``), as runs of the grid's sorted order: ``(center, start,
    length)`` triples grouped by center, plus the next radius whose cube
    holds a bucket outside this one.

    A cube has ``(2 radius + 1)^3`` cells but a grid only ``num_cells``
    occupied ones; whichever list is shorter is walked.  A small cube is
    walked by z-columns: the cells of one ``(x, y)`` column within the
    cube are consecutive keys, so two probes find its occupied cells,
    whose points are one run of the sorted order.  A wide cube — a query
    far from the cloud, or in a sparse or thin region — scans the
    occupied cells' Chebyshev distances instead, so its cost stops
    growing with the radius, and the scan names the next radius that
    adds a bucket so empty shells are skipped.
    """
    # An offset reaching ncells[a] or more along an axis leaves the grid
    # from every center, so a flat or thin cloud walks a flat or thin cube.
    ncells = grid.ncells.tolist()
    reach = [min(radius, n - 1) for n in ncells]
    cube = (2 * reach[0] + 1) * (2 * reach[1] + 1) * (2 * reach[2] + 1)
    lifted_extent = max(n + 2 * r for n, r in zip(ncells, reach))
    if cube > grid.num_cells or lifted_extent > 1 << _AXIS_BITS:
        gap = np.abs(centers[0][:, None] - grid.cells[0])
        for axis in (1, 2):
            np.maximum(gap, np.abs(centers[axis][:, None] - grid.cells[axis]), out=gap)
        owner, bucket = np.nonzero(gap <= radius)
        beyond = gap[gap > radius]
        following = int(beyond.min()) if beyond.size else max(ncells)
        start = grid.starts[bucket]
        return owner, start, grid.starts[bucket + 1] - start, following
    # Cells lifted by the reach keep every axis of center + offset within
    # [0, 2^21), where packing is linear: keys add center and offset, a
    # column's cells from z - reach to z + reach are one key range, and a
    # range off the grid holds no occupied cell's key.
    lift = sum(r * int(step) for r, step in zip(reach, _KEY_STEP))
    lifted = grid.cell_keys + lift
    low = (keys + (lift - reach[2]))[:, None] + _column_keys(reach)[None, :]
    first = np.searchsorted(lifted, low)
    last = np.searchsorted(lifted, low + 2 * reach[2], side="right")
    start = grid.starts[first].ravel()
    owner = np.repeat(np.arange(len(keys), dtype=np.int64), low.shape[1])
    return owner, start, grid.starts[last].ravel() - start, radius + 1


class _CandidateBand(NamedTuple):
    """Candidate tables of one power-of-two width.

    ``table`` is ``(centers, width)``: each distinct center cell's
    candidate point indices in ascending order, ``-1`` padded at the
    end.  ``rows`` are the (local) queries whose center is in the band,
    ``slot`` each row's center row of ``table`` and ``population`` its
    candidate count.
    """

    rows: np.ndarray
    table: np.ndarray
    slot: np.ndarray
    population: np.ndarray


def _candidate_rows(
    grid: _BucketGrid,
    centers: np.ndarray,
    keys: np.ndarray,
    inverse: np.ndarray,
    radius: int,
) -> Tuple[List[_CandidateBand], int]:
    """Per-center candidate tables: the points of every occupied bucket
    within Chebyshev distance ``radius`` of each distinct center cell
    (``(3, U)`` columns with packed ``keys``); query row ``r`` is
    centered on cell ``inverse[r]``.

    Returns ``(bands, following)``; ``following`` is the next radius at
    which any of these centers gains a bucket (every shell between is
    empty for all of them).  A table is built and sorted by point index
    once per distinct center, and tables are banded by candidate count
    into power-of-two widths, so one crowded cell never pads the others.
    """
    owner, first, counts, following = _cube_runs(grid, centers, keys, radius)
    population = np.bincount(owner, weights=counts, minlength=len(keys))
    population = population.astype(np.int64)
    # Band b holds widths 2^b: b = ceil(log2(population)), 0 when empty.
    band = np.frexp(np.maximum(population - 1, 0))[1].astype(np.int64)
    # Centers grouped by band each own one row of their band's width in a
    # flat buffer; every run of points lands with one scatter.
    by_band = np.argsort(band, kind="stable")
    sizes = np.bincount(band)
    lows = np.cumsum(sizes) - sizes
    slot = np.empty(len(keys), dtype=np.int64)
    slot[by_band] = np.arange(len(keys), dtype=np.int64) - np.repeat(lows, sizes)
    spans = sizes << np.arange(len(sizes), dtype=np.int64)
    bases = np.cumsum(spans) - spans
    # Candidate j of the concatenated runs sits at sorted-order
    # position src[j] + j and lands in flat slot dst[j] + j.
    total = int(counts.sum())
    step = np.arange(total, dtype=np.int64)
    src = np.repeat(first - (np.cumsum(counts) - counts), counts)
    src += step
    dst = bases[band] + (slot << band) - (np.cumsum(population) - population)
    dst = np.repeat(dst, population)
    dst += step
    flat = np.full(int(spans.sum()), -1, dtype=np.int64)
    flat[dst] = grid.order[src]
    levels = np.flatnonzero(sizes)
    tables = [
        flat[base : base + (size << level)].reshape(size, -1)
        for level, base, size in zip(
            levels.tolist(), bases[levels].tolist(), sizes[levels].tolist()
        )
    ]
    for table in tables:
        # Sorted as unsigned, the -1 pads go after every point index.
        table.view(np.uint64).sort(axis=1)
    row_band = band[inverse]
    by_row_band = np.argsort(row_band, kind="stable")
    row_sizes = np.bincount(row_band, minlength=len(sizes))[levels]
    row_ends = np.cumsum(row_sizes).tolist()
    members = [
        by_row_band[end - size : end] for end, size in zip(row_ends, row_sizes.tolist())
    ]
    bands = [
        _CandidateBand(rows, table, slot[inverse[rows]], population[inverse[rows]])
        for rows, table in zip(members, tables)
    ]
    return bands, following


def _table_distances(
    q_cols: np.ndarray, p_cols: np.ndarray, band: _CandidateBand
) -> np.ndarray:
    """``(rows, width)`` squared distances from each query of the band
    (the columns of ``q_cols``) to the points of its center's table row
    (:func:`_point_columns`, so pad columns read ``inf``).  Point
    coordinates are gathered once per center and then copied to the
    rows."""
    coords = np.take(np.take(p_cols, band.table, axis=1), band.slot, axis=1)
    return _squared_distances(q_cols[:, :, None], coords, out=coords)


def _knn_grid(cols: np.ndarray, k: int) -> _BucketGrid:
    """Bucket grid of ``(3, N)`` point columns whose occupied buckets hold
    about ``k / 4`` points.

    At ``k / 4`` per bucket a 27-cell shell holds a few ``k`` candidates
    and, with :func:`_shell_reach`'s bound, most queries retire after
    one or two shells; fuller buckets merge more candidates than the
    saved shells are worth.  The population is averaged per occupied
    bucket, so duplicated points, which no cell size can split, do not
    drive the cells down to the cap.  One density estimate from the
    bounding box (one min/max pass), then a bounded number of
    refinements (accepted within a factor of two) against the *measured*
    population so lower-dimensional clouds (surfaces, lines) converge
    too.
    """
    lo, hi, span = _extent(cols)
    if span <= 0.0:
        return _build_grid(_cell_keys(cols, lo, 1.0), lo, hi, 1.0)
    num_points = cols.shape[1]
    floor_size = span / float(_max_cells(cols.dtype))
    volume = float(np.prod(np.maximum(hi - lo, span * 1e-3)))
    target = max(1.0, 0.25 * float(k))
    size = max(floor_size, (volume * target / float(num_points)) ** (1.0 / 3.0))
    for _ in range(3):
        keys, keyed_size = _cell_keys(cols, lo, size), size
        mean = num_points / int(np.count_nonzero(_run_heads(np.sort(keys))))
        if 0.5 * target <= mean <= 2.0 * target:
            break
        size = max(floor_size, size * float((target / mean) ** (1.0 / 3.0)))
    size = min(size, span)
    if size != keyed_size:
        keys = _cell_keys(cols, lo, size)
    return _build_grid(keys, lo, hi, size)


def knn(points, queries=None, *, k: int) -> MappingResult:
    """``k`` nearest neighbors by expanding-cube search over the grid.

    ``queries=None`` queries the point set against itself (every point is
    then its own nearest neighbor at distance 0).  Ties at equal squared
    distance resolve to the smaller point index; rows with fewer than
    ``k`` reachable points pad with ``-1`` / ``inf``.  Round ``s`` gives
    every pending query its center's table of the points within
    Chebyshev distance ``s`` (:func:`_candidate_rows`) and sorts each row
    by ``d^2`` once.  A query retires with its first ``k`` columns when
    its k-th distance beats the :func:`_shell_reach` bound on every
    point outside the cube; otherwise it re-scans its wider cube in the
    next round, so nothing is merged across rounds.
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

    p_cols, grid_cols, q_cols = _point_columns(pts, qs, queries is None)
    dtype = q_cols.dtype
    grid = _knn_grid(grid_cols, k)
    cells, offset = _query_cells(grid, q_cols, qs.dtype)
    reach = _shell_reach(offset, pts.dtype, qs.dtype)
    centers, center_keys, center_of = _distinct_cells(cells)
    indices = np.full((num_queries, k), -1, dtype=np.int64)
    dists = np.full((num_queries, k), np.inf, dtype=dtype)
    max_shell = int(grid.ncells.max())
    pending = np.arange(num_queries, dtype=np.int64)
    examined = 0
    scanned, shell = 0, 1
    while pending.size:
        if pending.size < num_queries:
            # Only the centers of pending queries are scanned again.
            live = np.zeros(len(center_keys), dtype=bool)
            live[center_of[pending]] = True
            renumber = np.cumsum(live) - 1
            centers, center_keys = centers[:, live], center_keys[live]
            center_of = renumber[center_of]
        bands, following = _candidate_rows(
            grid, centers, center_keys, center_of[pending], shell
        )
        final = shell >= max_shell
        waiting = np.ones(len(pending), dtype=bool)
        for band in bands:
            if band.table.shape[1] < k and not final:
                continue  # every row's k-th column is a pad: none retires
            query = pending[band.rows]
            d2 = _table_distances(q_cols[:, query], p_cols, band)
            # Columns are in point-index order, so a stable sort by d^2
            # leaves every row in exact (d^2, index) order.
            order = np.argsort(d2, axis=1, kind="stable")[:, :k]
            top_d = d2[np.arange(len(query))[:, None], order]
            if final:
                done = np.ones(len(query), dtype=bool)
            else:
                bound = np.maximum(shell + reach[query], 0.0) * grid.cell_size
                done = top_d[:, k - 1] < bound * bound
            retired, width = query[done], order.shape[1]
            indices[retired, :width] = band.table[band.slot[done, None], order[done]]
            dists[retired, :width] = top_d[done]
            examined += int(band.population[done].sum())
            waiting[band.rows[done]] = False
        pending = pending[waiting]
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
    table: np.ndarray, d2: np.ndarray, keep: np.ndarray, max_samples: int, dtype
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first ``max_samples`` kept columns of each row of a candidate
    table (columns in point-index order), packed into dense ``(rows,
    max_samples)`` tables, ``-1`` / ``inf`` padded, plus the per-row
    counts."""
    rank = np.cumsum(keep, axis=1) - 1
    row, col = np.nonzero(keep & (rank < max_samples))
    indices = np.full((len(table), max_samples), -1, dtype=np.int64)
    dists = np.full((len(table), max_samples), np.inf, dtype=dtype)
    indices[row, rank[row, col]] = table[row, col]
    dists[row, rank[row, col]] = d2[row, col]
    return indices, dists, np.minimum(rank[:, -1] + 1, max_samples)


def ball_query(points, queries=None, *, radius: float, max_samples: int) -> MappingResult:
    """Neighbors within ``radius``, in point-index order, ``max_samples`` max.

    The cell size equals the radius, so the 27-cell cube around a
    query's cell covers its whole ball; one pass over the candidate
    tables (:func:`_candidate_rows`, the kNN's first round) answers every
    query, and since table columns are in point-index order, each row's
    first ``max_samples`` in-radius columns are its result.  A zero
    radius matches only exact duplicates (and the query itself in
    self-query mode).
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
    indices = np.full((num_queries, max_samples), -1, dtype=np.int64)
    dists = np.full((num_queries, max_samples), np.inf, dtype=pts.dtype)
    counts = np.zeros(num_queries, dtype=np.int64)
    if num_queries == 0 or num_points == 0:
        stats = MappingStats(
            "ball_query", "bucket", num_points, num_queries, 0, 0, 0, 0
        )
        return MappingResult(indices, dists, counts, None, stats)

    p_cols, grid_cols, q_cols = _point_columns(pts, qs, queries is None)
    lo, hi, span = _extent(grid_cols)
    floor_size = span / float(_max_cells(pts.dtype)) if span > 0 else 1.0
    size = max(radius, floor_size)
    grid = _build_grid(_cell_keys(grid_cols, lo, size), lo, hi, size)
    cells, _ = _query_cells(grid, q_cols, qs.dtype)
    centers, keys, center_of = _distinct_cells(cells)
    bands, _ = _candidate_rows(grid, centers, keys, center_of, 1)
    examined = 0
    for band in bands:
        d2 = _table_distances(q_cols[:, band.rows], p_cols, band)
        table = band.table[band.slot]
        within = (table >= 0) & (d2 <= radius * radius)
        rows = band.rows
        indices[rows], dists[rows], counts[rows] = _cap_rows(
            table, d2, within, max_samples, pts.dtype
        )
        examined += int(band.population.sum())
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
    table = np.broadcast_to(np.arange(num_points, dtype=np.int64), d2.shape)
    indices, dists, counts = _cap_rows(
        table, d2, d2 <= radius * radius, max_samples, pts.dtype
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
        scratch = np.empty_like(cols)
        # One scalar subtraction per axis outruns a (3, N) - (3, 1)
        # broadcast.
        axes = list(zip(cols, scratch))
        indices[0] = 0
        best = _squared_distances(cols, cols[:, :1])
        for step in range(1, take):
            far = int(best.argmax())
            indices[step] = far
            for column, diff in axes:
                np.subtract(column, column[far], out=diff)
            np.minimum(best, _sum_of_squares(scratch), out=best)
        examined = take * num_points
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
