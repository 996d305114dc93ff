"""Rulebook construction — the reference "matching operation".

A *rulebook* lists, for every kernel offset, the (input row, output row)
pairs that participate in the sparse convolution.  For the submanifold
convolution this is exactly the paper's matching operation (Sec. III-B/C):
each nonzero activation is located and its nonzero neighbors are searched;
each pair corresponds to one *match* ``(A_a, W_b)_c`` in Fig. 5.

Like the paper's SDMU, matching is one regular stream over sorted,
encoded coordinates.  The submanifold builder walks runs of consecutive
z keys and mirrors the lower half of the offsets onto the upper half;
the strided builder sorts the cell keys of all ``K^3`` offsets as one
block.  The per-offset builders the engine started from are kept as
``*_reference`` correctness oracles.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.sparse.coo import SparseTensor3D
from repro.sparse.hashmap import _AXIS_BITS, pack_coords, unpack_coords


def kernel_offsets(kernel_size: int, center: bool = True) -> np.ndarray:
    """All ``(K^3, 3)`` integer offsets of a cubic kernel.

    With ``center=True`` the offsets span ``[-K//2, K//2]`` per axis (odd
    ``K``), the convention of submanifold convolution; otherwise they span
    ``[0, K)`` as used by strided sparse convolution.
    """
    if kernel_size <= 0:
        raise ValueError(f"kernel_size must be positive, got {kernel_size}")
    if center and kernel_size % 2 == 0:
        raise ValueError("centered kernels require odd kernel_size")
    base = np.arange(kernel_size)
    if center:
        base = base - kernel_size // 2
    grid = np.stack(np.meshgrid(base, base, base, indexing="ij"), axis=-1)
    return grid.reshape(-1, 3)


@dataclass(frozen=True)
class GatherScatterPlan:
    """Feature-independent execution plan of a rulebook.

    Precomputes everything the fused gather-GEMM-scatter evaluation in
    :func:`repro.nn.functional.apply_rulebook` needs beyond the features
    and weights: the concatenated (offset-major) input rows for one big
    gather, per-offset segment boundaries into that concatenation, and
    contiguous per-offset output-row arrays for the scatter.  Because the
    plan depends only on the matching result it is built once per rulebook
    and amortized across every layer (and frame) that reuses the rulebook.

    A key structural invariant makes the fast scatter possible: within one
    kernel offset every output row appears *at most once* (an output site
    has at most one neighbor per offset), so ``out[rows] += contribution``
    is well-defined without :func:`np.add.at` buffering.
    """

    in_rows: np.ndarray
    segment_starts: np.ndarray
    out_rows: List[np.ndarray]
    active_offsets: List[int]
    total_matches: int


@dataclass
class Rulebook:
    """Matching result of one sparse convolution.

    Attributes
    ----------
    kernel_size:
        Cubic kernel side length ``K``.
    offsets:
        ``(K^3, 3)`` kernel offsets, in the same order as ``rules``.
    rules:
        One ``(n_k, 2)`` int array per offset: columns are
        ``(input_row, output_row)``.
    num_inputs / num_outputs:
        Row counts of the input/output tensors.
    """

    kernel_size: int
    offsets: np.ndarray
    rules: List[np.ndarray]
    num_inputs: int
    num_outputs: int
    _plan: Optional[GatherScatterPlan] = field(
        default=None, repr=False, compare=False
    )
    _transposed: Optional["Rulebook"] = field(
        default=None, repr=False, compare=False
    )
    #: The ``(2, M)`` pair array behind :meth:`flat_pairs`.
    _pairs: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    #: dtype -> the scipy backend's ``(gather, scatter)`` CSR pair
    #: (:meth:`repro.engine.backend.ScipySparseBackend.operators`).
    _csr: Dict[np.dtype, Tuple[object, object]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def total_matches(self) -> int:
        """Total number of (activation, weight) matches — the effective work."""
        return int(sum(len(rule) for rule in self.rules))

    def matches_per_output(self) -> np.ndarray:
        """Histogram: number of matches landing on each output row.

        Vectorized as a single :func:`np.bincount` over the concatenated
        output rows of every offset (each offset's rows are unique, but
        rows repeat *across* offsets — bincount handles both).
        """
        per_offset = [rule[:, 1] for rule in self.rules if len(rule)]
        if not per_offset:
            return np.zeros(self.num_outputs, dtype=np.int64)
        return np.bincount(
            np.concatenate(per_offset), minlength=self.num_outputs
        ).astype(np.int64)

    def plan(self) -> GatherScatterPlan:
        """The memoized :class:`GatherScatterPlan` for this rulebook."""
        if self._plan is None:
            sizes = [len(rule) for rule in self.rules]
            total = int(sum(sizes))
            segment_starts = np.zeros(len(self.rules) + 1, dtype=np.int64)
            np.cumsum(sizes, out=segment_starts[1:])
            if total:
                in_rows = np.concatenate(
                    [rule[:, 0] for rule in self.rules if len(rule)]
                )
            else:
                in_rows = np.zeros(0, dtype=np.int64)
            out_rows = [np.ascontiguousarray(rule[:, 1]) for rule in self.rules]
            active = [k for k, size in enumerate(sizes) if size]
            self._plan = GatherScatterPlan(
                in_rows=in_rows,
                segment_starts=segment_starts,
                out_rows=out_rows,
                active_offsets=active,
                total_matches=total,
            )
        return self._plan

    def flat_pairs(self) -> np.ndarray:
        """The ``(2, M)`` offset-major pair array: input rows, output rows.

        Rulebooks made by :meth:`from_flat` view theirs; others assemble
        it once from the plan.
        """
        if self._pairs is None:
            plan = self.plan()
            pairs = np.empty((2, plan.total_matches), dtype=np.int64)
            pairs[0] = plan.in_rows
            if plan.total_matches:
                np.concatenate(plan.out_rows, out=pairs[1])
            self._pairs = pairs
        return self._pairs

    @classmethod
    def from_flat(
        cls,
        kernel_size: int,
        offsets: np.ndarray,
        pairs: np.ndarray,
        segment_starts: np.ndarray,
        num_inputs: int,
        num_outputs: int,
    ) -> "Rulebook":
        """A rulebook over one ``(2, M)`` int64 pair array, plan pre-seeded.

        Row 0 of ``pairs`` holds input rows and row 1 output rows, offset
        major: offset ``k`` owns columns ``[segment_starts[k],
        segment_starts[k + 1])``.  Nothing is copied — each rule is the
        ``(n_k, 2)`` transposed view of its columns, and the
        :class:`GatherScatterPlan` arrays are contiguous row slices, array
        for array what a lazy :meth:`plan` would extract from ``rules``.
        Every builder constructs through here.
        """
        bounds = segment_starts.tolist()
        spans = list(zip(bounds[:-1], bounds[1:]))
        rulebook = cls(
            kernel_size=kernel_size,
            offsets=offsets,
            rules=[pairs[:, start:stop].T for start, stop in spans],
            num_inputs=num_inputs,
            num_outputs=num_outputs,
        )
        rulebook._pairs = pairs
        rulebook._plan = GatherScatterPlan(
            in_rows=pairs[0],
            segment_starts=segment_starts,
            out_rows=[pairs[1, start:stop] for start, stop in spans],
            active_offsets=[k for k, (start, stop) in enumerate(spans) if stop > start],
            total_matches=int(bounds[-1]),
        )
        return rulebook

    def transposed(self) -> "Rulebook":
        """The rulebook with input and output roles swapped (memoized).

        Evaluating the transposed rulebook is exactly the transposed
        strided convolution: forward rule ``p -> q`` under offset ``d``
        becomes ``q -> p``.  The ``offsets`` array is kept as the forward
        offsets (it indexes the shared weight tensor), only the row roles
        swap — a view of the same pair array with its rows reversed.
        Output-row uniqueness per offset is preserved, because each
        forward input row appears at most once per offset.
        """
        if self._transposed is None:
            self._transposed = Rulebook.from_flat(
                kernel_size=self.kernel_size,
                offsets=self.offsets,
                pairs=self.flat_pairs()[::-1],
                segment_starts=self.plan().segment_starts,
                num_inputs=self.num_outputs,
                num_outputs=self.num_inputs,
            )
        return self._transposed

    def effective_macs(self, in_channels: int, out_channels: int) -> int:
        """Number of scalar multiply-accumulates implied by the rulebook."""
        return self.total_matches * int(in_channels) * int(out_channels)

    def effective_ops(self, in_channels: int, out_channels: int) -> int:
        """Effective operation count (2 ops per MAC), as reported in GOPS."""
        return 2 * self.effective_macs(in_channels, out_channels)


def lookup_rows(sorted_keys: np.ndarray, query_keys: np.ndarray) -> np.ndarray:
    """Row index of each query key in ``sorted_keys`` or -1 when absent.

    ``sorted_keys`` must be ascending and duplicate-free (the packed-key
    order of a canonical coordinate array); one ``searchsorted`` covers
    all queries.
    """
    rows = np.full(len(query_keys), -1, dtype=np.int64)
    if len(sorted_keys) == 0:
        return rows
    idx = np.searchsorted(sorted_keys, query_keys)
    np.minimum(idx, len(sorted_keys) - 1, out=idx)
    hits = sorted_keys[idx] == query_keys
    rows[hits] = idx[hits]
    return rows


def _check_grid(shape: Tuple[int, int, int], pad: int) -> None:
    """Reject grids whose extent padded by ``pad`` per side exceeds a key field."""
    if any(int(extent) + 2 * pad > 1 << _AXIS_BITS for extent in shape):
        raise ValueError(
            f"grid {tuple(shape)} padded by {pad} per side exceeds the "
            f"{1 << _AXIS_BITS} sites per axis a packed key can address"
        )


@lru_cache(maxsize=8)
def _centered_steps(kernel_size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only ``(offsets, steps)`` of :func:`neighbor_key_steps`."""
    pad = kernel_size // 2
    offsets = kernel_offsets(kernel_size, center=True)
    pad_key = pack_coords(np.full((1, 3), pad, dtype=np.int64))
    steps = pack_coords(offsets + pad) - pad_key
    offsets.setflags(write=False)
    steps.setflags(write=False)
    return offsets, steps


@lru_cache(maxsize=8)
def _corner_offsets(kernel_size: int) -> np.ndarray:
    """Read-only ``kernel_offsets(kernel_size, center=False)``."""
    offsets = kernel_offsets(kernel_size, center=False)
    offsets.setflags(write=False)
    return offsets


def neighbor_key_steps(
    shape: Tuple[int, int, int], kernel_size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Centered kernel offsets and the packed-key step of each offset.

    Packing is linear on non-negative 21-bit fields.  Pad the grid by
    ``K // 2`` per side: every site ``p`` and every neighbour ``p + d``,
    in the grid or outside it, then has padded coordinates in
    ``[0, shape + 2 * (K // 2))``, which fits a field when that extent
    is at most ``2**21`` per axis.  On that domain the key of ``p + d``
    is ``key(p) + step(d)`` with ``step(d) = key(d + pad) - key(pad)``,
    and packing is injective there, so ``key(p) + step(d)`` equals the
    key of an active site ``s`` exactly when ``p + d == s``.  Out-of-grid
    neighbours can never match, and no bounds mask is needed.  Grids
    beyond that extent raise ``ValueError``.  Both arrays are shared and
    read-only.
    """
    _check_grid(shape, kernel_size // 2)
    return _centered_steps(int(kernel_size))


def strided_cells(
    coords: np.ndarray, kernel_size: int, stride: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Every ``(offset, input)`` pair of a strided conv and its cell key.

    Input ``p`` reaches output cell ``q`` under corner offset ``d`` when
    ``p - d == q * stride`` with ``q >= 0``.  Alignment and the cell
    index are separable per axis, so they are computed on ``(3, K, N)``
    and combined over the whole ``(K^3, N)`` block at once.  Returns
    ``(slots, cell_keys)``: the ascending positions of the valid pairs
    in the flattened offset-major block (``slot // N`` is the offset,
    ``slot % N`` the input row) and the packed key of each pair's cell.
    """
    k = int(kernel_size)
    shifted = coords.T[:, None, :] - np.arange(k, dtype=np.int64)[None, :, None]
    cells, rem = np.divmod(shifted, stride)
    ok = (rem == 0) & (cells >= 0)
    valid = ok[0][:, None, None, :] & ok[1][None, :, None, :] & ok[2][None, None]
    slots = np.flatnonzero(valid)
    # Packing is linear; unaligned or negative cells get garbage keys
    # that the valid mask drops.
    keys = (
        (cells[0] * (1 << 2 * _AXIS_BITS))[:, None, None, :]
        + (cells[1] * (1 << _AXIS_BITS))[None, :, None, :]
        + cells[2][None, None]
    )
    return slots, keys.ravel()[slots]


def _segment_starts(slots: np.ndarray, num_offsets: int, width: int) -> np.ndarray:
    """Per-offset boundaries of ascending slots into a ``(K^3, width)`` block."""
    return np.searchsorted(
        slots, np.arange(num_offsets + 1, dtype=np.int64) * width
    ).astype(np.int64, copy=False)


def build_submanifold_rulebook(
    tensor: SparseTensor3D, kernel_size: int = 3
) -> Rulebook:
    """Matching operation for a submanifold convolution.

    The output sites equal the input sites.  For output site ``p`` and
    centered offset ``d``, an input contribution exists when ``p + d`` is
    active: ``out[p] += W[d] @ in[p + d]``.  Two facts of the sorted
    packed keys cut the probing to a few column walks:

    * **Mirror.**  Offsets ``k`` and ``K^3 - 1 - k`` are ``d`` and
      ``-d``: they match the same pairs with the rows swapped, and the
      swapped pairs stay ascending in their output row because
      ``key(p + d)`` is monotone in ``key(p)``.  Only the offsets before
      the centre are matched; the centre is the identity.
    * **z-column runs.**  z is the lowest key field and the padding of
      :func:`neighbor_key_steps` keeps ``z +- K // 2`` inside it, so the
      ``K`` neighbours ``(dx, dy, -K//2 .. K//2)`` of a site are one
      interval of consecutive keys.  Per lower ``(dx, dy)`` column one
      ``searchsorted`` finds where the interval starts in the sorted
      keys and ``K`` elementwise steps walk it; the centre column's
      ``dz < 0`` neighbours are the keys just before the site's own.

    The pair array is the lower hits read offset-major, then the
    identity, then the lower segments in reverse order with the rows
    swapped.
    """
    offsets, steps = neighbor_key_steps(tensor.shape, kernel_size)
    # SparseTensor3D stores coords lexicographically sorted, so the packed
    # keys are ascending and searchsorted applies directly.
    keys = pack_coords(tensor.coords)
    num = len(keys)
    k = int(kernel_size)
    half = len(offsets) // 2
    columns = half // k
    run = columns * k
    # Lower half, offset-major: whether output p's neighbour under
    # offset j is active, and its row.
    hit = np.empty((half, num), dtype=bool)
    rows = np.empty((half, num), dtype=np.int64)
    last = max(num - 1, 0)
    run_hit = hit[:run].reshape(columns, k, num)
    run_rows = rows[:run].reshape(columns, k, num)
    # pos is searchsorted(keys, target) throughout: it starts there, and
    # moves past a key exactly when the key equals the current target.
    target = keys[None, :] + steps[:run:k, None]
    pos = np.searchsorted(keys, target)
    for dz in range(k):
        np.minimum(pos, last, out=run_rows[:, dz])
        np.equal(keys[run_rows[:, dz]], target, out=run_hit[:, dz])
        pos += run_hit[:, dz]
        target += 1
    # Centre column, dz = -1, -2, ...: pos is the last row below the key.
    pos = np.arange(-1, num - 1, dtype=np.int64)
    for row in range(half - 1, run - 1, -1):
        np.maximum(pos, 0, out=rows[row])
        np.equal(keys[rows[row]], keys - (half - row), out=hit[row])
        pos -= hit[row]
    slots = np.flatnonzero(hit)
    low = len(slots)
    pairs = np.empty((2, 2 * low + num), dtype=np.int64)
    np.take(rows, slots, out=pairs[0, :low])
    np.remainder(slots, max(num, 1), out=pairs[1, :low])
    pairs[:, low : low + num] = np.arange(num, dtype=np.int64)
    lower = _segment_starts(slots, half, num)
    segment_starts = np.empty(len(offsets) + 1, dtype=np.int64)
    segment_starts[: half + 1] = lower
    np.subtract(2 * low + num, lower[::-1], out=segment_starts[half + 1 :])
    bounds = lower.tolist()
    upper = segment_starts.tolist()
    # per-offset loop (K^3 // 2 slice copies): offset K^3 - 1 - j is
    # offset j with its rows swapped
    for j in range(half):
        start, stop = bounds[j], bounds[j + 1]
        dest = upper[len(offsets) - 1 - j]
        pairs[:, dest : dest + stop - start] = pairs[::-1, start:stop]
    return Rulebook.from_flat(
        kernel_size=kernel_size,
        offsets=offsets,
        pairs=pairs,
        segment_starts=segment_starts,
        num_inputs=num,
        num_outputs=num,
    )


def build_sparse_conv_rulebook(
    tensor: SparseTensor3D, kernel_size: int = 2, stride: int = 2
) -> Tuple[Rulebook, np.ndarray]:
    """Matching for a strided (non-submanifold) sparse convolution.

    Returns the rulebook and the output coordinates.  Offsets are
    corner-based (``[0, K)``): input ``p`` contributes to output ``q``
    under offset ``d`` when ``p == q * stride + d``.  An output site
    exists exactly when some pair reaches it, so one ``np.unique`` over
    the cell keys of every pair (:func:`strided_cells`) yields both the
    sorted output coordinates and each pair's output row.
    """
    if stride <= 0:
        raise ValueError(f"stride must be positive, got {stride}")
    _check_grid(tensor.shape, 0)
    offsets = _corner_offsets(int(kernel_size))
    num = len(tensor.coords)
    slots, cell_keys = strided_cells(tensor.coords, kernel_size, stride)
    out_keys, out_rows = np.unique(cell_keys, return_inverse=True)
    pairs = np.empty((2, len(slots)), dtype=np.int64)
    np.remainder(slots, max(num, 1), out=pairs[0])
    pairs[1] = out_rows
    rulebook = Rulebook.from_flat(
        kernel_size=kernel_size,
        offsets=offsets,
        pairs=pairs,
        segment_starts=_segment_starts(slots, len(offsets), num),
        num_inputs=num,
        num_outputs=len(out_keys),
    )
    return rulebook, unpack_coords(out_keys)


def build_submanifold_rulebook_reference(
    tensor: SparseTensor3D, kernel_size: int = 3
) -> Rulebook:
    """Per-offset submanifold matching, kept as the correctness oracle.

    One bounds-masked ``searchsorted`` pass per kernel offset — the
    matching the engine started from.  :func:`build_submanifold_rulebook`
    must reproduce it rule for rule (asserted in the test suite), and the
    engine benchmark times it as the seed's per-layer path.
    """
    offsets = kernel_offsets(kernel_size, center=True)
    coords = tensor.coords
    keys = pack_coords(coords)
    shape = np.asarray(tensor.shape, dtype=np.int64)
    rules: List[np.ndarray] = []
    out_rows_all = np.arange(len(coords), dtype=np.int64)
    # per-offset loop (K^3 iterations) building the rulebook's rule list;
    # each iteration is vectorized over all points
    for offset in offsets:  # repro-lint: disable=hot-path
        neighbor = coords + offset[None, :]
        in_bounds = np.all((neighbor >= 0) & (neighbor < shape[None, :]), axis=1)
        rows = np.full(len(coords), -1, dtype=np.int64)
        if in_bounds.any():
            rows[in_bounds] = lookup_rows(keys, pack_coords(neighbor[in_bounds]))
        valid = rows >= 0
        rules.append(
            np.stack([rows[valid], out_rows_all[valid]], axis=1).astype(np.int64)
        )
    return Rulebook(
        kernel_size=kernel_size,
        offsets=offsets,
        rules=rules,
        num_inputs=len(coords),
        num_outputs=len(coords),
    )


def build_sparse_conv_rulebook_reference(
    tensor: SparseTensor3D, kernel_size: int = 2, stride: int = 2
) -> Tuple[Rulebook, np.ndarray]:
    """Per-offset strided matching, kept as the correctness oracle.

    Output sites come from one pass per cell shift (``q`` exists when
    some input lies in ``[q * stride, q * stride + K)`` per axis), then
    each kernel offset probes them once.  :func:`build_sparse_conv_rulebook`
    must reproduce both results exactly (asserted in the test suite).
    """
    if stride <= 0:
        raise ValueError(f"stride must be positive, got {stride}")
    coords = tensor.coords
    # An input p activates q = p // stride - s per axis for the shifts s
    # with s * stride < K, i.e. s < ceil(K / stride).
    base = coords // stride
    reach = -(-kernel_size // stride)
    cells = []
    # per-shift loop (<= reach^3 iterations), not per-element
    for shift in np.ndindex(reach, reach, reach):  # repro-lint: disable=hot-path
        q = base - np.asarray(shift, dtype=np.int64)[None, :]
        valid = np.all(q >= 0, axis=1) & np.all(
            q * stride + kernel_size > coords, axis=1
        )
        if valid.any():
            cells.append(q[valid])
    if cells:
        out_coords = np.unique(np.concatenate(cells, axis=0), axis=0)
    else:
        out_coords = np.zeros((0, 3), dtype=np.int64)
    out_keys = pack_coords(out_coords)
    offsets = kernel_offsets(kernel_size, center=False)
    rules: List[np.ndarray] = []
    in_rows_all = np.arange(len(coords), dtype=np.int64)
    # per-offset loop (K^3 iterations) building the rulebook's rule list;
    # each iteration is vectorized over all points
    for offset in offsets:  # repro-lint: disable=hot-path
        shifted = coords - offset[None, :]
        aligned = np.all(shifted % stride == 0, axis=1) & np.all(shifted >= 0, axis=1)
        rows = lookup_rows(out_keys, pack_coords(shifted[aligned] // stride))
        valid = rows >= 0
        rules.append(
            np.stack(
                [in_rows_all[aligned][valid], rows[valid]], axis=1
            ).astype(np.int64)
        )
    rulebook = Rulebook(
        kernel_size=kernel_size,
        offsets=offsets,
        rules=rules,
        num_inputs=len(coords),
        num_outputs=len(out_coords),
    )
    return rulebook, out_coords


def get_submanifold_rulebook(
    tensor: SparseTensor3D,
    kernel_size: int = 3,
    cache: Optional["RulebookCache"] = None,
) -> Rulebook:
    """Cache-or-build dispatch for submanifold matching.

    The single place that encodes "a ``None`` cache means build fresh" —
    every consumer (functional convs, the analytical model) goes through
    here so future lookup-semantics changes happen once.
    """
    if cache is not None:
        return cache.submanifold(tensor, kernel_size)
    return build_submanifold_rulebook(tensor, kernel_size)


def get_sparse_conv_rulebook(
    tensor: SparseTensor3D,
    kernel_size: int = 2,
    stride: int = 2,
    cache: Optional["RulebookCache"] = None,
) -> Tuple[Rulebook, np.ndarray]:
    """Cache-or-build dispatch for strided (and transposed) matching."""
    if cache is not None:
        return cache.sparse_conv(tensor, kernel_size, stride)
    return build_sparse_conv_rulebook(tensor, kernel_size, stride)


class RulebookCache:
    """LRU cache of rulebooks keyed on the packed coordinate set.

    The matching operation depends only on the active-site set, the grid
    shape, and the kernel geometry — not on features or weights.  Inside a
    submanifold network every layer at the same U-Net scale therefore
    shares one matching pass, and in a streaming deployment consecutive
    frames with unchanged voxel sets skip matching entirely.

    Keying / invalidation rule
    --------------------------
    The key is ``(kind, kernel_size, stride, grid shape,
    coords_digest)`` where ``coords_digest`` is the BLAKE2b digest of the
    canonically sorted coordinate array
    (:meth:`repro.sparse.coo.SparseTensor3D.coords_digest`).  Tensors are
    immutable by convention (every transformation builds a new instance),
    so there is no explicit invalidation: any operation that changes the
    site set produces a different digest and misses, while site-preserving
    operations (ReLU, folded batch norm, feature replacement) keep the
    digest and hit.

    Entries are evicted least-recently-used beyond ``capacity``.  ``hits``
    and ``misses`` count lookups since construction (or the last
    :meth:`reset_stats`).
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        """Drop every cached rulebook (statistics are kept)."""
        self._entries.clear()

    # ------------------------------------------------------------------
    # Key construction (shared with plan re-seeding)
    # ------------------------------------------------------------------
    @staticmethod
    def submanifold_key(tensor: SparseTensor3D, kernel_size: int) -> Hashable:
        """Cache key of a submanifold matching on ``tensor``."""
        return ("sub", int(kernel_size), tensor.shape, tensor.coords_digest())

    @staticmethod
    def sparse_conv_key(
        tensor: SparseTensor3D, kernel_size: int, stride: int
    ) -> Hashable:
        """Cache key of a strided (and transposed) matching on ``tensor``."""
        return (
            "down",
            int(kernel_size),
            int(stride),
            tensor.shape,
            tensor.coords_digest(),
        )

    def _insert(self, key: Hashable, entry: object) -> None:
        """Insert ``entry`` as most-recently-used, evicting beyond capacity."""
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def ensure(self, key: Hashable, entry: object) -> None:
        """Insert ``entry`` under ``key`` without counting a lookup.

        Used by :class:`repro.engine.session.PlanCache` to re-seed
        rulebooks held by a cached network plan, so a warm session stays
        all-hits even after intervening LRU pressure evicted entries.
        """
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        self._insert(key, entry)

    def _lookup(self, key: Hashable, builder):
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        entry = builder()
        self._insert(key, entry)
        return entry

    def submanifold(
        self, tensor: SparseTensor3D, kernel_size: int = 3
    ) -> Rulebook:
        """Cached :func:`build_submanifold_rulebook`."""
        key = self.submanifold_key(tensor, kernel_size)
        return self._lookup(
            key, lambda: build_submanifold_rulebook(tensor, kernel_size)
        )

    def sparse_conv(
        self, tensor: SparseTensor3D, kernel_size: int = 2, stride: int = 2
    ) -> Tuple[Rulebook, np.ndarray]:
        """Cached :func:`build_sparse_conv_rulebook`.

        The entry is shared between the downsampling convolution and the
        transposed convolution that reverses it (which calls this with the
        *reference* tensor), so one matching pass serves both directions.
        """
        key = self.sparse_conv_key(tensor, kernel_size, stride)
        return self._lookup(
            key,
            lambda: build_sparse_conv_rulebook(tensor, kernel_size, stride),
        )
