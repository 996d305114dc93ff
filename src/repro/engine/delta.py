"""Incremental rulebook delta engine for nearly-static streams.

The digest-keyed caches of :mod:`repro.nn.rulebook` are all-or-nothing:
a single voxel of churn between two frames produces a fresh coordinate
digest, a cache miss, and a from-scratch matching pass over the whole
scene.  Real streaming workloads (SLAM, odometry, surveillance) are
*nearly static* — frame ``N+1`` shares almost every voxel with frame
``N`` — so the dominant non-GEMM cost is spent recomputing matchings
that are 95+% identical to ones already cached.  This module upgrades
the cache stack to incremental patching:

* :func:`coordinate_delta` diffs two packed coordinate sets into a
  :class:`CoordinateDelta` (added / removed / stable voxels plus the
  monotone old-row -> new-row mapping);
* :func:`patch_rulebook` locally re-matches only the neighborhoods
  touched by added or removed voxels and splices the result into a
  cached :class:`~repro.nn.rulebook.Rulebook` — **bit-identical** to a
  from-scratch matching pass, for submanifold, strided (any kernel /
  stride combination, including overlapping ``kernel != stride``
  geometries), and (via :meth:`~repro.nn.rulebook.Rulebook.transposed`)
  transposed convolutions;
* :class:`DeltaRulebookCache` layers delta matching onto
  :class:`~repro.nn.rulebook.RulebookCache`: on a digest miss it
  searches recent entries of the same kernel geometry for a near-match
  (churn ratio at most ``threshold``) and patches instead of
  rebuilding, reporting hit / patch / rebuild statistics;
* patch listeners (:meth:`DeltaRulebookCache.register_listener`) let
  :class:`repro.engine.backend.ExecutionBackend` instances refresh
  their prepared artifacts (gather/scatter plans, CSR operators)
  incrementally instead of discarding warm state.

Why bit-identity is achievable cheaply
--------------------------------------
Both coordinate sets are stored canonically sorted, so the stable-row
mapping ``old_to_new`` is *monotone increasing*: remapping the surviving
pairs of a cached rulebook preserves their per-offset ordering, and the
freshly matched pairs (which touch only added voxels) can be spliced in
with one vectorized sorted merge over all offsets.  The from-scratch
builders emit, per kernel offset, at most one pair per output row
(submanifold) or input row (strided), ordered ascending — exactly what
drop + remap + merge reproduces, array for array.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, List, Optional, Tuple

import numpy as np

from repro.nn.rulebook import (
    Rulebook,
    RulebookCache,
    build_sparse_conv_rulebook,
    build_submanifold_rulebook,
    lookup_rows,
    neighbor_key_steps,
    probe_keys,
    strided_cells,
)
from repro.sparse.coo import SparseTensor3D
from repro.sparse.hashmap import pack_coords, unpack_coords

#: Default churn-ratio bound under which a cached rulebook is patched
#: rather than rebuilt.  At 25% churn a patch still touches a strict
#: minority of the scene; beyond it a from-scratch pass is competitive.
DEFAULT_DELTA_THRESHOLD = 0.25


@dataclass(frozen=True)
class CoordinateDelta:
    """Diff between two packed coordinate sets (old -> new).

    Both key arrays are the canonically sorted packed coordinates of
    :func:`repro.sparse.hashmap.pack_coords` (ascending, duplicate-free
    — the storage order of :class:`repro.sparse.coo.SparseTensor3D`).

    Attributes
    ----------
    old_keys / new_keys:
        The two sorted packed coordinate sets.
    old_to_new:
        ``(old_size,)`` int64 map from old row to new row, ``-1`` where
        the voxel was removed.  Monotone increasing over stable rows,
        which is what makes order-preserving rulebook patching possible.
    added_new_rows:
        Sorted new-row indices of voxels absent from the old set.
    """

    old_keys: np.ndarray
    new_keys: np.ndarray
    old_to_new: np.ndarray
    added_new_rows: np.ndarray

    @property
    def old_size(self) -> int:
        return len(self.old_keys)

    @property
    def new_size(self) -> int:
        return len(self.new_keys)

    @property
    def num_added(self) -> int:
        return len(self.added_new_rows)

    @property
    def num_removed(self) -> int:
        return self.old_size - (self.new_size - self.num_added)

    @property
    def num_stable(self) -> int:
        return self.new_size - self.num_added

    @property
    def ratio(self) -> float:
        """Churn fraction: voxels touched over the larger set size."""
        denom = max(self.old_size, self.new_size, 1)
        return (self.num_added + self.num_removed) / denom

    @property
    def is_identity(self) -> bool:
        return self.num_added == 0 and self.num_removed == 0


def _as_packed_keys(coords_or_keys: np.ndarray) -> np.ndarray:
    arr = np.asarray(coords_or_keys)
    if arr.ndim == 2:
        return pack_coords(arr)
    if arr.ndim == 1:
        return arr.astype(np.int64, copy=False)
    raise ValueError(
        f"expected (N, 3) coordinates or (N,) packed keys, got {arr.shape}"
    )


def coordinate_delta(
    old: np.ndarray, new: np.ndarray
) -> CoordinateDelta:
    """Diff two coordinate sets given as ``(N, 3)`` coords or packed keys.

    Inputs must be in canonical (sorted packed) order — true of every
    :class:`SparseTensor3D` coordinate array and of keys produced by
    packing one.  Cost is one ``searchsorted`` over the new set, i.e. a
    small fraction of a single-offset matching pass.
    """
    old_keys = _as_packed_keys(old)
    new_keys = _as_packed_keys(new)
    old_to_new = lookup_rows(new_keys, old_keys)
    hit = np.zeros(len(new_keys), dtype=bool)
    stable_rows = old_to_new[old_to_new >= 0]
    hit[stable_rows] = True
    added_new_rows = np.flatnonzero(~hit).astype(np.int64)
    return CoordinateDelta(
        old_keys=old_keys,
        new_keys=new_keys,
        old_to_new=old_to_new,
        added_new_rows=added_new_rows,
    )


@dataclass(frozen=True)
class RulebookDelta(CoordinateDelta):
    """A :class:`CoordinateDelta` enriched with rulebook splice provenance.

    Produced by the patchers and stored on the patched rulebook
    (``Rulebook._splice``); :meth:`DeltaRulebookCache.register_listener`
    listeners receive it as the ``delta`` argument of ``refresh``, so it
    stays a drop-in :class:`CoordinateDelta` for listeners that only
    diff coordinates.  The extra fields let a backend splice its
    prepared execution plan instead of re-lowering the patched rulebook:

    ``out_map``
        ``(old_num_outputs,)`` old output row -> new output row, ``-1``
        where the output site vanished.  Equals :attr:`in_map` for
        submanifold rulebooks; the downsampled-cell map for strided
        ones.  Monotone increasing over surviving rows.
    ``fresh_slots``
        Per kernel offset, the sorted positions of the *freshly matched*
        pairs inside the patched rulebook's rule array for that offset;
        every other position holds a surviving (remapped) pair, in the
        old per-offset order.
    """

    out_map: Optional[np.ndarray] = None
    fresh_slots: Optional[Tuple[np.ndarray, ...]] = None

    @property
    def in_map(self) -> np.ndarray:
        """Old input row -> new input row (alias of ``old_to_new``)."""
        return self.old_to_new


# ----------------------------------------------------------------------
# The one-pass splice
# ----------------------------------------------------------------------
def _splice_pairs(
    old_pairs: np.ndarray,
    old_starts: np.ndarray,
    in_map: np.ndarray,
    out_map: np.ndarray,
    fresh: Tuple[np.ndarray, np.ndarray, np.ndarray],
    width: int,
    key_col: int,
) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
    """Merge the surviving pairs of an old pair array with fresh ones.

    The builders emit, per kernel offset, at most one pair per key
    (``key_col`` 1 = output row for submanifold rulebooks, 0 = input row
    for strided ones), ascending.  So an offset-major pair array is
    sorted on the composite key ``offset * width + key``, and one merge
    on that key rebuilds every offset at once:

    1. the old pairs are remapped old -> new once; pairs touching a
       removed site drop out, and the monotone maps keep the order;
    2. ``fresh = (in_rows, out_rows, offsets)`` — the newly matched
       pairs, sorted on the composite key — touch added sites only, so
       their keys are disjoint from the kept ones;
    3. one ``searchsorted`` places them.

    Returns ``(pairs, segment_starts, fresh_slots)``: the merged array
    (array for array what the from-scratch builder emits) and, per
    offset, the positions of the fresh pairs inside its segment.
    """
    num_offsets = len(old_starts) - 1
    kept_in = in_map[old_pairs[0]]
    kept_out = out_map[old_pairs[1]]
    # -1 is the only negative either map produces, so a pair survives
    # exactly when the bitwise or of its mapped rows keeps the sign bit
    # clear — one comparison instead of two.
    keep = (kept_in | kept_out) >= 0
    dropped = np.flatnonzero(~keep)
    kept_sizes = np.diff(old_starts) - np.bincount(
        np.searchsorted(old_starts, dropped, side="right") - 1,
        minlength=num_offsets,
    )
    if len(dropped):
        kept_in, kept_out = kept_in[keep], kept_out[keep]
    fresh_in, fresh_out, fresh_off = fresh
    kept_key = np.repeat(
        np.arange(num_offsets, dtype=np.int64) * width, kept_sizes
    )
    kept_key += kept_out if key_col else kept_in
    fresh_key = fresh_off * width + (fresh_out if key_col else fresh_in)
    slots = np.searchsorted(kept_key, fresh_key) + np.arange(len(fresh_key))
    size = len(kept_key) + len(fresh_key)
    from_kept = np.ones(size, dtype=bool)
    from_kept[slots] = False
    pairs = np.empty((2, size), dtype=np.int64)
    in_rows, out_rows = pairs
    in_rows[slots] = fresh_in
    in_rows[from_kept] = kept_in
    out_rows[slots] = fresh_out
    out_rows[from_kept] = kept_out
    segment_starts = np.zeros(num_offsets + 1, dtype=np.int64)
    np.cumsum(
        kept_sizes + np.bincount(fresh_off, minlength=num_offsets),
        out=segment_starts[1:],
    )
    bounds = np.searchsorted(
        fresh_off, np.arange(num_offsets + 1, dtype=np.int64)
    ).tolist()
    fresh_slots = [
        slots[bounds[k]:bounds[k + 1]] - segment_starts[k]
        for k in range(num_offsets)
    ]
    return pairs, segment_starts, fresh_slots


def _patched(
    old: Rulebook,
    delta: CoordinateDelta,
    out_map: np.ndarray,
    pairs: np.ndarray,
    segment_starts: np.ndarray,
    fresh_slots: List[np.ndarray],
    num_outputs: int,
) -> Rulebook:
    """The patched rulebook, carrying its :class:`RulebookDelta`."""
    rulebook = Rulebook.from_flat(
        kernel_size=old.kernel_size,
        offsets=old.offsets,
        pairs=pairs,
        segment_starts=segment_starts,
        num_inputs=delta.new_size,
        num_outputs=num_outputs,
    )
    rulebook._splice = RulebookDelta(
        old_keys=delta.old_keys,
        new_keys=delta.new_keys,
        old_to_new=delta.old_to_new,
        added_new_rows=delta.added_new_rows,
        out_map=out_map,
        fresh_slots=tuple(fresh_slots),
    )
    return rulebook


# ----------------------------------------------------------------------
# Submanifold patching
# ----------------------------------------------------------------------
def patch_submanifold_rulebook(
    old: Rulebook,
    delta: CoordinateDelta,
    shape: Tuple[int, int, int],
    new_coords: Optional[np.ndarray] = None,
) -> Rulebook:
    """Patch a cached submanifold rulebook onto the delta's new site set.

    Surviving pairs (both endpoints stable) are row-remapped; pairs
    touching a removed voxel are dropped by the remap; pairs touching an
    added voxel are re-matched locally, for all ``K^3`` offsets in two
    ``(K^3, A)`` key blocks (:func:`repro.nn.rulebook.neighbor_key_steps`):
    each added output site's full neighbourhood, and the stable outputs
    each added input site newly serves.  One merge splices them in.  The
    result is bit-identical to
    :func:`repro.nn.rulebook.build_submanifold_rulebook` on the new set.
    The probe works on packed keys alone; ``new_coords`` is accepted for
    symmetry with :func:`patch_sparse_conv_rulebook`.
    """
    del new_coords
    _, steps = neighbor_key_steps(shape, old.kernel_size)
    new_keys = delta.new_keys
    num = delta.new_size
    added = delta.added_new_rows
    num_added = max(len(added), 1)
    added_keys = new_keys[added][None, :]
    # Added output p: its input under offset d is p + d.
    at_out, in_rows = probe_keys(
        new_keys, (added_keys + steps[:, None]).ravel()
    )
    # Added input a: it serves output q = a - d; added outputs were
    # covered above, so only stable q count.
    at_in, out_rows = probe_keys(
        new_keys, (added_keys - steps[:, None]).ravel()
    )
    added_flags = np.zeros(num, dtype=bool)
    added_flags[added] = True
    stable = ~added_flags[out_rows]
    at_in, out_rows = at_in[stable], out_rows[stable]
    fresh_in = np.concatenate([in_rows, added[at_in % num_added]])
    fresh_out = np.concatenate([added[at_out % num_added], out_rows])
    fresh_off = np.concatenate([at_out // num_added, at_in // num_added])
    # Output rows are unique within one offset (and disjoint between the
    # two sources), so the composite key has no ties.
    order = np.argsort(fresh_off * max(num, 1) + fresh_out)
    pairs, segment_starts, fresh_slots = _splice_pairs(
        old.flat_pairs(),
        old.plan().segment_starts,
        delta.old_to_new,
        delta.old_to_new,
        (fresh_in[order], fresh_out[order], fresh_off[order]),
        max(num, 1),
        key_col=1,
    )
    return _patched(
        old, delta, delta.old_to_new, pairs, segment_starts, fresh_slots, num
    )


# ----------------------------------------------------------------------
# Strided patching (any kernel_size / stride combination)
# ----------------------------------------------------------------------
def _merge_sorted_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge two sorted, duplicate-free, disjoint int64 key arrays."""
    if len(b) == 0:
        return a
    if len(a) == 0:
        return b
    positions = np.searchsorted(a, b)
    merged = np.empty(len(a) + len(b), dtype=np.int64)
    b_slots = positions + np.arange(len(b))
    a_slots = np.ones(len(merged), dtype=bool)
    a_slots[b_slots] = False
    merged[b_slots] = b
    merged[a_slots] = a
    return merged


def _patched_down_keys(
    old_out_keys: np.ndarray,
    delta: CoordinateDelta,
    offsets: np.ndarray,
    kernel_size: int,
    stride: int,
    new_coords: np.ndarray,
) -> np.ndarray:
    """Incrementally updated output cell set of a strided convolution.

    For the non-overlapping ``kernel == stride`` case the cell set is
    simply ``unique(coords // stride)``.  Otherwise existence changes
    are local to the changed inputs: cells reached only by added inputs
    are *born* (an added input sits in their window, so they exist by
    construction), and cells reached by removed inputs *die* exactly
    when their window holds no surviving input — tested with one probe
    over the ``(K^3, D)`` window block of the (few) affected cells.
    """
    if kernel_size == stride:
        # pack order equals lexicographic row order, so this reproduces
        # np.unique(coords // stride, axis=0) at int64-sort speed.
        return np.unique(pack_coords(new_coords // stride))
    added_coords = new_coords[delta.added_new_rows]
    removed_coords = unpack_coords(delta.old_keys[delta.old_to_new < 0])
    # A changed input reaches at most ceil(kernel / stride)^3 cells.
    birth_candidates = np.unique(
        strided_cells(added_coords, kernel_size, stride)[1]
    )
    births = birth_candidates[
        lookup_rows(old_out_keys, birth_candidates) < 0
    ]
    death_candidates = np.unique(
        strided_cells(removed_coords, kernel_size, stride)[1]
    )
    death_candidates = death_candidates[
        lookup_rows(old_out_keys, death_candidates) >= 0
    ]
    window = unpack_coords(death_candidates)[None] * stride + offsets[:, None]
    hits = lookup_rows(delta.new_keys, pack_coords(window.reshape(-1, 3)))
    occupied = (hits.reshape(len(offsets), -1) >= 0).any(axis=0)
    deaths = death_candidates[~occupied]
    survivors = old_out_keys[lookup_rows(deaths, old_out_keys) < 0]
    return _merge_sorted_keys(survivors, births)


def patch_sparse_conv_rulebook(
    old: Rulebook,
    old_out_coords: np.ndarray,
    delta: CoordinateDelta,
    stride: int,
    new_coords: Optional[np.ndarray] = None,
) -> Tuple[Rulebook, np.ndarray]:
    """Patch a cached strided rulebook onto the delta's new site set.

    Supports every strided geometry.  For the paper's non-overlapping
    downsampling (``kernel_size == stride``) each input voxel ``p``
    supports exactly one output cell ``p // stride``; for overlapping
    geometries (``kernel_size != stride``) a changed input perturbs at
    most ``ceil(kernel / stride)^3`` output cells, so the patcher
    re-derives existence only for that affected neighborhood (births
    from added inputs, deaths probed against the surviving window) and
    re-matches only the pairs of added inputs — stable inputs can never
    create or lose a pair to a surviving cell, because any cell whose
    window holds a stable input exists both before and after the delta.

    ``old_out_coords`` are the output coordinates the cached rulebook
    was built with (cache entries store the pair).  Returns
    ``(rulebook, out_coords)`` bit-identical to
    :func:`repro.nn.rulebook.build_sparse_conv_rulebook`.  The
    transposed direction needs no separate patch:
    :meth:`Rulebook.transposed` derives it from the forward rules.
    """
    if stride <= 0:
        raise ValueError(f"stride must be positive, got {stride}")
    if new_coords is None:
        new_coords = unpack_coords(delta.new_keys)
    down_keys = _patched_down_keys(
        pack_coords(old_out_coords),
        delta,
        old.offsets,
        old.kernel_size,
        stride,
        new_coords,
    )
    # Old output row -> new output row (monotone; the cells of stable
    # inputs always survive, cells supported only by removed inputs
    # vanish).
    out_map = lookup_rows(down_keys, pack_coords(old_out_coords))
    added = delta.added_new_rows
    # Fresh pairs: added input p reaches cell (p - d) / stride under
    # every offset d it aligns with; the cell exists by construction.
    slots, cell_keys = strided_cells(new_coords[added], old.kernel_size, stride)
    found, out_rows = probe_keys(down_keys, cell_keys)
    slots = slots[found]
    num_added = max(len(added), 1)
    # The slots ascend offset-major with ascending input rows: already
    # sorted on the (offset, input row) composite key.
    fresh = (added[slots % num_added], out_rows, slots // num_added)
    pairs, segment_starts, fresh_slots = _splice_pairs(
        old.flat_pairs(),
        old.plan().segment_starts,
        delta.old_to_new,
        out_map,
        fresh,
        max(delta.new_size, 1),
        key_col=0,
    )
    rulebook = _patched(
        old, delta, out_map, pairs, segment_starts, fresh_slots, len(down_keys)
    )
    return rulebook, unpack_coords(down_keys)


def patch_rulebook(
    old: Rulebook,
    delta: CoordinateDelta,
    *,
    shape: Optional[Tuple[int, int, int]] = None,
    stride: Optional[int] = None,
    old_out_coords: Optional[np.ndarray] = None,
    new_coords: Optional[np.ndarray] = None,
):
    """Dispatch to the submanifold or strided patcher.

    ``stride=None`` selects submanifold patching (``shape`` required for
    the neighbor bounds test) and returns a :class:`Rulebook`; a stride
    selects strided patching (``old_out_coords`` required) and returns
    ``(rulebook, out_coords)``.
    """
    if stride is None:
        if shape is None:
            raise ValueError("submanifold patching requires shape=")
        return patch_submanifold_rulebook(
            old, delta, shape, new_coords=new_coords
        )
    if old_out_coords is None:
        raise ValueError("strided patching requires old_out_coords=")
    return patch_sparse_conv_rulebook(
        old, old_out_coords, delta, stride, new_coords=new_coords
    )


# ----------------------------------------------------------------------
# The delta-aware cache
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DeltaCacheStats:
    """Snapshot of a :class:`DeltaRulebookCache`'s counters.

    ``hits`` are digest hits (free, as before).  Digest misses split
    into ``patches`` (a recent near-match was spliced) and ``rebuilds``
    (from-scratch matching); ``patched_added`` / ``patched_removed``
    count the voxels the patches actually touched.
    """

    hits: int
    patches: int
    rebuilds: int
    patched_added: int
    patched_removed: int

    @property
    def misses(self) -> int:
        return self.patches + self.rebuilds

    @property
    def patch_rate(self) -> float:
        """Fraction of digest misses served by patching."""
        if self.misses == 0:
            return 0.0
        return self.patches / self.misses


class DeltaRulebookCache(RulebookCache):
    """A :class:`RulebookCache` that patches near-matches instead of
    rebuilding.

    Lookup order on a digest miss: recent entries with the same kernel
    geometry (kind, kernel size, stride, grid shape) are scanned from
    most to least recently used; the first whose coordinate delta ratio
    is at most ``threshold`` is patched via :func:`patch_rulebook`.
    Only ``max_candidates`` candidates are diffed per miss (a cheap
    size pre-filter skips hopeless ones), so a miss against a cold or
    fully drifted cache degrades gracefully to one from-scratch build.

    Entries remember the packed coordinate set they were built from
    (``8 * nnz`` bytes per entry) to make the diff possible.  Patched
    entries are inserted under their own digest key, so they serve
    later frames both as digest hits and as patch sources.

    ``register_listener`` attaches objects with a
    ``refresh(old_rulebook, new_rulebook, delta)`` method — the
    :class:`repro.engine.backend.ExecutionBackend` plan-invalidation
    hook — notified after every successful patch so prepared execution
    artifacts follow the rulebook incrementally instead of being
    discarded and rebuilt on first use.
    """

    def __init__(
        self,
        capacity: int = 32,
        threshold: float = DEFAULT_DELTA_THRESHOLD,
        max_candidates: int = 4,
    ) -> None:
        super().__init__(capacity)
        if not 0.0 < threshold <= 1.0:
            raise ValueError(
                f"threshold must be in (0, 1], got {threshold!r}"
            )
        if max_candidates < 1:
            raise ValueError(
                f"max_candidates must be >= 1, got {max_candidates}"
            )
        self.threshold = float(threshold)
        self.max_candidates = int(max_candidates)
        # key -> (geometry key, packed coordinate set); insertion order
        # tracks entry recency, pruned in lockstep with ``_entries``.
        self._coord_sets: "OrderedDict[Hashable, Tuple[Hashable, np.ndarray]]" = (
            OrderedDict()
        )
        # Weak references: a cache shared across sessions must not keep
        # discarded sessions' backends alive (or keep refreshing them).
        self._listeners: List["weakref.ref"] = []
        self.patches = 0
        self.rebuilds = 0
        self.patched_added = 0
        self.patched_removed = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def delta_stats(self) -> DeltaCacheStats:
        return DeltaCacheStats(
            hits=self.hits,
            patches=self.patches,
            rebuilds=self.rebuilds,
            patched_added=self.patched_added,
            patched_removed=self.patched_removed,
        )

    def reset_stats(self) -> None:
        super().reset_stats()
        self.patches = 0
        self.rebuilds = 0
        self.patched_added = 0
        self.patched_removed = 0

    def clear(self) -> None:
        super().clear()
        self._coord_sets.clear()

    def register_listener(self, listener: object) -> None:
        """Attach a patch listener (``refresh(old, new, delta)``).

        Listeners are held weakly: the cache may outlive many sessions
        (it is explicitly shareable), and must neither pin a discarded
        session's backend nor keep fanning refresh work out to it.
        Dead references are pruned on registration and notification.
        """
        if not callable(getattr(listener, "refresh", None)):
            raise TypeError(
                "listener must expose a refresh(old_rulebook, new_rulebook, "
                f"delta) method, got {type(listener).__name__}"
            )
        alive = [ref for ref in self._listeners if ref() is not None]
        if not any(ref() is listener for ref in alive):
            alive.append(weakref.ref(listener))
        self._listeners = alive

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _insert(self, key: Hashable, entry: object) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self._coord_sets.pop(evicted, None)

    def _remember(
        self, key: Hashable, geometry: Hashable, keys: np.ndarray
    ) -> None:
        self._coord_sets[key] = (geometry, keys)
        self._coord_sets.move_to_end(key)

    def _touch(self, key: Hashable) -> None:
        if key in self._coord_sets:
            self._coord_sets.move_to_end(key)

    def _find_patch_source(
        self, geometry: Hashable, new_keys: np.ndarray
    ) -> Optional[Tuple[Hashable, CoordinateDelta]]:
        """Most recent same-geometry entry within the churn threshold."""
        new_size = len(new_keys)
        if new_size == 0:
            return None
        scanned = 0
        for key in reversed(self._coord_sets):
            entry_geometry, old_keys = self._coord_sets[key]
            if entry_geometry != geometry:
                continue
            scanned += 1
            if scanned > self.max_candidates:
                return None
            # Size pre-filter: |old - new| alone already bounds the
            # churn ratio from below, no diff needed to reject.
            bound = max(len(old_keys), new_size, 1)
            if abs(len(old_keys) - new_size) > self.threshold * bound:
                continue
            delta = coordinate_delta(old_keys, new_keys)
            if delta.ratio <= self.threshold:
                return key, delta
        return None

    def _record_patch(self, delta: CoordinateDelta) -> None:
        self.patches += 1
        self.patched_added += delta.num_added
        self.patched_removed += delta.num_removed

    def _notify(
        self, old: Rulebook, new: Rulebook, delta: CoordinateDelta
    ) -> None:
        # Hand listeners the patcher's enriched RulebookDelta when the
        # patched rulebook carries one: it subsumes the coordinate delta
        # and lets backends splice prepared plans instead of re-lowering.
        splice = getattr(new, "_splice", None)
        if splice is not None:
            delta = splice
        live = [ref for ref in self._listeners if ref() is not None]
        if len(live) != len(self._listeners):
            self._listeners = live
        for ref in live:
            listener = ref()
            if listener is not None:
                listener.refresh(old, new, delta)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def submanifold(
        self, tensor: SparseTensor3D, kernel_size: int = 3
    ) -> Rulebook:
        key = self.submanifold_key(tensor, kernel_size)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            self._touch(key)
            return entry
        self.misses += 1
        geometry = ("sub", int(kernel_size), tensor.shape)
        new_keys = pack_coords(tensor.coords)
        source = self._find_patch_source(geometry, new_keys)
        if source is not None:
            source_key, delta = source
            old_rulebook = self._entries[source_key]
            rulebook = patch_submanifold_rulebook(
                old_rulebook, delta, tensor.shape, new_coords=tensor.coords
            )
            self._record_patch(delta)
            self._notify(old_rulebook, rulebook, delta)
        else:
            rulebook = build_submanifold_rulebook(tensor, kernel_size)
            self.rebuilds += 1
        self._insert(key, rulebook)
        self._remember(key, geometry, new_keys)
        return rulebook

    def sparse_conv(
        self, tensor: SparseTensor3D, kernel_size: int = 2, stride: int = 2
    ) -> Tuple[Rulebook, np.ndarray]:
        key = self.sparse_conv_key(tensor, kernel_size, stride)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            self._touch(key)
            return entry
        self.misses += 1
        geometry = ("down", int(kernel_size), int(stride), tensor.shape)
        new_keys = pack_coords(tensor.coords)
        source = self._find_patch_source(geometry, new_keys)
        if source is not None:
            source_key, delta = source
            old_rulebook, old_out_coords = self._entries[source_key]
            rulebook, out_coords = patch_sparse_conv_rulebook(
                old_rulebook,
                old_out_coords,
                delta,
                stride,
                new_coords=tensor.coords,
            )
            self._record_patch(delta)
            self._notify(old_rulebook, rulebook, delta)
        else:
            rulebook, out_coords = build_sparse_conv_rulebook(
                tensor, kernel_size, stride
            )
            self.rebuilds += 1
        entry = (rulebook, out_coords)
        self._insert(key, entry)
        self._remember(key, geometry, new_keys)
        return entry
