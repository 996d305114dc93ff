"""Coordinate deltas between two packed site sets.

The digest-keyed caches are all-or-nothing: one voxel of churn between
two frames gives a fresh coordinate digest and a cache miss.  On a
nearly-static stream (SLAM, odometry, surveillance) consecutive frames
share almost every voxel, and :func:`coordinate_delta` says which: it
diffs two packed coordinate sets into a :class:`CoordinateDelta`
(added / removed / stable voxels plus the monotone old-row -> new-row
mapping).  :class:`repro.engine.mapping_delta.DeltaMappingCache` uses it
to splice cached neighbor tables instead of searching from scratch.

Rulebooks are not patched.  The cold submanifold builder
(:func:`repro.nn.rulebook.build_submanifold_rulebook`) walks z-column
runs and mirrors half the offsets, and at that speed a patch plus the
diff it needs costs more than a rebuild: 3.95 ms against 2.88 ms per
11k-site drift frame, and 0.96-0.99x of a frame end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.rulebook import lookup_rows
from repro.sparse.hashmap import pack_coords

#: Default churn-ratio bound under which a cached result is patched
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
        which is what makes order-preserving patching possible.
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
    :class:`repro.sparse.coo.SparseTensor3D` coordinate array and of keys produced by
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
