"""Digest-keyed caching and delta splicing for mapping operators.

:class:`MappingCache` is the mapping-ops twin of
:class:`repro.nn.rulebook.RulebookCache`: results are keyed by a BLAKE2b
digest of the operand arrays plus the operator parameters, held in an
LRU of bounded capacity, with hit/miss counters the session surfaces.

:class:`DeltaMappingCache` upgrades misses: when a self-query kNN or ball-query lookup misses but the new coordinate
set is within a churn threshold of a recently seen one (measured by
:func:`repro.engine.delta.coordinate_delta` over packed keys), the cached
neighbor table is *spliced* instead of rebuilt — stable rows are index
remapped through the monotone ``old_to_new`` map, and only the queries
whose neighborhoods an added or removed point can touch are re-searched
with the bucket kernels.  The spliced result is bit-identical to a
from-scratch search; farthest-point sampling stays rebuild-only because
one changed pick cascades through every later pick.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.engine import mapping
from repro.engine.delta import (
    DEFAULT_DELTA_THRESHOLD,
    CoordinateDelta,
    coordinate_delta,
)
from repro.engine.mapping import MappingResult, MappingStats
from repro.sparse.hashmap import _AXIS_MASK, pack_coords

DEFAULT_MAPPING_CAPACITY = 32

#: Key marker for self-query lookups (queries are the points themselves).
_SELF = "self"


def array_digest(array: np.ndarray) -> bytes:
    """BLAKE2b-16 digest of an array's dtype, shape, and contents."""
    arr = np.ascontiguousarray(array)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(arr.dtype).encode("ascii"))
    digest.update(np.asarray(arr.shape, dtype=np.int64).tobytes())
    digest.update(arr.tobytes())
    return digest.digest()


@dataclass(frozen=True)
class MappingCacheStats:
    """Counter snapshot of a (delta) mapping cache."""

    hits: int
    misses: int
    patches: int
    rebuilds: int
    patched_added: int
    patched_removed: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def patch_rate(self) -> float:
        splices = self.patches + self.rebuilds
        return self.patches / splices if splices else 0.0


class MappingCache:
    """LRU cache of :class:`MappingResult` keyed by operand digests.

    The patch counters (``patches``, ``rebuilds``, ``patched_added``,
    ``patched_removed``) belong to every mapping cache; they stay 0
    unless a :class:`DeltaMappingCache` patches.
    """

    def __init__(self, capacity: int = DEFAULT_MAPPING_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, MappingResult]" = OrderedDict()
        self.reset_stats()

    # -- lookups ---------------------------------------------------------
    def knn(self, points, k: int, queries=None) -> MappingResult:
        coords = _operand(points)
        query_coords = None if queries is None else _operand(queries)
        key = (
            "knn",
            int(k),
            array_digest(coords),
            _SELF if query_coords is None else array_digest(query_coords),
        )
        return self._lookup(key, ("knn", int(k)), coords, query_coords)

    def ball_query(
        self, points, radius: float, max_samples: int, queries=None
    ) -> MappingResult:
        coords = _operand(points)
        query_coords = None if queries is None else _operand(queries)
        key = (
            "ball_query",
            float(radius),
            int(max_samples),
            array_digest(coords),
            _SELF if query_coords is None else array_digest(query_coords),
        )
        geometry = ("ball_query", float(radius), int(max_samples))
        return self._lookup(key, geometry, coords, query_coords)

    def farthest_point_sample(self, points, num_samples: int) -> MappingResult:
        coords = _operand(points)
        key = ("fps", int(num_samples), array_digest(coords))
        return self._lookup(key, ("fps", int(num_samples)), coords, None)

    # -- statistics ------------------------------------------------------
    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def stats(self) -> MappingCacheStats:
        return MappingCacheStats(
            hits=self.hits,
            misses=self.misses,
            patches=self.patches,
            rebuilds=self.rebuilds,
            patched_added=self.patched_added,
            patched_removed=self.patched_removed,
        )

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.patches = 0
        self.rebuilds = 0
        self.patched_added = 0
        self.patched_removed = 0

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    # -- machinery -------------------------------------------------------
    def _lookup(
        self,
        key: tuple,
        geometry: tuple,
        coords: np.ndarray,
        query_coords: Optional[np.ndarray],
    ) -> MappingResult:
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            self._on_hit(key)
            return entry
        self.misses += 1
        result = self._miss(key, geometry, coords, query_coords)
        self._insert(key, result)
        return result

    def _miss(
        self,
        key: tuple,
        geometry: tuple,
        coords: np.ndarray,
        query_coords: Optional[np.ndarray],
    ) -> MappingResult:
        return _build(geometry, coords, query_coords)

    def _on_hit(self, key: tuple) -> None:
        pass

    def _insert(self, key: tuple, result: MappingResult) -> None:
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self._evicted(evicted)

    def _evicted(self, key: tuple) -> None:
        pass


def _operand(points) -> np.ndarray:
    """The raw coordinate rows a lookup digests (tensors contribute coords)."""
    coords = np.asarray(getattr(points, "coords", points))
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ValueError(f"expected (N, 3) points, got shape {coords.shape}")
    return coords


def _build(
    geometry: tuple, coords: np.ndarray, query_coords: Optional[np.ndarray]
) -> MappingResult:
    if geometry[0] == "knn":
        return mapping.knn(coords, query_coords, k=geometry[1])
    if geometry[0] == "ball_query":
        return mapping.ball_query(
            coords, query_coords, radius=geometry[1], max_samples=geometry[2]
        )
    if geometry[0] == "fps":
        return mapping.farthest_point_sample(coords, geometry[1])
    raise ValueError(f"unknown mapping geometry {geometry!r}")


class DeltaMappingCache(MappingCache):
    """A :class:`MappingCache` that splices near-miss neighbor tables.

    Remembered coordinate sets are diffed against incoming ones (most recent first,
    ``max_candidates`` deep, with a cheap size pre-filter), and a churn
    ratio at or below ``threshold`` routes the miss through the patch
    path.  Only self-query kNN / ball-query lookups over canonically
    sorted integer coordinates (the :class:`SparseTensor3D` layout) are
    delta-eligible; everything else falls back to a plain rebuild.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_MAPPING_CAPACITY,
        threshold: float = DEFAULT_DELTA_THRESHOLD,
        max_candidates: int = 4,
    ) -> None:
        super().__init__(capacity)
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
        if max_candidates < 1:
            raise ValueError(
                f"max_candidates must be positive, got {max_candidates}"
            )
        self.threshold = float(threshold)
        self.max_candidates = int(max_candidates)
        #: key -> (geometry, packed keys, coordinate rows), LRU-ordered.
        self._coord_sets: "OrderedDict[tuple, Tuple[tuple, np.ndarray, np.ndarray]]" = (
            OrderedDict()
        )

    def clear(self) -> None:
        super().clear()
        self._coord_sets.clear()

    # -- hooks -----------------------------------------------------------
    def _miss(
        self,
        key: tuple,
        geometry: tuple,
        coords: np.ndarray,
        query_coords: Optional[np.ndarray],
    ) -> MappingResult:
        packed = _packable_self_query(geometry, coords, query_coords)
        if packed is None:
            return _build(geometry, coords, query_coords)
        source = self._find_patch_source(geometry, packed)
        if source is not None:
            source_key, source_coords, delta = source
            patched = _patch(
                geometry, self._entries[source_key], source_coords, coords, delta
            )
            self.patches += 1
            self.patched_added += delta.num_added
            self.patched_removed += delta.num_removed
            self._remember(key, geometry, packed, coords)
            return patched
        self.rebuilds += 1
        self._remember(key, geometry, packed, coords)
        return _build(geometry, coords, query_coords)

    def _on_hit(self, key: tuple) -> None:
        if key in self._coord_sets:
            self._coord_sets.move_to_end(key)

    def _evicted(self, key: tuple) -> None:
        self._coord_sets.pop(key, None)

    def _remember(
        self, key: tuple, geometry: tuple, packed: np.ndarray, coords: np.ndarray
    ) -> None:
        self._coord_sets[key] = (geometry, packed, coords)
        self._coord_sets.move_to_end(key)
        while len(self._coord_sets) > self.capacity:
            self._coord_sets.popitem(last=False)

    def _find_patch_source(
        self, geometry: tuple, new_keys: np.ndarray
    ) -> Optional[Tuple[tuple, np.ndarray, CoordinateDelta]]:
        new_size = len(new_keys)
        scanned = 0
        for key in reversed(self._coord_sets):
            if scanned >= self.max_candidates:
                break
            stored_geometry, old_keys, old_coords = self._coord_sets[key]
            if stored_geometry != geometry or key not in self._entries:
                continue
            scanned += 1
            bound = max(len(old_keys), new_size, 1)
            if abs(len(old_keys) - new_size) > self.threshold * bound:
                continue
            delta = coordinate_delta(old_keys, new_keys)
            if delta.ratio <= self.threshold:
                return key, old_coords, delta
        return None


def _packable_self_query(
    geometry: tuple, coords: np.ndarray, query_coords: Optional[np.ndarray]
) -> Optional[np.ndarray]:
    """Packed keys when a lookup is delta-eligible, else ``None``.

    Eligibility: a self-query kNN / ball-query over non-negative integer
    coordinates in canonical (strictly increasing packed-key) order —
    the invariants :func:`coordinate_delta` splicing relies on.
    """
    if geometry[0] not in ("knn", "ball_query") or query_coords is not None:
        return None
    if coords.dtype.kind not in ("i", "u") or not len(coords):
        return None
    if coords.min() < 0 or coords.max() > _AXIS_MASK:
        return None
    keys = pack_coords(coords)
    if not np.all(keys[1:] > keys[:-1]):
        return None
    return keys


def _patched_stats(
    op: str,
    old: MappingStats,
    fresh: Optional[MappingStats],
    num_points: int,
    num_queries: int,
) -> MappingStats:
    return MappingStats(
        op=op,
        method="delta-patch",
        num_points=num_points,
        num_queries=num_queries,
        candidates=fresh.candidates if fresh else 0,
        matches=old.matches,
        cells=fresh.cells if fresh else 0,
        shells=fresh.shells if fresh else 0,
    )


def _patch(
    geometry: tuple,
    cached: MappingResult,
    old_coords: np.ndarray,
    new_coords: np.ndarray,
    delta: CoordinateDelta,
) -> MappingResult:
    if geometry[0] == "knn":
        return _patch_knn(cached, old_coords, new_coords, delta, geometry[1])
    return _patch_ball(
        cached, old_coords, new_coords, delta, geometry[1], geometry[2]
    )


def _patch_knn(
    cached: MappingResult,
    old_coords: np.ndarray,
    new_coords: np.ndarray,
    delta: CoordinateDelta,
    k: int,
) -> MappingResult:
    """Splice a self-query kNN table under a coordinate delta.

    A stable query's row survives verbatim (index-remapped) unless a
    current neighbor was removed or an added point lands at or inside its
    k-th distance — ties included, because an added point at equal
    distance can displace the k-th neighbor under index ordering.  The
    monotone ``old_to_new`` map preserves the (distance, index) tie-break
    order of surviving rows, so remapped rows match a from-scratch search
    bit for bit; affected rows are re-searched with the bucket kernel.
    """
    old_to_new = delta.old_to_new
    num_new = delta.new_size
    old_indices = cached.indices
    old_dists = cached.distances
    indices = np.full((num_new, k), -1, dtype=np.int64)
    dists = np.full((num_new, k), np.inf, dtype=old_dists.dtype)
    counts = np.full(num_new, min(k, num_new), dtype=np.int64)

    stable_old = np.flatnonzero(old_to_new >= 0)
    valid = old_indices >= 0
    mapped = np.where(valid, old_to_new[np.where(valid, old_indices, 0)], -1)
    lost = (valid & (mapped < 0)).any(axis=1)

    pts_new = mapping.as_point_array(new_coords)
    added_rows = delta.added_new_rows
    # inf-padded rows make every addition a trigger, covering under-full rows.
    kth = old_dists[:, k - 1] if k > 0 else np.zeros(len(old_indices))
    if added_rows.size and stable_old.size:
        stable_queries = pts_new[old_to_new[stable_old]]
        diff = stable_queries[:, None, :] - pts_new[added_rows][None, :, :]
        add_d2 = (diff * diff).sum(axis=2)
        add_hit = (add_d2 <= kth[stable_old][:, None]).any(axis=1)
    else:
        add_hit = np.zeros(len(stable_old), dtype=bool)

    affected = lost[stable_old] | add_hit
    keep_old = stable_old[~affected]
    keep_new = old_to_new[keep_old]
    indices[keep_new] = mapped[keep_old]
    dists[keep_new] = old_dists[keep_old]

    redo = np.sort(np.concatenate([added_rows, old_to_new[stable_old[affected]]]))
    fresh_stats = None
    if redo.size:
        fresh = mapping.knn(new_coords, new_coords[redo], k=k)
        indices[redo] = fresh.indices
        dists[redo] = fresh.distances
        fresh_stats = fresh.stats
    stats = _patched_stats("knn", cached.stats, fresh_stats, num_new, num_new)
    stats = MappingStats(
        op=stats.op,
        method=stats.method,
        num_points=stats.num_points,
        num_queries=stats.num_queries,
        candidates=stats.candidates,
        matches=int((indices >= 0).sum()),
        cells=stats.cells,
        shells=stats.shells,
    )
    return MappingResult(indices, dists, counts, None, stats)


def _patch_ball(
    cached: MappingResult,
    old_coords: np.ndarray,
    new_coords: np.ndarray,
    delta: CoordinateDelta,
    radius: float,
    max_samples: int,
) -> MappingResult:
    """Splice a self-query ball-query table under a coordinate delta.

    A stable query is affected exactly when some added or removed point
    lies within the radius (ties included): additions can enter or, via
    index ordering, displace entries of a capped row; removals can vacate
    a slot that a beyond-cap point should fill.  Unaffected rows remap
    through the monotone index map, preserving point-index order.
    """
    old_to_new = delta.old_to_new
    num_new = delta.new_size
    old_indices = cached.indices
    indices = np.full((num_new, max_samples), -1, dtype=np.int64)
    dists = np.full((num_new, max_samples), np.inf, dtype=cached.distances.dtype)
    counts = np.zeros(num_new, dtype=np.int64)

    stable_old = np.flatnonzero(old_to_new >= 0)
    pts_new = mapping.as_point_array(new_coords)
    pts_old = mapping.as_point_array(old_coords)
    r2 = float(radius) * float(radius)

    stable_queries = pts_new[old_to_new[stable_old]]
    added_rows = delta.added_new_rows
    removed_old = np.flatnonzero(old_to_new < 0)
    add_hit = _any_within(stable_queries, pts_new[added_rows], r2)
    removed_hit = _any_within(stable_queries, pts_old[removed_old], r2)

    affected = add_hit | removed_hit
    keep_old = stable_old[~affected]
    keep_new = old_to_new[keep_old]
    valid = old_indices[keep_old] >= 0
    mapped = np.where(
        valid, old_to_new[np.where(valid, old_indices[keep_old], 0)], -1
    )
    indices[keep_new] = mapped
    dists[keep_new] = cached.distances[keep_old]
    counts[keep_new] = cached.counts[keep_old]

    redo = np.sort(np.concatenate([added_rows, old_to_new[stable_old[affected]]]))
    fresh_stats = None
    if redo.size:
        fresh = mapping.ball_query(
            new_coords, new_coords[redo], radius=radius, max_samples=max_samples
        )
        indices[redo] = fresh.indices
        dists[redo] = fresh.distances
        counts[redo] = fresh.counts
        fresh_stats = fresh.stats
    stats = _patched_stats("ball_query", cached.stats, fresh_stats, num_new, num_new)
    stats = MappingStats(
        op=stats.op,
        method=stats.method,
        num_points=stats.num_points,
        num_queries=stats.num_queries,
        candidates=stats.candidates,
        matches=int((indices >= 0).sum()),
        cells=stats.cells,
        shells=stats.shells,
    )
    return MappingResult(indices, dists, counts, None, stats)


def _any_within(queries: np.ndarray, points: np.ndarray, r2: float) -> np.ndarray:
    """Per-query flag: does any of ``points`` lie at squared distance
    ``<= r2``?  The churn matrix is (stable x churned) — small by the
    threshold gate that admitted the delta."""
    if len(queries) == 0 or len(points) == 0:
        return np.zeros(len(queries), dtype=bool)
    diff = queries[:, None, :] - points[None, :, :]
    d2 = (diff * diff).sum(axis=2)
    return (d2 <= r2).any(axis=1)
