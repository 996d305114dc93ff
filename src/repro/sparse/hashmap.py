"""Packed 3D integer coordinate keys.

Coordinates are packed into a single non-negative ``int64`` key with 21
bits per axis, supporting grids up to ``2**21`` per side — far beyond the
``192^3`` feature maps used in the paper.  Packing preserves the
lexicographic order of coordinate rows, so the canonical coordinate array
of a :class:`repro.sparse.coo.SparseTensor3D` packs to ascending keys,
and it is linear on non-negative fields.  The matching operation
(:mod:`repro.nn.rulebook`) answers "is ``p + offset`` active" for every
site and offset with one sorted probe over these keys, the software
analogue of the paper's sorted, encoded coordinate stream.
"""

from __future__ import annotations

import numpy as np

_AXIS_BITS = 21
_AXIS_MASK = (1 << _AXIS_BITS) - 1


def pack_coords(coords: np.ndarray) -> np.ndarray:
    """Pack an ``(N, 3)`` non-negative integer array into ``(N,)`` int64 keys."""
    coords = np.asarray(coords, dtype=np.int64)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ValueError(f"expected (N, 3) coordinates, got shape {coords.shape}")
    if coords.size and (coords.min() < 0 or coords.max() > _AXIS_MASK):
        raise ValueError(
            f"coordinates must lie in [0, {_AXIS_MASK}] per axis for packing"
        )
    return (
        (coords[:, 0] << (2 * _AXIS_BITS))
        | (coords[:, 1] << _AXIS_BITS)
        | coords[:, 2]
    )


def unpack_coords(keys: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_coords`."""
    keys = np.asarray(keys, dtype=np.int64)
    x = (keys >> (2 * _AXIS_BITS)) & _AXIS_MASK
    y = (keys >> _AXIS_BITS) & _AXIS_MASK
    z = keys & _AXIS_MASK
    return np.stack([x, y, z], axis=1)
