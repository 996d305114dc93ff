"""Sparse 3D tensor substrate.

Voxelized point clouds are represented as COO sparse tensors: an ``(N, 3)``
integer coordinate array plus an ``(N, C)`` feature array over a bounded
3D shape.  The submanifold convolution reference (:mod:`repro.nn`) and the
accelerator encoder (:mod:`repro.arch.encoding`) both build on this
package.
"""

from repro.sparse.coo import SparseTensor3D
from repro.sparse.hashmap import pack_coords, unpack_coords
from repro.sparse.dense import dense_to_sparse, sparse_to_dense
from repro.sparse.ops import (
    add_sparse,
    concat_features,
    relu,
    scale_features,
    sparse_allclose,
)

__all__ = [
    "SparseTensor3D",
    "pack_coords",
    "unpack_coords",
    "sparse_to_dense",
    "dense_to_sparse",
    "relu",
    "add_sparse",
    "concat_features",
    "scale_features",
    "sparse_allclose",
]
