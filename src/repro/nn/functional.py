"""Functional sparse convolution operations (gather-GEMM-scatter).

These are the mathematical definitions the accelerator must reproduce;
they follow Graham et al. [12].  ``dense_conv3d_reference`` implements the
*traditional* convolution of Fig. 2(a) and is used both to validate the
submanifold operator (restricted to active sites the two agree) and to
demonstrate sparsity dilation.

The hot path is :func:`apply_rulebook`, a *fused* vectorized evaluation:
one concatenated gather over all kernel offsets, one contiguous block
GEMM per offset, and a scatter that exploits per-offset output-row
uniqueness to avoid the (orders-of-magnitude slower) buffered
:func:`np.add.at` reduction.  The original scalar-scatter formulation is
kept as :func:`apply_rulebook_reference` — it remains the correctness
oracle and the baseline the engine benchmark measures against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.nn.rulebook import (
    Rulebook,
    RulebookCache,
    get_sparse_conv_rulebook,
    get_submanifold_rulebook,
    kernel_offsets,
)
from repro.sparse.coo import SparseTensor3D


def normalize_weights(weights: np.ndarray, kernel_size: int) -> np.ndarray:
    """Accept ``(K, K, K, Cin, Cout)`` or ``(K^3, Cin, Cout)`` weights."""
    weights = np.asarray(weights)
    volume = kernel_size ** 3
    if weights.ndim == 5:
        if weights.shape[:3] != (kernel_size,) * 3:
            raise ValueError(
                f"weights spatial shape {weights.shape[:3]} != kernel {kernel_size}"
            )
        weights = weights.reshape(volume, weights.shape[3], weights.shape[4])
    if weights.ndim != 3 or weights.shape[0] != volume:
        raise ValueError(
            f"weights must be (K^3, Cin, Cout) with K={kernel_size}, "
            f"got {weights.shape}"
        )
    return weights


def _validate_stride(stride: int) -> int:
    """Strides must be integers >= 1 (0 would divide by zero downstream)."""
    if int(stride) != stride:
        raise ValueError(f"stride must be an integer, got {stride!r}")
    stride = int(stride)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    return stride


@dataclass
class ApplyStats:
    """Wall-clock breakdown of one :func:`apply_rulebook` evaluation."""

    matches: int = 0
    gather_seconds: float = 0.0
    gemm_seconds: float = 0.0
    scatter_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.gather_seconds + self.gemm_seconds + self.scatter_seconds


def apply_rulebook(
    rulebook: Rulebook,
    in_features: np.ndarray,
    weights: np.ndarray,
    num_outputs: int,
    stats: Optional[ApplyStats] = None,
) -> np.ndarray:
    """Fused gather-GEMM-scatter evaluation of a rulebook.

    ``out[o] = sum_k W[k] @ in[i]`` over all rules ``(i, o)`` of offset
    ``k`` — the dense linear-algebra equivalent of streaming the match
    groups through the computing core.  Three fused stages:

    1. **gather** — one concatenated ``in_features[plan.in_rows]`` copy
       covering every offset (offset-major order);
    2. **GEMM** — one matmul per offset on the *contiguous* gathered
       segment, written into a preallocated contribution buffer;
    3. **scatter** — per-offset ``out[rows] += contribution``; exact
       (not merely approximate) because within an offset each output row
       occurs at most once, and bit-identical to the sequential
       :func:`np.add.at` reference since offsets are visited in the same
       order.

    The accumulator uses the promoted dtype of ``in_features`` and
    ``weights`` (``np.result_type``), so quantized integer features stay
    integer and ``float32`` pipelines are not silently upcast to
    ``float64``.  Integer accumulation is widened to at least ``int64``
    (the software analogue of the hardware's wide accumulator): per-match
    products of narrow formats like INT16 x INT8 fit their own dtype, but
    the cross-offset sum must not wrap.  When ``stats`` is supplied,
    per-stage wall-clock seconds and the match count are accumulated into
    it.
    """
    in_features = np.asarray(in_features)
    weights = np.asarray(weights)
    out_channels = weights.shape[2]
    dtype = np.result_type(in_features.dtype, weights.dtype)
    if dtype.kind in "iu":
        dtype = np.result_type(dtype, np.int64)
    out = np.zeros((num_outputs, out_channels), dtype=dtype)
    plan = rulebook.plan()
    if plan.total_matches == 0:
        return out

    t0 = time.perf_counter()
    gathered = in_features[plan.in_rows]
    t1 = time.perf_counter()
    contribution = np.empty((plan.total_matches, out_channels), dtype=dtype)
    starts = plan.segment_starts
    weights = weights.astype(dtype, copy=False)
    gathered = gathered.astype(dtype, copy=False)
    for k in plan.active_offsets:
        # np.dot into the preallocated contiguous slice; measurably less
        # dispatch overhead than np.matmul for thin channel counts.
        np.dot(
            gathered[starts[k]:starts[k + 1]],
            weights[k],
            out=contribution[starts[k]:starts[k + 1]],
        )
    t2 = time.perf_counter()
    for k in plan.active_offsets:
        out[plan.out_rows[k]] += contribution[starts[k]:starts[k + 1]]
    t3 = time.perf_counter()

    if stats is not None:
        stats.matches += plan.total_matches
        stats.gather_seconds += t1 - t0
        stats.gemm_seconds += t2 - t1
        stats.scatter_seconds += t3 - t2
    return out


def apply_rulebook_reference(
    rulebook: Rulebook,
    in_features: np.ndarray,
    weights: np.ndarray,
    num_outputs: int,
) -> np.ndarray:
    """The original per-offset ``np.add.at`` evaluation (seed behavior).

    Kept as the correctness oracle for :func:`apply_rulebook` and as the
    baseline of the engine benchmark.  Note the float64 accumulator: this
    is the seed's exact semantics, including its silent upcast.
    """
    out_channels = weights.shape[2]
    out = np.zeros((num_outputs, out_channels), dtype=np.float64)
    for k, rule in enumerate(rulebook.rules):
        if len(rule) == 0:
            continue
        gathered = in_features[rule[:, 0]]
        contribution = gathered @ weights[k]
        np.add.at(out, rule[:, 1], contribution)
    return out


def submanifold_conv3d(
    tensor: SparseTensor3D,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    kernel_size: int = 3,
    rulebook: Optional[Rulebook] = None,
    cache: Optional[RulebookCache] = None,
    stats: Optional[ApplyStats] = None,
) -> SparseTensor3D:
    """Submanifold sparse convolution (Sub-Conv).

    Output sites are exactly the input sites; each output is the sum of
    ``W[d] @ in[p + d]`` over offsets ``d`` whose neighbor ``p + d`` is
    active.  A precomputed ``rulebook`` may be supplied, or a ``cache``
    that amortizes the matching cost across every layer (and frame)
    operating on the same site set.
    """
    weights = normalize_weights(weights, kernel_size)
    if weights.shape[1] != tensor.num_channels:
        raise ValueError(
            f"weights expect {weights.shape[1]} input channels, tensor has "
            f"{tensor.num_channels}"
        )
    if rulebook is None:
        rulebook = get_submanifold_rulebook(tensor, kernel_size, cache=cache)
    out = apply_rulebook(rulebook, tensor.features, weights, tensor.nnz, stats=stats)
    if bias is not None:
        out = out + np.asarray(bias).reshape(1, -1)
    return tensor.with_features(out)


def sparse_conv3d(
    tensor: SparseTensor3D,
    weights: np.ndarray,
    stride: int = 2,
    bias: Optional[np.ndarray] = None,
    kernel_size: int = 2,
    cache: Optional[RulebookCache] = None,
    stats: Optional[ApplyStats] = None,
) -> SparseTensor3D:
    """Strided sparse convolution (the U-Net downsampling operator).

    Unlike Sub-Conv, the output site set is the stride-decimated union of
    input receptive fields, so sparsity *coarsens* (but does not dilate
    within a scale).
    """
    stride = _validate_stride(stride)
    weights = normalize_weights(weights, kernel_size)
    if weights.shape[1] != tensor.num_channels:
        raise ValueError(
            f"weights expect {weights.shape[1]} input channels, tensor has "
            f"{tensor.num_channels}"
        )
    rulebook, out_coords = get_sparse_conv_rulebook(
        tensor, kernel_size, stride, cache=cache
    )
    out = apply_rulebook(
        rulebook, tensor.features, weights, len(out_coords), stats=stats
    )
    if bias is not None:
        out = out + np.asarray(bias).reshape(1, -1)
    out_shape = tuple(max(1, -(-s // stride)) for s in tensor.shape)
    return SparseTensor3D(out_coords, out, out_shape)


def sparse_inverse_conv3d(
    tensor: SparseTensor3D,
    weights: np.ndarray,
    reference: SparseTensor3D,
    stride: int = 2,
    bias: Optional[np.ndarray] = None,
    kernel_size: int = 2,
    cache: Optional[RulebookCache] = None,
    stats: Optional[ApplyStats] = None,
) -> SparseTensor3D:
    """Transposed strided sparse convolution (the U-Net upsampling operator).

    Restores exactly the site set of ``reference`` (the tensor that was
    downsampled on the encoder side), reversing the rulebook of the
    corresponding forward convolution: ``out[p] += W[d].T-role @ in[q]``
    for every forward rule ``p -> q`` under offset ``d``.  With a
    ``cache``, the forward rulebook built by the encoder's downsampling
    convolution is reused here instead of being rebuilt.
    """
    stride = _validate_stride(stride)
    weights = normalize_weights(weights, kernel_size)
    if weights.shape[1] != tensor.num_channels:
        raise ValueError(
            f"weights expect {weights.shape[1]} input channels, tensor has "
            f"{tensor.num_channels}"
        )
    forward_rb, down_coords = get_sparse_conv_rulebook(
        reference, kernel_size, stride, cache=cache
    )
    # The coarse tensor must live on the downsample of `reference`.
    if len(down_coords) != tensor.nnz or not np.array_equal(
        down_coords, tensor.coords
    ):
        raise ValueError(
            "input tensor sites do not match the downsampled reference sites"
        )
    out = apply_rulebook(
        forward_rb.transposed(),
        tensor.features,
        weights,
        reference.nnz,
        stats=stats,
    )
    if bias is not None:
        out = out + np.asarray(bias).reshape(1, -1)
    return SparseTensor3D(reference.coords.copy(), out, reference.shape)


def global_max_pool(tensor: SparseTensor3D) -> np.ndarray:
    """Global max pooling over active sites: ``(C,)`` feature vector.

    Classification-style readout over a sparse tensor.  Raises on an
    empty tensor (there is no sensible identity for max over features).
    """
    if tensor.nnz == 0:
        raise ValueError("global_max_pool of an empty tensor")
    return tensor.features.max(axis=0)


def global_avg_pool(tensor: SparseTensor3D) -> np.ndarray:
    """Global average pooling over active sites: ``(C,)`` feature vector."""
    if tensor.nnz == 0:
        raise ValueError("global_avg_pool of an empty tensor")
    return tensor.features.mean(axis=0)


def dense_conv3d_reference(
    dense: np.ndarray,
    weights: np.ndarray,
    kernel_size: int = 3,
    bias: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Traditional 'same'-padded dense 3D convolution (Fig. 2(a)).

    ``dense`` is ``(X, Y, Z, Cin)``; returns ``(X, Y, Z, Cout)``.  The
    kernel is centered, matching :func:`submanifold_conv3d`'s convention,
    so at any active site the two operators agree whenever the site's
    whole neighborhood is interior.
    """
    weights = normalize_weights(weights, kernel_size)
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 4:
        raise ValueError(f"dense input must be (X, Y, Z, C), got {dense.shape}")
    x_dim, y_dim, z_dim, in_ch = dense.shape
    if in_ch != weights.shape[1]:
        raise ValueError(
            f"weights expect {weights.shape[1]} input channels, input has {in_ch}"
        )
    out = np.zeros((x_dim, y_dim, z_dim, weights.shape[2]), dtype=np.float64)
    offsets = kernel_offsets(kernel_size, center=True)
    for k, (dx, dy, dz) in enumerate(offsets):
        # out[p] += in[p + d] @ W[k], implemented as array slicing.
        src_x = slice(max(0, dx), x_dim + min(0, dx))
        src_y = slice(max(0, dy), y_dim + min(0, dy))
        src_z = slice(max(0, dz), z_dim + min(0, dz))
        dst_x = slice(max(0, -dx), x_dim + min(0, -dx))
        dst_y = slice(max(0, -dy), y_dim + min(0, -dy))
        dst_z = slice(max(0, -dz), z_dim + min(0, -dz))
        out[dst_x, dst_y, dst_z] += dense[src_x, src_y, src_z] @ weights[k]
    if bias is not None:
        out = out + np.asarray(bias).reshape(1, 1, 1, -1)
    return out
