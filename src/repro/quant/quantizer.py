"""Per-tensor calibration and the integer-arithmetic Sub-Conv.

:class:`QuantizedSubConv` is the arithmetic contract of the accelerator:
INT8 weights times INT16 activations accumulated in INT32, then
requantized back to INT16 with a per-layer output scale.  The
cycle-accurate computing core reproduces these integer outputs exactly
(integer addition is associative, so accumulation order is irrelevant).

The session's ``int`` precision computes the same integers as float64
codes on BLAS (exact below 2^53); this int64 layer stays its reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.nn.functional import apply_rulebook, normalize_weights
from repro.nn.rulebook import Rulebook, build_submanifold_rulebook
from repro.quant.fixed_point import (
    ACC_INT32,
    ACT_INT16,
    WEIGHT_INT8,
    FixedPointFormat,
    dequantize,
    quantize,
    saturate,
)
from repro.sparse.coo import SparseTensor3D


def fold_batchnorm(
    weights: np.ndarray,
    bias: Optional[np.ndarray],
    bn_scale: np.ndarray,
    bn_shift: np.ndarray,
) -> tuple:
    """Fold an affine batch norm into the preceding convolution.

    Given ``y = conv(x, W) + b`` followed by ``z = y * s + t`` (per
    output channel), returns ``(W', b')`` with
    ``conv(x, W') + b' == z`` exactly: ``W'[..., c] = W[..., c] * s[c]``
    and ``b' = b * s + t``.  Folding before quantization is how INT8
    deployments (like the paper's) absorb the BN layers for free.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 3:
        raise ValueError(f"weights must be (K^3, Cin, Cout), got {weights.shape}")
    bn_scale = np.asarray(bn_scale, dtype=np.float64).reshape(-1)
    bn_shift = np.asarray(bn_shift, dtype=np.float64).reshape(-1)
    out_channels = weights.shape[2]
    if len(bn_scale) != out_channels or len(bn_shift) != out_channels:
        raise ValueError(
            f"BN parameters must have {out_channels} channels, got "
            f"{len(bn_scale)}/{len(bn_shift)}"
        )
    folded_weights = weights * bn_scale[None, None, :]
    base_bias = (
        np.zeros(out_channels) if bias is None
        else np.asarray(bias, dtype=np.float64).reshape(-1)
    )
    folded_bias = base_bias * bn_scale + bn_shift
    return folded_weights, folded_bias


def calibrate_scale(
    values: np.ndarray, fmt: FixedPointFormat, headroom: float = 1.0
) -> float:
    """Symmetric max-abs calibration: one LSB = ``max|x| * headroom / max_code``."""
    if headroom <= 0.0:
        raise ValueError(f"headroom must be positive, got {headroom}")
    values = np.asarray(values, dtype=np.float64)
    peak = float(np.max(np.abs(values))) if values.size else 0.0
    if peak == 0.0:
        return 1.0 / fmt.max_value
    return peak * headroom / fmt.max_value


@dataclass
class QuantizedTensor:
    """Integer data plus the real value of one LSB."""

    data: np.ndarray
    scale: float
    fmt: FixedPointFormat

    def dequantized(self) -> np.ndarray:
        return dequantize(self.data, self.scale)

    @property
    def shape(self):
        return self.data.shape


def quantize_tensor(
    values: np.ndarray,
    fmt: FixedPointFormat,
    scale: Optional[float] = None,
) -> QuantizedTensor:
    """Quantize ``values`` with an optionally pre-calibrated scale."""
    if scale is None:
        scale = calibrate_scale(values, fmt)
    return QuantizedTensor(quantize(values, scale, fmt), scale, fmt)


class QuantizedSubConv:
    """Integer-arithmetic submanifold convolution.

    Parameters
    ----------
    weights:
        Real-valued ``(K^3, Cin, Cout)`` (or 5D) weights; quantized to
        ``weight_fmt`` at construction.
    kernel_size:
        Cubic kernel size ``K``.
    weight_scale:
        Optional pre-calibrated weight scale.
    weight_fmt / act_fmt:
        Fixed-point formats; default to the paper's INT8 weights and
        INT16 activations.  The precision ablation sweeps these.
    """

    def __init__(
        self,
        weights: np.ndarray,
        kernel_size: int = 3,
        weight_scale: Optional[float] = None,
        weight_fmt: FixedPointFormat = WEIGHT_INT8,
        act_fmt: FixedPointFormat = ACT_INT16,
    ) -> None:
        weights = normalize_weights(weights, kernel_size)
        self.kernel_size = int(kernel_size)
        self.weight_fmt = weight_fmt
        self.act_fmt = act_fmt
        self.weights_q = quantize_tensor(weights, weight_fmt, scale=weight_scale)
        self.in_channels = int(weights.shape[1])
        self.out_channels = int(weights.shape[2])

    def integer_forward(
        self,
        activations_q: np.ndarray,
        tensor: SparseTensor3D,
        rulebook: Optional[Rulebook] = None,
    ) -> np.ndarray:
        """Pure-integer forward: INT16 x INT8 -> INT32 accumulators.

        ``activations_q`` is the ``(N, Cin)`` INT16 integer feature matrix
        aligned with ``tensor``'s rows.  Returns INT32 accumulators
        (saturation applied once at the end, as the hardware does in its
        output stage).
        """
        if activations_q.shape != (tensor.nnz, self.in_channels):
            raise ValueError(
                f"activations shape {activations_q.shape} != "
                f"({tensor.nnz}, {self.in_channels})"
            )
        if rulebook is None:
            rulebook = build_submanifold_rulebook(tensor, self.kernel_size)
        acc = apply_rulebook(
            rulebook,
            activations_q.astype(np.int64),
            self.weights_q.data.astype(np.int64),
            tensor.nnz,
        )
        return saturate(acc.astype(np.int64), ACC_INT32)

    def forward(
        self,
        tensor: SparseTensor3D,
        act_scale: Optional[float] = None,
        out_scale: Optional[float] = None,
        rulebook: Optional[Rulebook] = None,
    ) -> SparseTensor3D:
        """Quantize -> integer conv -> requantize to INT16 -> dequantize.

        Returns a real-valued tensor whose features passed through the
        full fixed-point pipeline, i.e. what the FPGA would produce.
        """
        acts = quantize_tensor(tensor.features, self.act_fmt, scale=act_scale)
        acc = self.integer_forward(acts.data, tensor, rulebook=rulebook)
        acc_scale = acts.scale * self.weights_q.scale
        real = dequantize(acc, acc_scale)
        if out_scale is None:
            out_scale = calibrate_scale(real, self.act_fmt)
        out_q = quantize(real, out_scale, self.act_fmt)
        return tensor.with_features(dequantize(out_q, out_scale))
