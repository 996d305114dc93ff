"""Layer modules wrapping the functional sparse operators."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn.init import conv_weight
from repro.nn.network import Module, Parameter
from repro.sparse.coo import SparseTensor3D
from repro.sparse.ops import relu as relu_op
from repro.sparse.ops import scale_features


class SubmanifoldConv3d(Module):
    """Submanifold sparse convolution layer (Sub-Conv, kernel ``K^3``).

    The workhorse layer of the SS U-Net and the operation the ESCA
    accelerator executes.  Output sites equal input sites.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        bias: bool = False,
        rng: Optional[np.random.Generator] = None,
        name: str = "subconv",
    ) -> None:
        super().__init__()
        if kernel_size % 2 == 0:
            raise ValueError("submanifold convolution requires odd kernel_size")
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.name = name
        rng = rng or np.random.default_rng(0)
        volume = self.kernel_size ** 3
        self.weight = self.register_parameter(
            "weight",
            Parameter(
                conv_weight(rng, volume, self.in_channels, self.out_channels),
                name=f"{name}.weight",
            ),
        )
        self.bias = (
            self.register_parameter(
                "bias",
                Parameter(np.zeros(self.out_channels), name=f"{name}.bias"),
            )
            if bias
            else None
        )

    def forward(self, tensor: SparseTensor3D, **kwargs) -> SparseTensor3D:
        record = kwargs.get("record")
        if record is not None:
            record.append(("subconv", self, tensor))
        return F.submanifold_conv3d(
            tensor,
            self.weight.value,
            bias=None if self.bias is None else self.bias.value,
            kernel_size=self.kernel_size,
            cache=kwargs.get("cache"),
            stats=kwargs.get("stats"),
        )


class SparseConv3d(Module):
    """Strided sparse convolution (U-Net downsampling)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 2,
        stride: int = 2,
        bias: bool = False,
        rng: Optional[np.random.Generator] = None,
        name: str = "sparseconv",
    ) -> None:
        super().__init__()
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.name = name
        rng = rng or np.random.default_rng(0)
        volume = self.kernel_size ** 3
        self.weight = self.register_parameter(
            "weight",
            Parameter(
                conv_weight(rng, volume, self.in_channels, self.out_channels),
                name=f"{name}.weight",
            ),
        )
        self.bias = (
            self.register_parameter(
                "bias",
                Parameter(np.zeros(self.out_channels), name=f"{name}.bias"),
            )
            if bias
            else None
        )

    def forward(self, tensor: SparseTensor3D, **kwargs) -> SparseTensor3D:
        record = kwargs.get("record")
        if record is not None:
            record.append(("sparseconv", self, tensor))
        return F.sparse_conv3d(
            tensor,
            self.weight.value,
            stride=self.stride,
            bias=None if self.bias is None else self.bias.value,
            kernel_size=self.kernel_size,
            cache=kwargs.get("cache"),
            stats=kwargs.get("stats"),
        )


class SparseInverseConv3d(Module):
    """Transposed strided sparse convolution (U-Net upsampling).

    The reference tensor (whose site set is restored) is passed at call
    time: ``layer(coarse, reference=fine)``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 2,
        stride: int = 2,
        bias: bool = False,
        rng: Optional[np.random.Generator] = None,
        name: str = "invconv",
    ) -> None:
        super().__init__()
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.name = name
        rng = rng or np.random.default_rng(0)
        volume = self.kernel_size ** 3
        self.weight = self.register_parameter(
            "weight",
            Parameter(
                conv_weight(rng, volume, self.in_channels, self.out_channels),
                name=f"{name}.weight",
            ),
        )
        self.bias = (
            self.register_parameter(
                "bias",
                Parameter(np.zeros(self.out_channels), name=f"{name}.bias"),
            )
            if bias
            else None
        )

    def forward(self, tensor: SparseTensor3D, **kwargs) -> SparseTensor3D:
        reference = kwargs.get("reference")
        if reference is None:
            raise ValueError("SparseInverseConv3d requires reference= at call time")
        record = kwargs.get("record")
        if record is not None:
            # The matching work of a transposed conv is driven by the
            # *reference* (fine) site set it restores, so that is what the
            # execution record carries.
            record.append(("invconv", self, reference))
        return F.sparse_inverse_conv3d(
            tensor,
            self.weight.value,
            reference=reference,
            stride=self.stride,
            bias=None if self.bias is None else self.bias.value,
            kernel_size=self.kernel_size,
            cache=kwargs.get("cache"),
            stats=kwargs.get("stats"),
        )


class BatchNormSparse(Module):
    """Inference-mode batch normalization folded to scale + bias."""

    def __init__(
        self,
        channels: int,
        rng: Optional[np.random.Generator] = None,
        name: str = "bn",
    ) -> None:
        super().__init__()
        self.channels = int(channels)
        self.name = name
        rng = rng or np.random.default_rng(0)
        # Inference statistics folded into affine parameters; jittered so
        # that quantization sees realistic non-unit scales.
        self.scale = self.register_parameter(
            "scale",
            Parameter(1.0 + 0.05 * rng.standard_normal(channels), name=f"{name}.scale"),
        )
        self.shift = self.register_parameter(
            "shift",
            Parameter(0.01 * rng.standard_normal(channels), name=f"{name}.shift"),
        )

    def forward(self, tensor: SparseTensor3D, **kwargs) -> SparseTensor3D:
        return scale_features(tensor, self.scale.value, self.shift.value)


class ReLUSparse(Module):
    """Elementwise ReLU (site set unchanged — submanifold property)."""

    def forward(self, tensor: SparseTensor3D, **kwargs) -> SparseTensor3D:
        return relu_op(tensor)
