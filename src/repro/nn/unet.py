"""The 3D submanifold sparse U-Net (SS U-Net) of Graham et al. [12].

This is the benchmark network of the paper (Sec. IV-A): an encoder/decoder
U-Net whose intra-level convolutions are all submanifold (kernel ``3^3``),
with strided sparse convolutions for downsampling, transposed sparse
convolutions for upsampling, and skip concatenations.

Besides the forward pass, the module exposes
:func:`collect_subconv_workloads`, which records every Sub-Conv execution
(site set, channel widths) so the accelerator benchmarks can replay the
exact per-layer workloads of the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.nn.layers import (
    BatchNormSparse,
    ReLUSparse,
    SparseConv3d,
    SparseInverseConv3d,
    SubmanifoldConv3d,
)
from repro.nn.network import Module, Sequential
from repro.nn.rulebook import RulebookCache
from repro.sparse.coo import SparseTensor3D
from repro.sparse.ops import concat_features


@dataclass(frozen=True)
class UNetConfig:
    """Architecture hyperparameters of the SS U-Net.

    Defaults follow the SparseConvNet semantic-segmentation configuration
    scaled for the paper's single-FPGA deployment: channel widths grow
    linearly per level (``base_channels * level``), one Sub-Conv block
    repetition per level.
    """

    in_channels: int = 1
    num_classes: int = 16
    base_channels: int = 16
    levels: int = 4
    reps: int = 1
    kernel_size: int = 3
    seed: int = 0

    def channel_plan(self) -> Tuple[int, ...]:
        """Channel width per level, e.g. ``(16, 32, 48, 64)``."""
        return tuple(self.base_channels * (i + 1) for i in range(self.levels))


@dataclass
class LayerExecution:
    """One recorded convolution execution during a forward pass.

    ``kind`` is ``"subconv"`` (submanifold), ``"sparseconv"`` (strided
    downsampling) or ``"invconv"`` (transposed upsampling).
    """

    name: str
    input_tensor: SparseTensor3D
    in_channels: int
    out_channels: int
    kernel_size: int
    kind: str = "subconv"
    stride: int = 1

    @property
    def nnz(self) -> int:
        return self.input_tensor.nnz


def _conv_block(
    in_channels: int,
    out_channels: int,
    reps: int,
    kernel_size: int,
    rng: np.random.Generator,
    name: str,
) -> Sequential:
    """``reps`` repetitions of Sub-Conv -> BN -> ReLU."""
    block = Sequential()
    channels = in_channels
    for rep in range(reps):
        block.append(
            SubmanifoldConv3d(
                channels,
                out_channels,
                kernel_size=kernel_size,
                rng=rng,
                name=f"{name}.conv{rep}",
            )
        )
        block.append(BatchNormSparse(out_channels, rng=rng, name=f"{name}.bn{rep}"))
        block.append(ReLUSparse())
        channels = out_channels
    return block


class SSUNet(Module):
    """Submanifold sparse U-Net for point-cloud semantic segmentation.

    The layer order is written once, in :meth:`walk`; the forward pass,
    the session's batched executor and its analytical estimate are all
    that one walk with a different per-layer executor.  Pass ``cache=``
    to a forward call to share one matching pass across every
    convolution operating on the same site set.  The preferred front
    door is :class:`repro.engine.session.InferenceSession`, which owns
    the cache (plus cross-scale plans, batching, and estimation) on the
    network's behalf.
    """

    def __init__(self, config: Optional[UNetConfig] = None) -> None:
        super().__init__()
        self.config = config or UNetConfig()
        cfg = self.config
        if cfg.levels < 2:
            raise ValueError(f"SS U-Net needs at least 2 levels, got {cfg.levels}")
        rng = np.random.default_rng(cfg.seed)
        plan = cfg.channel_plan()

        self.encoders: List[Sequential] = []
        self.downs: List[SparseConv3d] = []
        self.ups: List[SparseInverseConv3d] = []
        self.decoders: List[Sequential] = []

        in_ch = cfg.in_channels
        for level in range(cfg.levels - 1):
            encoder = _conv_block(
                in_ch, plan[level], cfg.reps, cfg.kernel_size, rng, f"enc{level}"
            )
            self.encoders.append(self.register_child(f"enc{level}", encoder))
            down = SparseConv3d(
                plan[level], plan[level + 1], rng=rng, name=f"down{level}"
            )
            self.downs.append(self.register_child(f"down{level}", down))
            in_ch = plan[level + 1]

        self.bottom = self.register_child(
            "bottom",
            _conv_block(
                plan[-1], plan[-1], cfg.reps, cfg.kernel_size, rng, "bottom"
            ),
        )

        for level in reversed(range(cfg.levels - 1)):
            up = SparseInverseConv3d(
                plan[level + 1], plan[level], rng=rng, name=f"up{level}"
            )
            self.ups.insert(0, self.register_child(f"up{level}", up))
            decoder = _conv_block(
                2 * plan[level], plan[level], cfg.reps, cfg.kernel_size, rng,
                f"dec{level}",
            )
            self.decoders.insert(0, self.register_child(f"dec{level}", decoder))

        # Per-site linear classifier, expressed as a 1^3 Sub-Conv.
        self.head = self.register_child(
            "head",
            SubmanifoldConv3d(
                plan[0], cfg.num_classes, kernel_size=1, rng=rng, name="head"
            ),
        )

    def forward(self, tensor: SparseTensor3D, **kwargs) -> SparseTensor3D:
        """Forward pass: :meth:`walk` with each layer's own forward.

        Pass ``record=[]`` to capture convolution executions, ``cache=``
        to use a rulebook cache for this call, and ``stats=`` (an
        :class:`repro.nn.functional.ApplyStats`) to accumulate the fused
        engine's gather/GEMM/scatter timings.
        """
        return self.walk(tensor, _ModuleOps(kwargs))

    def walk(self, x, ops):
        """Run the U-Net layer order once over ``x`` with executor ``ops``.

        ``x`` is whatever ``ops`` carries from layer to layer: a tensor,
        a feature array, an estimate being filled in.  The order is the
        encoder blocks and strided down convs, the bottom block, then per
        level the transposed up conv, the skip concat and the decoder
        block, and finally the ``1^3`` head.  ``ops`` provides
        ``subconv``/``batchnorm``/``relu``/``down(layer, x, level)``,
        ``up(layer, x, skip, level)`` and ``concat(skip, x)``; ``level``
        is the scale the layer reads (0 = full resolution), and an up
        conv's level is the fine scale it restores.
        """
        levels = self.config.levels
        skips = []
        for level in range(levels - 1):
            x = _walk_block(self.encoders[level], x, level, ops)
            skips.append(x)
            x = ops.down(self.downs[level], x, level)
        x = _walk_block(self.bottom, x, levels - 1, ops)
        for level in reversed(range(levels - 1)):
            x = ops.up(self.ups[level], x, skips[level], level)
            x = ops.concat(skips[level], x)
            x = _walk_block(self.decoders[level], x, level, ops)
        return ops.subconv(self.head, x, 0)


def _walk_block(block: Sequential, x, level: int, ops):
    """One Sub-Conv -> BN -> ReLU block of :meth:`SSUNet.walk`."""
    for layer in block:
        if isinstance(layer, SubmanifoldConv3d):
            x = ops.subconv(layer, x, level)
        elif isinstance(layer, BatchNormSparse):
            x = ops.batchnorm(layer, x, level)
        elif isinstance(layer, ReLUSparse):
            x = ops.relu(layer, x, level)
        else:
            raise TypeError(f"unsupported layer {type(layer).__name__} in a block")
    return x


class _ModuleOps:
    """Walk ops of :meth:`SSUNet.forward`: each layer's own forward.

    The call's kwargs (``record=``, ``cache=``, ``stats=``) reach every
    layer unchanged.
    """

    def __init__(self, kwargs) -> None:
        self.kwargs = kwargs

    def subconv(self, layer, tensor, level):
        return layer(tensor, **self.kwargs)

    batchnorm = relu = down = subconv

    def up(self, layer, tensor, skip, level):
        return layer(tensor, reference=skip, **self.kwargs)

    def concat(self, skip, tensor):
        return concat_features(skip, tensor)


def collect_all_executions(
    net: SSUNet, tensor: SparseTensor3D, cache: Optional[RulebookCache] = None
) -> List[LayerExecution]:
    """Run ``net`` on ``tensor`` recording *every* convolution execution.

    Includes the strided downsampling and transposed upsampling layers,
    which the paper's accelerator leaves to the host side; the
    end-to-end system model (:mod:`repro.arch.host`) consumes these.
    Pass a session-owned ``cache`` so the recording forward reuses the
    session's rulebooks instead of rebuilding them.
    """
    raw: list = []
    net(tensor, record=raw, cache=cache)
    executions: List[LayerExecution] = []
    for kind, layer, input_tensor in raw:
        executions.append(
            LayerExecution(
                name=layer.name,
                input_tensor=input_tensor,
                in_channels=layer.in_channels,
                out_channels=layer.out_channels,
                kernel_size=layer.kernel_size,
                kind=kind,
                stride=getattr(layer, "stride", 1),
            )
        )
    return executions


def collect_subconv_workloads(
    net: SSUNet, tensor: SparseTensor3D
) -> List[LayerExecution]:
    """Run ``net`` on ``tensor`` recording every Sub-Conv execution.

    The returned workloads drive the accelerator and baseline models in
    the Table III / Fig. 10 experiments, ensuring all platforms execute
    the identical effective workload.
    """
    return [
        execution
        for execution in collect_all_executions(net, tensor)
        if execution.kind == "subconv"
    ]
