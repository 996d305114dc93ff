"""Reference implementation of submanifold sparse convolutional networks.

This package is the *golden model* for the accelerator: a functional,
NumPy-based implementation of the submanifold sparse convolution
(Sub-Conv) of Graham et al. [12], strided sparse convolution and its
transpose (used by the U-Net encoder/decoder), plus the 3D submanifold
sparse U-Net (SS U-Net) benchmarked by the paper.

The *matching operation* the paper accelerates corresponds to
:func:`repro.nn.rulebook.build_submanifold_rulebook` here: for every
nonzero activation, find the nonzero neighbors under each kernel offset.
"""

from repro.nn.rulebook import (
    GatherScatterPlan,
    Rulebook,
    RulebookCache,
    build_sparse_conv_rulebook,
    build_submanifold_rulebook,
    kernel_offsets,
)
from repro.nn.functional import (
    ApplyStats,
    apply_rulebook,
    apply_rulebook_reference,
    dense_conv3d_reference,
    global_avg_pool,
    global_max_pool,
    sparse_conv3d,
    sparse_inverse_conv3d,
    submanifold_conv3d,
)
from repro.nn.classifier import ClassifierConfig, SSCNClassifier
from repro.nn.layers import (
    BatchNormSparse,
    ReLUSparse,
    SparseConv3d,
    SparseInverseConv3d,
    SubmanifoldConv3d,
)
from repro.nn.network import Module, Parameter, Sequential
from repro.nn.point_layers import (
    PointNetClassifier,
    PointNetConfig,
    SetAbstraction,
)
from repro.nn.unet import (
    LayerExecution,
    SSUNet,
    UNetConfig,
    collect_all_executions,
    collect_subconv_workloads,
)

__all__ = [
    "Rulebook",
    "RulebookCache",
    "GatherScatterPlan",
    "ApplyStats",
    "apply_rulebook",
    "apply_rulebook_reference",
    "kernel_offsets",
    "build_submanifold_rulebook",
    "build_sparse_conv_rulebook",
    "submanifold_conv3d",
    "sparse_conv3d",
    "sparse_inverse_conv3d",
    "dense_conv3d_reference",
    "global_max_pool",
    "global_avg_pool",
    "ClassifierConfig",
    "SSCNClassifier",
    "Module",
    "Parameter",
    "Sequential",
    "SubmanifoldConv3d",
    "SparseConv3d",
    "SparseInverseConv3d",
    "BatchNormSparse",
    "ReLUSparse",
    "PointNetConfig",
    "PointNetClassifier",
    "SetAbstraction",
    "SSUNet",
    "UNetConfig",
    "LayerExecution",
    "collect_all_executions",
    "collect_subconv_workloads",
]
