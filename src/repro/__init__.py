"""ESCA: reproduction of "An Efficient FPGA Accelerator for Point Cloud".

This package is a from-scratch, repository-scale reproduction of the SOCC
2022 paper by Wang et al.  It contains:

* ``repro.sparse`` — a COO sparse 3D tensor library for voxelized point
  clouds.
* ``repro.geometry`` — point clouds, voxelization, and synthetic
  ShapeNet-like / NYU-like dataset generators.
* ``repro.nn`` — a functional reference implementation of submanifold
  sparse convolution (Sub-Conv), strided sparse convolution and
  deconvolution, and the 3D submanifold sparse U-Net (SS U-Net).
* ``repro.quant`` — INT8/INT16 fixed-point quantization, as used by the
  paper's FPGA implementation.
* ``repro.arch`` — the paper's contribution: the tile-based zero removing
  strategy, the index-mask/valid-data encoding scheme, the sparse data
  matching unit (SDMU), the computing core (CC), and a cycle-accurate
  simulator of the full ESCA accelerator.
* ``repro.hwmodel`` — FPGA device catalogs and analytical resource/power
  models (Table II).
* ``repro.baselines`` — GPU / CPU / dense-accelerator execution models
  used for the comparisons in Table III and Fig. 10.
* ``repro.analysis`` — metrics, report formatting, and one experiment
  function per table/figure of the paper's evaluation.
* ``repro.engine`` — the unified :class:`InferenceSession` front door:
  one object owning the rulebook cache, cross-scale plan cache,
  accelerator/host configuration, and quantization settings, with
  single-frame, batched, and estimate execution surfaces; pluggable
  execution backends underneath, and a delta-splicing neighbor-table
  cache (``repro.engine.mapping_delta``) for nearly-static point
  streams.

Quickstart::

    from repro import (
        make_shapenet_like_cloud, Voxelizer, EscaAccelerator,
        AcceleratorConfig,
    )

    cloud = make_shapenet_like_cloud(seed=0)
    grid = Voxelizer(resolution=192, normalize=False).voxelize(cloud)
    accel = EscaAccelerator(AcceleratorConfig())
    result = accel.run_layer(grid, out_channels=16)
    print(result.total_cycles, result.effective_gops())
"""

from repro.version import __version__
from repro.sparse import SparseTensor3D
from repro.geometry import (
    PointCloud,
    Voxelizer,
    make_nyu_like_cloud,
    make_shapenet_like_cloud,
)
from repro.nn import SSUNet, SubmanifoldConv3d, UNetConfig, submanifold_conv3d
from repro.arch import (
    AcceleratorConfig,
    AnalyticalModel,
    EscaAccelerator,
    TileGrid,
    ZeroRemover,
)
from repro.analysis import (
    run_fig10,
    run_table1,
    run_table2,
    run_table3,
)
from repro.engine import (
    ExecutionBackend,
    InferenceSession,
    PlanCache,
    QuantizationSpec,
    available_backends,
    coordinate_delta,
    get_backend,
    register_backend,
)

__all__ = [
    "__version__",
    "SparseTensor3D",
    "PointCloud",
    "Voxelizer",
    "make_shapenet_like_cloud",
    "make_nyu_like_cloud",
    "SSUNet",
    "UNetConfig",
    "SubmanifoldConv3d",
    "submanifold_conv3d",
    "AcceleratorConfig",
    "AnalyticalModel",
    "EscaAccelerator",
    "TileGrid",
    "ZeroRemover",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_fig10",
    "InferenceSession",
    "PlanCache",
    "QuantizationSpec",
    "ExecutionBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "coordinate_delta",
]
