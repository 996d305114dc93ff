"""Backend comparison benchmark: numpy vs scipy.

Measures the pluggable execution backends on the default streaming
workload (192^3 occupancy grid, Sub-Conv 1->16) at the convolution
level.  Fan-out across worker processes is measured by the cluster
benchmark in ``test_bench_serve.py`` (``results/cluster_speedup.txt``).
Parity is asserted (bit-identical outputs); relative speed is *reported*
— which engine wins is workload- and machine-dependent, and the report
(``results/backend_speedup.txt``) is the artifact CI uploads.
"""

import statistics
import time

import numpy as np

from repro.engine import get_backend
from repro.geometry.synthetic import make_shapenet_like_cloud
from repro.geometry.voxelizer import Voxelizer
from repro.nn import RulebookCache


def conv_workload():
    """The StreamingRunner default: occupancy grid at 192^3, Sub-Conv 1->16."""
    cloud = make_shapenet_like_cloud(seed=0, n_points=60000)
    grid = Voxelizer(resolution=192, normalize=False, occupancy_only=True).voxelize(
        cloud
    )
    weights = np.random.default_rng(0).standard_normal((27, 1, 16))
    rulebook = RulebookCache().submanifold(grid, 3)
    return grid, rulebook, weights


def median_seconds(fn, reps=15, warmup=2):
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_bench_backend_conv_parity_and_speed(write_report):
    grid, rulebook, weights = conv_workload()
    numpy_backend = get_backend("numpy")
    scipy_backend = get_backend("scipy")
    reference = numpy_backend.execute(rulebook, grid.features, weights, grid.nnz)
    scipy_out = scipy_backend.execute(rulebook, grid.features, weights, grid.nnz)
    assert np.array_equal(scipy_out, reference)

    numpy_s = median_seconds(
        lambda: numpy_backend.execute(rulebook, grid.features, weights, grid.nnz)
    )
    scipy_s = median_seconds(
        lambda: scipy_backend.execute(rulebook, grid.features, weights, grid.nnz)
    )

    degraded = " (DEGRADED: scipy absent, numpy fallback)" if getattr(
        scipy_backend, "degraded", False
    ) else ""
    lines = [
        "Execution-backend comparison (bit-identical outputs asserted)",
        "",
        f"Sub-Conv 1->16 @ 192^3, nnz={grid.nnz}, "
        f"matches={rulebook.total_matches}:",
        f"  numpy  fused engine   {numpy_s * 1e3:9.3f} ms/layer",
        f"  scipy  CSR operators  {scipy_s * 1e3:9.3f} ms/layer "
        f"({numpy_s / scipy_s:5.2f}x vs numpy){degraded}",
    ]
    write_report("backend_speedup", "\n".join(lines))
    # Parity is the hard requirement; relative speed is informational.
    assert numpy_s > 0 and scipy_s > 0
