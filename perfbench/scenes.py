"""Benchmark inputs, made from the seed.

The seed changes only the sampling (surface samples, sensor noise,
churn draws, feature values, arrival times).  The category, point
count, pose and grid are pinned, so every seed serves a chair of about
the same voxel count and per-frame work does not depend on which object
or placement a seed happens to pick.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.geometry.point_cloud import PointCloud
from repro.geometry.synthetic import make_shapenet_like_cloud
from repro.geometry.voxelizer import Voxelizer
from repro.runtime import RotatingSceneSource
from repro.sparse.coo import SparseTensor3D

CATEGORY = "chair"
N_POINTS = 3800
STREAM_RESOLUTION = 192
SERVE_RESOLUTION = 96
#: Share of the base points re-drawn in each drift frame; gives about
#: 1-2% voxel churn between consecutive frames.
DRIFT_CHURN = 0.004
DRIFT_SIGMA = 0.01
SERVE_SITE_SETS = 6
SERVE_VARIANTS = 4


def chair(seed: int) -> PointCloud:
    """The pinned chair, its bounding box centred in the scene.

    ``make_shapenet_like_cloud`` also draws the object's placement block
    from the seed; centring it keeps the pose, and so the rotation
    orbit, the same for every seed.  The shift is a whole number of
    coarse voxels, which keeps the object's alignment to both grids.
    """
    points = make_shapenet_like_cloud(
        seed=seed, category=CATEGORY, n_points=N_POINTS
    ).points
    centre = (points.min(axis=0) + points.max(axis=0)) / 2.0
    shift = np.round((0.5 - centre) * SERVE_RESOLUTION) / SERVE_RESOLUTION
    return PointCloud(points + shift)


def _voxelize(clouds, resolution: int) -> List[SparseTensor3D]:
    voxelizer = Voxelizer(resolution=resolution, normalize=False, occupancy_only=True)
    return [voxelizer.voxelize(cloud) for cloud in clouds]


def rotating_frames(seed: int, count: int) -> List[SparseTensor3D]:
    """A chair rotating about z: every frame is a new site set."""
    source = RotatingSceneSource(base_cloud=chair(seed), num_frames=count, seed=seed)
    return _voxelize(source, STREAM_RESOLUTION)


def drift_frames(seed: int, count: int) -> List[SparseTensor3D]:
    """A stationary drifting chair: each frame is fresh churn on one base.

    Unlike :class:`repro.runtime.DriftingSceneSource`, whose drift is
    cumulative (its voxel count grows with the frame index), every frame
    here re-draws ``DRIFT_CHURN`` of the *base* points, so the voxel
    count, and with it per-frame work, does not depend on run length.
    """
    base = chair(seed).points
    moved = max(1, round(DRIFT_CHURN * len(base)))
    clouds = []
    for frame_id in range(count):
        rng = np.random.default_rng([seed, frame_id])
        points = base.copy()
        victims = rng.choice(len(base), size=moved, replace=False)
        donors = rng.choice(len(base), size=moved, replace=False)
        points[victims] = base[donors] + rng.normal(scale=DRIFT_SIGMA, size=(moved, 3))
        np.clip(points, 0.0, 1.0 - 1e-9, out=points)
        clouds.append(PointCloud(points))
    return _voxelize(clouds, STREAM_RESOLUTION)


def serve_pool(seed: int) -> List[SparseTensor3D]:
    """``SERVE_SITE_SETS`` chair poses x ``SERVE_VARIANTS`` feature draws."""
    source = RotatingSceneSource(
        base_cloud=chair(seed),
        num_frames=SERVE_SITE_SETS,
        step_rad=2.0 * math.pi / SERVE_SITE_SETS,
        seed=seed,
    )
    rng = np.random.default_rng([seed, SERVE_SITE_SETS])
    return [
        sites.with_features(rng.standard_normal((sites.nnz, 1)))
        for sites in _voxelize(source, SERVE_RESOLUTION)
        for _ in range(SERVE_VARIANTS)
    ]
