"""Shared fixtures: small deterministic sparse tensors and workloads."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.sparse.coo import SparseTensor3D

# Property tests replay the same examples on every run (no random seed,
# no wall-clock deadline), so a slow or shared host cannot make them flake.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def random_sparse_tensor(
    seed: int = 0,
    shape: tuple = (16, 16, 16),
    nnz: int = 40,
    channels: int = 4,
) -> SparseTensor3D:
    """A reproducible random sparse tensor with unique coordinates."""
    rng = np.random.default_rng(seed)
    volume = shape[0] * shape[1] * shape[2]
    nnz = min(nnz, volume)
    flat = rng.choice(volume, size=nnz, replace=False)
    coords = np.stack(np.unravel_index(flat, shape), axis=1)
    features = rng.standard_normal((nnz, channels))
    return SparseTensor3D(coords, features, shape)


@st.composite
def site_sets(draw):
    """Small grids (1-9 per axis) with random sites, faces and corners."""
    shape = tuple(draw(st.integers(1, 9)) for _ in range(3))
    volume = shape[0] * shape[1] * shape[2]
    flat = draw(
        st.lists(st.integers(0, volume - 1), unique=True, max_size=min(volume, 60))
    )
    coords = [np.stack(np.unravel_index(np.array(flat, dtype=np.int64), shape), axis=1)]
    if draw(st.booleans()):
        coords.append(
            np.array(
                [[x, y, z] for x in (0, shape[0] - 1) for y in (0, shape[1] - 1)
                 for z in (0, shape[2] - 1)],
                dtype=np.int64,
            )
        )
    face = draw(st.sampled_from([None, 0, 1, 2]))
    if face is not None:
        grid = np.stack(
            np.meshgrid(*[np.arange(n) for n in shape], indexing="ij"), axis=-1
        ).reshape(-1, 3)
        side = draw(st.sampled_from([0, shape[face] - 1]))
        coords.append(grid[grid[:, face] == side])
    unique = np.unique(np.concatenate(coords, axis=0).reshape(-1, 3), axis=0)
    return SparseTensor3D(unique, np.ones((len(unique), 1)), shape)


@pytest.fixture
def small_tensor() -> SparseTensor3D:
    return random_sparse_tensor(seed=1, shape=(12, 12, 12), nnz=30, channels=3)


@pytest.fixture
def single_channel_tensor() -> SparseTensor3D:
    return random_sparse_tensor(seed=2, shape=(10, 10, 10), nnz=25, channels=1)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
