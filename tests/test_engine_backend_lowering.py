"""Canonical CSR lowering: the operators a cold prepare builds.

:meth:`ScipySparseBackend.prepare` lowers its operators through
``_lower_operators`` (CSC -> sorted CSR through scipy's ``tocsr``); the
result must equal the COO-constructed fallback array for array —
indptr, indices and data, dtypes included.
"""

import numpy as np
import pytest

from repro.engine.backend import ScipySparseBackend
from repro.nn import build_submanifold_rulebook
from tests.conftest import random_sparse_tensor


def _scipy_backend():
    backend = ScipySparseBackend()
    if backend.degraded:
        pytest.skip("scipy not installed")
    return backend


def test_cold_prepare_matches_coo_lowering():
    """The canonical lowering reproduces the COO fallback's operators."""
    backend = _scipy_backend()
    rulebook = build_submanifold_rulebook(
        random_sparse_tensor(seed=80, shape=(18, 18, 18), nnz=150), 3
    )
    plan_gs = rulebook.plan()
    canonical = backend._lower_operators(
        plan_gs, rulebook.num_inputs, rulebook.num_outputs
    )
    fallback = backend._lower_operators_coo(
        plan_gs, rulebook.num_inputs, rulebook.num_outputs
    )
    assert canonical is not None
    for mine, theirs in zip(canonical, fallback):
        assert mine.shape == theirs.shape
        assert np.array_equal(
            np.asarray(mine.indptr), np.asarray(theirs.indptr)
        )
        assert np.array_equal(
            np.asarray(mine.indices), np.asarray(theirs.indices)
        )
        assert np.array_equal(mine.data, theirs.data)
