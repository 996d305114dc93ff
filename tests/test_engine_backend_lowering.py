"""Canonical CSR lowering: one code path for cold prepare and splice.

PR satellite: :meth:`ScipySparseBackend.prepare` now lowers its
operators through the same ``_lower_operators`` routine the delta
splice of :meth:`ScipySparseBackend.refresh` uses (CSC -> sorted CSR
through scipy's ``tocsr``), so a cold-prepared plan and a spliced plan for
the same rulebook are array-for-array identical — indptr, indices, and
data, dtypes included — not merely numerically equivalent.
"""

import numpy as np
import pytest

from repro.engine.backend import ScipySparseBackend
from tests.test_engine_backend import _assert_csr_plans_identical, _patched_pair


def _scipy_backend():
    backend = ScipySparseBackend()
    if backend.degraded:
        pytest.skip("scipy not installed")
    return backend


def test_cold_prepare_matches_coo_lowering():
    """The canonical lowering reproduces the COO fallback's operators."""
    backend = _scipy_backend()
    _, _, patched = _patched_pair()
    plan_gs = patched.plan()
    canonical = backend._lower_operators(
        plan_gs, patched.num_inputs, patched.num_outputs
    )
    fallback = backend._lower_operators_coo(
        plan_gs, patched.num_inputs, patched.num_outputs
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


def test_cold_prepared_and_spliced_plans_identical():
    """Satellite acceptance: cold prepare == delta splice, array for array."""
    warm = _scipy_backend()
    cold = ScipySparseBackend()
    delta, old_rulebook, patched = _patched_pair()
    warm.plan_for(old_rulebook)  # warm the old plan so refresh can splice
    warm.refresh(old_rulebook, patched, delta)
    assert warm.plans_spliced == 1
    spliced = warm.plan_for(patched)
    prepared = cold.prepare(patched)
    _assert_csr_plans_identical(spliced, prepared)

