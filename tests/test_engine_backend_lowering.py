"""Canonical CSR lowering: the operators the scipy backend builds.

:meth:`ScipySparseBackend.operators` lowers a rulebook straight into the
session dtype (gather directly, scatter as CSC -> sorted CSR through
scipy's ``tocsr``); the result must equal a COO-constructed oracle array
for array — indptr, indices and data, dtypes included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.backend import ScipySparseBackend
from repro.nn import build_submanifold_rulebook
from repro.nn.rulebook import Rulebook, build_sparse_conv_rulebook, kernel_offsets
from tests.conftest import random_sparse_tensor, site_sets


def _scipy_backend():
    backend = ScipySparseBackend()
    if backend.degraded:
        pytest.skip("scipy not installed")
    return backend


def coo_operators(rulebook, dtype=np.float64):
    """The COO-constructed ``(gather, scatter)`` oracle of one rulebook."""
    from scipy import sparse

    plan = rulebook.plan()
    total = plan.total_matches
    ones = np.ones(total, dtype=dtype)
    gather = sparse.csr_matrix(
        (ones, plan.in_rows, np.arange(total + 1)),
        shape=(total, max(rulebook.num_inputs, 1)),
    )
    out_rows = np.concatenate(
        [plan.out_rows[k] for k in plan.active_offsets]
        or [np.zeros(0, dtype=np.int64)]
    )
    scatter = sparse.csr_matrix(
        (ones, (out_rows, np.arange(total))),
        shape=(max(rulebook.num_outputs, 1), total),
    )
    scatter.sort_indices()  # offset-major accumulation order
    return gather, scatter


def assert_same_operators(canonical, oracle):
    for mine, theirs in zip(canonical, oracle):
        assert mine.shape == theirs.shape
        assert np.array_equal(
            np.asarray(mine.indptr), np.asarray(theirs.indptr)
        )
        assert np.array_equal(
            np.asarray(mine.indices), np.asarray(theirs.indices)
        )
        assert np.array_equal(mine.data, theirs.data)


def test_cold_lowering_matches_coo_oracle():
    """The canonical lowering reproduces the COO oracle's operators."""
    backend = _scipy_backend()
    rulebook = build_submanifold_rulebook(
        random_sparse_tensor(seed=80, shape=(18, 18, 18), nnz=150), 3
    )
    canonical = backend.operators(rulebook, np.float64)
    assert canonical is not None
    assert_same_operators(canonical, coo_operators(rulebook))


@st.composite
def rulebooks(draw):
    """Submanifold K in {1, 3}, strided, and transposed strided rulebooks."""
    tensor = draw(site_sets())
    kind = draw(st.sampled_from(["sub1", "sub3", "strided", "transposed"]))
    if kind.startswith("sub"):
        return build_submanifold_rulebook(tensor, int(kind[-1]))
    kernel_size, stride = draw(st.sampled_from([(2, 2), (3, 2), (3, 1)]))
    rulebook, _ = build_sparse_conv_rulebook(tensor, kernel_size, stride)
    return rulebook.transposed() if kind == "transposed" else rulebook


@given(rulebooks())
@settings(max_examples=80, deadline=None)
def test_property_operators_match_coo_oracle_and_memoize(rulebook):
    backend = _scipy_backend()
    for dtype in (np.float64, np.float32):
        pair = backend.operators(rulebook, dtype)
        oracle = coo_operators(rulebook, dtype)
        assert_same_operators(pair, oracle)
        for mine, theirs in zip(pair, oracle):
            assert mine.format == "csr"
            assert mine.data.dtype == theirs.data.dtype == dtype
            assert mine.indptr.dtype == mine.indices.dtype == np.int32
        again = backend.operators(rulebook, dtype)
        assert again[0] is pair[0] and again[1] is pair[1]


def test_past_int32_reach_raises_before_lowering():
    """2^31 matches cannot be addressed by int32 CSR indices."""
    backend = _scipy_backend()
    pairs = np.zeros((2, 1), dtype=np.int64)
    rulebook = Rulebook.from_flat(
        kernel_size=1,
        offsets=kernel_offsets(1),
        pairs=pairs,
        segment_starts=np.array([0, 1 << 31], dtype=np.int64),
        num_inputs=1,
        num_outputs=1,
    )
    assert rulebook.plan().total_matches == 1 << 31
    with pytest.raises(ValueError, match='backend="numpy"'):
        backend.execute(rulebook, np.ones((1, 1)), np.ones((1, 1, 1)), 1)
    assert rulebook._csr == {}
