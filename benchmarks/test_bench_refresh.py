"""Refresh benchmark: canonical CSC -> CSR lowering vs the COO path.

When the delta engine patches a rulebook, a scipy-backed session must
refresh the prepared CSR operators.  ``ScipySparseBackend`` lowers the
patcher's pre-seeded splice arrays through one canonical path
(``_lower_operators``): gather assembled directly from the offset-major
rows, scatter through its trivial CSC form converted to sorted CSR in
one pass.  Since cold ``prepare`` adopted the same lowering, the legacy
COO assembly (COO matrix, CSR conversion, per-row index sort) survives
only as the beyond-int32 fallback (``_lower_operators_coo``) — and this
benchmark guards the reason: on identical splice arrays the canonical
lowering must stay at least 1.5x cheaper than the COO path
(typical: 1.9-2.3x depending on machine load).

The benchmark streams the same drifting scene as the delta benchmark
(~11k voxels at 192^3, a few percent voxel churn per frame), patches the
kernel-3 submanifold rulebook along the chain, and times both lowerings
on every refresh event.  Bit-identity of the spliced plans against cold
prepares is asserted, the spliced ``refresh`` is asserted to be no
slower than eager re-lowering (it skips nothing the eager path needs,
so it can only win on plan reuse), and the lowering comparison is
recorded in ``results/refresh_speedup.txt``.
"""

import time

import numpy as np
import pytest

from repro.engine import ScipySparseBackend, coordinate_delta
from repro.engine.delta import patch_submanifold_rulebook
from repro.nn import build_submanifold_rulebook

from benchmarks.test_bench_delta import KERNEL, RESOLUTION, drifting_tensors


def patched_chain(tensors):
    """Consecutive (old rulebook, patched rulebook, delta) of the drift."""
    previous = tensors[0]
    previous_rulebook = build_submanifold_rulebook(previous, KERNEL)
    pairs = []
    for tensor in tensors[1:]:
        delta = coordinate_delta(previous.coords, tensor.coords)
        patched = patch_submanifold_rulebook(
            previous_rulebook, delta, tensor.shape
        )
        pairs.append((previous_rulebook, patched, delta))
        previous, previous_rulebook = tensor, patched
    return pairs


def lowering_seconds(pairs, reps=5):
    """Best total lowering time per strategy over the refresh events.

    Every patched rulebook carries the pre-seeded splice plan, so both
    strategies lower the exact same flat arrays.  Strategies are
    interleaved within each rep so machine noise hits both alike, and
    the per-strategy minimum is reported.
    """
    backend = ScipySparseBackend()
    events = [
        (rb._plan, rb.num_inputs, rb.num_outputs) for _, rb, _ in pairs
    ]
    backend._splice_buffers(max(p.total_matches for p, _, _ in events))
    best_canonical = best_coo = float("inf")
    for _ in range(reps):
        canonical = coo = 0.0
        for plan_gs, num_inputs, num_outputs in events:
            start = time.perf_counter()
            assert backend._lower_operators(
                plan_gs, num_inputs, num_outputs
            ) is not None
            canonical += time.perf_counter() - start
            start = time.perf_counter()
            backend._lower_operators_coo(plan_gs, num_inputs, num_outputs)
            coo += time.perf_counter() - start
        best_canonical = min(best_canonical, canonical)
        best_coo = min(best_coo, coo)
    return best_canonical, best_coo


def refresh_seconds(tensors, reps=5):
    """Best total refresh time: spliced refresh vs eager re-lowering.

    Each rep rebuilds both chains with fresh rulebook objects (so no
    memoized plan leaks between strategies), prepares the frame-0 plan
    untimed on both backends (a warm stream starts with a prepared
    plan), and times every subsequent refresh event.
    """
    best_eager = best_spliced = float("inf")
    for _ in range(reps):
        eager_pairs = patched_chain(tensors)
        spliced_pairs = patched_chain(tensors)
        eager_backend = ScipySparseBackend()
        spliced_backend = ScipySparseBackend()
        eager_backend.plan_for(eager_pairs[0][0])
        spliced_backend.plan_for(spliced_pairs[0][0])
        # Steady-state: the splice scratch amortizes across the stream.
        spliced_backend._splice_buffers(eager_pairs[0][0].total_matches * 2)
        eager = spliced = 0.0
        for (_, eager_new, _), (spliced_old, spliced_new, delta) in zip(
            eager_pairs, spliced_pairs
        ):
            start = time.perf_counter()
            # Eager re-lowering: what the base-class refresh does.
            eager_backend.plan_for(eager_new)
            eager += time.perf_counter() - start
            start = time.perf_counter()
            spliced_backend.refresh(spliced_old, spliced_new, delta)
            spliced += time.perf_counter() - start
        assert spliced_backend.plans_spliced == len(spliced_pairs)
        best_eager = min(best_eager, eager)
        best_spliced = min(best_spliced, spliced)
    return best_eager, best_spliced


def test_bench_refresh_splice_vs_relower(write_report):
    if ScipySparseBackend().degraded:
        pytest.skip("scipy not installed")
    tensors = drifting_tensors()
    ratios = [
        coordinate_delta(a.coords, b.coords).ratio
        for a, b in zip(tensors, tensors[1:])
    ]
    assert max(ratios) <= 0.05, f"scene churn drifted out of regime: {ratios}"

    # Bit-identity: every spliced plan equals a cold prepare of the
    # patched rulebook, operator arrays included.
    backend = ScipySparseBackend()
    pairs = patched_chain(tensors)
    backend.plan_for(pairs[0][0])
    for old_rulebook, patched, delta in pairs:
        backend.refresh(old_rulebook, patched, delta)
        spliced = backend.plan_for(patched)
        cold = ScipySparseBackend().prepare(patched)
        for name in ("gather", "scatter"):
            mine = getattr(spliced, name)
            theirs = getattr(cold, name)
            assert np.array_equal(
                np.asarray(mine.indices), np.asarray(theirs.indices)
            )
            assert np.array_equal(
                np.asarray(mine.indptr), np.asarray(theirs.indptr)
            )
            assert np.array_equal(mine.data, theirs.data)
    assert backend.plans_spliced == len(pairs)

    canonical_seconds, coo_seconds = lowering_seconds(pairs)
    lowering_speedup = coo_seconds / canonical_seconds
    eager_seconds, spliced_seconds = refresh_seconds(tensors)
    refresh_ratio = eager_seconds / spliced_seconds
    events = len(tensors) - 1
    total = pairs[0][1].total_matches

    lines = [
        "ScipySparseBackend plan lowering: canonical CSC->CSR vs the",
        "legacy COO path, on a drifting warm stream (bit-identical",
        "plans asserted; cold prepare and spliced refresh share the",
        "canonical lowering)",
        "",
        f"scene: {RESOLUTION}^3 grid, nnz per frame "
        f"{min(t.nnz for t in tensors)}-{max(t.nnz for t in tensors)}, "
        f"~{total} matches per kernel-{KERNEL} rulebook, "
        f"{events} refresh events",
        f"per-frame voxel churn: {min(ratios):.2%}-{max(ratios):.2%} "
        "(acceptance regime: <= 5%)",
        "",
        f"  COO lowering (COO assembly + index sort)     "
        f"{coo_seconds * 1e3 / events:9.3f} ms/refresh",
        f"  canonical lowering (direct CSR + csc->csr)   "
        f"{canonical_seconds * 1e3 / events:9.3f} ms/refresh",
        f"  speedup: {lowering_speedup:.2f}x (acceptance: >= 1.5x)",
        "",
        f"  eager re-lowering (plan_for, patched rulebook) "
        f"{eager_seconds * 1e3 / events:9.3f} ms/refresh",
        f"  spliced refresh   (pre-seeded splice arrays)   "
        f"{spliced_seconds * 1e3 / events:9.3f} ms/refresh",
        f"  ratio: {refresh_ratio:.2f}x (splice skips plan re-derivation; "
        "both share the canonical lowering)",
    ]
    write_report("refresh_speedup", "\n".join(lines))
    assert lowering_speedup >= 1.5, (
        f"canonical lowering speedup {lowering_speedup:.2f}x below 1.5x"
    )
    # The spliced refresh does strictly less work than eager
    # re-lowering (plan reuse + shared scratch); allow noise headroom.
    assert refresh_ratio >= 0.9, (
        f"spliced refresh slower than eager re-lowering: {refresh_ratio:.2f}x"
    )
