"""Pluggable execution backends — the compute seam under the session.

PointAcc and HLS4PC both describe point-cloud acceleration as one
mapping layer (the matching / rulebook machinery) with swappable compute
engines underneath.  This module gives the reproduction the same shape
in software: everything above the seam (sessions, plans, rulebook
caches, the serving queue) is backend-agnostic, and the actual
gather-GEMM-scatter arithmetic is an :class:`ExecutionBackend` resolved
by name through a string-keyed registry.

Two backends ship with the repository:

``numpy`` — :class:`NumpyFusedBackend`
    The default: the fused vectorized engine of
    :func:`repro.nn.functional.apply_rulebook`.  This is the reference
    arithmetic every other backend must match bit for bit.

``scipy`` — :class:`ScipySparseBackend`
    Lowers a rulebook's gather and scatter stages into CSR matrices
    memoized on the rulebook (one selection matrix over the input rows,
    one accumulation matrix over the match rows) multiplied against the
    feature block.  Degrades gracefully to the numpy engine when scipy
    is absent.

Fanning :meth:`repro.engine.session.InferenceSession.run_batch` digest
groups out to warm worker sessions is the job of the TCP cluster tier:
:class:`repro.runtime.cluster.RemoteShardBackend` registers as
``remote`` on ``import repro.runtime`` and speaks the
:meth:`ExecutionBackend.run_groups` / :class:`GroupTask` /
:class:`ShardSpecStore` contract defined here.

Backends compute one frame at a time: :meth:`ExecutionBackend.execute`
takes one frame's ``(N, Cin)`` features in a float dtype.  A
``run_batch`` digest group shares its rulebooks, and each of its frames
is executed alone on them.

Every backend is **bit-identical** to ``numpy`` for all three session
precisions (float64 / float32 / int), cache-cold and cache-warm; the
contract is asserted in ``tests/test_engine_backend.py``.

Writing a backend
-----------------
Subclass :class:`ExecutionBackend`, implement :meth:`~ExecutionBackend.
execute` and :meth:`~ExecutionBackend.capabilities`; then::

    register_backend("mine", MyBackend)
    session = InferenceSession(backend="mine")

See ``docs/backends.md`` for the full walkthrough.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.functional import ApplyStats, apply_rulebook
from repro.nn.rulebook import Rulebook

try:  # pragma: no cover - exercised via ScipySparseBackend paths
    from scipy import sparse as _scipy_sparse
except ImportError:  # pragma: no cover - CI installs scipy; laptops may not
    _scipy_sparse = None


@dataclass(frozen=True)
class BackendCapabilities:
    """What one backend can do — consumed by the session dispatcher.

    ``sharded`` means the backend accepts whole ``run_batch`` digest
    groups via :meth:`ExecutionBackend.run_groups`, and the session then
    routes every group of a batch through it; ``degraded`` marks a
    backend whose optional dependency is missing and which is
    transparently falling back to the fused numpy engine.
    """

    name: str
    description: str
    sharded: bool = False
    degraded: bool = False
    requires: Optional[str] = None


def float_result_type(in_features: np.ndarray, weights: np.ndarray) -> np.dtype:
    """The float accumulator dtype of one execute; integers are refused.

    Backends sum in the promoted dtype of features and weights, so
    integer inputs would wrap in their own narrow dtype.  The session
    passes float dtypes only (the ``int`` precision holds its codes in
    float64); the int64 reference is
    :func:`repro.nn.functional.apply_rulebook`.
    """
    dtype = np.result_type(np.asarray(in_features), np.asarray(weights))
    if dtype.kind != "f":
        raise TypeError(
            f"backends execute float features and weights, got {dtype} "
            "(hold integer codes in float64)"
        )
    return dtype


class ExecutionBackend:
    """Abstract compute engine: evaluates rulebooks against features.

    The one required compute operation mirrors the fused engine's
    signature (:func:`repro.nn.functional.apply_rulebook`), so any
    consumer that could call the functional engine can call a backend
    instead: :meth:`execute` takes one frame's ``(N, Cin)`` features.
    Whatever a backend derives from the matching result (CSR operators,
    device buffers, ...) belongs on the rulebook beside its
    :class:`~repro.nn.rulebook.GatherScatterPlan`, so it lives exactly as
    long as the rulebook the session's caches keep.

    Outputs must be bit-identical to the fused numpy engine for every
    dtype the session produces (float64 and float32; the ``int``
    precision passes integer codes held in float64): equality, not
    closeness, is the contract the session's batching and caching
    guarantees are built on.  Integer inputs are refused with
    :class:`TypeError` (:func:`float_result_type`).
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        rulebook: Rulebook,
        in_features: np.ndarray,
        weights: np.ndarray,
        num_outputs: int,
        stats: Optional[ApplyStats] = None,
    ) -> np.ndarray:
        """Evaluate one frame: ``(N, Cin) -> (num_outputs, Cout)``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Batch-group fan-out (sharded backends only)
    # ------------------------------------------------------------------
    def run_groups(
        self,
        net,
        precision: str,
        quantization,
        groups: Sequence["GroupTask"],
    ) -> List[List[np.ndarray]]:
        """Execute whole ``run_batch`` digest groups (sharded backends).

        Returns one list of ``(N, classes)`` outputs per group, in frame
        order.  Only meaningful when ``capabilities().sharded`` is true;
        the base implementation refuses so mis-dispatch fails loudly.
        """
        raise NotImplementedError(
            f"backend {self.name!r} does not shard batch groups"
        )

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def capabilities(self) -> BackendCapabilities:
        """Static description of what this backend supports."""
        raise NotImplementedError

    def close(self) -> None:
        """Release external resources (worker connections, devices).  Idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


# ----------------------------------------------------------------------
# numpy — the fused reference engine
# ----------------------------------------------------------------------
class NumpyFusedBackend(ExecutionBackend):
    """The default backend: fused vectorized gather-GEMM-scatter.

    A thin adapter over :func:`repro.nn.functional.apply_rulebook` — the
    engine the repository validated against the seed ``np.add.at``
    reference.  This is the arithmetic ground truth the other backends
    are held to.
    """

    name = "numpy"

    def execute(self, rulebook, in_features, weights, num_outputs, stats=None):
        float_result_type(in_features, weights)
        return apply_rulebook(
            rulebook, in_features, weights, num_outputs, stats=stats
        )

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            description="fused vectorized gather-GEMM-scatter (reference)",
        )


# ----------------------------------------------------------------------
# scipy — CSR gather/scatter operators
# ----------------------------------------------------------------------
class ScipySparseBackend(ExecutionBackend):
    """Gather/scatter as CSR operators multiplied onto features.

    ``out = S @ blockdiag_gemm(G @ F)``: the gather matrix ``G`` selects
    the (offset-major) matched input rows, the per-offset GEMMs run on
    the same contiguous segments as the fused engine, and the scatter
    matrix ``S`` accumulates match contributions onto output rows.  Both
    operators have exclusively unit entries, and CSR accumulation order
    equals the fused engine's offset order, so results are bit-identical
    — asserted per precision in the parity suite.

    When scipy is not importable the backend degrades gracefully: it
    delegates to the fused numpy engine and reports
    ``capabilities().degraded``.
    """

    name = "scipy"

    def __init__(self) -> None:
        self._sparse = _scipy_sparse
        self._fallback = NumpyFusedBackend() if self._sparse is None else None

    @property
    def degraded(self) -> bool:
        """True when scipy is absent and the numpy engine is substituting."""
        return self._fallback is not None

    def operators(self, rulebook: Rulebook, dtype) -> Tuple[object, object]:
        """The rulebook's ``(gather, scatter)`` CSR pair in ``dtype``.

        ``gather`` is a ``(total_matches, num_inputs)`` selection matrix
        (one unit entry per row, offset-major row order) and ``scatter``
        a ``(num_outputs, total_matches)`` accumulation matrix whose
        column indices ascend within each row, i.e. run in offset-major
        order.  Unit products are exact and CSR row accumulation visits
        matches in the fused scatter loop's per-offset order, so the
        products reproduce the fused engine bit for bit.

        The pair is memoized on the rulebook per dtype, so it lives
        exactly as long as the rulebook.  The gather assembles directly
        from the offset-major input rows; the scatter assembles through
        its trivial CSC form (one unit entry per column, at the match's
        output row) and scipy's ``tocsr`` sorts it into CSR.  Rulebooks
        past int32 index reach raise :class:`ValueError` before anything
        is allocated.
        """
        dtype = np.dtype(dtype)
        pair = rulebook._csr.get(dtype)
        if pair is None:
            total = rulebook.plan().total_matches
            if total + 1 > np.iinfo(np.int32).max:
                raise ValueError(
                    f"rulebook has {total} matches, past the int32 index "
                    "reach of the scipy backend's CSR operators; use "
                    'backend="numpy"'
                )
            pairs = rulebook.flat_pairs()
            # The unit entries and the 0..total ramp are never written,
            # so both operators share them.
            ones = np.ones(total, dtype=dtype)
            unit_indptr = np.arange(total + 1, dtype=np.int32)
            gather = self._sparse.csr_matrix(
                (ones, pairs[0].astype(np.int32), unit_indptr),
                shape=(total, max(rulebook.num_inputs, 1)),
            )
            scatter = self._sparse.csc_matrix(
                (ones, pairs[1].astype(np.int32), unit_indptr),
                shape=(max(rulebook.num_outputs, 1), total),
            ).tocsr()
            pair = rulebook._csr[dtype] = (gather, scatter)
        return pair

    def execute(self, rulebook, in_features, weights, num_outputs, stats=None):
        if self.degraded:
            return self._fallback.execute(
                rulebook, in_features, weights, num_outputs, stats=stats
            )
        in_features = np.asarray(in_features)
        weights = np.asarray(weights)
        out_channels = weights.shape[2]
        dtype = float_result_type(in_features, weights)
        plan = rulebook.plan()
        if plan.total_matches == 0:
            return np.zeros((num_outputs, out_channels), dtype=dtype)
        gather_op, scatter_op = self.operators(rulebook, dtype)
        weights = weights.astype(dtype, copy=False)
        features = in_features.astype(dtype, copy=False)

        t0 = time.perf_counter()
        gathered = gather_op @ features
        t1 = time.perf_counter()
        contribution = np.empty(
            (plan.total_matches, out_channels), dtype=dtype
        )
        starts = plan.segment_starts
        for k in plan.active_offsets:
            np.dot(
                gathered[starts[k]:starts[k + 1]],
                weights[k],
                out=contribution[starts[k]:starts[k + 1]],
            )
        t2 = time.perf_counter()
        out = scatter_op @ contribution
        if out.shape[0] != num_outputs:  # num_outputs == 0 guard rows
            out = out[:num_outputs]
        t3 = time.perf_counter()

        if stats is not None:
            stats.matches += plan.total_matches
            stats.gather_seconds += t1 - t0
            stats.gemm_seconds += t2 - t1
            stats.scatter_seconds += t3 - t2
        return out

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            description="CSR gather/scatter operators over feature blocks",
            degraded=self.degraded,
            requires="scipy",
        )


# ----------------------------------------------------------------------
# Batch-group fan-out contract (implemented by repro.runtime.cluster)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GroupTask:
    """One ``run_batch`` digest group: a shared site set and its frames.

    ``features`` holds each frame's raw ``(N, C)`` features, in batch
    order.  ``digest`` is the group's coordinate digest; a sharded
    backend routes on it so the same site set always lands on the same
    worker (whose plan cache is then warm for it).
    """

    coords: np.ndarray
    shape: Tuple[int, int, int]
    features: Tuple[np.ndarray, ...]
    digest: bytes


class ShardSpecStore:
    """Spec/plan-seeding state of a sharded backend.

    A worker is warmed from one pickled ``(net, precision,
    quantization)`` blob, then executes digest groups against it, so the
    blob memo and the record of which site sets a deployment has served
    live *outside* any single worker connection.  That is what lets a
    remote worker rejoin warm: the coordinator replays the current spec
    blob plus the recorded plan seeds, and it is also the seam for
    zero-downtime weight swaps (a new blob is a new digest; workers keep
    serving the old spec until traffic moves).

    Pickling the network is O(weight bytes); the blob is memoized behind
    two guards.  The warm path compares *pinned strong references* by
    identity (pinning keeps the objects alive, so identity is O(1) and
    can never alias a recycled id).  On an
    identity miss the memo falls back to a *content* fingerprint (weight
    digest + settings), so a different net object with identical weights
    still reuses the blob and a swapped net always re-pickles — keying
    on bare ``id()`` without pinning was unsound: after GC a different
    net could recycle the id and the workers would silently keep serving
    the old weights.
    """

    #: Bound on recorded plan seeds: streaming workloads mint fresh site
    #: sets, so the seed registry must evict rather than grow forever.
    SEED_CAPACITY: int = 128

    def __init__(self) -> None:
        self._pin: Optional[Tuple[object, str, object]] = None
        self._key: Optional[Tuple] = None
        self._blob: Optional[bytes] = None
        self._digest: Optional[bytes] = None
        # digest -> (coords, shape): the site sets served under the
        # current deployment, i.e. the plans a rejoining worker should
        # re-derive before traffic reaches it.
        self._seeds: "OrderedDict[bytes, Tuple[np.ndarray, Tuple[int, ...]]]" = (
            OrderedDict()
        )

    @staticmethod
    def fingerprint(net, precision: str, quantization) -> Tuple:
        """Content key of one served spec: weight digest plus settings.

        Hashes the actual parameter payload (names, dtypes, shapes,
        bytes) and the network geometry, so the key survives garbage
        collection and id recycling — two different nets can never
        collide, and an identical-content net legitimately reuses the
        memoized blob.
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(type(net).__name__.encode())
        digest.update(repr(getattr(net, "config", None)).encode())
        for param in net.parameters():
            value = np.ascontiguousarray(param.value)
            digest.update(
                f"{param.name}|{value.dtype}|{value.shape}".encode()
            )
            digest.update(value.tobytes())
        return (digest.digest(), precision, repr(quantization))

    @staticmethod
    def digest_of(blob: bytes) -> bytes:
        """Stable 16-byte digest identifying one spec blob on the wire."""
        return hashlib.blake2b(blob, digest_size=16).digest()

    def payload(self, net, precision: str, quantization) -> bytes:
        """The pickled ``(net, precision, quantization)`` blob, memoized.

        Warm calls with the same pinned objects return in O(1); an
        identity miss re-fingerprints the content before deciding
        whether to re-pickle (see the class docstring for why bare
        id-keying would be unsound).
        """
        pin = self._pin
        if (
            pin is not None
            and pin[0] is net
            and pin[1] == precision
            and pin[2] is quantization
            and self._blob is not None
        ):
            return self._blob
        spec_key = self.fingerprint(net, precision, quantization)
        if spec_key != self._key or self._blob is None:
            self._blob = pickle.dumps((net, precision, quantization))
            self._digest = self.digest_of(self._blob)
            self._key = spec_key
        self._pin = (net, precision, quantization)
        return self._blob

    @property
    def blob(self) -> Optional[bytes]:
        """The current spec blob (``None`` before the first payload)."""
        return self._blob

    @property
    def digest(self) -> Optional[bytes]:
        """Digest of the current spec blob (``None`` before a payload)."""
        return self._digest

    def record_seed(
        self, digest: bytes, coords: np.ndarray, shape: Tuple[int, ...]
    ) -> None:
        """Remember one served site set (LRU-bounded plan seed)."""
        self._seeds[digest] = (coords, tuple(shape))
        self._seeds.move_to_end(digest)
        while len(self._seeds) > self.SEED_CAPACITY:
            self._seeds.popitem(last=False)

    def seeds(self) -> Tuple[Tuple[bytes, np.ndarray, Tuple[int, ...]], ...]:
        """Recorded ``(digest, coords, shape)`` seeds, oldest first."""
        return tuple(
            (digest, coords, shape)
            for digest, (coords, shape) in self._seeds.items()
        )

    def clear(self) -> None:
        """Forget the memoized blob and every recorded seed."""
        self._pin = None
        self._key = None
        self._blob = None
        self._digest = None
        self._seeds.clear()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Callable[[], ExecutionBackend]] = {}


def register_backend(
    name: str,
    factory: Callable[[], ExecutionBackend],
    overwrite: bool = False,
) -> None:
    """Register ``factory`` (class or zero-arg callable) under ``name``.

    Names are case-sensitive, non-empty strings.  Re-registering an
    existing name requires ``overwrite=True`` so typos fail loudly.
    """
    if not isinstance(name, str) or not name:
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")
    if name in _REGISTRY and not overwrite:
        existing = _REGISTRY[name]
        existing_name = getattr(existing, "__name__", repr(existing))
        new_name = getattr(factory, "__name__", repr(factory))
        raise ValueError(
            f"backend {name!r} is already registered to {existing_name}; "
            f"refusing to rebind it to {new_name} — pass overwrite=True "
            "to replace it"
        )
    if not callable(factory):
        raise TypeError(f"backend factory must be callable, got {factory!r}")
    _REGISTRY[name] = factory


def available_backends() -> Tuple[str, ...]:
    """Sorted names of every registered backend."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str, **kwargs) -> ExecutionBackend:
    """Instantiate the backend registered under ``name``.

    ``kwargs`` are forwarded to the factory (e.g.
    ``get_backend("remote", workers=fleet.addresses)`` after ``import
    repro.runtime``).  Unknown names raise a
    :class:`ValueError` listing what is registered.
    """
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ValueError(
            f"unknown execution backend {name!r}; registered backends: "
            f"{list(available_backends())}"
        )
    backend = factory(**kwargs)
    if not isinstance(backend, ExecutionBackend):
        raise TypeError(
            f"factory for backend {name!r} returned {type(backend).__name__}, "
            "expected an ExecutionBackend"
        )
    return backend


register_backend("numpy", NumpyFusedBackend)
register_backend("scipy", ScipySparseBackend)
