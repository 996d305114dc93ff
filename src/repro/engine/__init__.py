"""Unified inference engine: the session front door of the reproduction.

:class:`repro.engine.session.InferenceSession` is the single entry point
for running the SS U-Net against every consumer of the matching results:
the numeric network forward, the analytical cycle/latency estimate, the
cycle-accurate accelerator simulation, and the host-side (PS) model all
draw their rulebooks from one session-owned :class:`RulebookCache`, and
whole-network execution plans (one per input site set) are reused across
frames, batches, and estimates through the cross-scale
:class:`repro.engine.session.PlanCache`.

Underneath the session sits the pluggable compute seam of
:mod:`repro.engine.backend`: an abstract :class:`ExecutionBackend`
(fused numpy, scipy CSR, or any registered third-party engine)
evaluates rulebooks against features, bit-identical across backends for
every session precision.  Fanning ``run_batch`` digest groups out to
warm worker sessions is the TCP cluster tier's job
(:mod:`repro.runtime.cluster`, backend ``remote``).

:mod:`repro.engine.mapping` adds the mapping-ops subsystem for the
point-based network family: vectorized sorting-based kNN, ball query,
farthest-point sampling, and grouping kernels (bit-identical to their
brute-force references), with :mod:`repro.engine.mapping_delta`
providing the digest-keyed :class:`MappingCache` and the delta-splicing
:class:`DeltaMappingCache` that patches cached neighbor tables under
small coordinate churn (the diff is :mod:`repro.engine.delta`).  Sessions surface the subsystem through
:meth:`repro.engine.session.InferenceSession.map` and serve
``uses_mapping_ops`` networks end to end.
"""

from repro.engine.backend import (
    BackendCapabilities,
    ExecutionBackend,
    NumpyFusedBackend,
    ScipySparseBackend,
    ShardSpecStore,
    available_backends,
    get_backend,
    register_backend,
)
from repro.engine.delta import (
    DEFAULT_DELTA_THRESHOLD,
    CoordinateDelta,
    coordinate_delta,
)
from repro.engine.mapping import (
    MappingResult,
    MappingStats,
    as_point_array,
    ball_query,
    ball_query_bruteforce,
    farthest_point_sample,
    farthest_point_sample_bruteforce,
    group_points,
    knn,
    knn_bruteforce,
)
from repro.engine.mapping_delta import (
    DEFAULT_MAPPING_CAPACITY,
    DeltaMappingCache,
    MappingCache,
    MappingCacheStats,
    array_digest,
)
from repro.engine.session import (
    InferenceSession,
    LayerEstimate,
    NetworkEstimate,
    NetworkPlan,
    PlanCache,
    PointNetworkEstimate,
    QuantizationSpec,
    ScalePlan,
    SessionStats,
    SubconvEstimate,
)

__all__ = [
    "InferenceSession",
    "PlanCache",
    "NetworkPlan",
    "ScalePlan",
    "QuantizationSpec",
    "SessionStats",
    "SubconvEstimate",
    "LayerEstimate",
    "NetworkEstimate",
    "ExecutionBackend",
    "BackendCapabilities",
    "NumpyFusedBackend",
    "ScipySparseBackend",
    "ShardSpecStore",
    "register_backend",
    "get_backend",
    "available_backends",
    "CoordinateDelta",
    "coordinate_delta",
    "DEFAULT_DELTA_THRESHOLD",
    "MappingResult",
    "MappingStats",
    "as_point_array",
    "knn",
    "knn_bruteforce",
    "ball_query",
    "ball_query_bruteforce",
    "farthest_point_sample",
    "farthest_point_sample_bruteforce",
    "group_points",
    "MappingCache",
    "DeltaMappingCache",
    "MappingCacheStats",
    "array_digest",
    "DEFAULT_MAPPING_CAPACITY",
    "PointNetworkEstimate",
]
