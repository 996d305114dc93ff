"""The unified :class:`InferenceSession` — one entry point for the SS U-Net.

The paper's matching-reuse story (one matching pass serving many
consumers) only pays off when every consumer shares the same rulebooks.
Before this module, each consumer owned its own ad-hoc entry point: the
numeric network threaded a cache through forward kwargs, the streaming
runtime built its own, and the host/compiler models rebuilt rulebooks
from scratch.  The session centralizes that state:

* a :class:`repro.nn.rulebook.RulebookCache` — one matching pass per
  (site set, kernel geometry), shared by the network forward, the
  analytical estimate, the cycle-accurate simulation, the host model,
  and the compiler;
* a cross-scale :class:`PlanCache` — the strided rulebook of U-Net level
  ``L`` fixes the site set of level ``L + 1``, so one walk down the
  scales yields every rulebook the whole network needs (a
  :class:`NetworkPlan`), amortized across frames, batches and estimates;
* the :class:`repro.arch.config.AcceleratorConfig`,
  :class:`repro.arch.host.HostExecutionModel`,
  :class:`repro.arch.overhead.SystemOverheadModel`, and the session's
  quantization settings (:class:`QuantizationSpec`).

The execution surfaces::

    session.run(tensor)            # single-frame network forward
    session.run_batch(tensors)     # multi-frame, one plan per digest
                                   # group; bit-identical to per-frame
                                   # run() calls
    session.estimate(tensor)       # analytical cycle/latency model,
                                   # accelerated + host layers
    session.estimate_batch(tensors)  # one plan/estimate per digest group

``run_batch`` groups frames by their coordinate digest: frames sharing a
site set share one plan (one matching result), and each frame's
``(N, C)`` features then walk the network alone on it, so batched
outputs are bit-identical to sequential ones.

All numeric evaluation flows through the session's pluggable
:class:`repro.engine.backend.ExecutionBackend` (``backend=`` /
``AcceleratorConfig.execution_backend``): the fused numpy engine by
default, cached scipy CSR operators, or the TCP cluster tier's
``remote`` backend (:mod:`repro.runtime.cluster`) that fans digest
groups across warm worker sessions — all bit-identical for every
precision.  The asyncio serving front door
(:mod:`repro.runtime.server`) sits on top of ``run_batch``.
"""

from __future__ import annotations

import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.arch.accelerator import (
    AnalyticalModel,
    EscaAccelerator,
    NetworkRunResult,
)
from repro.arch.config import AcceleratorConfig
from repro.arch.host import HostExecutionModel, HostLayerRun
from repro.arch.overhead import SystemOverheadModel, layer_transfer_volume
from repro.arch.tiling import TileGrid
from repro.engine.backend import ExecutionBackend, GroupTask, get_backend
from repro.arch.mapping_model import MappingCostModel, MappingOpEstimate
from repro.engine import mapping as mapping_ops
from repro.engine.delta import DEFAULT_DELTA_THRESHOLD
from repro.engine.mapping import MappingResult
from repro.engine.mapping_delta import DeltaMappingCache, MappingCache
from repro.nn.functional import ApplyStats, normalize_weights
from repro.obs.metrics import MetricRegistry
from repro.nn.network import Parameter
from repro.nn.rulebook import Rulebook, RulebookCache
from repro.nn.unet import LayerExecution, SSUNet, UNetConfig
from repro.quant.fixed_point import (
    ACC_INT32,
    ACT_INT16,
    WEIGHT_INT8,
    FixedPointFormat,
    quantize_codes,
)
from repro.quant.quantizer import calibrate_scale
from repro.sparse.coo import SparseTensor3D

PRECISIONS = ("float64", "float32", "int")

_T = TypeVar("_T")


@dataclass(frozen=True)
class QuantizationSpec:
    """Fixed-point formats of the session's quantized (``int``) path.

    Defaults follow the paper's FPGA deployment: INT8 weights, INT16
    activations, INT32 accumulators.  Per conv, the activations and the
    output are self-calibrated (one LSB = ``max|x| / max_code``) and the
    accumulators saturate to INT32 once, in the output stage; a layer
    whose weight codes cannot drive an accumulator past INT32 skips that
    clamp, which could not bind.
    """

    weight_fmt: FixedPointFormat = WEIGHT_INT8
    act_fmt: FixedPointFormat = ACT_INT16


@dataclass(frozen=True)
class SessionStats:
    """Snapshot of a session's engine counters.

    ``matching_passes`` counts actual rulebook constructions (cache
    misses); every other rulebook consumption was a reuse.  The tentpole
    invariant — a warm session performs exactly one matching pass per
    (scale, kind) — is asserted against this field in the test suite.
    """

    frames_run: int
    batches_run: int
    estimates: int
    backend: str
    matching_passes: int
    rulebook_hits: int
    rulebook_misses: int
    rulebook_hit_rate: float
    plan_hits: int
    plan_misses: int
    apply_matches: int
    gather_seconds: float
    gemm_seconds: float
    scatter_seconds: float
    simulations: int = 0
    #: Always 0: rulebooks are never patched and backend plans never
    #: refreshed (every rulebook miss is a cold build).  Kept for
    #: readers that still subtract them between frames.
    delta_patches: int = 0
    delta_rebuilds: int = 0
    plans_refreshed: int = 0
    plans_spliced: int = 0
    #: Mapping-ops cache accounting (kNN / ball-query / FPS lookups
    #: routed through the session's :class:`MappingCache`; patch and
    #: rebuild counts are populated when the session runs a delta-
    #: splicing :class:`repro.engine.mapping_delta.DeltaMappingCache`).
    mapping_hits: int = 0
    mapping_misses: int = 0
    mapping_patches: int = 0
    mapping_rebuilds: int = 0


@dataclass(frozen=True)
class SubconvEstimate:
    """Analytical estimate of one Sub-Conv layer (streaming hot path)."""

    rulebook: Rulebook
    matches: int
    scanned_positions: int
    cycles: int
    core_seconds: float


@dataclass(frozen=True)
class LayerEstimate:
    """Analytical estimate of one accelerated (Sub-Conv) network layer."""

    name: str
    level: int
    kernel_size: int
    in_channels: int
    out_channels: int
    nnz: int
    matches: int
    cycles: int
    core_seconds: float
    overhead_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.core_seconds + self.overhead_seconds

    @property
    def effective_ops(self) -> int:
        return 2 * self.matches * self.in_channels * self.out_channels


@dataclass
class NetworkEstimate:
    """Whole-network analytical estimate: accelerated + host layers."""

    layers: List[LayerEstimate] = field(default_factory=list)
    host_layers: List[HostLayerRun] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return sum(layer.cycles for layer in self.layers)

    @property
    def accel_seconds(self) -> float:
        return sum(layer.total_seconds for layer in self.layers)

    @property
    def host_seconds(self) -> float:
        return sum(run.seconds for run in self.host_layers)

    @property
    def end_to_end_seconds(self) -> float:
        return self.accel_seconds + self.host_seconds

    @property
    def effective_ops(self) -> int:
        return sum(layer.effective_ops for layer in self.layers) + sum(
            run.effective_ops for run in self.host_layers
        )

    def effective_gops(self) -> float:
        if self.end_to_end_seconds == 0.0:
            return 0.0
        return self.effective_ops / self.end_to_end_seconds / 1e9


@dataclass
class PointNetworkEstimate:
    """Analytical estimate of a point-based (mapping-ops) network forward.

    One :class:`~repro.arch.mapping_model.MappingOpEstimate` per mapping
    operation the network's forward performed, priced on the unified
    sort/merge/gather pipeline of :mod:`repro.arch.mapping_model`.  The
    dense per-neighborhood MLP work is not modeled here (ROADMAP: host
    MLP modeling for the point family).
    """

    mapping_ops: List[MappingOpEstimate] = field(default_factory=list)
    clock_hz: float = 270e6

    @property
    def total_mapping_cycles(self) -> int:
        return sum(op.total_cycles for op in self.mapping_ops)

    @property
    def mapping_seconds(self) -> float:
        return self.total_mapping_cycles / self.clock_hz


@dataclass
class ScalePlan:
    """Per-scale matching artifacts of a :class:`NetworkPlan`.

    ``template`` is an occupancy tensor carrying this scale's site set
    (features are irrelevant to matching).  ``sub_rulebooks`` maps the
    submanifold kernel sizes used at this scale to their rulebooks;
    ``down_rulebook`` / ``down_coords`` describe the strided convolution
    leaving this scale (``None`` at the deepest scale) — its output
    coordinates *seed the next scale's site set*, which is what makes
    one walk down the scales sufficient for the whole network.
    """

    level: int
    template: SparseTensor3D
    sub_rulebooks: Dict[int, Rulebook] = field(default_factory=dict)
    down_rulebook: Optional[Rulebook] = None
    down_coords: Optional[np.ndarray] = None
    down_kernel: int = 0
    down_stride: int = 0
    _encoding_memo: Dict[Hashable, Tuple[int, int]] = field(
        default_factory=dict, repr=False
    )

    @property
    def nnz(self) -> int:
        return self.template.nnz

    def encoding_statistics(
        self, config: AcceleratorConfig, analytical: AnalyticalModel
    ) -> Tuple[int, int]:
        """Memoized ``(scanned_positions, mask_bits)`` for ``config``."""
        key = (config.tile_shape, config.kernel_size)
        if key not in self._encoding_memo:
            scanned = analytical.scanned_positions(self.template)
            tiles = TileGrid(self.template, config.tile_shape)
            mask_bits = tiles.num_active_tiles * tiles.tile_volume()
            self._encoding_memo[key] = (scanned, mask_bits)
        return self._encoding_memo[key]


@dataclass
class NetworkPlan:
    """Every matching artifact one network forward needs, by scale."""

    signature: Tuple
    scales: List[ScalePlan]
    cache_entries: List[Tuple[Hashable, object]] = field(default_factory=list)

    @property
    def num_scales(self) -> int:
        return len(self.scales)

    def scale(self, level: int) -> ScalePlan:
        return self.scales[level]

    @property
    def matching_passes(self) -> int:
        """Distinct (scale, kind) matchings the plan comprises."""
        count = 0
        for sp in self.scales:
            count += len(sp.sub_rulebooks)
            if sp.down_rulebook is not None:
                count += 1
        return count


def _net_signature(net: SSUNet) -> Tuple:
    """Geometry fingerprint of a network: what a plan's validity depends on."""
    downs = tuple(
        (down.kernel_size, down.stride) for down in net.downs
    )
    return (
        "ssunet",
        net.config.levels,
        net.config.reps,
        net.config.kernel_size,
        net.head.kernel_size,
        downs,
    )


class PlanCache:
    """LRU cache of :class:`NetworkPlan` objects, keyed on the root site set.

    A plan depends only on the input site set, the grid shape and the
    network geometry — never on features or weights — so consecutive
    frames with unchanged voxel sets, every frame of a batch group, and
    every estimate over the same scene reuse one plan.  On a hit, the
    plan's rulebooks are re-seeded into the session's
    :class:`RulebookCache` (without perturbing its hit/miss statistics)
    so consumers that look rulebooks up there (simulation, host model,
    compiler) stay all-hits even if LRU pressure evicted individual
    entries in between.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, NetworkPlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        self._entries.clear()

    def site_digests(self) -> List[bytes]:
        """``coords_digest()`` of each site set whose plan is held, least
        recently used first."""
        return [key[2] for key in self._entries]

    def network_plan(
        self, tensor: SparseTensor3D, net: SSUNet, rulebook_cache: RulebookCache
    ) -> NetworkPlan:
        """The (cached) whole-network plan of ``net`` applied to ``tensor``."""
        signature = _net_signature(net)
        key = (signature, tensor.shape, tensor.coords_digest())
        plan = self._entries.get(key)
        if plan is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            for entry_key, entry in plan.cache_entries:
                rulebook_cache.ensure(entry_key, entry)
            return plan
        self.misses += 1
        plan = self._build(tensor, net, signature, rulebook_cache)
        self._entries[key] = plan
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return plan

    @staticmethod
    def _build(
        tensor: SparseTensor3D,
        net: SSUNet,
        signature: Tuple,
        cache: RulebookCache,
    ) -> NetworkPlan:
        """Walk down the scales once, building every rulebook via ``cache``.

        The strided rulebook of level ``L`` emits the exact output
        coordinate set of level ``L + 1``, so the next scale's template
        is constructed directly from it — no re-derivation of site sets,
        and every build is routed through the shared cache so the
        simulation, host model and compiler all hit afterwards.
        """
        levels = len(net.downs) + 1
        kernel = net.config.kernel_size
        template = tensor.occupancy()
        scales: List[ScalePlan] = [None] * levels  # type: ignore[list-item]
        entries: List[Tuple[Hashable, object]] = []
        for level in range(levels):
            plan = ScalePlan(level=level, template=template)
            kernels = {kernel}
            if level == 0:
                kernels.add(net.head.kernel_size)
            sub_books = {k: cache.submanifold(template, k) for k in sorted(kernels)}
            plan.sub_rulebooks.update(sub_books)
            level_entries = [
                (RulebookCache.submanifold_key(template, k), rulebook)
                for k, rulebook in sub_books.items()
            ]
            if level < levels - 1:
                down = net.downs[level]
                rulebook, down_coords = cache.sparse_conv(
                    template, down.kernel_size, down.stride
                )
                plan.down_rulebook = rulebook
                plan.down_coords = down_coords
                plan.down_kernel = down.kernel_size
                plan.down_stride = down.stride
                level_entries.append(
                    (
                        RulebookCache.sparse_conv_key(
                            template, down.kernel_size, down.stride
                        ),
                        (rulebook, down_coords),
                    )
                )
                down_shape = tuple(
                    max(1, -(-s // down.stride)) for s in template.shape
                )
                template = SparseTensor3D(
                    down_coords,
                    np.ones((len(down_coords), 1), dtype=np.float64),
                    down_shape,
                )
            scales[level] = plan
            entries.extend(level_entries)
        return NetworkPlan(
            signature=signature, scales=scales, cache_entries=entries
        )


class InferenceSession:
    """The single front door for running the SS U-Net.

    Owns the rulebook cache, the cross-scale plan cache, the accelerator
    configuration, the host execution model, the system-overhead model,
    and the quantization settings; exposes :meth:`run`,
    :meth:`run_batch`, :meth:`estimate`, and :meth:`simulate`.

    Parameters
    ----------
    net / unet_config:
        The network to serve.  Omitting both defers construction of a
        default :class:`SSUNet` until first use (sessions that only
        serve single-layer streaming estimates never build one).  A
        point-based network (``uses_mapping_ops``, e.g.
        :class:`repro.nn.point_layers.PointNetClassifier`) is served
        through the mapping subsystem instead of the rulebook path.
    precision:
        ``"float64"`` (default, the reference arithmetic), ``"float32"``
        (weights and activations cast once, the pipeline stays float32),
        or ``"int"`` (the paper's fixed-point pipeline per convolution:
        quantize activations, integer accumulate, saturate, dequantize,
        requantize — formats from ``quantization``; codes are float64,
        exact below 2^53, and a layer past it raises ``ValueError``).
    rulebook_cache / plan_cache:
        Injectable for sharing across sessions; fresh ones by default.
    backend:
        The execution backend evaluating rulebooks against features: a
        registry name (``"numpy"``, ``"scipy"``, ``"remote"``, or any
        :func:`repro.engine.backend.register_backend` entry) or a
        ready :class:`repro.engine.backend.ExecutionBackend` instance.
        Defaults to ``accelerator_config.execution_backend`` (itself
        ``"numpy"`` by default).  Every shipped backend is bit-identical
        to ``numpy`` for all precisions, so switching backends never
        changes results — only how (and where) they are computed.
    delta:
        Delta splicing of cached neighbor tables for nearly-static
        point streams: selects the default ``mapping_cache``.  ``None``
        (default) defers to ``accelerator_config.delta_threshold`` (0
        keeps the digest-only cache); ``True`` enables splicing at the
        config threshold (or the engine default of 25% churn); a float
        in ``(0, 1]`` is the churn-ratio threshold itself.  Spliced
        tables are bit-identical to cold searches, so enabling delta
        never changes results.  Rulebooks are always digest-cached and
        built cold on a miss.
    mapping_cache:
        The neighbor-table cache behind :meth:`map` and point-based
        forwards.  ``None`` (default) follows ``delta``: a
        :class:`repro.engine.mapping_delta.DeltaMappingCache` at the
        delta threshold when delta is on, else a plain digest-keyed
        :class:`MappingCache`.
    registry:
        The :class:`repro.obs.metrics.MetricRegistry` receiving the
        session's telemetry (cache hit/miss counters, per-stage and
        per-dispatch latency histograms).  ``None`` (default) creates a
        private registry; pass a shared one to unify session, server
        and cluster metrics on a single scrape surface (as ``python -m
        repro serve --metrics-port`` does).  The ``repro_session_*``
        counters are read-only views of :attr:`stats`, exact whether or
        not the registry is enabled; sessions sharing one registry are
        read through the newest one constructed.
    """

    def __init__(
        self,
        net: Optional[SSUNet] = None,
        unet_config: Optional[UNetConfig] = None,
        accelerator_config: Optional[AcceleratorConfig] = None,
        host_model: Optional[HostExecutionModel] = None,
        overheads: Optional[SystemOverheadModel] = None,
        rulebook_cache: Optional[RulebookCache] = None,
        plan_cache: Optional[PlanCache] = None,
        precision: str = "float64",
        quantization: Optional[QuantizationSpec] = None,
        backend: Optional[object] = None,
        delta: Optional[object] = None,
        mapping_cache: Optional[MappingCache] = None,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        if net is not None and unet_config is not None and net.config != unet_config:
            raise ValueError("net and unet_config disagree; pass only one")
        if precision not in PRECISIONS:
            raise ValueError(
                f"precision must be one of {PRECISIONS}, got {precision!r}"
            )
        self._net = net
        self._unet_config = net.config if net is not None else unet_config
        self.accelerator_config = accelerator_config or AcceleratorConfig()
        self.host_model = host_model or HostExecutionModel()
        self.overheads = (
            overheads if overheads is not None else SystemOverheadModel()
        )
        self.delta_threshold = self._resolve_delta_threshold(delta)
        self.rulebook_cache = (
            rulebook_cache if rulebook_cache is not None else RulebookCache()
        )
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self.precision = precision
        self.quantization = quantization or QuantizationSpec()
        if backend is None:
            backend = self.accelerator_config.execution_backend
        if isinstance(backend, str):
            backend = get_backend(backend)
        if not isinstance(backend, ExecutionBackend):
            raise TypeError(
                "backend must be a registry name or an ExecutionBackend, "
                f"got {type(backend).__name__}"
            )
        self.backend = backend
        if mapping_cache is None:
            mapping_cache = (
                DeltaMappingCache(threshold=self.delta_threshold)
                if self.delta_threshold > 0.0
                else MappingCache()
            )
        if not isinstance(mapping_cache, MappingCache):
            raise TypeError(
                "mapping_cache must be a MappingCache, got "
                f"{type(mapping_cache).__name__}"
            )
        self.mapping_cache = mapping_cache
        self.mapping_model = MappingCostModel(self.accelerator_config)
        self.analytical = AnalyticalModel(self.accelerator_config)
        self.apply_stats = ApplyStats()
        self._frames_run = 0
        self._batches_run = 0
        self._estimates = 0
        self._simulations = 0
        # Memoized parameter views: id(param) -> (param, derived arrays).
        # The param object is pinned in the value to keep ids stable.
        self._param_casts: Dict[int, Tuple[Parameter, np.ndarray]] = {}
        self._param_quant: Dict[int, Tuple[Parameter, np.ndarray, float]] = {}
        self.registry = registry if registry is not None else MetricRegistry()
        self._declare_metrics()

    def _declare_metrics(self) -> None:
        """Register the session's telemetry surface.

        The counters are reader counters over the counts :attr:`stats`
        snapshots, so the two cannot disagree; on a shared registry
        they rebind to this, the newest, session.  The histograms are
        the timing distributions the flat ``SessionStats`` fields
        cannot carry.
        """
        reg = self.registry
        reg.gauge(
            "repro_session_info",
            "Session configuration marker; the value is always 1.",
            labels=("backend", "precision"),
        ).set(1, backend=self.backend.name, precision=self.precision)
        # Held weakly: a strong reference would make each session a
        # cycle through its registry that only the cyclic GC frees.
        session = weakref.ref(self)

        def read(series):
            def counts():
                owner = session()
                return None if owner is None else series(owner)

            return counts

        reg.counter(
            "repro_session_frames_total",
            "Frames run through the session (run + run_batch).",
            read=read(lambda s: s._frames_run),
        )
        reg.counter(
            "repro_session_batches_total",
            "run_batch dispatches.",
            read=read(lambda s: s._batches_run),
        )
        reg.counter(
            "repro_session_estimates_total",
            "Analytical estimates computed.",
            read=read(lambda s: s._estimates),
        )
        reg.counter(
            "repro_session_simulations_total",
            "Cycle-accurate simulations run.",
            read=read(lambda s: s._simulations),
        )
        reg.counter(
            "repro_session_cache_lookups_total",
            "Cache lookups by cache (rulebook/plan/mapping) and outcome.",
            labels=("cache", "result"),
            read=read(lambda s: {
                ("rulebook", "hit"): s.rulebook_cache.hits,
                ("rulebook", "miss"): s.rulebook_cache.misses,
                ("plan", "hit"): s.plan_cache.hits,
                ("plan", "miss"): s.plan_cache.misses,
                ("mapping", "hit"): s.mapping_cache.hits,
                ("mapping", "miss"): s.mapping_cache.misses,
            }),
        )
        reg.counter(
            "repro_session_delta_events_total",
            "Delta-cache digest misses served by patching vs rebuilt.",
            labels=("cache", "event"),
            read=read(lambda s: {
                ("mapping", "patch"): s.mapping_cache.patches,
                ("mapping", "rebuild"): s.mapping_cache.rebuilds,
            }),
        )
        self._m_dispatch = reg.histogram(
            "repro_session_dispatch_seconds",
            "End-to-end session dispatch latency by entry point.",
            labels=("path",),
        )
        self._m_stage = reg.histogram(
            "repro_session_stage_seconds",
            "Engine stage time per dispatch (gather/gemm/scatter).",
            labels=("stage",),
        )

    def _dispatch(self, path: str, impl: Callable[..., _T], *args) -> _T:
        """Run ``impl(*args)``, recording its latency and stage times.

        With the registry disabled this is a single attribute check.
        """
        if not self.registry.enabled:
            return impl(*args)
        stats = self.apply_stats
        base = (stats.gather_seconds, stats.gemm_seconds, stats.scatter_seconds)
        start = time.perf_counter()
        out = impl(*args)
        self._m_dispatch.observe(time.perf_counter() - start, path=path)
        for stage, before in zip(("gather", "gemm", "scatter"), base):
            delta = getattr(stats, f"{stage}_seconds") - before
            if delta > 0.0:
                self._m_stage.observe(delta, stage=stage)
        return out

    def _resolve_delta_threshold(self, delta: Optional[object]) -> float:
        """The churn-ratio threshold the ``delta=`` knob selects.

        ``None`` defers to ``accelerator_config.delta_threshold`` (0
        disables), ``True``/``False`` toggle with the config threshold
        (or :data:`repro.engine.delta.DEFAULT_DELTA_THRESHOLD`), and a
        float is the threshold itself.
        """
        if delta is None:
            return float(self.accelerator_config.delta_threshold)
        if isinstance(delta, bool):
            if not delta:
                return 0.0
            return float(
                self.accelerator_config.delta_threshold or DEFAULT_DELTA_THRESHOLD
            )
        threshold = float(delta)
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"delta threshold must be in (0, 1], got {delta!r}")
        return threshold

    # ------------------------------------------------------------------
    # Owned components
    # ------------------------------------------------------------------
    @property
    def net(self) -> SSUNet:
        """The served network (constructed lazily from the config)."""
        if self._net is None:
            self._net = SSUNet(self._unet_config or UNetConfig())
            self._unet_config = self._net.config
        return self._net

    def _mapping_network(self) -> bool:
        """Whether the served network runs on mapping ops (PointNet++-
        family) instead of the rulebook path (see
        :mod:`repro.nn.point_layers`)."""
        return bool(getattr(self._net, "uses_mapping_ops", False))

    @property
    def unet_config(self) -> UNetConfig:
        return self.net.config

    def accelerator(self) -> EscaAccelerator:
        """A cycle-accurate simulator sharing the session's config/overheads."""
        return EscaAccelerator(self.accelerator_config, overheads=self.overheads)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def stats(self) -> SessionStats:
        """Point-in-time snapshot of the session's engine counters.

        The session's own counts and its caches' hits / misses are the
        only store: the ``repro_session_*`` counters in :attr:`registry`
        read this snapshot when rendered or queried (see
        ``docs/observability.md``), so the two views cannot drift.
        """
        cache = self.rulebook_cache
        return SessionStats(
            frames_run=self._frames_run,
            batches_run=self._batches_run,
            estimates=self._estimates,
            backend=self.backend.name,
            matching_passes=cache.misses,
            rulebook_hits=cache.hits,
            rulebook_misses=cache.misses,
            rulebook_hit_rate=cache.hit_rate,
            plan_hits=self.plan_cache.hits,
            plan_misses=self.plan_cache.misses,
            apply_matches=self.apply_stats.matches,
            gather_seconds=self.apply_stats.gather_seconds,
            gemm_seconds=self.apply_stats.gemm_seconds,
            scatter_seconds=self.apply_stats.scatter_seconds,
            simulations=self._simulations,
            mapping_hits=self.mapping_cache.hits,
            mapping_misses=self.mapping_cache.misses,
            mapping_patches=self.mapping_cache.patches,
            mapping_rebuilds=self.mapping_cache.rebuilds,
        )

    def reset_stats(self) -> None:
        self.rulebook_cache.reset_stats()
        self.mapping_cache.reset_stats()
        self.plan_cache.reset_stats()
        self.apply_stats = ApplyStats()
        self._frames_run = 0
        self._batches_run = 0
        self._estimates = 0
        self._simulations = 0

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def warm(self, tensor: SparseTensor3D) -> NetworkPlan:
        """Build (or fetch) the whole-network plan for ``tensor``'s site set.

        One walk down the scales constructs every rulebook the network,
        the estimate, and the host model will consume; afterwards every
        consumer is a cache hit.  Idempotent and cheap when warm.
        """
        if self._mapping_network():
            raise TypeError(
                "warm() plans rulebook networks; point-based networks "
                "build neighbor tables on demand through the mapping cache"
            )
        return self.plan_cache.network_plan(tensor, self.net, self.rulebook_cache)

    def matching(
        self, tensor: SparseTensor3D, kernel_size: Optional[int] = None
    ) -> Rulebook:
        """The submanifold rulebook of ``tensor`` via the session cache."""
        k = kernel_size or self.accelerator_config.kernel_size
        return self.rulebook_cache.submanifold(tensor, k)

    def map(self, op: str, points, queries=None, **params) -> MappingResult:
        """One mapping op (kNN / ball query / FPS / grouping) through the
        session's mapping cache.

        ``op`` selects the operator: ``"knn"`` (``k=``), ``"ball_query"``
        (``radius=``, ``max_samples=``), ``"farthest_point_sample"`` or
        ``"fps"`` (``num_samples=``), or ``"group_points"``
        (``indices=``; executed directly — gathers are value-dependent
        and cheap, so they bypass the cache).  Cached lookups are
        bit-identical to calling :mod:`repro.engine.mapping` directly;
        with a :class:`repro.engine.mapping_delta.DeltaMappingCache` a
        near-miss on the point set splices the cached neighbor table
        instead of rebuilding it.
        """

        def take(name: str):
            if name not in params:
                raise TypeError(f"{op!r} requires {name}=")
            return params.pop(name)

        if op == "knn":
            result = self.mapping_cache.knn(points, take("k"), queries=queries)
        elif op == "ball_query":
            result = self.mapping_cache.ball_query(
                points, take("radius"), take("max_samples"), queries=queries
            )
        elif op in ("farthest_point_sample", "fps"):
            if queries is not None:
                raise ValueError("farthest_point_sample takes no queries")
            result = self.mapping_cache.farthest_point_sample(
                points, take("num_samples")
            )
        elif op == "group_points":
            if queries is not None:
                raise ValueError("group_points takes no queries")
            result = mapping_ops.group_points(points, take("indices"))
        else:
            raise ValueError(
                "op must be one of 'knn', 'ball_query', "
                f"'farthest_point_sample', 'group_points'; got {op!r}"
            )
        if params:
            raise TypeError(
                f"unexpected parameters for {op!r}: {sorted(params)}"
            )
        return result

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, tensor: SparseTensor3D) -> SparseTensor3D:
        """Network forward of one frame through the session caches.

        Rulebook networks return the output :class:`SparseTensor3D`;
        point-based networks (``uses_mapping_ops``, see
        :mod:`repro.nn.point_layers`) return their logits array, with
        every mapping op routed through the session's mapping cache.
        """
        return self._dispatch("run", self._run_impl, tensor)

    def _run_impl(self, tensor: SparseTensor3D) -> SparseTensor3D:
        if self._mapping_network():
            self._frames_run += 1
            return self.net(tensor, mapping_cache=self.mapping_cache)
        # A sharded backend runs a single frame locally: its execute is
        # the in-process engine.
        self._validate_batch_channels([tensor])
        (out,) = self._run_group([tensor])
        self._frames_run += 1
        return tensor.with_features(out)

    def run_batch(
        self, tensors: Sequence[SparseTensor3D]
    ) -> List[SparseTensor3D]:
        """Run many frames with shared weights.

        Frames are grouped by coordinate digest: each group shares one
        plan, and each frame of it walks the network on that plan, so
        outputs are bit-identical to per-frame :meth:`run` calls.

        With a sharded backend (``capabilities().sharded``), whole
        groups are fanned out to the backend's workers; each worker runs
        them in a warm private session, so results stay bit-identical
        while groups run concurrently.
        """
        return self._dispatch("run_batch", self._run_batch_impl, tensors)

    def _run_batch_impl(
        self, tensors: Sequence[SparseTensor3D]
    ) -> List[SparseTensor3D]:
        tensors = list(tensors)
        if not tensors:
            return []
        if self._mapping_network():
            # Point networks have no digest-shareable plan; frames run
            # one by one through the shared mapping cache (warm lookups
            # and delta splices do the sharing instead).
            outs = [
                self.net(tensor, mapping_cache=self.mapping_cache)
                for tensor in tensors
            ]
            self._batches_run += 1
            self._frames_run += len(tensors)
            return outs  # type: ignore[return-value]
        self._validate_batch_channels(tensors)
        groups = _digest_groups(tensors)
        results: List[Optional[SparseTensor3D]] = [None] * len(tensors)
        if self.backend.capabilities().sharded:
            self._run_batch_sharded(tensors, groups, results)
        else:
            for indices in groups.values():
                out = self._run_group([tensors[i] for i in indices])
                for row, index in enumerate(indices):
                    results[index] = tensors[index].with_features(out[row])
        self._batches_run += 1
        self._frames_run += len(tensors)
        return results  # type: ignore[return-value]

    def _run_group(self, tensors: Sequence[SparseTensor3D]) -> List[np.ndarray]:
        """Frames sharing one site set through the network walk.

        The group's plan is warmed once; each frame's ``(N, C)``
        features, cast to the session dtype, then walk every layer on it
        in the session's precision and backend.  Returns the
        ``(N, classes)`` output of each frame.
        """
        ops = _FrameOps(self, self.warm(tensors[0]))
        dtype = np.float32 if self.precision == "float32" else np.float64
        return [
            self.net.walk(tensor.features.astype(dtype, copy=False), ops)
            for tensor in tensors
        ]

    def _run_batch_sharded(
        self,
        tensors: Sequence[SparseTensor3D],
        groups: Dict[Hashable, List[int]],
        results: List[Optional[SparseTensor3D]],
    ) -> None:
        """Fan digest groups out across the sharded backend's workers.

        Raw (uncast) features are shipped so each worker's session
        applies exactly the same precision pipeline as a local run;
        plan/rulebook state lives in the workers, not in this session.
        """
        tasks = [
            GroupTask(
                coords=tensors[indices[0]].coords,
                shape=tensors[indices[0]].shape,
                features=tuple(tensors[i].features for i in indices),
                digest=tensors[indices[0]].coords_digest(),
            )
            for indices in groups.values()
        ]
        outs = self.backend.run_groups(
            self.net, self.precision, self.quantization, tasks
        )
        for indices, group_out in zip(groups.values(), outs):
            for index, features in zip(indices, group_out):
                results[index] = tensors[index].with_features(features)

    def _validate_batch_channels(
        self, tensors: Sequence[SparseTensor3D]
    ) -> None:
        """Clear errors for mismatched inputs, before any layer runs.

        Frames must agree with the network's input width *and* with each
        other; without this check a mixed batch would surface as a
        cryptic numpy shape error deep inside the network walk.
        """
        expected = self.unet_config.in_channels
        for index, tensor in enumerate(tensors):
            if tensor.num_channels != expected:
                counts = sorted({t.num_channels for t in tensors})
                detail = (
                    f" (batch carries channel counts {counts})"
                    if len(counts) > 1
                    else ""
                )
                raise ValueError(
                    f"network expects {expected} input channels, but frame "
                    f"{index} has {tensor.num_channels}{detail}"
                )

    # ------------------------------------------------------------------
    # Single-layer helpers (streaming hot path, benchmarks)
    # ------------------------------------------------------------------
    def subconv(
        self,
        tensor: SparseTensor3D,
        weights: np.ndarray,
        kernel_size: Optional[int] = None,
    ) -> SparseTensor3D:
        """One submanifold convolution through the session caches."""
        k = kernel_size or self.accelerator_config.kernel_size
        weights = normalize_weights(weights, k)
        rulebook = self.rulebook_cache.submanifold(tensor, k)
        out = self.backend.execute(
            rulebook, tensor.features, weights, tensor.nnz, stats=self.apply_stats
        )
        return tensor.with_features(out)

    def estimate_subconv(
        self, tensor: SparseTensor3D, in_channels: int, out_channels: int
    ) -> SubconvEstimate:
        """Analytical single-layer estimate (the streaming per-frame path)."""
        rulebook = self.matching(tensor)
        scanned = self.analytical.scanned_positions(tensor)
        cycles = self.analytical.estimate_cycles(
            scanned, rulebook.total_matches, in_channels, out_channels
        )
        return SubconvEstimate(
            rulebook=rulebook,
            matches=rulebook.total_matches,
            scanned_positions=scanned,
            cycles=cycles,
            core_seconds=cycles / self.accelerator_config.clock_hz,
        )

    # ------------------------------------------------------------------
    # Estimation / simulation
    # ------------------------------------------------------------------
    def estimate(self, tensor: SparseTensor3D) -> NetworkEstimate:
        """Analytical cycle/latency estimate of a full network forward.

        Sub-Conv layers matching the accelerator kernel are estimated
        with the validated analytical model (plus system overheads); the
        strided/transposed/pointwise layers go through the host model —
        all consuming the session plan's rulebooks, so a warm session
        estimates without a single additional matching pass.

        Point-based networks return a :class:`PointNetworkEstimate`
        instead: the forward is replayed once to trace its mapping ops,
        and each op is priced on the unified sort/merge/gather pipeline
        by :class:`repro.arch.mapping_model.MappingCostModel`.
        """
        return self._dispatch("estimate", self._estimate_impl, tensor)

    def _estimate_impl(self, tensor: SparseTensor3D) -> NetworkEstimate:
        if self._mapping_network():
            self._estimates += 1
            return PointNetworkEstimate(
                mapping_ops=self._mapping_op_estimates(tensor),
                clock_hz=self.accelerator_config.clock_hz,
            )
        plan = self.warm(tensor)
        self._estimates += 1
        return self._estimate_from_plan(plan)

    def _mapping_op_estimates(self, tensor) -> List[MappingOpEstimate]:
        """Replay a point-network forward, pricing every mapping op."""
        trace: List[MappingResult] = []
        self.net(tensor, mapping_cache=self.mapping_cache, trace=trace)
        return [self.mapping_model.estimate(result.stats) for result in trace]

    def estimate_batch(
        self, tensors: Sequence[SparseTensor3D]
    ) -> List[NetworkEstimate]:
        """Analytical estimates for many frames, one plan per digest group.

        The estimate depends only on a frame's site set (never on its
        features), so frames sharing a coordinate digest share one
        :class:`NetworkPlan` *and* one :class:`NetworkEstimate` — the
        returned list holds the same estimate object at every index of a
        group.  Per-frame parity with :meth:`estimate` is asserted in
        the test suite.
        """
        tensors = list(tensors)
        if self._mapping_network():
            # No site-set sharing for point networks; the per-call
            # method keeps the estimate counter.
            return [self.estimate(tensor) for tensor in tensors]
        results: List[Optional[NetworkEstimate]] = [None] * len(tensors)
        for indices in _digest_groups(tensors).values():
            estimate = self._estimate_from_plan(self.warm(tensors[indices[0]]))
            for index in indices:
                results[index] = estimate
        self._estimates += len(tensors)
        return results  # type: ignore[return-value]

    def _estimate_from_plan(self, plan: NetworkPlan) -> NetworkEstimate:
        """Build the whole-network estimate from an already-warm plan."""
        return self.net.walk(NetworkEstimate(), _EstimateOps(self, plan))

    def simulate(
        self,
        tensor: SparseTensor3D,
        verify: bool = False,
        include_host_layers: bool = True,
    ) -> NetworkRunResult:
        """Cycle-accurate simulation of the network, session-cached rulebooks.

        Point-based networks return a
        :class:`repro.arch.mapping_model.MappingSimulation` — the traced
        mapping ops laid out back to back on the shared sort/merge/gather
        pipeline (``verify``/``include_host_layers`` do not apply).
        """
        return self._dispatch(
            "simulate", self._simulate_impl, tensor, verify, include_host_layers
        )

    def _simulate_impl(
        self,
        tensor: SparseTensor3D,
        verify: bool,
        include_host_layers: bool,
    ) -> NetworkRunResult:
        self._simulations += 1
        if self._mapping_network():
            return self.mapping_model.simulate(
                self._mapping_op_estimates(tensor)
            )
        return self._simulate(
            tensor, verify=verify, include_host_layers=include_host_layers
        )

    def simulate_batch(
        self,
        tensors: Sequence[SparseTensor3D],
        verify: bool = False,
        include_host_layers: bool = True,
    ) -> List[NetworkRunResult]:
        """Cycle-accurate simulations for many frames, one pass per digest
        group.

        The simulator's cycle and latency accounting is driven entirely
        by the site set (matching order, scan order, channel widths) —
        never by feature values — so frames sharing a coordinate digest
        share one :class:`NetworkPlan` *and* one cycle-accurate pass:
        the returned list holds the same
        :class:`~repro.arch.accelerator.NetworkRunResult` object at
        every index of a group (the numeric accumulators in it are the
        group representative's, mirroring how :meth:`estimate_batch`
        shares estimate objects).  Timing parity with per-frame
        :meth:`simulate` is asserted in the test suite.
        """
        tensors = list(tensors)
        if self._mapping_network():
            return [self.simulate(tensor, verify=verify) for tensor in tensors]
        results: List[Optional[NetworkRunResult]] = [None] * len(tensors)
        for indices in _digest_groups(tensors).values():
            result = self._simulate(
                tensors[indices[0]],
                verify=verify,
                include_host_layers=include_host_layers,
            )
            for index in indices:
                results[index] = result
        self._simulations += len(tensors)
        return results  # type: ignore[return-value]

    def _simulate(
        self,
        tensor: SparseTensor3D,
        verify: bool,
        include_host_layers: bool,
    ) -> NetworkRunResult:
        self.warm(tensor)
        return self.accelerator().run_network(
            self.net,
            tensor,
            verify=verify,
            include_host_layers=include_host_layers,
            host_model=self.host_model,
            rulebook_cache=self.rulebook_cache,
        )

    # ------------------------------------------------------------------
    # Parameter views (per-precision weight memoization)
    # ------------------------------------------------------------------
    def _cast_param(self, param: Parameter) -> np.ndarray:
        """The parameter value in the session dtype (memoized)."""
        if self.precision != "float32":
            return param.value
        cached = self._param_casts.get(id(param))
        if cached is None or cached[0] is not param:
            cached = (param, param.value.astype(np.float32))
            self._param_casts[id(param)] = cached
        return cached[1]

    def _quantized_param(self, layer) -> Tuple[np.ndarray, float, bool]:
        """Float64 weight codes, scale and INT32 saturation flag of
        ``layer`` (memoized).

        Memoizing checks, once per layer, that float64 sums it exactly:
        ``K^3 * Cin`` products of at most ``2^(w_bits + a_bits - 2)``.
        It also bounds the accumulators: a rulebook matches each output
        row at most once per offset, so ``|acc| <= max_cout
        sum_{k,cin} |w_code| * 2^(a_bits - 1)``.  The flag is false when
        that bound fits INT32, so the saturation could not bind.
        """
        param = layer.weight
        cached = self._param_quant.get(id(param))
        if cached is None or cached[0] is not param:
            spec = self.quantization
            volume, in_channels = param.value.shape[:2]
            bits = spec.weight_fmt.bits + spec.act_fmt.bits - 2
            if volume * in_channels << bits >= 1 << 53:
                raise ValueError(
                    f"layer {layer.name!r}: {volume * in_channels} products of "
                    f"{spec.weight_fmt.name} x {spec.act_fmt.name} codes can "
                    "sum past 2^53, beyond float64's exact integer range"
                )
            scale = calibrate_scale(param.value, spec.weight_fmt)
            codes = quantize_codes(param.value, scale, spec.weight_fmt)
            column_sum = int(np.abs(codes).sum(axis=(0, 1)).max())
            bound = column_sum << spec.act_fmt.bits - 1
            cached = (param, codes, scale, bound > ACC_INT32.max_value)
            self._param_quant[id(param)] = cached
        return cached[1], cached[2], cached[3]


def _digest_groups(tensors: Sequence[SparseTensor3D]) -> Dict[Hashable, List[int]]:
    """Frame indices grouped by site set, groups in first-seen order."""
    groups: Dict[Hashable, List[int]] = {}
    for index, tensor in enumerate(tensors):
        groups.setdefault((tensor.shape, tensor.coords_digest()), []).append(index)
    return groups


def _calibrate(values: np.ndarray, fmt: FixedPointFormat) -> Tuple[float, bool]:
    """``calibrate_scale(values, fmt)``, and whether the code clip binds.

    The peak is ``max(max x, -min x)``, which equals ``max|x|`` without
    the ``|x|`` temporary.  A scale that is not positive and finite
    raises :func:`quantize_codes`' ``ValueError``.  Division and
    ``rint`` are monotone, so ``rint(peak / scale)`` is the largest
    code magnitude: the ``fmt`` clip can bind only when it exceeds
    ``max_value``.  With a normal scale (and a format of at most 51
    bits) it never does, as the scale's relative rounding error is at
    most 2^-53; a subnormal scale (a peak near ``5e-324 * max_value``)
    has no such accuracy and can.
    """
    peak = max(float(values.max()), -float(values.min())) if values.size else 0.0
    scale = (peak if peak else 1.0) / fmt.max_value
    if not 0.0 < scale < np.inf:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    return scale, round(peak / scale) > fmt.max_value


def _round_codes(codes: np.ndarray, clips: bool, fmt: FixedPointFormat) -> None:
    """``rint`` ``codes`` in place, then saturate them to ``fmt`` if
    :func:`_calibrate` says the clip binds."""
    np.rint(codes, out=codes)
    if clips:
        np.clip(codes, fmt.min_value, fmt.max_value, out=codes)


class _FrameOps:
    """Walk ops over one frame's ``(N, C)`` features (``run``/``run_batch``).

    Each conv reads its rulebook from the plan and runs on the session's
    backend in the session's precision.  In float precisions the
    arithmetic is bit-identical to :meth:`SSUNet.forward` (same
    rulebooks, same contiguous GEMM blocks, same elementwise
    operations); the ``int`` precision runs the fixed-point pipeline per
    convolution.
    """

    def __init__(self, session: InferenceSession, plan: NetworkPlan) -> None:
        self.session = session
        self.plan = plan

    def subconv(self, layer, features: np.ndarray, level: int) -> np.ndarray:
        scale = self.plan.scale(level)
        return self._conv(
            scale.sub_rulebooks[layer.kernel_size], features, layer, scale.nnz
        )

    def down(self, layer, features: np.ndarray, level: int) -> np.ndarray:
        scale = self.plan.scale(level)
        return self._conv(
            scale.down_rulebook, features, layer, len(scale.down_coords)
        )

    def up(
        self, layer, features: np.ndarray, skip: np.ndarray, level: int
    ) -> np.ndarray:
        scale = self.plan.scale(level)
        if (layer.kernel_size, layer.stride) != (
            scale.down_kernel, scale.down_stride
        ):
            raise ValueError(
                f"upsampling layer {layer.name!r} does not mirror the "
                f"encoder downsampling at level {level}"
            )
        return self._conv(
            scale.down_rulebook.transposed(), features, layer, scale.nnz
        )

    def concat(self, skip: np.ndarray, features: np.ndarray) -> np.ndarray:
        return np.concatenate([skip, features], axis=-1)

    def batchnorm(self, layer, features: np.ndarray, level: int) -> np.ndarray:
        session = self.session
        scale = session._cast_param(layer.scale).reshape(1, -1)
        shift = session._cast_param(layer.shift).reshape(1, -1)
        out = features * scale
        return out + shift

    def relu(self, layer, features: np.ndarray, level: int) -> np.ndarray:
        return np.maximum(features, 0.0)

    def _conv(
        self, rulebook: Rulebook, features: np.ndarray, layer, num_outputs: int
    ) -> np.ndarray:
        """One conv of the frame on the session's backend.

        The ``int`` precision wraps the float64 GEMMs in the fixed-point
        pipeline: activation codes, the weight codes, saturate,
        dequantize, bias, requantize.  Integer codes in float64 sum
        exactly in any order.  The activation codes go to one fresh
        buffer (``features`` may be the caller's array); the output
        stage then runs in place on ``execute``'s fresh output, as the
        accelerator's does on its accumulators, and skips the INT32
        saturation and the code clips where they cannot bind.  Every
        value equals the step-by-step :mod:`repro.quant` pipeline.
        """
        session = self.session
        fixed_point = session.precision == "int"
        if fixed_point:
            fmt = session.quantization.act_fmt
            weights, weight_scale, saturates = session._quantized_param(layer)
            act_scale, clips = _calibrate(features, fmt)
            features = np.divide(features, act_scale)
            _round_codes(features, clips, fmt)
        else:
            weights = session._cast_param(layer.weight)
        out = session.backend.execute(
            rulebook, features, weights, num_outputs, stats=session.apply_stats
        )
        if fixed_point:
            if saturates:
                np.clip(out, ACC_INT32.min_value, ACC_INT32.max_value, out=out)
            out *= act_scale * weight_scale
        if layer.bias is not None:
            out += session._cast_param(layer.bias).reshape(1, -1)
        if not fixed_point:
            return out
        out_scale, clips = _calibrate(out, fmt)
        out /= out_scale
        _round_codes(out, clips, fmt)
        out *= out_scale
        return out


class _EstimateOps:
    """Walk ops pricing each conv from the plan; no arithmetic.

    The walk carries the :class:`NetworkEstimate` being filled in.
    Sub-Convs on the accelerator's kernel get the analytical model plus
    system overheads; every other conv goes to the host model.
    """

    def __init__(self, session: InferenceSession, plan: NetworkPlan) -> None:
        self.session = session
        self.plan = plan

    def subconv(self, layer, estimate: NetworkEstimate, level: int):
        scale = self.plan.scale(level)
        rulebook = scale.sub_rulebooks[layer.kernel_size]
        if layer.kernel_size == self.session.accelerator_config.kernel_size:
            estimate.layers.append(self._accelerated(layer, scale, rulebook))
        else:
            self._host(estimate, layer, "subconv", scale, rulebook)
        return estimate

    def down(self, layer, estimate: NetworkEstimate, level: int):
        scale = self.plan.scale(level)
        self._host(estimate, layer, "sparseconv", scale, scale.down_rulebook)
        return estimate

    def up(self, layer, estimate: NetworkEstimate, skip, level: int):
        # Matching work of a transposed conv is driven by the fine
        # reference set it restores.
        scale = self.plan.scale(level)
        self._host(estimate, layer, "invconv", scale, scale.down_rulebook)
        return estimate

    def batchnorm(self, layer, estimate: NetworkEstimate, level: int):
        return estimate

    relu = batchnorm

    def concat(self, skip, estimate: NetworkEstimate):
        return estimate

    def _host(
        self,
        estimate: NetworkEstimate,
        layer,
        kind: str,
        scale: ScalePlan,
        rulebook: Rulebook,
    ) -> None:
        execution = LayerExecution(
            name=layer.name,
            input_tensor=scale.template,
            in_channels=layer.in_channels,
            out_channels=layer.out_channels,
            kernel_size=layer.kernel_size,
            kind=kind,
            stride=getattr(layer, "stride", 1),
        )
        estimate.host_layers.append(
            self.session.host_model.run_layer(execution, rulebook=rulebook)
        )

    def _accelerated(
        self, layer, scale: ScalePlan, rulebook: Rulebook
    ) -> LayerEstimate:
        session = self.session
        cfg = session.accelerator_config
        scanned, mask_bits = scale.encoding_statistics(cfg, session.analytical)
        cycles = session.analytical.estimate_cycles(
            scanned, rulebook.total_matches, layer.in_channels, layer.out_channels
        )
        core_seconds = cycles / cfg.clock_hz
        volume = layer_transfer_volume(
            nnz_in=scale.nnz,
            nnz_out=scale.nnz,
            in_channels=layer.in_channels,
            out_channels=layer.out_channels,
            kernel_volume=layer.kernel_size ** 3,
            mask_bits=mask_bits,
            weight_bits=cfg.weight_bits,
            activation_bits=cfg.activation_bits,
        )
        overhead_seconds = session.overheads.layer_overhead_seconds(
            volume, compute_seconds=core_seconds
        )
        return LayerEstimate(
            name=layer.name,
            level=scale.level,
            kernel_size=layer.kernel_size,
            in_channels=layer.in_channels,
            out_channels=layer.out_channels,
            nnz=scale.nnz,
            matches=rulebook.total_matches,
            cycles=cycles,
            core_seconds=core_seconds,
            overhead_seconds=overhead_seconds,
        )
