"""Streaming execution of point-cloud frames on the accelerator model.

The runner is a thin per-frame loop over an
:class:`repro.engine.session.InferenceSession`: the session owns the
cross-frame :class:`repro.nn.rulebook.RulebookCache` (frames whose voxel
set matches a previously seen frame skip the matching pass entirely),
the accelerator configuration, and the overhead model, so the streaming
path shares one matching state with every other consumer.  Per-frame
engine statistics (rulebook hits/misses, matching and scatter seconds)
are reported in :class:`FrameResult` / :class:`StreamStats`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

import numpy as np

from repro.arch.config import AcceleratorConfig
from repro.arch.overhead import SystemOverheadModel, layer_transfer_volume
from repro.arch.tiling import TileGrid
from repro.engine.session import InferenceSession
from repro.geometry.point_cloud import PointCloud
from repro.geometry.synthetic import make_shapenet_like_cloud
from repro.geometry.voxelizer import Voxelizer
from repro.nn.functional import ApplyStats
from repro.nn.init import conv_weight
from repro.nn.rulebook import RulebookCache
from repro.sparse.coo import SparseTensor3D


class RotatingSceneSource:
    """Deterministic frame source: a scene rotating about the z axis.

    Mimics what a spinning LiDAR platform observes of a static object:
    each frame is the base cloud rotated by ``step_rad`` about the scene
    center plus fresh per-frame sensor noise.
    """

    def __init__(
        self,
        base_cloud: Optional[PointCloud] = None,
        num_frames: int = 10,
        step_rad: float = 0.15,
        noise_sigma: float = 0.001,
        seed: int = 0,
    ) -> None:
        if num_frames <= 0:
            raise ValueError(f"num_frames must be positive, got {num_frames}")
        self.base_cloud = base_cloud or make_shapenet_like_cloud(seed=seed)
        self.num_frames = int(num_frames)
        self.step_rad = float(step_rad)
        self.noise_sigma = float(noise_sigma)
        self.seed = int(seed)

    def frames(self) -> Iterator[PointCloud]:
        center = np.array([0.5, 0.5, 0.5])
        for frame_id in range(self.num_frames):
            angle = frame_id * self.step_rad
            shifted = PointCloud(self.base_cloud.points - center)
            rotated = shifted.rotated_z(angle)
            points = rotated.points + center
            if self.noise_sigma > 0.0:
                rng = np.random.default_rng(self.seed * 1_000_003 + frame_id)
                points = points + rng.normal(
                    scale=self.noise_sigma, size=points.shape
                )
            np.clip(points, 0.0, 1.0 - 1e-9, out=points)
            yield PointCloud(points)

    def __iter__(self) -> Iterator[PointCloud]:
        return self.frames()


class DriftingSceneSource:
    """Deterministic frame source: a nearly-static scene with voxel churn.

    Models nearly-static workloads (SLAM, odometry, a surveillance
    camera): the scene is static except for a
    small per-frame fraction of drifting measurements.  Each frame,
    ``churn * n_points`` randomly chosen points jump to the jittered
    neighborhood of other surface points (flickering returns, moving
    clutter), and the change is cumulative — the scene drifts instead of
    oscillating around frame 0.  The per-frame *voxel* churn therefore
    stays of the order of ``churn``, so consecutive frames are digest
    misses but near-matches: the regime where
    :class:`repro.engine.mapping_delta.DeltaMappingCache` splices cached
    neighbor tables instead of searching from scratch.
    """

    def __init__(
        self,
        base_cloud: Optional[PointCloud] = None,
        num_frames: int = 10,
        churn: float = 0.02,
        jitter_sigma: float = 0.01,
        seed: int = 0,
    ) -> None:
        if num_frames <= 0:
            raise ValueError(f"num_frames must be positive, got {num_frames}")
        if not 0.0 <= churn <= 1.0:
            raise ValueError(f"churn must be in [0, 1], got {churn}")
        if jitter_sigma < 0.0:
            raise ValueError(
                f"jitter_sigma must be >= 0, got {jitter_sigma}"
            )
        self.base_cloud = base_cloud or make_shapenet_like_cloud(seed=seed)
        self.num_frames = int(num_frames)
        self.churn = float(churn)
        self.jitter_sigma = float(jitter_sigma)
        self.seed = int(seed)

    def frames(self) -> Iterator[PointCloud]:
        points = np.array(self.base_cloud.points, dtype=np.float64)
        n = len(points)
        for frame_id in range(self.num_frames):
            if frame_id > 0 and self.churn > 0.0 and n > 0:
                rng = np.random.default_rng(
                    self.seed * 1_000_003 + frame_id
                )
                moved = max(1, int(round(self.churn * n)))
                victims = rng.choice(n, size=moved, replace=False)
                donors = rng.choice(n, size=moved, replace=False)
                points[victims] = points[donors] + rng.normal(
                    scale=self.jitter_sigma, size=(moved, 3)
                )
                np.clip(points, 0.0, 1.0 - 1e-9, out=points)
            yield PointCloud(points.copy())

    def __iter__(self) -> Iterator[PointCloud]:
        return self.frames()


@dataclass(frozen=True)
class FrameResult:
    """Execution record of one streamed frame.

    The engine fields describe the software-side sparse-conv engine:
    ``rulebook_hits`` / ``rulebook_misses`` are this frame's rulebook
    cache lookups, ``matching_seconds`` is the wall-clock time spent in
    (or saved by skipping) rulebook construction, and ``scatter_seconds``
    is the fused engine's scatter-stage time when the runner executes the
    reference convolution (see ``StreamingRunner(execute_reference=True)``).
    """

    frame_id: int
    nnz: int
    active_tiles: int
    matches: int
    core_seconds: float
    total_seconds: float
    effective_ops: int
    rulebook_hits: int = 0
    rulebook_misses: int = 0
    matching_seconds: float = 0.0
    scatter_seconds: float = 0.0


@dataclass
class StreamStats:
    """Aggregate statistics of one streaming run."""

    frames: List[FrameResult] = field(default_factory=list)
    #: Preallocated per-frame latency vector, rebuilt only when the
    #: stream grows (frames are append-only during a run), so repeated
    #: percentile queries do not re-collect a Python list each call.
    _latencies: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    @property
    def total_seconds(self) -> float:
        return sum(frame.total_seconds for frame in self.frames)

    @property
    def fps(self) -> float:
        """Sustained frames per second over the whole stream.

        Raises a clear :class:`ValueError` on an empty stream (there is
        no frame rate to report) instead of surfacing a zero division.
        """
        if not self.frames:
            raise ValueError(
                "fps is undefined on an empty stream (no frames recorded)"
            )
        if self.total_seconds == 0.0:
            return 0.0
        return self.num_frames / self.total_seconds

    def latency_percentile(self, percentile: float) -> float:
        """Per-frame end-to-end latency percentile in seconds.

        ``percentile`` must lie in ``[0, 100]``; an empty stream raises
        :class:`ValueError` (there is no latency distribution to query).
        """
        if not np.isfinite(percentile) or not 0.0 <= percentile <= 100.0:
            raise ValueError(
                f"percentile must be in [0, 100], got {percentile!r}"
            )
        if not self.frames:
            raise ValueError(
                "latency_percentile is undefined on an empty stream "
                "(no frames recorded)"
            )
        if self._latencies is None or len(self._latencies) != len(
            self.frames
        ):
            self._latencies = np.fromiter(
                (frame.total_seconds for frame in self.frames),
                dtype=np.float64,
                count=len(self.frames),
            )
        return float(np.percentile(self._latencies, percentile))

    def mean_gops(self) -> float:
        if self.total_seconds == 0.0:
            return 0.0
        ops = sum(frame.effective_ops for frame in self.frames)
        return ops / self.total_seconds / 1e9

    # ------------------------------------------------------------------
    # Engine statistics
    # ------------------------------------------------------------------
    @property
    def rulebook_hits(self) -> int:
        return sum(frame.rulebook_hits for frame in self.frames)

    @property
    def rulebook_misses(self) -> int:
        return sum(frame.rulebook_misses for frame in self.frames)

    @property
    def rulebook_hit_rate(self) -> float:
        lookups = self.rulebook_hits + self.rulebook_misses
        if lookups == 0:
            return 0.0
        return self.rulebook_hits / lookups

    @property
    def matching_seconds(self) -> float:
        return sum(frame.matching_seconds for frame in self.frames)

    @property
    def scatter_seconds(self) -> float:
        return sum(frame.scatter_seconds for frame in self.frames)


class StreamingRunner:
    """Runs a Sub-Conv layer per frame and collects latency statistics.

    The runner is a thin frame loop: matching, cycle estimation, and
    configuration all live in the :class:`InferenceSession` it wraps.
    Construct it either from a ``session`` (sharing caches with other
    consumers) or from the individual components, which are then used to
    build a private session.

    Parameters
    ----------
    session:
        The inference session to run against.  Mutually exclusive with
        ``config`` / ``overheads`` / ``rulebook_cache``.
    config:
        Accelerator configuration (legacy construction path).
    in_channels / out_channels:
        The Sub-Conv workload executed per frame (the full-resolution
        encoder layer is the latency-dominant one; see Fig. 10).
    resolution:
        Voxel grid side (192 in the paper).
    detailed:
        ``True`` runs the cycle-accurate simulator per frame; ``False``
        (default) uses the validated analytical model, which is what a
        deployment-planning sweep wants.
    rulebook_cache:
        Cross-frame rulebook cache; frames whose voxel set matches an
        earlier frame skip the matching pass (a cache hit).
    execute_reference:
        ``True`` additionally runs the session's execution backend on
        every frame with deterministic weights, populating
        ``FrameResult.scatter_seconds``.  Only meaningful in analytical
        mode; adds real compute per frame.
    backend:
        Execution-backend registry name (or instance) for the private
        session built from the legacy keyword form; mutually exclusive
        with ``session=`` (the session already owns its backend).
    """

    def __init__(
        self,
        config: Optional[AcceleratorConfig] = None,
        in_channels: int = 1,
        out_channels: int = 16,
        resolution: int = 192,
        detailed: bool = False,
        overheads: Optional[SystemOverheadModel] = None,
        rulebook_cache: Optional[RulebookCache] = None,
        execute_reference: bool = False,
        session: Optional[InferenceSession] = None,
        backend=None,
    ) -> None:
        if session is None:
            session = InferenceSession(
                accelerator_config=config,
                overheads=overheads,
                rulebook_cache=rulebook_cache,
                backend=backend,
            )
        elif (
            config is not None
            or overheads is not None
            or rulebook_cache is not None
            or backend is not None
        ):
            raise ValueError(
                "pass either session= or config/overheads/rulebook_cache/"
                "backend, not both — the session owns those components"
            )
        self.session = session
        self.config = session.accelerator_config
        self.overheads = session.overheads
        self.rulebook_cache = session.rulebook_cache
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.voxelizer = Voxelizer(
            resolution=resolution, normalize=False, occupancy_only=True
        )
        self.detailed = bool(detailed)
        self.execute_reference = bool(execute_reference)
        self._reference_weights = (
            conv_weight(
                np.random.default_rng(0),
                self.config.kernel_size ** 3,
                self.in_channels,
                self.out_channels,
            )
            if self.execute_reference
            else None
        )

    def _frame_tensor(self, cloud: PointCloud, rng: np.random.Generator) -> SparseTensor3D:
        grid = self.voxelizer.voxelize(cloud)
        if self.in_channels == 1:
            return grid
        return grid.with_features(
            rng.standard_normal((grid.nnz, self.in_channels))
        )

    def run(self, source) -> StreamStats:
        """Stream every frame of ``source`` through the accelerator model.

        ``source`` is any iterable of :class:`PointCloud` frames with a
        ``seed`` attribute (:class:`RotatingSceneSource`,
        :class:`DriftingSceneSource`, or a custom feed).
        """
        stats = StreamStats()
        rng = np.random.default_rng(source.seed)
        session = self.session
        accelerator = session.accelerator()
        cache = self.rulebook_cache
        for frame_id, cloud in enumerate(source):
            tensor = self._frame_tensor(cloud, rng)
            tiles = TileGrid(tensor, self.config.tile_shape)
            hits_before, misses_before = cache.hits, cache.misses
            matching_seconds = 0.0
            scatter_seconds = 0.0
            if self.detailed:
                run = accelerator.run_layer(
                    tensor, out_channels=self.out_channels,
                    layer_name=f"frame{frame_id}",
                )
                core_seconds = run.time_seconds
                total_seconds = run.total_seconds
                matches = run.matches
                ops = run.effective_ops
            else:
                t0 = time.perf_counter()
                rulebook = session.matching(tensor)
                matching_seconds = time.perf_counter() - t0
                matches = rulebook.total_matches
                scanned = session.analytical.scanned_positions(tensor)
                cycles = session.analytical.estimate_cycles(
                    scanned, matches, self.in_channels, self.out_channels
                )
                core_seconds = cycles / self.config.clock_hz
                volume = layer_transfer_volume(
                    nnz_in=tensor.nnz,
                    nnz_out=tensor.nnz,
                    in_channels=self.in_channels,
                    out_channels=self.out_channels,
                    kernel_volume=self.config.kernel_size ** 3,
                    mask_bits=tiles.num_active_tiles * tiles.tile_volume(),
                    weight_bits=self.config.weight_bits,
                    activation_bits=self.config.activation_bits,
                )
                total_seconds = core_seconds + self.overheads.layer_overhead_seconds(
                    volume, compute_seconds=core_seconds
                )
                ops = 2 * matches * self.in_channels * self.out_channels
                if self.execute_reference:
                    apply_stats = ApplyStats()
                    session.backend.execute(
                        rulebook,
                        tensor.features,
                        self._reference_weights,
                        tensor.nnz,
                        stats=apply_stats,
                    )
                    scatter_seconds = apply_stats.scatter_seconds
            stats.frames.append(
                FrameResult(
                    frame_id=frame_id,
                    nnz=tensor.nnz,
                    active_tiles=tiles.num_active_tiles,
                    matches=matches,
                    core_seconds=core_seconds,
                    total_seconds=total_seconds,
                    effective_ops=ops,
                    rulebook_hits=cache.hits - hits_before,
                    rulebook_misses=cache.misses - misses_before,
                    matching_seconds=matching_seconds,
                    scatter_seconds=scatter_seconds,
                )
            )
        return stats
