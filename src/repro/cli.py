"""Command-line report generator: regenerate the paper's evaluation.

Usage::

    python -m repro                 # all four experiments
    python -m repro table1 fig10    # a subset
    python -m repro --seed 3 table1 # different synthetic sample
    python -m repro stream          # streaming demo via InferenceSession
    python -m repro serve           # async micro-batching serve demo
    python -m repro serve --cluster 2   # loopback worker-fleet serve demo
    python -m repro worker --port 0 # one cluster worker node
    python -m repro points          # point-based net via the mapping ops
    python -m repro lint            # AST-based invariant analyzer
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List

from repro.analysis import run_fig10, run_table1, run_table2, run_table3

_EXPERIMENTS: Dict[str, Callable[[int], str]] = {
    "table1": lambda seed: run_table1(seed=seed).format(),
    "table2": lambda seed: run_table2().format(),
    "table3": lambda seed: run_table3(seed=seed).format(),
    "fig10": lambda seed: run_fig10(seed=seed).format(),
}

_TITLES = {
    "table1": "Table I — Analysis of zero removing strategy",
    "table2": "Table II — FPGA frequency and resource utilization",
    "table3": "Table III — Comparison with other implementations",
    "fig10": "Fig. 10 — Time consumption per Sub-Conv layer",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Regenerate the evaluation of 'An Efficient FPGA Accelerator "
            "for Point Cloud' (SOCC 2022)."
        ),
        epilog=(
            "The 'stream' subcommand (python -m repro stream --help) runs "
            "the streaming runtime through an InferenceSession instead; "
            "'serve' (python -m repro serve --help) runs the async "
            "micro-batching request queue (add --cluster N for the loopback "
            "worker-fleet demo); 'worker' (python -m repro worker --help) "
            "runs one cluster worker node; 'points' (python -m repro points "
            "--help) serves a point-based network through the mapping-ops "
            "subsystem; 'lint' (python -m repro lint "
            "--help) runs the repo's AST-based invariant analyzer."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help=(
            "which artifacts to regenerate: "
            + ", ".join(sorted(_EXPERIMENTS))
            + ", or 'all' (default: all)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="synthetic-sample seed (default 0)"
    )
    return parser


def build_stream_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro stream",
        description=(
            "Stream a rotating synthetic scene through an InferenceSession "
            "and report per-frame latency plus engine statistics."
        ),
    )
    parser.add_argument(
        "--frames", type=int, default=8, help="number of frames (default 8)"
    )
    parser.add_argument(
        "--resolution", type=int, default=96,
        help="voxel grid side (default 96; the paper uses 192)",
    )
    parser.add_argument(
        "--points", type=int, default=20000,
        help="points per synthetic cloud (default 20000)",
    )
    parser.add_argument(
        "--step-rad", type=float, default=0.15,
        help="per-frame rotation in radians (default 0.15); 0 is a static "
        "scene, where every frame after the first hits the rulebook cache",
    )
    parser.add_argument(
        "--noise", type=float, default=0.001,
        help="per-frame sensor-noise sigma (default 0.001); use 0 together "
        "with --step-rad 0 for a perfectly static scene",
    )
    parser.add_argument(
        "--out-channels", type=int, default=16,
        help="Sub-Conv output channels per frame (default 16)",
    )
    parser.add_argument(
        "--detailed", action="store_true",
        help="run the cycle-accurate simulator per frame (slow) instead of "
        "the analytical model",
    )
    parser.add_argument(
        "--scene", choices=("rotating", "drifting"), default="rotating",
        help="frame source: 'rotating' (spinning-LiDAR view of a static "
        "object) or 'drifting' (nearly-static scene with per-frame voxel "
        "churn)",
    )
    parser.add_argument(
        "--churn", type=float, default=0.02,
        help="drifting scene only: fraction of points re-scattered per "
        "frame (default 0.02)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="scene seed (default 0)"
    )
    _add_backend_argument(parser)
    return parser


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", default="numpy",
        help="execution backend evaluating rulebooks (default numpy); all "
        "backends are bit-identical, they differ in how work is computed",
    )


def _resolve_backend(parser: argparse.ArgumentParser, name: str) -> str:
    """Fail fast on unknown backend names, listing what is registered.

    The registry is openly extensible, so the choice set cannot be
    frozen into the parser at build time; validating here keeps the
    error at the command line (with the full list in the message)
    instead of surfacing later from the registry deep inside session
    construction.
    """
    import repro.runtime  # noqa: F401  (registers the "remote" backend)
    from repro.engine import available_backends

    if name not in available_backends():
        parser.error(
            f"unknown execution backend {name!r}; available backends: "
            f"{list(available_backends())}"
        )
    return name


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Serve a rotating synthetic scene through the asyncio "
            "micro-batching request queue (SessionServer) and compare "
            "sustained throughput against unbatched sequential execution."
        ),
    )
    parser.add_argument(
        "--frames", type=int, default=4,
        help="distinct scene frames (default 4)",
    )
    parser.add_argument(
        "--clients", type=int, default=4,
        help="concurrent clients submitting each frame (default 4); "
        "requests sharing a frame's voxel set batch into one digest group",
    )
    parser.add_argument(
        "--resolution", type=int, default=48,
        help="voxel grid side (default 48)",
    )
    parser.add_argument(
        "--points", type=int, default=8000,
        help="points per synthetic cloud (default 8000)",
    )
    parser.add_argument(
        "--step-rad", type=float, default=0.15,
        help="per-frame rotation in radians (default 0.15)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=16,
        help="micro-batch size cap per dispatch (default 16)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="skip the sequential (unbatched) baseline comparison",
    )
    parser.add_argument(
        "--max-pending", type=int, default=None,
        help="backpressure: bound on accepted-but-unserved requests; "
        "submissions beyond it fail fast with ServerOverloaded "
        "(default: unbounded)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=None,
        help="backpressure: per-request queueing deadline in ms; requests "
        "dispatched past it are rejected with DeadlineExceeded "
        "(default: none)",
    )
    parser.add_argument(
        "--cluster", type=int, default=None, metavar="N",
        help="spawn N loopback worker processes and serve through the "
        "'remote' cluster backend instead of an in-process one; runs the "
        "drifting-scene demo, verifies bit-identity against the in-process "
        "numpy session, and reports cluster vs single-node throughput",
    )
    parser.add_argument(
        "--churn", type=float, default=0.02,
        help="cluster demo only: per-frame point churn of the drifting "
        "scene (default 0.02)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="scene seed (default 0)"
    )
    parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="P",
        help="expose Prometheus metrics for the run on "
        "http://127.0.0.1:P/metrics — one registry shared by the "
        "session, the server, and (with --cluster) the cluster "
        "backend; 0 picks an ephemeral port",
    )
    parser.add_argument(
        "--trace-dump", type=str, default=None, metavar="PATH",
        help="after serving, write the recent per-micro-batch stage "
        "timelines (queue-wait/execute/respond) as JSON to PATH",
    )
    _add_backend_argument(parser)
    return parser


def _obs_setup(args):
    """Shared registry/tracer (and HTTP endpoint) for ``serve``.

    Returns ``(registry, tracer, endpoint)`` — all ``None`` when
    neither ``--metrics-port`` nor ``--trace-dump`` was given, so the
    plain demo keeps its per-component private registries.
    """
    if args.metrics_port is None and args.trace_dump is None:
        return None, None, None
    from repro.obs import MetricRegistry, MetricsHTTPServer, Tracer

    registry = MetricRegistry()
    tracer = Tracer()
    endpoint = None
    if args.metrics_port is not None:
        endpoint = MetricsHTTPServer(
            registry, port=args.metrics_port, tracer=tracer
        ).start()
        print(f"metrics endpoint: {endpoint.url}")
    return registry, tracer, endpoint


def _obs_teardown(args, tracer, endpoint) -> None:
    if tracer is not None and args.trace_dump is not None:
        tracer.dump_to(args.trace_dump)
        print(f"  traces dumped to:   {args.trace_dump}")
    if endpoint is not None:
        endpoint.stop()


def _run_serve_cluster(parser: argparse.ArgumentParser, args) -> int:
    """The ``serve --cluster N`` demo: a loopback worker fleet.

    Spawns N ``python -m repro worker`` subprocesses, serves a drifting
    scene through a :class:`SessionServer` whose session fans digest
    groups out over the ``remote`` backend, verifies every served output
    bit-for-bit against an in-process numpy session, and prints cluster
    vs single-node serve throughput.  Exits nonzero when the
    bit-identity verification fails, so CI can gate on it.
    """
    import time

    from repro.engine import InferenceSession
    from repro.geometry import Voxelizer, make_shapenet_like_cloud
    from repro.runtime import (
        DriftingSceneSource,
        LocalWorkerFleet,
        RemoteShardBackend,
        serve_frames,
    )

    source = DriftingSceneSource(
        base_cloud=make_shapenet_like_cloud(
            seed=args.seed, n_points=args.points
        ),
        num_frames=args.frames,
        churn=args.churn,
        seed=args.seed,
    )
    voxelizer = Voxelizer(
        resolution=args.resolution, normalize=False, occupancy_only=True
    )
    scene = [voxelizer.voxelize(cloud) for cloud in source]
    requests = [frame for frame in scene for _ in range(args.clients)]

    registry, tracer, endpoint = _obs_setup(args)
    fleet = LocalWorkerFleet.spawn(args.cluster)
    backend = RemoteShardBackend(workers=fleet.addresses, registry=registry)
    try:
        session = InferenceSession(backend=backend, registry=registry)
        session.warm(scene[0])
        outputs, stats = serve_frames(
            requests,
            session=session,
            concurrency=args.clients,
            max_batch=args.max_batch,
            registry=registry,
            tracer=tracer,
        )
        # Single-node comparison: the same serve loop over an
        # in-process numpy session (same micro-batching, no fan-out).
        single = InferenceSession(backend="numpy")
        single.warm(scene[0])
        _, single_stats = serve_frames(
            requests,
            session=single,
            concurrency=args.clients,
            max_batch=args.max_batch,
        )
        # Bit-identity referee: sequential in-process numpy runs.
        reference = InferenceSession(backend="numpy")
        reference.warm(scene[0])
        start = time.perf_counter()
        baseline = [reference.run(frame) for frame in requests]
        sequential_seconds = time.perf_counter() - start
        identical = all(
            out is not None
            and out.features.dtype == ref.features.dtype
            and (out.features == ref.features).all()
            for out, ref in zip(outputs, baseline)
        )
        cluster_stats = backend.stats
        print(
            f"served {stats.requests} requests ({args.frames} frames x "
            f"{args.clients} clients) at {args.resolution}^3 via a "
            f"{args.cluster}-worker loopback cluster (drifting scene, "
            f"churn {args.churn})"
        )
        print(
            f"  micro-batches:      {stats.micro_batches} "
            f"(mean size {stats.mean_batch_size:.1f}, "
            f"max {stats.max_batch_size})"
        )
        print(
            f"  cluster routing:    {cluster_stats.groups_dispatched} groups "
            f"/ {cluster_stats.frames_dispatched} frames dispatched, "
            f"{cluster_stats.spec_syncs} spec syncs, "
            f"{cluster_stats.workers_lost} workers lost, "
            f"{cluster_stats.groups_rerouted} groups rerouted"
        )
        print(f"  cluster serve:      {stats.fps:10.2f} frames/s")
        print(f"  single-node serve:  {single_stats.fps:10.2f} frames/s")
        print(
            f"  sequential numpy:   "
            f"{len(requests) / sequential_seconds:10.2f} frames/s"
        )
        verdict = "yes" if identical else "NO"
        ratio = stats.fps / single_stats.fps if single_stats.fps else 0.0
        print(
            f"  cluster vs single:  {ratio:10.2f}x "
            f"(bit-identical: {verdict})"
        )
        if not identical:
            return 1
        return 0
    finally:
        _obs_teardown(args, tracer, endpoint)
        backend.close()
        fleet.terminate()


def run_serve(argv: List[str]) -> int:
    """The ``serve`` subcommand: concurrent clients -> SessionServer."""
    import time

    from repro.engine import InferenceSession
    from repro.geometry import Voxelizer, make_shapenet_like_cloud
    from repro.runtime import RotatingSceneSource, serve_frames

    parser = build_serve_parser()
    args = parser.parse_args(argv)
    if args.frames <= 0:
        parser.error("--frames must be positive")
    if args.clients <= 0:
        parser.error("--clients must be positive")
    if args.metrics_port is not None and not 0 <= args.metrics_port < 65536:
        parser.error("--metrics-port must lie in [0, 65535]")
    if args.cluster is not None:
        if args.cluster < 1:
            parser.error("--cluster must be >= 1")
        if not 0.0 <= args.churn <= 1.0:
            parser.error("--churn must lie in [0, 1]")
        if args.backend != "numpy":
            parser.error(
                "--cluster serves through the 'remote' backend; drop "
                "--backend"
            )
        return _run_serve_cluster(parser, args)
    backend = _resolve_backend(parser, args.backend)
    if args.max_pending is not None and args.max_pending < 1:
        parser.error("--max-pending must be >= 1")
    if args.deadline_ms is not None and args.deadline_ms <= 0:
        parser.error("--deadline-ms must be positive")
    source = RotatingSceneSource(
        base_cloud=make_shapenet_like_cloud(seed=args.seed, n_points=args.points),
        num_frames=args.frames,
        step_rad=args.step_rad,
        seed=args.seed,
    )
    voxelizer = Voxelizer(
        resolution=args.resolution, normalize=False, occupancy_only=True
    )
    scene = [voxelizer.voxelize(cloud) for cloud in source]
    # args.clients concurrent users per frame: same voxel sets, so the
    # dispatcher's micro-batches collapse into large digest groups.
    requests = [frame for frame in scene for _ in range(args.clients)]

    registry, tracer, endpoint = _obs_setup(args)
    session = InferenceSession(backend=backend, registry=registry)
    session.warm(scene[0])  # touch the lazy net outside the timed region
    outputs, stats = serve_frames(
        requests,
        session=session,
        concurrency=args.clients,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        deadline_s=None if args.deadline_ms is None else args.deadline_ms / 1e3,
        registry=registry,
        tracer=tracer,
    )
    print(
        f"served {stats.requests} requests ({args.frames} frames x "
        f"{args.clients} clients) at {args.resolution}^3 via backend="
        f"{backend}"
    )
    print(
        f"  micro-batches:      {stats.micro_batches} "
        f"(mean size {stats.mean_batch_size:.1f}, max {stats.max_batch_size})"
    )
    rejected = stats.rejected_overload + stats.rejected_deadline
    if args.max_pending is not None or args.deadline_ms is not None:
        print(
            f"  rejected:           {rejected} "
            f"({stats.rejected_overload} overload, "
            f"{stats.rejected_deadline} deadline)"
        )
    serve_fps = stats.fps if stats.requests else 0.0
    print(f"  serve throughput:   {serve_fps:10.2f} frames/s")
    _obs_teardown(args, tracer, endpoint)
    if not args.no_baseline:
        baseline_session = InferenceSession(backend=backend)
        baseline_session.warm(scene[0])
        start = time.perf_counter()
        baseline = [baseline_session.run(frame) for frame in requests]
        baseline_seconds = time.perf_counter() - start
        baseline_fps = len(requests) / baseline_seconds
        served = [
            (out, ref)
            for out, ref in zip(outputs, baseline)
            if out is not None  # rejected under backpressure
        ]
        identical = all(
            out.features.dtype == ref.features.dtype
            and (out.features == ref.features).all()
            for out, ref in served
        )
        verdict = "yes" if identical else "NO"
        if not served:
            # Nothing was compared; an empty all() must not masquerade
            # as a bit-identity pass.
            verdict = "n/a, every request was rejected"
        print(f"  sequential baseline:{baseline_fps:10.2f} frames/s")
        print(
            f"  speedup:            {serve_fps / baseline_fps:10.2f}x "
            f"(bit-identical: {verdict})"
        )
        if served and not identical:
            return 1
    return 0


def run_stream(argv: List[str]) -> int:
    """The ``stream`` subcommand: scene source -> InferenceSession."""
    # Imported here so `python -m repro table2` stays light.
    from repro.engine import InferenceSession
    from repro.geometry import make_shapenet_like_cloud
    from repro.runtime import (
        DriftingSceneSource,
        RotatingSceneSource,
        StreamingRunner,
    )

    parser = build_stream_parser()
    args = parser.parse_args(argv)
    if args.frames <= 0:
        parser.error("--frames must be positive")
    backend = _resolve_backend(parser, args.backend)
    base_cloud = make_shapenet_like_cloud(seed=args.seed, n_points=args.points)
    if args.scene == "drifting":
        if not 0.0 <= args.churn <= 1.0:
            parser.error("--churn must lie in [0, 1]")
        source = DriftingSceneSource(
            base_cloud=base_cloud,
            num_frames=args.frames,
            churn=args.churn,
            seed=args.seed,
        )
    else:
        source = RotatingSceneSource(
            base_cloud=base_cloud,
            num_frames=args.frames,
            step_rad=args.step_rad,
            noise_sigma=args.noise,
            seed=args.seed,
        )
    session = InferenceSession(backend=backend)
    runner = StreamingRunner(
        session=session,
        out_channels=args.out_channels,
        resolution=args.resolution,
        detailed=args.detailed,
        execute_reference=not args.detailed,
    )
    stats = runner.run(source)
    print(
        f"streamed {stats.num_frames} frames at {args.resolution}^3 "
        f"(1->{args.out_channels} Sub-Conv per frame, {args.scene} scene)"
    )
    for frame in stats.frames:
        rulebook = "hit" if frame.rulebook_hits else "miss"
        if args.detailed:
            # Cycle-accurate mode performs matching inside the simulated
            # SDMU pipeline; the software rulebook cache is not on that
            # path, so a hit/miss label would be meaningless.
            rulebook = "n/a"
        print(
            f"  frame {frame.frame_id:3d}: nnz={frame.nnz:7d} "
            f"matches={frame.matches:8d} "
            f"latency={frame.total_seconds * 1e3:7.3f} ms "
            f"rulebook={rulebook}"
        )
    if args.detailed:
        hit_line = "rulebook hit rate:    n/a (cycle-accurate SDMU matching)"
    else:
        hit_line = (
            f"rulebook hit rate:    {stats.rulebook_hit_rate:10.2%} "
            f"({stats.rulebook_hits} hits, {stats.rulebook_misses} misses)"
        )
    print(
        f"sustained fps:        {stats.fps:10.1f}\n"
        f"p50 / p95 latency:    {stats.latency_percentile(50) * 1e3:7.3f} / "
        f"{stats.latency_percentile(95) * 1e3:.3f} ms\n"
        f"{hit_line}\n"
        f"matching seconds:     {stats.matching_seconds:10.6f}\n"
        f"scatter seconds:      {stats.scatter_seconds:10.6f}\n"
        f"mean effective GOPS:  {stats.mean_gops():10.2f}"
    )
    return 0


def build_worker_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro worker",
        description=(
            "Run one cluster worker node: a TCP endpoint hosting a warm "
            "InferenceSession per synced net-spec digest, serving "
            "EXECUTE_BATCH digest groups to a RemoteShardBackend "
            "coordinator (see docs/cluster.md)."
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port to listen on (default 0 = ephemeral; the bound "
        "port is announced on stdout as 'repro-worker ready ... port=P')",
    )
    parser.add_argument(
        "--max-sessions", type=int, default=4,
        help="warm spec-digest sessions to keep (LRU, default 4); during "
        "a weight swap the old and new digests serve concurrently",
    )
    return parser


def run_worker(argv: List[str]) -> int:
    """The ``worker`` subcommand: one cluster serving node."""
    import asyncio

    from repro.runtime.worker import serve_worker

    parser = build_worker_parser()
    args = parser.parse_args(argv)
    if not 0 <= args.port <= 65535:
        parser.error(f"--port must lie in [0, 65535], got {args.port}")
    if args.max_sessions < 1:
        parser.error("--max-sessions must be >= 1")

    def announce(line: str) -> None:
        print(line, flush=True)

    try:
        asyncio.run(
            serve_worker(
                host=args.host,
                port=args.port,
                max_sessions=args.max_sessions,
                announce=announce,
            )
        )
    except KeyboardInterrupt:
        pass
    return 0


def build_points_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro points",
        description=(
            "Serve a point-based (PointNet++-style) classifier over a "
            "drifting voxel scene through the mapping-ops subsystem: "
            "sorting-based kNN/ball-query/FPS with cached, delta-patched "
            "neighbor tables."
        ),
    )
    parser.add_argument(
        "--frames", type=int, default=6, help="frames to serve (default 6)"
    )
    parser.add_argument(
        "--points",
        type=int,
        default=6000,
        help="synthetic cloud size before voxelization (default 6000)",
    )
    parser.add_argument(
        "--resolution",
        type=int,
        default=96,
        help="voxel grid resolution per axis (default 96)",
    )
    parser.add_argument(
        "--churn",
        type=float,
        default=0.01,
        help="per-frame point churn of the drifting scene (default 0.01)",
    )
    parser.add_argument(
        "--neighbors",
        type=int,
        default=8,
        help="kNN neighborhood size of the set-abstraction blocks "
        "(default 8)",
    )
    parser.add_argument(
        "--delta",
        type=float,
        default=0.25,
        help="mapping-delta churn threshold in (0, 1]; 0 disables "
        "splicing and leaves the digest-only cache (default 0.25)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="scene/weight seed (default 0)"
    )
    return parser


def run_points(argv: List[str]) -> int:
    """The ``points`` subcommand: drifting scene -> mapping subsystem."""
    # Imported here so `python -m repro table2` stays light.
    import time

    from repro.engine import InferenceSession
    from repro.geometry.synthetic import make_shapenet_like_cloud
    from repro.geometry.voxelizer import Voxelizer
    from repro.nn import PointNetClassifier, PointNetConfig
    from repro.runtime import DriftingSceneSource

    parser = build_points_parser()
    args = parser.parse_args(argv)
    if args.frames <= 0:
        parser.error("--frames must be positive")
    if not 0.0 <= args.churn <= 1.0:
        parser.error("--churn must lie in [0, 1]")
    if not 0.0 <= args.delta <= 1.0:
        parser.error("--delta must lie in [0, 1]")
    cloud = make_shapenet_like_cloud(seed=args.seed, n_points=args.points)
    source = DriftingSceneSource(
        base_cloud=cloud,
        num_frames=args.frames,
        churn=args.churn,
        seed=args.seed,
    )
    voxelizer = Voxelizer(
        resolution=args.resolution, normalize=False, occupancy_only=True
    )
    net = PointNetClassifier(
        PointNetConfig(neighbors=args.neighbors, seed=args.seed)
    )
    session = InferenceSession(
        net=net, delta=args.delta if args.delta > 0 else False
    )
    tensors = [voxelizer.voxelize(frame) for frame in source]
    for frame_id, tensor in enumerate(tensors):
        start = time.perf_counter()
        logits = session.run(tensor)
        # A self-query neighbor table per frame (the segmentation-style
        # workload): on a drifting scene this is where the delta cache
        # splices instead of rebuilding.
        table = session.map("knn", tensor, k=args.neighbors)
        elapsed = time.perf_counter() - start
        print(
            f"  frame {frame_id:3d}: nnz={tensor.nnz:7d} "
            f"class={int(logits.argmax()):2d} "
            f"knn={table.stats.method:<11s} "
            f"latency={elapsed * 1e3:7.3f} ms"
        )
    estimate = session.estimate(tensors[-1])
    s = session.stats
    print(
        f"served {s.frames_run} point-based frames at "
        f"{args.resolution}^3 ({len(net.blocks)} set-abstraction stages, "
        f"{args.neighbors} neighbors)\n"
        f"mapping cache:        {s.mapping_hits} hits, "
        f"{s.mapping_misses} misses\n"
        f"delta splicing:       {s.mapping_patches} patches, "
        f"{s.mapping_rebuilds} rebuilds "
        f"(threshold {args.delta:.2f})\n"
        f"modeled mapping cost: {estimate.total_mapping_cycles} cycles "
        f"({estimate.mapping_seconds * 1e3:.3f} ms on the modeled clock)"
    )
    return 0


def main(argv: List[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "stream":
        return run_stream(list(argv[1:]))
    if argv and argv[0] == "serve":
        return run_serve(list(argv[1:]))
    if argv and argv[0] == "worker":
        return run_worker(list(argv[1:]))
    if argv and argv[0] == "points":
        return run_points(list(argv[1:]))
    if argv and argv[0] == "lint":
        from repro.lint.cli import main as lint_main

        return lint_main(list(argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)
    selected = args.experiments or ["all"]
    unknown = [name for name in selected if name not in (*_EXPERIMENTS, "all")]
    if unknown:
        subcommands = [
            name
            for name in ("stream", "serve", "worker", "points", "lint")
            if name in unknown
        ]
        if subcommands:
            names = " and ".join(f"'{name}'" for name in subcommands)
            verb = "are subcommands" if len(subcommands) > 1 else "is a subcommand"
            hint = (
                f"; note: {names} {verb} and must come first "
                "(python -m repro stream|serve|worker|points|lint [options])"
            )
        else:
            hint = ""
        parser.error(
            f"unknown experiment(s) {unknown}; choose from "
            f"{sorted(_EXPERIMENTS)} or 'all'{hint}"
        )
    if "all" in selected:
        selected = sorted(_EXPERIMENTS)
    for name in selected:
        print(f"=== {_TITLES[name]} ===")
        print(_EXPERIMENTS[name](args.seed))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
