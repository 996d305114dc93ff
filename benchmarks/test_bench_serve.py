"""Cluster serving benchmark: remote worker fleet vs single node.

Serves a batched drifting-scene workload twice through the same
``SessionServer`` micro-batching front door — once over the ``remote``
backend fanning digest groups across a loopback worker fleet, once over
an in-process numpy session — asserts bit-identity between the two, and
reports the throughput ratio (``results/cluster_speedup.txt``, the
artifact the cluster-smoke CI leg uploads).

Parity is the hard requirement everywhere.  The >= 1.3x speedup
assertion only runs on multi-core machines: process fan-out cannot beat
a single node on one core, so there the report is still written but the
ratio assertion is *skipped* (never faked).
"""

import os
import time

import numpy as np
import pytest

from repro.engine import InferenceSession
from repro.geometry.synthetic import make_shapenet_like_cloud
from repro.geometry.voxelizer import Voxelizer
from repro.runtime import (
    DriftingSceneSource,
    LocalWorkerFleet,
    RemoteShardBackend,
    serve_frames,
)

SPEEDUP_FLOOR = 1.3
CLUSTER_WORKERS = 2


def drifting_requests(frames=4, clients=3, resolution=48, points=4000):
    """frames x clients requests over a drifting scene (distinct digests)."""
    source = DriftingSceneSource(
        base_cloud=make_shapenet_like_cloud(seed=0, n_points=points),
        num_frames=frames,
        churn=0.05,
        seed=0,
    )
    voxelizer = Voxelizer(
        resolution=resolution, normalize=False, occupancy_only=True
    )
    scene = [voxelizer.voxelize(cloud) for cloud in source]
    return [frame for frame in scene for _ in range(clients)]


def served_fps(requests, session, concurrency):
    outputs, stats = serve_frames(
        requests, session=session, concurrency=concurrency
    )
    return outputs, stats.fps


def test_bench_cluster_vs_single_node_serve(write_report):
    requests = drifting_requests()
    cores = os.cpu_count() or 1

    single = InferenceSession(backend="numpy")
    single.warm(requests[0])
    single_outputs, single_fps = served_fps(requests, single, concurrency=3)

    fleet = LocalWorkerFleet.spawn(CLUSTER_WORKERS)
    backend = RemoteShardBackend(workers=fleet.addresses)
    try:
        session = InferenceSession(backend=backend)
        session.warm(requests[0])  # local plan warm (remote warms on sync)
        # Cold pass ships spec blobs and warms worker plans; the timed
        # pass below measures the steady serving state.
        served_fps(requests, session, concurrency=3)
        cluster_outputs, cluster_fps = served_fps(
            requests, session, concurrency=3
        )
        cluster_stats = backend.stats
    finally:
        backend.close()
        fleet.terminate()

    for out, ref in zip(cluster_outputs, single_outputs):
        assert out.features.dtype == ref.features.dtype
        assert np.array_equal(out.features, ref.features)

    ratio = cluster_fps / single_fps if single_fps else 0.0
    lines = [
        "Cluster serving vs single node (bit-identical outputs asserted)",
        "",
        f"workload: {len(requests)} requests "
        "(4 drifting frames x 3 clients) at 48^3",
        f"  single-node serve      {single_fps:10.2f} frames/s",
        f"  {CLUSTER_WORKERS}-worker cluster serve {cluster_fps:10.2f} "
        "frames/s",
        f"  cluster vs single      {ratio:10.2f}x "
        f"(floor {SPEEDUP_FLOOR}x on multi-core)",
        "",
        f"routing: {cluster_stats.groups_dispatched} groups / "
        f"{cluster_stats.frames_dispatched} frames dispatched, "
        f"{cluster_stats.spec_syncs} spec syncs, "
        f"{cluster_stats.workers_lost} workers lost",
        "",
        f"machine: {cores} CPU core(s) visible — the speedup floor is "
        "asserted only with >= 2 cores; parity holds regardless",
    ]
    write_report("cluster_speedup", "\n".join(lines))

    assert cluster_fps > 0 and single_fps > 0
    if cores < 2:
        pytest.skip(
            f"{cores} core visible: cluster fan-out cannot amortize; "
            "report written, speedup floor not asserted"
        )
    assert ratio >= SPEEDUP_FLOOR, (
        f"cluster serve managed only {ratio:.2f}x vs single node "
        f"(floor {SPEEDUP_FLOOR}x) — see results/cluster_speedup.txt"
    )


def test_bench_cluster_failover_latency(write_report):
    """Worker loss mid-stream: the reroute completes and is bounded.

    Reports how long the lost-worker batch took versus a healthy batch
    (the reroute pays one transport failure + one spec resync on the
    successor).  Parity is asserted; the latency numbers are
    informational.
    """
    requests = drifting_requests(frames=3, clients=2)
    reference = InferenceSession(backend="numpy")
    expected = [reference.run(frame) for frame in requests]

    fleet = LocalWorkerFleet.spawn(2)
    backend = RemoteShardBackend(workers=fleet.addresses)
    try:
        session = InferenceSession(backend=backend)
        start = time.perf_counter()
        outs = session.run_batch(requests)
        healthy_s = time.perf_counter() - start
        for out, ref in zip(outs, expected):
            assert np.array_equal(out.features, ref.features)

        # Kill a worker that owns at least one digest, then re-serve.
        owners = {
            backend.ring.route(t.coords_digest()) for t in requests
        }
        victim = fleet.addresses.index(next(iter(owners)))
        fleet.kill(victim)
        start = time.perf_counter()
        outs = session.run_batch(requests)
        failover_s = time.perf_counter() - start
        for out, ref in zip(outs, expected):
            assert np.array_equal(out.features, ref.features)
        assert backend.stats.workers_lost == 1
        assert backend.stats.groups_rerouted >= 1

        lines = [
            "Cluster failover latency (SIGKILL one of 2 workers mid-stream)",
            "",
            f"  healthy batch   {healthy_s * 1e3:9.2f} ms "
            f"({len(requests)} frames)",
            f"  failover batch  {failover_s * 1e3:9.2f} ms "
            f"(+{(failover_s - healthy_s) * 1e3:.2f} ms for "
            f"{backend.stats.groups_rerouted} rerouted groups)",
            "",
            "all outputs bit-identical to in-process numpy; no request "
            "was lost",
        ]
        write_report("cluster_failover", "\n".join(lines))
    finally:
        backend.close()
        fleet.terminate()
