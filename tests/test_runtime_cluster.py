"""Tests for the cluster serving tier (repro.runtime.cluster).

The fleet-backed tests spawn real ``python -m repro worker`` processes
on loopback sockets — a module-scoped fleet serves the non-destructive
tests, and the failover test spawns its own fleet to kill.
"""

import numpy as np
import pytest

from repro.engine import InferenceSession, available_backends, get_backend
from repro.nn import SSUNet, UNetConfig
from repro.runtime import serve_frames
from repro.runtime.cluster import (
    ClusterError,
    HashRing,
    LocalWorkerFleet,
    RemoteShardBackend,
    format_address,
    parse_address,
)
from tests.conftest import random_sparse_tensor

SMALL_CFG = UNetConfig(in_channels=2, num_classes=5, base_channels=4, levels=3)
PRECISIONS = ("float64", "float32", "int")


def frame(seed, nnz=40):
    return random_sparse_tensor(seed=seed, shape=(16, 16, 16), nnz=nnz, channels=2)


def request_mix(count=6):
    """Frames across two site sets — multi-group run_batch load."""
    return [frame(1 + (i % 2), nnz=40 + 5 * (i % 2)) for i in range(count)]


#: Each ``repro_cluster_*`` counter and the ``ClusterStats`` field that
#: snapshots it.
CLUSTER_COUNTERS = {
    "repro_cluster_groups_total": "groups_dispatched",
    "repro_cluster_frames_total": "frames_dispatched",
    "repro_cluster_workers_lost_total": "workers_lost",
    "repro_cluster_reroutes_total": "groups_rerouted",
    "repro_cluster_spec_syncs_total": "spec_syncs",
    "repro_cluster_rejoins_total": "rejoins",
}


def assert_cluster_counters_match_stats(backend):
    stats = backend.stats
    for name, field_name in CLUSTER_COUNTERS.items():
        value = backend.registry.get(name).value()
        assert value == getattr(stats, field_name), name


@pytest.fixture(scope="module")
def fleet():
    with LocalWorkerFleet.spawn(2) as fleet:
        yield fleet


@pytest.fixture()
def remote_backend(fleet):
    backend = RemoteShardBackend(workers=fleet.addresses)
    yield backend
    backend.close()


# ----------------------------------------------------------------------
# Addresses and the hash ring (no fleet needed)
# ----------------------------------------------------------------------
def test_parse_address_accepts_strings_and_pairs():
    assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
    assert parse_address(("localhost", 1234)) == ("localhost", 1234)
    assert format_address(("h", 80)) == "h:80"
    with pytest.raises(ValueError, match="host:port"):
        parse_address("no-port-here")
    with pytest.raises(ValueError, match="host:port"):
        parse_address(":8080")


def test_hash_ring_routes_deterministically():
    nodes = [("10.0.0.1", 1), ("10.0.0.2", 2), ("10.0.0.3", 3)]
    ring_a = HashRing(nodes)
    ring_b = HashRing(reversed(nodes))
    digests = [bytes([i]) * 8 for i in range(32)]
    # Same node set -> same routing, regardless of insertion order.
    assert [ring_a.route(d) for d in digests] == [
        ring_b.route(d) for d in digests
    ]
    # Every node owns some arc at 64 virtual points.
    assert set(ring_a.route(d) for d in digests) == set(nodes)


def test_hash_ring_node_loss_moves_only_lost_arcs():
    nodes = [("10.0.0.1", 1), ("10.0.0.2", 2), ("10.0.0.3", 3)]
    ring = HashRing(nodes)
    digests = [bytes([i, 7]) * 4 for i in range(64)]
    before = {d: ring.route(d) for d in digests}
    lost = nodes[0]
    live = set(nodes) - {lost}
    for digest, owner in before.items():
        rerouted = ring.route(digest, live)
        if owner == lost:
            assert rerouted in live
        else:
            # Surviving nodes keep exactly their old arcs.
            assert rerouted == owner


def test_hash_ring_preference_ranks_every_node_once():
    nodes = [("a", 1), ("b", 2), ("c", 3)]
    ring = HashRing(nodes)
    order = ring.preference(b"some-digest")
    assert sorted(order) == sorted(nodes)
    # route() is the first live entry of the preference order.
    assert ring.route(b"some-digest") == order[0]
    assert ring.route(b"some-digest", {order[1], order[2]}) == order[1]


def test_hash_ring_empty_and_validation():
    ring = HashRing()
    assert ring.route(b"x") is None
    assert ring.preference(b"x") == ()
    with pytest.raises(ValueError, match="replicas"):
        HashRing(replicas=0)


def test_remote_backend_is_registered():
    import repro.runtime  # noqa: F401 — registration side effect

    assert "remote" in available_backends()
    assert get_backend is not None


# ----------------------------------------------------------------------
# Fleet-backed parity and serving
# ----------------------------------------------------------------------
@pytest.mark.parametrize("precision", PRECISIONS)
def test_cluster_parity_cold_and_warm(fleet, precision):
    requests = request_mix()
    reference = InferenceSession(
        unet_config=SMALL_CFG, precision=precision, backend="numpy"
    )
    expected = [out.features for out in reference.run_batch(requests)]
    backend = RemoteShardBackend(workers=fleet.addresses)
    try:
        session = InferenceSession(
            unet_config=SMALL_CFG, precision=precision, backend=backend
        )
        for _pass in ("cold", "warm"):
            outs = session.run_batch(requests)
            for out, exp in zip(outs, expected):
                assert np.array_equal(out.features, exp)
        assert backend.stats.groups_dispatched >= 4
        assert backend.stats.frames_dispatched == 2 * len(requests)
        assert backend.stats.workers_lost == 0
        # The coordinator built no plan: the work lived in the workers.
        assert session.plan_cache.misses == 0
    finally:
        backend.close()


def test_cluster_serves_single_group_batches(remote_backend):
    # A sharded backend takes every group, so a one-digest batch goes
    # off-box too.
    requests = [frame(5), frame(5)]
    reference = InferenceSession(unet_config=SMALL_CFG)
    expected = [out.features for out in reference.run_batch(requests)]
    session = InferenceSession(unet_config=SMALL_CFG, backend=remote_backend)
    outs = session.run_batch(requests)
    for out, exp in zip(outs, expected):
        assert np.array_equal(out.features, exp)
    assert remote_backend.stats.groups_dispatched == 1
    assert remote_backend.stats.frames_dispatched == 2


def test_session_server_over_remote_backend(fleet):
    requests = request_mix(8)
    reference = InferenceSession(unet_config=SMALL_CFG)
    expected = [reference.run(t) for t in requests]
    backend = RemoteShardBackend(workers=fleet.addresses)
    try:
        session = InferenceSession(unet_config=SMALL_CFG, backend=backend)
        outputs, stats = serve_frames(requests, session=session, concurrency=4)
        assert stats.requests == len(requests)
        for out, exp in zip(outputs, expected):
            assert np.array_equal(out.features, exp.features)
        assert backend.stats.frames_dispatched == len(requests)
    finally:
        backend.close()


def test_worker_health_reports_warmth(remote_backend):
    session = InferenceSession(unet_config=SMALL_CFG, backend=remote_backend)
    session.run_batch(request_mix(4))
    reports = remote_backend.worker_health()
    assert len(reports) == 2
    served = 0
    synced = 0
    for report in reports.values():
        # Spec sync is lazy (on first dispatch), so only workers owning
        # a ring arc of this run's digests are guaranteed warm.
        synced += 1 if report["specs"] else 0
        served += report["groups_served"]
    assert synced >= 1
    assert served >= 2


def test_weight_swap_spec_sync(fleet):
    """Two nets serve concurrently: distinct digests, warm sessions."""
    backend = RemoteShardBackend(workers=fleet.addresses)
    try:
        net_a = SSUNet(SMALL_CFG)
        # Same deterministic init recipe -> a different config is what
        # makes a different spec digest (weights are seeded by config).
        net_b = SSUNet(
            UNetConfig(
                in_channels=2, num_classes=5, base_channels=4, levels=2
            )
        )
        requests = request_mix(4)

        session_a = InferenceSession(net=net_a, backend=backend)
        outs_a = session_a.run_batch(requests)
        digest_a = backend.spec_store.digest

        # Push the new weights ahead of traffic (zero-downtime half).
        digest_b = backend.sync_spec(net_b)
        assert digest_b != digest_a

        session_b = InferenceSession(net=net_b, backend=backend)
        outs_b = session_b.run_batch(requests)

        expected_a = InferenceSession(net=net_a).run_batch(requests)
        expected_b = InferenceSession(net=net_b).run_batch(requests)
        for out, exp in zip(outs_a, expected_a):
            assert np.array_equal(out.features, exp.features)
        for out, exp in zip(outs_b, expected_b):
            assert np.array_equal(out.features, exp.features)
        # Both digests are warm on the workers until retired.
        for report in backend.worker_health().values():
            assert digest_b.hex() in report["specs"]
        backend.retire_spec(keep=digest_b)
        for report in backend.worker_health().values():
            assert report["specs"] == [digest_b.hex()]
    finally:
        backend.close()


def test_remote_backend_validation_and_close_idempotent(fleet):
    with pytest.raises(ValueError, match="retries"):
        RemoteShardBackend(workers=fleet.addresses, retries=-1)
    with pytest.raises(ValueError, match="timeouts"):
        RemoteShardBackend(workers=fleet.addresses, request_timeout_s=0)
    with pytest.raises(ValueError, match="heartbeat"):
        RemoteShardBackend(workers=fleet.addresses, heartbeat_s=0)
    backend = RemoteShardBackend(workers=fleet.addresses)
    assert backend.run_groups(SSUNet(SMALL_CFG), "float64", None, []) == []
    backend.close()
    backend.close()  # second close is a no-op
    with pytest.raises(RuntimeError, match="closed"):
        backend.worker_health()


# ----------------------------------------------------------------------
# Failover: worker loss mid-stream, then warm rejoin
# ----------------------------------------------------------------------
def test_worker_loss_reroutes_and_rejoin_is_warm():
    requests = request_mix()
    reference = InferenceSession(unet_config=SMALL_CFG)
    expected = [out.features for out in reference.run_batch(requests)]
    with LocalWorkerFleet.spawn(2) as fleet:
        backend = RemoteShardBackend(workers=fleet.addresses)
        try:
            session = InferenceSession(unet_config=SMALL_CFG, backend=backend)
            outs = session.run_batch(requests)
            for out, exp in zip(outs, expected):
                assert np.array_equal(out.features, exp)

            # SIGKILL a worker that owns at least one digest group (the
            # ring may have put both groups on one node), so the kill is
            # guaranteed to be on the serving path: the stream must
            # complete bit-identically with its groups rerouted to the
            # ring successor.
            owners = {
                backend.ring.route(t.coords_digest()) for t in requests
            }
            victim = fleet.addresses.index(next(iter(owners)))
            fleet.kill(victim)
            outs = session.run_batch(requests)
            for out, exp in zip(outs, expected):
                assert np.array_equal(out.features, exp)
            assert backend.stats.workers_lost == 1
            assert backend.stats.groups_rerouted >= 1
            assert len(backend.live_workers) == 1
            assert_cluster_counters_match_stats(backend)

            # Revive it: rejoin replays the spec blob and plan seeds, so
            # the health report already shows warm state.
            fleet.restart(victim)
            report = backend.rejoin(fleet.addresses[victim])
            assert report["specs"]
            assert report["prepared"]
            assert backend.stats.rejoins == 1
            assert len(backend.live_workers) == 2
            outs = session.run_batch(requests)
            for out, exp in zip(outs, expected):
                assert np.array_equal(out.features, exp)
            stats = backend.stats
            assert (stats.workers_lost, stats.rejoins) == (1, 1)
            assert stats.frames_dispatched == 3 * len(requests)
            assert_cluster_counters_match_stats(backend)
        finally:
            backend.close()


def test_all_workers_lost_raises_cluster_error():
    with LocalWorkerFleet.spawn(1) as fleet:
        backend = RemoteShardBackend(workers=fleet.addresses, retries=1)
        try:
            session = InferenceSession(unet_config=SMALL_CFG, backend=backend)
            session.run_batch([frame(1), frame(2)])
            fleet.kill(0)
            with pytest.raises(ClusterError, match="no live worker"):
                session.run_batch([frame(1), frame(2)])
            assert backend.stats.workers_lost == 1
        finally:
            backend.close()


# ----------------------------------------------------------------------
# Telemetry (HEALTH payload + coordinator registry)
# ----------------------------------------------------------------------
def test_health_round_trip_carries_worker_telemetry(remote_backend):
    """HEALTH replies carry queue depth + warm-session telemetry, and
    the coordinator mirrors them into its per-worker gauges."""
    session = InferenceSession(
        unet_config=SMALL_CFG, backend=remote_backend
    )
    session.run_batch(request_mix(4))
    reports = remote_backend.worker_health()
    assert len(reports) == 2
    for worker, report in reports.items():
        assert report["queue_depth"] >= 0  # idle workers report zero
        assert report["warm_sessions"] == len(report["specs"])
        depth = remote_backend.registry.get(
            "repro_cluster_worker_queue_depth"
        )
        warm = remote_backend.registry.get(
            "repro_cluster_worker_warm_sessions"
        )
        assert depth.value(worker=worker) == report["queue_depth"]
        assert warm.value(worker=worker) == report["warm_sessions"]


def test_health_prepared_lists_the_plans_the_sessions_hold():
    """HEALTH's ``prepared`` is read from the sessions' plan caches, so
    a stream of distinct site sets leaves at most one cache's capacity
    of warm plans, each one the session still holds."""
    import asyncio
    import pickle

    from repro.runtime.worker import ClusterWorker

    spec = b"spec"
    tensors = [frame(100 + seed) for seed in range(40)]
    assert len({t.coords_digest() for t in tensors}) == 40

    async def serve_distinct_site_sets():
        worker = ClusterWorker()
        blob = pickle.dumps((SSUNet(SMALL_CFG), "float64", None))
        await worker._spec_sync({"digest": spec, "blob": blob})
        for tensor in tensors:
            await worker._execute_batch(
                {
                    "spec": spec,
                    "digest": tensor.coords_digest(),
                    "coords": tensor.coords,
                    "shape": tensor.shape,
                    "features": [tensor.features],
                }
            )
        return worker

    worker = asyncio.run(serve_distinct_site_sets())
    plans = worker._sessions[spec].plan_cache
    prepared = worker._health(None)["prepared"]
    assert len(prepared) == len(plans) == plans.capacity
    assert prepared == sorted(digest.hex() for digest in plans.site_digests())
    assert prepared == sorted(t.coords_digest().hex() for t in tensors[-plans.capacity:])


def test_health_from_old_worker_without_telemetry_fields():
    """Wire compat: a report lacking the new fields must still land
    (defaults: depth 0, warmth inferred from the spec list)."""
    backend = RemoteShardBackend(workers=["127.0.0.1:1"])
    try:
        legacy = {
            "pid": 1,
            "port": 1,
            "uptime_s": 0.0,
            "specs": ["ab", "cd"],
            "prepared": [],
            "groups_served": 0,
            "frames_served": 0,
            "max_sessions": 4,
        }
        backend._note_health(("127.0.0.1", 1), legacy)
        reg = backend.registry
        depth = reg.get("repro_cluster_worker_queue_depth")
        warm = reg.get("repro_cluster_worker_warm_sessions")
        assert depth.value(worker="127.0.0.1:1") == 0
        assert warm.value(worker="127.0.0.1:1") == 2
    finally:
        backend.close()


def test_cluster_counters_mirror_stats(fleet):
    backend = RemoteShardBackend(workers=fleet.addresses)
    try:
        session = InferenceSession(unet_config=SMALL_CFG, backend=backend)
        session.run_batch(request_mix(4))
        reg = backend.registry
        stats = backend.stats
        assert stats.frames_dispatched == 4
        assert_cluster_counters_match_stats(backend)
        rtt = reg.get("repro_cluster_rtt_seconds")
        total = sum(
            rtt.count(worker=format_address(addr))
            for addr in backend.ring.nodes
        )
        assert total == stats.groups_dispatched
        assert "repro_cluster_rtt_seconds_bucket" in reg.render()
    finally:
        backend.close()
