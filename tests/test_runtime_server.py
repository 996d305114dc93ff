"""Tests for the asyncio serving front door (SessionServer / serve)."""

import asyncio
import threading

import numpy as np
import pytest

from repro.engine import InferenceSession
from repro.nn import UNetConfig
from repro.runtime import (
    DeadlineExceeded,
    ServeStats,
    ServerOverloaded,
    SessionServer,
    serve,
    serve_frames,
)
from tests.conftest import random_sparse_tensor

SMALL_CFG = UNetConfig(in_channels=2, num_classes=5, base_channels=4, levels=3)


def small_session(**kwargs):
    return InferenceSession(unet_config=SMALL_CFG, **kwargs)


def frame(seed, nnz=40):
    return random_sparse_tensor(seed=seed, shape=(16, 16, 16), nnz=nnz, channels=2)


class DispatchGate:
    """Holds the dispatcher inside ``session.run_batch`` until opened.

    While the dispatcher thread waits in the gated ``run_batch``, new
    submissions stay queued, so a test controls exactly what the next
    drain sees.  ``batches`` records every dispatched micro-batch (the
    tensors it carried) in dispatch order.
    """

    def __init__(self, session):
        self.opened = threading.Event()
        self.entered = threading.Event()
        self.batches = []
        run_batch = session.run_batch

        def gated_run_batch(tensors):
            self.batches.append(list(tensors))
            self.entered.set()
            self.opened.wait(timeout=30.0)
            return run_batch(tensors)

        session.run_batch = gated_run_batch

    async def held(self):
        """Return once the dispatcher is blocked inside ``run_batch``."""
        assert await asyncio.to_thread(self.entered.wait, 30.0)

    def open(self):
        self.opened.set()


async def until_queued(server, count, spins=100_000):
    """Yield to the loop until ``count`` items wait in the queue."""
    for _ in range(spins):
        if server._queue.qsize() >= count:
            return
        await asyncio.sleep(0)
    raise AssertionError(f"{count} items never reached the queue")


def request_mix():
    """Two site sets, several feature variants each — batchable load."""
    base_a, base_b = frame(1), frame(2, nnz=45)
    rng = np.random.default_rng(3)
    requests = []
    for _ in range(3):
        requests.append(
            base_a.with_features(rng.standard_normal((base_a.nnz, 2)))
        )
        requests.append(
            base_b.with_features(rng.standard_normal((base_b.nnz, 2)))
        )
    return requests


@pytest.mark.parametrize("max_batch", [1, 2, 8])
def test_serve_outputs_bit_identical_to_run(max_batch):
    requests = request_mix()
    reference = small_session()
    expected = [reference.run(t) for t in requests]
    outputs, stats = serve_frames(
        requests, session=small_session(), concurrency=4, max_batch=max_batch
    )
    assert stats.requests == len(requests)
    for out, ref in zip(outputs, expected):
        assert np.array_equal(out.features, ref.features)
        assert np.array_equal(out.coords, ref.coords)


def test_serve_micro_batches_by_digest():
    requests = request_mix()
    session = small_session()
    gate = DispatchGate(session)

    async def scenario():
        async with SessionServer(session=session) as server:
            loop = asyncio.get_running_loop()
            first = loop.create_task(server.submit(requests[0]))
            await gate.held()
            rest = [loop.create_task(server.submit(t)) for t in requests[1:]]
            await until_queued(server, len(rest))
            gate.open()
            await asyncio.gather(first, *rest)
            return server.stats

    stats = asyncio.run(scenario())
    # Requests that queued behind a running batch coalesce into the
    # next one, and the session saw only the two distinct site sets.
    assert stats.batch_sizes == [1, len(requests) - 1]
    assert session.plan_cache.misses == 2
    assert session.stats.frames_run == len(requests)


def test_serve_respects_max_batch():
    requests = request_mix()
    _, stats = serve_frames(
        requests,
        session=small_session(),
        concurrency=len(requests),
        max_batch=2,
    )
    assert stats.max_batch_size <= 2


def test_dispatcher_drains_queued_requests_in_fifo_batches():
    """A held dispatcher, once released, dispatches what queued behind
    it as ``max_batch`` then the remainder, in submission order, and a
    stop() issued while they wait still serves every one of them."""
    max_batch = 4
    session = small_session()
    gate = DispatchGate(session)
    requests = [frame(20 + i) for i in range(max_batch + 3)]

    async def scenario():
        server = SessionServer(session=session, max_batch=max_batch)
        await server.start()
        loop = asyncio.get_running_loop()
        first = loop.create_task(server.submit(requests[0]))
        await gate.held()
        queued = [loop.create_task(server.submit(t)) for t in requests[1:]]
        await until_queued(server, len(queued))
        stopping = loop.create_task(server.stop())
        await until_queued(server, len(queued) + 1)  # the stop sentinel
        gate.open()
        await stopping
        return await asyncio.gather(first, *queued), server.stats

    outputs, stats = asyncio.run(scenario())
    assert [len(batch) for batch in gate.batches] == [1, max_batch, 2]
    dispatched = [t for batch in gate.batches for t in batch]
    assert len(dispatched) == len(requests)
    assert all(got is sent for got, sent in zip(dispatched, requests))
    assert stats.requests == len(requests)
    reference = small_session()
    for out, t in zip(outputs, requests):
        assert np.array_equal(out.features, reference.run(t).features)


def test_server_lifecycle_and_submit_guard():
    async def scenario():
        server = SessionServer(session=small_session())
        with pytest.raises(RuntimeError, match="not running"):
            await server.submit(frame(5))
        async with server:
            out = await server.submit(frame(5))
            assert out.nnz == frame(5).nnz
        # Stopped: further submissions are refused again.
        with pytest.raises(RuntimeError, match="not running"):
            await server.submit(frame(5))
        # stop() is idempotent.
        await server.stop()

    asyncio.run(scenario())


def test_server_drains_queue_on_stop():
    async def scenario():
        server = SessionServer(session=small_session())
        await server.start()
        pending = [
            asyncio.get_running_loop().create_task(server.submit(frame(6)))
            for _ in range(4)
        ]
        await asyncio.sleep(0)  # let submissions enqueue
        await server.stop()
        outs = await asyncio.gather(*pending)
        assert len(outs) == 4
        assert server.stats.requests == 4

    asyncio.run(scenario())


def test_stop_drains_inflight_batches_on_slow_backend():
    """stop() must wait out a batch already inside run_batch.

    With a backend slow enough that stop() lands while a batch is
    mid-compute on the executor, every submitted future still resolves
    (none hang, none are dropped) and the pending count returns to
    zero.
    """
    import time as time_mod

    async def scenario():
        session = small_session()
        real_run_batch = session.run_batch

        def slow_run_batch(tensors):
            time_mod.sleep(0.1)  # outlive the stop() call below
            return real_run_batch(tensors)

        session.run_batch = slow_run_batch
        server = SessionServer(session=session, max_batch=2)
        await server.start()
        pending = [
            asyncio.get_running_loop().create_task(server.submit(frame(6)))
            for _ in range(6)
        ]
        await asyncio.sleep(0.03)  # first batch is now inside run_batch
        assert server._pending > 0
        await server.stop()
        outs = await asyncio.gather(*pending)
        assert len(outs) == 6
        assert all(out.nnz == frame(6).nnz for out in outs)
        assert server._pending == 0
        assert server.stats.requests == 6
        assert server.stats.micro_batches >= 3  # max_batch=2 held

    asyncio.run(scenario())


def test_server_propagates_errors_to_clients():
    async def scenario():
        server = SessionServer(session=small_session())
        async with server:
            bad = random_sparse_tensor(
                seed=9, shape=(16, 16, 16), nnz=20, channels=3
            )
            with pytest.raises(ValueError, match="channels"):
                await server.submit(bad)
            # The server survives a failing batch and keeps serving.
            out = await server.submit(frame(7))
            assert out.nnz == frame(7).nnz

    asyncio.run(scenario())


def test_server_validates_parameters():
    with pytest.raises(ValueError, match="max_batch"):
        SessionServer(session=small_session(), max_batch=0)
    with pytest.raises(ValueError, match="concurrency"):
        asyncio.run(serve([frame(8)], session=small_session(), concurrency=0))


# ----------------------------------------------------------------------
# Satellite: backpressure — queue bound and per-request deadlines
# ----------------------------------------------------------------------
def test_submit_rejects_overload_at_max_pending():
    async def scenario():
        # A held dispatcher keeps both requests pending while we
        # overfill: one inside run_batch, one queued behind it.
        session = small_session()
        gate = DispatchGate(session)
        server = SessionServer(session=session, max_pending=2, max_batch=16)
        async with server:
            loop = asyncio.get_running_loop()
            accepted = [loop.create_task(server.submit(frame(10)))]
            await gate.held()
            accepted.append(loop.create_task(server.submit(frame(10))))
            await until_queued(server, 1)
            with pytest.raises(ServerOverloaded, match="max_pending=2"):
                await server.submit(frame(10))
            assert server.stats.rejected_overload == 1
            gate.open()
            outs = await asyncio.gather(*accepted)
            assert all(out.nnz == frame(10).nnz for out in outs)
            # Backlog drained: submissions are accepted again.
            out = await server.submit(frame(10))
            assert out.nnz == frame(10).nnz

    asyncio.run(scenario())


def test_requests_past_deadline_are_rejected_not_executed():
    async def scenario():
        # A 1 ns deadline has passed by the time the dispatcher reaches
        # any request, so every one must be dropped without compute.
        session = small_session()
        server = SessionServer(session=session, deadline_s=1e-9)
        async with server:
            loop = asyncio.get_running_loop()
            pending = [
                loop.create_task(server.submit(frame(11))) for _ in range(3)
            ]
            results = await asyncio.gather(*pending, return_exceptions=True)
            assert all(isinstance(r, DeadlineExceeded) for r in results)
            assert server.stats.rejected_deadline == 3
            assert server.stats.requests == 0
            assert session.stats.frames_run == 0  # no compute burned

        # A generous deadline serves normally.
        server = SessionServer(session=small_session(), deadline_s=30.0)
        async with server:
            out = await server.submit(frame(11))
            assert out.nnz == frame(11).nnz
            assert server.stats.rejected_deadline == 0

    asyncio.run(scenario())


def test_cancelled_requests_are_dropped_without_compute():
    """Satellite regression: a request whose client cancelled while it
    sat in the queue must not be batched into ``run_batch``."""

    async def scenario():
        # A held dispatcher keeps both requests queued behind a blocker.
        session = small_session()
        gate = DispatchGate(session)
        server = SessionServer(session=session, max_batch=16)
        async with server:
            loop = asyncio.get_running_loop()
            blocker = loop.create_task(server.submit(frame(15)))
            await gate.held()
            kept = frame(13, nnz=35)
            doomed = loop.create_task(server.submit(frame(12)))
            survivor = loop.create_task(server.submit(kept))
            await until_queued(server, 2)
            doomed.cancel()
            with pytest.raises(asyncio.CancelledError):
                await doomed
            gate.open()
            out = await survivor
            assert out.nnz == kept.nnz
            await blocker
            assert server.stats.rejected_cancelled == 1
            # Of the queued pair only the survivor was served.
            assert server.stats.requests == 2
            assert [len(batch) for batch in gate.batches] == [1, 1]
            assert gate.batches[1][0] is kept
            assert session.stats.frames_run == 2  # none for the dead one
            assert server._pending == 0  # accounting stays exact

        # An all-cancelled batch dispatches nothing at all.
        session2 = small_session()
        gate2 = DispatchGate(session2)
        server2 = SessionServer(session=session2)
        await server2.start()
        loop = asyncio.get_running_loop()
        blocker = loop.create_task(server2.submit(frame(15)))
        await gate2.held()
        tasks = [loop.create_task(server2.submit(frame(14))) for _ in range(3)]
        await until_queued(server2, 3)
        for task in tasks:
            task.cancel()
        results = await asyncio.gather(*tasks, return_exceptions=True)
        assert all(isinstance(r, asyncio.CancelledError) for r in results)
        gate2.open()
        await blocker
        await server2.stop()  # drains the cancelled batch
        assert server2.stats.rejected_cancelled == 3
        assert server2.stats.requests == 1  # the blocker only
        assert len(gate2.batches) == 1
        assert session2.stats.frames_run == 1
        assert server2._pending == 0

    asyncio.run(scenario())


def test_serve_helper_sheds_rejected_requests():
    requests = request_mix()
    outputs, stats = serve_frames(
        requests,
        session=small_session(),
        concurrency=len(requests),
        deadline_s=1e-9,
    )
    rejected = stats.rejected_deadline + stats.rejected_overload
    assert rejected > 0
    assert sum(out is None for out in outputs) == rejected
    assert stats.requests == len(requests) - rejected


def test_backpressure_parameter_validation():
    with pytest.raises(ValueError, match="max_pending"):
        SessionServer(session=small_session(), max_pending=0)
    with pytest.raises(ValueError, match="deadline_s"):
        SessionServer(session=small_session(), deadline_s=0.0)


def test_serve_stats_fps():
    stats = ServeStats()
    with pytest.raises(ValueError, match="fps is undefined"):
        stats.fps
    stats.requests = 10
    stats.wall_seconds = 2.0
    assert stats.fps == 5.0
    assert stats.mean_batch_size == 0.0
    assert stats.max_batch_size == 0


def test_serve_empty_request_list():
    outputs, stats = serve_frames([], session=small_session())
    assert outputs == []
    assert stats.requests == 0


@pytest.mark.parametrize("backend", ["numpy", "scipy"])
def test_serve_across_backends(backend):
    requests = request_mix()[:4]
    reference = small_session()
    expected = [reference.run(t) for t in requests]
    session = small_session(backend=backend)
    outputs, _ = serve_frames(requests, session=session, concurrency=4)
    for out, ref in zip(outputs, expected):
        assert np.array_equal(out.features, ref.features)


def test_serve_wall_clock_spans_dispatch():
    """fps must be computed over the real serving span (including
    event-loop scheduling between batches), not just time inside
    run_batch."""
    requests = request_mix()[:4]
    _, stats = serve_frames(
        requests, session=small_session(), concurrency=4, max_batch=1
    )
    assert stats.wall_seconds >= stats.busy_seconds > 0.0
    assert stats.fps > 0.0


# ----------------------------------------------------------------------
# Telemetry (registry-backed stats)
# ----------------------------------------------------------------------
def test_concurrent_submit_stress_accounting():
    """Counters stay consistent with submits racing the dispatch loop.

    The old ServeStats ints were mutated from both the submit path and
    the dispatcher without a lock; the registry-backed counters must
    tally exactly under cross-thread contention.
    """
    from concurrent.futures import ThreadPoolExecutor

    session = small_session()
    num_clients, per_client = 8, 6

    async def _run():
        async with SessionServer(
            session=session, max_batch=4, max_pending=6
        ) as server:
            loop = asyncio.get_running_loop()

            def client(seed):
                ok = shed = 0
                for i in range(per_client):
                    future = asyncio.run_coroutine_threadsafe(
                        server.submit(frame(1 + (seed + i) % 2)), loop
                    )
                    try:
                        future.result(timeout=60.0)
                        ok += 1
                    except ServerOverloaded:
                        shed += 1
                return ok, shed

            # A dedicated pool: the loop's default executor stays free
            # for the dispatcher's run_batch calls.
            with ThreadPoolExecutor(max_workers=num_clients) as pool:
                tallies = await asyncio.gather(
                    *(
                        loop.run_in_executor(pool, client, seed)
                        for seed in range(num_clients)
                    )
                )
            stats = server.stats
        return tallies, stats

    tallies, stats = asyncio.run(_run())
    ok = sum(t[0] for t in tallies)
    shed = sum(t[1] for t in tallies)
    assert ok + shed == num_clients * per_client
    assert stats.requests == ok
    assert stats.rejected_overload == shed
    assert sum(stats.batch_sizes) == ok


def test_serve_metrics_render_and_trace():
    """A shared registry exposes per-stage serve histograms; the tracer
    records one queue-wait/execute/respond timeline per batch."""
    from repro.obs.metrics import MetricRegistry
    from repro.obs.trace import Tracer

    registry = MetricRegistry()
    tracer = Tracer()
    requests = request_mix()
    _, stats = serve_frames(
        requests,
        session=small_session(),
        concurrency=4,
        registry=registry,
        tracer=tracer,
    )
    assert registry.get("repro_serve_requests_total").value() == len(requests)
    assert registry.get("repro_serve_queue_depth").value() == 0
    e2e = registry.get("repro_serve_e2e_seconds")
    assert e2e.count() == len(requests)
    assert registry.get("repro_serve_batch_size").count() == (
        stats.micro_batches
    )
    text = registry.render()
    for name in (
        "repro_serve_e2e_seconds_bucket",
        "repro_serve_queue_wait_seconds_bucket",
        "repro_serve_execute_seconds_bucket",
    ):
        assert name in text

    assert len(tracer) == stats.micro_batches
    spans = [span["name"] for span in tracer.dump()[0]["spans"]]
    assert spans == ["queue-wait", "execute", "respond"]


def test_serve_disabled_registry_skips_histograms():
    from repro.obs.metrics import MetricRegistry

    registry = MetricRegistry(enabled=False)
    requests = request_mix()[:4]
    _, stats = serve_frames(
        requests, session=small_session(), registry=registry
    )
    assert stats.requests == 4  # counters still track accounting
    assert registry.get("repro_serve_e2e_seconds").count() == 0


def test_shed_reasons_reach_registry():
    from repro.obs.metrics import MetricRegistry

    registry = MetricRegistry()
    requests = request_mix()
    _, stats = serve_frames(
        requests,
        session=small_session(),
        concurrency=len(requests),
        max_pending=1,
        registry=registry,
    )
    shed = registry.get("repro_serve_shed_total")
    assert shed.value(reason="overload") == stats.rejected_overload
    assert stats.rejected_overload > 0
