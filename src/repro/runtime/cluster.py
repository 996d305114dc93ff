"""Cluster coordinator: the ``remote`` execution backend over TCP workers.

This module is the repository's one fan-out tier.
:class:`RemoteShardBackend` is a registered
:class:`~repro.engine.backend.ExecutionBackend` (name ``"remote"``)
whose :meth:`~RemoteShardBackend.run_groups` fans ``run_batch`` digest
groups out to :mod:`repro.runtime.worker` processes over the
:mod:`repro.runtime.wire` protocol:

* **Digest-affine routing via a consistent-hash ring.**  Each worker
  address owns ``replicas`` virtual points on a hash circle; a group
  routes to the first live point at or after its coordinate digest.
  The same site set therefore always reaches the same worker (whose
  plan cache is warm for it), and losing a worker only moves *its*
  digests — to their ring successors — instead of reshuffling the whole
  fleet the way ``hash % n`` would.
* **Failure handling.**  Every request carries a timeout; a transport
  failure (dead socket, timeout, garbled frame) marks the worker lost
  (``stats.workers_lost``), re-routes the group to the ring successor,
  re-syncs the spec there if needed, and retries — bounded by
  ``retries`` (``stats.groups_rerouted`` counts the re-routes).
  Worker-side *application* errors (an ``ERROR`` frame) propagate to
  the caller instead: a request that is wrong on one worker is wrong on
  all of them.  The one exception is the worker answering "unknown
  spec" — the normal first contact after a restart — which triggers a
  spec re-sync and a retry on the *same* worker.
* **Warm rejoin.**  The backend's
  :class:`~repro.engine.backend.ShardSpecStore` records every served
  site set; :meth:`RemoteShardBackend.rejoin` replays the current spec
  blob plus ``PREPARE`` frames for the recorded seeds, so a returning
  worker's sessions and plans are warm *before* traffic reaches it.
* **Zero-downtime weight swaps.**  A new network pickles to a new spec
  blob with a new digest; ``SPEC_SYNC`` ships it while workers keep
  serving the old digest, and traffic moves atomically with the next
  ``run_groups`` call (see ``docs/cluster.md``).

The coordinator owns a private event loop on a daemon thread, so the
synchronous backend surface (``run_groups`` is called from
``InferenceSession.run_batch``, possibly inside a
:class:`~repro.runtime.server.SessionServer` executor thread) drives
the async fan-out without touching any caller's loop.

:class:`LocalWorkerFleet` spawns loopback ``python -m repro worker``
subprocesses for demos, tests, and the ``python -m repro serve
--cluster N`` front door.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.engine.backend import (
    BackendCapabilities,
    ExecutionBackend,
    GroupTask,
    NumpyFusedBackend,
    ShardSpecStore,
    register_backend,
)
from repro.obs.metrics import MetricRegistry
from repro.runtime.wire import (
    ChecksumError,
    ConnectionClosed,
    MessageType,
    ProtocolError,
    RemoteWorkerError,
    raise_if_error,
    read_frame,
    write_frame,
)

Address = Tuple[str, int]

#: Transport-level failures that mark a worker lost (vs application
#: errors, which propagate to the caller).
TRANSPORT_ERRORS = (
    ConnectionClosed,
    ProtocolError,
    ChecksumError,
    ConnectionError,
    asyncio.TimeoutError,
    OSError,
)


class ClusterError(RuntimeError):
    """The coordinator ran out of live workers (or retries) for a group."""


def parse_address(address: Union[str, Address]) -> Address:
    """Normalize ``"host:port"`` strings and ``(host, port)`` pairs."""
    if isinstance(address, str):
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(
                f"worker address must be 'host:port', got {address!r}"
            )
        return host, int(port)
    host, port = address
    return str(host), int(port)


def format_address(address: Address) -> str:
    return f"{address[0]}:{address[1]}"


@dataclass
class ClusterStats:
    """Snapshot of one :class:`RemoteShardBackend`'s coordinator counters."""

    groups_dispatched: int = 0
    frames_dispatched: int = 0
    #: Workers declared dead after a transport failure (each counted
    #: once until it rejoins).
    workers_lost: int = 0
    #: Re-route events: a group moved to a ring successor after its
    #: worker failed mid-request.
    groups_rerouted: int = 0
    #: Spec blobs shipped to workers (cold syncs, rejoins, weight swaps).
    spec_syncs: int = 0
    #: Workers revived via :meth:`RemoteShardBackend.rejoin`.
    rejoins: int = 0


class HashRing:
    """Consistent hashing of digests onto worker addresses.

    Each node owns ``replicas`` virtual points (BLAKE2b of
    ``"host:port#i"``) on a 64-bit circle.  :meth:`route` walks
    clockwise from the digest's own hash to the first point whose node
    is in the caller's live set — so node loss re-routes only the lost
    node's arcs, and a rejoining node reclaims exactly its old arcs
    (which is what makes warm-rejoin worth replaying plans for).
    """

    def __init__(
        self, nodes: Sequence[Address] = (), replicas: int = 64
    ) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = int(replicas)
        self._points: List[Tuple[int, Address]] = []
        self._hashes: List[int] = []
        self._nodes: Set[Address] = set()
        for node in nodes:
            self.add(node)

    @staticmethod
    def _hash(key: bytes) -> int:
        return int.from_bytes(
            hashlib.blake2b(key, digest_size=8).digest(), "big"
        )

    @property
    def nodes(self) -> Tuple[Address, ...]:
        return tuple(sorted(self._nodes))

    def add(self, node: Address) -> None:
        node = parse_address(node)
        if node in self._nodes:
            return
        self._nodes.add(node)
        label = format_address(node)
        for replica in range(self.replicas):
            point = self._hash(f"{label}#{replica}".encode())
            index = bisect.bisect_left(self._hashes, point)
            self._hashes.insert(index, point)
            self._points.insert(index, (point, node))

    def route(
        self, digest: bytes, live: Optional[Set[Address]] = None
    ) -> Optional[Address]:
        """The first live node clockwise of ``digest`` (``None`` if none)."""
        if not self._points:
            return None
        eligible = self._nodes if live is None else live
        if not eligible:
            return None
        start = bisect.bisect_right(self._hashes, self._hash(digest))
        for step in range(len(self._points)):
            _, node = self._points[(start + step) % len(self._points)]
            if node in eligible:
                return node
        return None

    def preference(self, digest: bytes) -> Tuple[Address, ...]:
        """Every node in clockwise order from ``digest`` (failover order)."""
        order: List[Address] = []
        seen: Set[Address] = set()
        if not self._points:
            return ()
        start = bisect.bisect_right(self._hashes, self._hash(digest))
        for step in range(len(self._points)):
            _, node = self._points[(start + step) % len(self._points)]
            if node not in seen:
                seen.add(node)
                order.append(node)
        return tuple(order)


class _WorkerLink:
    """One coordinator connection: pipelined request/reply correlation.

    Requests are written under a lock and correlated to replies by the
    frame's ``request_id`` (a background receive task resolves pending
    futures), so health probes never queue behind a long
    ``EXECUTE_BATCH``.  Any transport failure fails *every* pending
    future — the caller decides what that means for the worker.
    """

    def __init__(self, address: Address) -> None:
        self.address = address
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._recv_task: Optional[asyncio.Task] = None
        self._send_lock = asyncio.Lock()
        self._connect_lock = asyncio.Lock()
        self._next_id = 0

    @property
    def connected(self) -> bool:
        return self._writer is not None

    async def connect(self, timeout: float) -> None:
        # Serialized: concurrent groups routed to a cold worker must
        # share one connection (and one receive loop), not race two.
        async with self._connect_lock:
            if self.connected:
                return
            host, port = self.address
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout
            )
            self._recv_task = asyncio.get_running_loop().create_task(
                self._recv_loop()
            )

    async def _recv_loop(self) -> None:
        try:
            while True:
                frame = await read_frame(self._reader)
                future = self._pending.pop(frame.request_id, None)
                if future is not None and not future.done():
                    future.set_result(frame)
        except TRANSPORT_ERRORS as exc:
            self._teardown(exc)
        except asyncio.CancelledError:
            self._teardown(ConnectionClosed("link closed"))
            raise

    def _teardown(self, exc: BaseException) -> None:
        """Dead stream: disconnect *before* failing the waiters.

        With the receive loop gone, nothing can ever resolve a pending
        future — so the writer must be nulled here, or the next
        ``request`` would write into the dead socket and sit out its
        full timeout waiting for a reply that cannot arrive.
        """
        writer, self._writer = self._writer, None
        self._reader = None
        if writer is not None:
            try:
                writer.close()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
        self._fail_pending(exc)

    def _fail_pending(self, exc: BaseException) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(
                    ConnectionClosed(
                        f"worker {format_address(self.address)} link failed: "
                        f"{exc}"
                    )
                )

    async def request(
        self,
        msg_type: MessageType,
        payload: object,
        timeout: Optional[float],
    ) -> object:
        """Send one request and await its ``OK`` payload.

        Raises :class:`RemoteWorkerError` on an ``ERROR`` reply and a
        transport error (which also fails the link) on anything else.
        """
        self._next_id += 1
        request_id = self._next_id
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            async with self._send_lock:
                # Re-read under the lock: a concurrent failure handler
                # may have torn the link down since our caller routed.
                writer = self._writer
                if writer is None:
                    raise ConnectionClosed(
                        f"worker {format_address(self.address)} "
                        f"is not connected"
                    )
                await write_frame(writer, msg_type, request_id, payload)
            frame = await asyncio.wait_for(future, timeout)
        except BaseException:
            self._pending.pop(request_id, None)
            if future.done() and not future.cancelled():
                future.exception()  # mark retrieved; the raise below wins
            raise
        return raise_if_error(frame).load()

    async def close(self) -> None:
        if self._recv_task is not None:
            self._recv_task.cancel()
            try:
                await self._recv_task
            except (asyncio.CancelledError, Exception):
                pass
            self._recv_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
            self._reader = None
        self._fail_pending(ConnectionClosed("link closed"))


class _LoopThread:
    """A private asyncio loop on a daemon thread (sync -> async bridge)."""

    def __init__(self, name: str = "repro-cluster") -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name=name, daemon=True
        )
        self._thread.start()

    def run(self, coroutine, timeout: Optional[float] = None):
        return asyncio.run_coroutine_threadsafe(
            coroutine, self._loop
        ).result(timeout)

    def stop(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
        self._loop.close()


class RemoteShardBackend(ExecutionBackend):
    """Routes ``run_batch`` digest groups to TCP workers (name ``remote``).

    Per-convolution :meth:`execute` calls delegate to the fused numpy
    engine in-process — remoting is a batch strategy, not a kernel — so
    outputs stay bit-identical to local execution for every session
    precision.

    Parameters
    ----------
    workers:
        Worker addresses (``"host:port"`` strings or ``(host, port)``
        pairs).  May be empty at construction; add via :meth:`rejoin`.
    request_timeout_s / connect_timeout_s:
        Per-request and per-connect bounds; a breach is a transport
        failure (worker lost), not a hang.
    retries:
        How many times one group may be re-routed to a ring successor
        before :class:`ClusterError` propagates.
    heartbeat_s:
        Optional background health-probe period.  ``None`` (default)
        disables the prober — request traffic already detects loss — so
        tests and short demos stay deterministic.
    registry:
        The :class:`repro.obs.metrics.MetricRegistry` receiving the
        coordinator's ``repro_cluster_*`` telemetry: per-worker RTT
        histograms, the dispatch/reroute/rejoin counters
        :attr:`stats` snapshots, and the per-worker queue-depth /
        warm-session gauges fed by HEALTH reports.  ``None`` (default)
        creates a private registry.
    """

    name = "remote"

    def __init__(
        self,
        workers: Sequence[Union[str, Address]] = (),
        request_timeout_s: float = 60.0,
        connect_timeout_s: float = 5.0,
        retries: int = 2,
        replicas: int = 64,
        heartbeat_s: Optional[float] = None,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        super().__init__()
        if request_timeout_s <= 0 or connect_timeout_s <= 0:
            raise ValueError("timeouts must be positive")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if heartbeat_s is not None and heartbeat_s <= 0:
            raise ValueError(f"heartbeat_s must be positive, got {heartbeat_s}")
        self._inner = NumpyFusedBackend()
        self.spec_store = ShardSpecStore()
        self.request_timeout_s = float(request_timeout_s)
        self.connect_timeout_s = float(connect_timeout_s)
        self.retries = int(retries)
        self.heartbeat_s = heartbeat_s
        self.ring = HashRing(
            [parse_address(worker) for worker in workers], replicas=replicas
        )
        self._live: Set[Address] = set(self.ring.nodes)
        self._links: Dict[Address, _WorkerLink] = {}
        #: Which spec digests each worker has been synced (reset on loss).
        self._synced: Dict[Address, Set[bytes]] = {}
        self._sync_locks: Dict[Address, asyncio.Lock] = {}
        self._loop_thread: Optional[_LoopThread] = None
        self._heartbeat_task: Optional[asyncio.Task] = None
        self._closed = False
        self.registry = registry if registry is not None else MetricRegistry()
        reg = self.registry
        self._m_groups = reg.counter(
            "repro_cluster_groups_total",
            "Digest groups dispatched to the worker fleet.",
        )
        self._m_frames = reg.counter(
            "repro_cluster_frames_total",
            "Frames dispatched inside those groups.",
        )
        self._m_workers_lost = reg.counter(
            "repro_cluster_workers_lost_total",
            "Workers declared dead after a transport failure.",
        )
        self._m_reroutes = reg.counter(
            "repro_cluster_reroutes_total",
            "Groups re-routed to a ring successor after worker loss.",
        )
        self._m_spec_syncs = reg.counter(
            "repro_cluster_spec_syncs_total",
            "Spec blobs shipped to workers.",
        )
        self._m_rejoins = reg.counter(
            "repro_cluster_rejoins_total",
            "Workers revived via rejoin().",
        )
        self._m_rtt = reg.histogram(
            "repro_cluster_rtt_seconds",
            "EXECUTE_BATCH round-trip time per worker.",
            labels=("worker",),
        )
        self._m_worker_depth = reg.gauge(
            "repro_cluster_worker_queue_depth",
            "Worker compute queue depth from its last HEALTH report.",
            labels=("worker",),
        )
        self._m_worker_warm = reg.gauge(
            "repro_cluster_worker_warm_sessions",
            "Warm spec sessions from the worker's last HEALTH report.",
            labels=("worker",),
        )

    @property
    def stats(self) -> ClusterStats:
        """The registry counters as a :class:`ClusterStats` snapshot;
        backends sharing one registry share them."""
        return ClusterStats(
            groups_dispatched=int(self._m_groups.value()),
            frames_dispatched=int(self._m_frames.value()),
            workers_lost=int(self._m_workers_lost.value()),
            groups_rerouted=int(self._m_reroutes.value()),
            spec_syncs=int(self._m_spec_syncs.value()),
            rejoins=int(self._m_rejoins.value()),
        )

    def _note_health(self, address: Address, report: dict) -> None:
        """Feed one HEALTH report into the coordinator gauges.

        The telemetry fields are additive in this wire version: reports
        from older workers lack them, so they default (queue depth 0,
        warmth from the spec list) instead of failing to parse.
        """
        worker = format_address(address)
        self._m_worker_depth.set(
            report.get("queue_depth", 0), worker=worker
        )
        self._m_worker_warm.set(
            report.get("warm_sessions", len(report.get("specs", ()))),
            worker=worker,
        )

    # ------------------------------------------------------------------
    # Local compute surface (per-convolution calls stay in-process)
    # ------------------------------------------------------------------
    def execute(self, rulebook, in_features, weights, num_outputs, stats=None):
        return self._inner.execute(
            rulebook, in_features, weights, num_outputs, stats=stats
        )

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            description=(
                "digest groups routed to TCP workers via a consistent-hash "
                "ring with failover"
            ),
            sharded=True,
        )

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def live_workers(self) -> Tuple[Address, ...]:
        return tuple(sorted(self._live))

    def _loop(self) -> _LoopThread:
        if self._closed:
            raise RuntimeError("RemoteShardBackend is closed")
        if self._loop_thread is None:
            self._loop_thread = _LoopThread()
            if self.heartbeat_s is not None:
                self._loop_thread.run(self._start_heartbeat())
        return self._loop_thread

    async def _start_heartbeat(self) -> None:
        self._heartbeat_task = asyncio.get_running_loop().create_task(
            self._heartbeat_loop()
        )

    async def _heartbeat_loop(self) -> None:
        while True:
            await asyncio.sleep(self.heartbeat_s)
            for address in tuple(self._live):
                try:
                    link = await self._link(address)
                    report = await link.request(
                        MessageType.HEALTH, {}, self.connect_timeout_s
                    )
                    self._note_health(address, report)
                except TRANSPORT_ERRORS:
                    await self._mark_lost(address)

    async def _link(self, address: Address) -> _WorkerLink:
        link = self._links.get(address)
        if link is None:
            link = _WorkerLink(address)
            self._links[address] = link
        if not link.connected:
            await link.connect(self.connect_timeout_s)
        return link

    async def _mark_lost(self, address: Address) -> None:
        """Declare one worker dead: drop its link, sync state, and count it."""
        if address in self._live:
            self._live.discard(address)
            self._m_workers_lost.inc()
        self._synced.pop(address, None)
        link = self._links.pop(address, None)
        if link is not None:
            await link.close()

    async def _ensure_spec(
        self, address: Address, link: _WorkerLink, digest: bytes, blob: bytes
    ) -> None:
        # One sync per (worker, digest): concurrent groups routed to a
        # cold worker serialize here so the blob crosses the wire once.
        lock = self._sync_locks.setdefault(address, asyncio.Lock())
        async with lock:
            synced = self._synced.setdefault(address, set())
            if digest in synced:
                return
            await link.request(
                MessageType.SPEC_SYNC,
                {"digest": digest, "blob": blob},
                self.request_timeout_s,
            )
            synced.add(digest)
            self._m_spec_syncs.inc()

    # ------------------------------------------------------------------
    # Group fan-out
    # ------------------------------------------------------------------
    def run_groups(self, net, precision, quantization, groups):
        if not groups:
            return []
        blob = self.spec_store.payload(net, precision, quantization)
        digest = self.spec_store.digest
        for task in groups:
            self.spec_store.record_seed(task.digest, task.coords, task.shape)
        self._m_groups.inc(len(groups))
        self._m_frames.inc(sum(len(task.features) for task in groups))
        # Generous outer bound: every group gets its own per-request
        # timeouts inside; this only guards against a wedged loop.
        outer = (
            (self.retries + 1)
            * (self.request_timeout_s + self.connect_timeout_s)
            + self.request_timeout_s
        )
        return self._loop().run(
            self._run_groups_async(digest, blob, groups), timeout=outer
        )

    async def _run_groups_async(
        self, digest: bytes, blob: bytes, groups: Sequence[GroupTask]
    ) -> List[List[np.ndarray]]:
        return list(
            await asyncio.gather(
                *(self._run_group(digest, blob, task) for task in groups)
            )
        )

    async def _run_group(
        self, digest: bytes, blob: bytes, task: GroupTask
    ) -> List[np.ndarray]:
        payload = {
            "spec": digest,
            "coords": task.coords,
            "shape": tuple(task.shape),
            "features": list(task.features),
            "digest": task.digest,
        }
        reroutes = 0
        excluded: Set[Address] = set()
        resynced: Set[Address] = set()
        last_error: Optional[BaseException] = None
        while True:
            address = self.ring.route(task.digest, self._live - excluded)
            if address is None:
                raise ClusterError(
                    f"no live worker for group {task.digest.hex()[:16]} "
                    f"(live={sorted(map(format_address, self._live))}, "
                    f"excluded={sorted(map(format_address, excluded))})"
                ) from last_error
            try:
                link = await self._link(address)
                await self._ensure_spec(address, link, digest, blob)
                sent = time.monotonic()
                reply = await link.request(
                    MessageType.EXECUTE_BATCH, payload, self.request_timeout_s
                )
                self._m_rtt.observe(
                    time.monotonic() - sent,
                    worker=format_address(address),
                )
                return reply["features"]
            except RemoteWorkerError as exc:
                if exc.kind == "UnknownSpecError" and address not in resynced:
                    # Worker restarted behind a live link: re-sync the
                    # spec and retry in place (not a loss, not a reroute).
                    # Once per worker — a worker that forgets a spec it
                    # was just synced is broken, not cold.
                    self._synced.setdefault(address, set()).discard(digest)
                    resynced.add(address)
                    last_error = exc
                    continue
                raise  # application error: same answer on every worker
            except TRANSPORT_ERRORS as exc:
                await self._mark_lost(address)
                excluded.add(address)
                last_error = exc
                if reroutes >= self.retries:
                    raise ClusterError(
                        f"group {task.digest.hex()[:16]} failed after "
                        f"{reroutes} re-route(s); last worker "
                        f"{format_address(address)} died with: {exc}"
                    ) from exc
                reroutes += 1
                self._m_reroutes.inc()

    # ------------------------------------------------------------------
    # Membership operations: rejoin, health, weight swap
    # ------------------------------------------------------------------
    def rejoin(self, address: Union[str, Address]) -> dict:
        """Revive (or add) one worker and warm it before traffic arrives.

        Replays the current spec blob (``SPEC_SYNC``) and a ``PREPARE``
        for every site set recorded in the spec store, then marks the
        worker live — so the digests whose ring arcs the worker reclaims
        land on warm plans.  Returns the worker's ``HEALTH`` report.
        """
        address = parse_address(address)
        report = self._loop().run(
            self._rejoin_async(address),
            timeout=self.connect_timeout_s + 4 * self.request_timeout_s,
        )
        return report

    async def _rejoin_async(self, address: Address) -> dict:
        self.ring.add(address)
        link = await self._link(address)
        digest = self.spec_store.digest
        if digest is not None:
            await self._ensure_spec(address, link, digest, self.spec_store.blob)
            for seed_digest, coords, shape in self.spec_store.seeds():
                await link.request(
                    MessageType.PREPARE,
                    {
                        "spec": digest,
                        "coords": coords,
                        "shape": shape,
                        "digest": seed_digest,
                    },
                    self.request_timeout_s,
                )
        report = await link.request(
            MessageType.HEALTH, {}, self.request_timeout_s
        )
        self._note_health(address, report)
        self._live.add(address)
        self._m_rejoins.inc()
        return report

    def worker_health(self) -> Dict[str, dict]:
        """``HEALTH`` reports of every live worker, keyed by address."""
        return self._loop().run(
            self._worker_health_async(),
            timeout=self.connect_timeout_s + 2 * self.request_timeout_s,
        )

    async def _worker_health_async(self) -> Dict[str, dict]:
        reports: Dict[str, dict] = {}
        for address in tuple(sorted(self._live)):
            try:
                link = await self._link(address)
                report = await link.request(
                    MessageType.HEALTH, {}, self.request_timeout_s
                )
                self._note_health(address, report)
                reports[format_address(address)] = report
            except TRANSPORT_ERRORS:
                await self._mark_lost(address)
        return reports

    def sync_spec(self, net, precision: str = "float64", quantization=None) -> bytes:
        """Push a spec blob to every live worker ahead of traffic.

        The zero-downtime half of a weight swap: workers warm the new
        digest's session while still serving the old one; the next
        ``run_groups`` with the new net routes to already-warm sessions.
        Returns the new spec digest.
        """
        if quantization is None:
            from repro.engine.session import QuantizationSpec

            quantization = QuantizationSpec()
        blob = self.spec_store.payload(net, precision, quantization)
        digest = self.spec_store.digest
        self._loop().run(
            self._sync_spec_async(digest, blob),
            timeout=self.connect_timeout_s + 2 * self.request_timeout_s,
        )
        return digest

    async def _sync_spec_async(self, digest: bytes, blob: bytes) -> None:
        for address in tuple(sorted(self._live)):
            try:
                link = await self._link(address)
                await self._ensure_spec(address, link, digest, blob)
            except TRANSPORT_ERRORS:
                await self._mark_lost(address)

    def retire_spec(self, keep: Optional[bytes]) -> None:
        """Ask every live worker to drop sessions other than ``keep``."""
        self._loop().run(
            self._retire_spec_async(keep),
            timeout=self.connect_timeout_s + 2 * self.request_timeout_s,
        )

    async def _retire_spec_async(self, keep: Optional[bytes]) -> None:
        for address in tuple(sorted(self._live)):
            try:
                link = await self._link(address)
                await link.request(
                    MessageType.REFRESH, {"keep": keep}, self.request_timeout_s
                )
                synced = self._synced.get(address)
                if synced is not None:
                    synced.intersection_update({keep} if keep else set())
            except TRANSPORT_ERRORS:
                await self._mark_lost(address)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        super().close()
        if self._loop_thread is not None:
            try:
                self._loop_thread.run(self._shutdown_async(), timeout=10)
            except Exception:  # pragma: no cover - teardown best effort
                pass
            self._loop_thread.stop()
            self._loop_thread = None
        self._links.clear()
        self._synced.clear()
        self.spec_store.clear()
        self._closed = True

    async def _shutdown_async(self) -> None:
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except asyncio.CancelledError:
                pass
            self._heartbeat_task = None
        for link in tuple(self._links.values()):
            await link.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            if not self._closed:
                self.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Loopback fleets for demos, tests, and CI
# ----------------------------------------------------------------------
@dataclass
class LocalWorkerFleet:
    """N loopback ``python -m repro worker`` subprocesses.

    Spawns workers on ephemeral ports (one BLAS thread each unless the
    environment sets otherwise), parses their readiness lines for the
    bound addresses, and owns their lifetime.  ``kill`` SIGKILLs one
    worker (the failover drill); ``restart`` spawns a replacement on a
    fresh port (pair it with :meth:`RemoteShardBackend.rejoin`).
    """

    processes: List[subprocess.Popen] = field(default_factory=list)
    addresses: List[Address] = field(default_factory=list)

    @classmethod
    def spawn(
        cls,
        num_workers: int,
        max_sessions: int = 4,
        startup_timeout_s: float = 60.0,
    ) -> "LocalWorkerFleet":
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        fleet = cls()
        for _ in range(num_workers):
            fleet.add_worker(
                max_sessions=max_sessions,
                startup_timeout_s=startup_timeout_s,
            )
        return fleet

    def add_worker(
        self, max_sessions: int = 4, startup_timeout_s: float = 60.0
    ) -> Address:
        """Spawn one more worker and return its bound address."""
        from repro.runtime.worker import parse_ready_line

        package_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        )))
        env = dict(os.environ)
        # The fleet's parallelism is across worker processes; a BLAS pool
        # per worker would oversubscribe the cores.  Explicit settings win.
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env.setdefault(var, "1")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing
            else package_root + os.pathsep + existing
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker",
                "--port", "0", "--max-sessions", str(max_sessions),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        line = self._await_ready(process, startup_timeout_s)
        address = parse_ready_line(line.strip())
        self.processes.append(process)
        self.addresses.append(address)
        return address

    @staticmethod
    def _await_ready(process: subprocess.Popen, timeout_s: float) -> str:
        import selectors

        selector = selectors.DefaultSelector()
        selector.register(process.stdout, selectors.EVENT_READ)
        try:
            events = selector.select(timeout=timeout_s)
        finally:
            selector.close()
        if not events:
            process.kill()
            raise TimeoutError(
                f"worker did not announce readiness within {timeout_s}s"
            )
        line = process.stdout.readline()
        if not line:
            stderr = process.stderr.read() if process.stderr else ""
            process.kill()
            raise RuntimeError(
                f"worker exited before announcing readiness; stderr:\n{stderr}"
            )
        return line

    def kill(self, index: int) -> Address:
        """SIGKILL one worker (mid-stream failover drill); returns its address."""
        process = self.processes[index]
        process.kill()
        process.wait(timeout=30)
        return self.addresses[index]

    def restart(self, index: int, max_sessions: int = 4) -> Address:
        """Replace worker ``index`` with a fresh process on a new port."""
        try:
            self.kill(index)
        except Exception:  # pragma: no cover - already dead is fine
            pass
        address = self.add_worker(max_sessions=max_sessions)
        # add_worker appended; move the fresh worker into the old slot.
        self.processes[index] = self.processes.pop()
        self.addresses[index] = self.addresses.pop()
        return self.addresses[index]

    def terminate(self) -> None:
        for process in self.processes:
            if process.poll() is None:
                process.terminate()
        for process in self.processes:
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover
                process.kill()
                process.wait(timeout=30)
            for stream in (process.stdout, process.stderr):
                if stream is not None:
                    stream.close()
        self.processes.clear()
        self.addresses.clear()

    def __enter__(self) -> "LocalWorkerFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.terminate()


register_backend("remote", RemoteShardBackend)
