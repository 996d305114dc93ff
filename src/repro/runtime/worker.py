"""Cluster worker: a TCP endpoint hosting warm sessions per spec digest.

``python -m repro worker --port P`` turns one process into a serving
node of the cluster tier: it accepts coordinator connections speaking
the :mod:`repro.runtime.wire` protocol and answers the five request
frames —

* ``SPEC_SYNC`` ships a pickled ``(net, precision, quantization)``
  blob (the :class:`repro.engine.backend.ShardSpecStore` payload);
  the worker builds a warm :class:`~repro.engine.session.
  InferenceSession` for the blob's digest.  Digests are the unit of
  deployment: a new blob is a *new* digest and a *new* session, while
  the old one keeps serving until retired — which is exactly the
  zero-downtime weight-swap story.
* ``PREPARE`` warms one plan (site set ``coords``/``shape``) on a
  spec's session — the coordinator replays these when a worker rejoins
  so traffic lands on warm plans.
* ``EXECUTE_BATCH`` runs one ``run_batch`` digest group, shipped as a
  list of ``(N, C)`` frames, and returns the list of output features,
  bit-identical to in-process execution (the worker rebuilds the
  group's frames from one template tensor and runs the scipy CSR
  backend, which is bit-identical to the fused numpy engine and falls
  back to it when scipy is not installed).
* ``HEALTH`` reports liveness and warmth (known digests, the site-set
  digests whose plans the sessions' plan caches hold, served counters)
  without touching the compute path.
* ``REFRESH`` retires spec sessions (all, or all but one digest).

Request handling is one asyncio task per frame, so a long
``EXECUTE_BATCH`` never blocks a ``HEALTH`` probe; compute itself runs
on the default executor behind a per-worker lock (one session is not
thread-safe, and one process has one set of cores anyway), and each
connection's replies serialize on a write lock.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import time
from collections import OrderedDict
from typing import Callable, List, Optional, Set, Tuple

import numpy as np

from repro.runtime.wire import (
    ChecksumError,
    ConnectionClosed,
    Frame,
    MessageType,
    ProtocolError,
    error_payload,
    read_frame,
    write_frame,
)

DEFAULT_MAX_SESSIONS = 4


class UnknownSpecError(RuntimeError):
    """A request named a spec digest this worker has never been synced.

    The coordinator treats this as "re-send SPEC_SYNC and retry", not as
    a dead worker — it is the normal first contact after a rejoin or a
    ring reroute.
    """


def _build_session(spec_blob: bytes):
    """Unpickle one spec blob into a warm session on the scipy backend
    (the fused numpy engine substitutes when scipy is absent)."""
    from repro.engine.session import InferenceSession

    net, precision, quantization = pickle.loads(spec_blob)
    return InferenceSession(
        net=net,
        precision=precision,
        quantization=quantization,
        backend="scipy",
    )


class ClusterWorker:
    """One serving node: warm sessions keyed by spec digest.

    ``max_sessions`` bounds how many spec generations stay warm (LRU):
    during a weight swap both the old and the new digest serve
    concurrently, but a worker must not accumulate every deployment it
    has ever seen.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
    ) -> None:
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        self.host = host
        self.port = int(port)  # 0 = ephemeral; rebound by start()
        self.max_sessions = int(max_sessions)
        self._sessions: "OrderedDict[bytes, object]" = OrderedDict()
        self._compute_lock = asyncio.Lock()
        self._server: Optional[asyncio.base_events.Server] = None
        self._started_at = time.monotonic()
        self.groups_served = 0
        self.frames_served = 0
        #: Requests currently waiting for (or holding) the compute lock
        #: — the worker-side queue depth HEALTH reports upstream.
        self._compute_waiters = 0

    @property
    def queue_depth(self) -> int:
        """Compute requests queued or running right now."""
        return self._compute_waiters

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> asyncio.base_events.Server:
        """Bind the listening socket (resolving ``port=0``) and serve."""
        if self._server is None:
            self._server = await asyncio.start_server(
                self._handle_client, self.host, self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
            self._started_at = time.monotonic()
        return self._server

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._sessions.clear()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        inflight: Set[asyncio.Task] = set()
        try:
            while True:
                try:
                    frame = await read_frame(reader)
                except ConnectionClosed:
                    break  # routine client disconnect
                except (ProtocolError, ChecksumError, ConnectionError, OSError):
                    break  # garbled or dead stream: drop the connection
                task = asyncio.get_running_loop().create_task(
                    self._dispatch(frame, writer, write_lock)
                )
                inflight.add(task)
                task.add_done_callback(inflight.discard)
        finally:
            if inflight:
                await asyncio.gather(*tuple(inflight), return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _dispatch(
        self,
        frame: Frame,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        try:
            payload = frame.load()
            if frame.type == MessageType.SPEC_SYNC:
                result = await self._spec_sync(payload)
            elif frame.type == MessageType.PREPARE:
                result = await self._prepare(payload)
            elif frame.type == MessageType.EXECUTE_BATCH:
                result = await self._execute_batch(payload)
            elif frame.type == MessageType.HEALTH:
                result = self._health(payload)
            elif frame.type == MessageType.REFRESH:
                result = self._refresh(payload)
            else:
                raise ProtocolError(
                    f"{frame.type.name} is not a request frame"
                )
            reply_type, reply = MessageType.OK, result
        except Exception as exc:
            reply_type, reply = MessageType.ERROR, error_payload(exc)
        try:
            async with write_lock:
                await write_frame(writer, reply_type, frame.request_id, reply)
        except (ConnectionError, OSError):
            pass  # client left before the answer; nothing to tell it

    # ------------------------------------------------------------------
    # Request handlers
    # ------------------------------------------------------------------
    def _session(self, spec_digest: bytes):
        session = self._sessions.get(spec_digest)
        if session is None:
            raise UnknownSpecError(
                f"spec {spec_digest.hex()} is not synced to this worker"
            )
        self._sessions.move_to_end(spec_digest)
        return session

    async def _spec_sync(self, payload: dict) -> dict:
        digest: bytes = payload["digest"]
        built = False
        if digest not in self._sessions:
            blob: bytes = payload["blob"]
            self._compute_waiters += 1
            try:
                async with self._compute_lock:
                    session = await asyncio.get_running_loop().run_in_executor(
                        None, _build_session, blob
                    )
            finally:
                self._compute_waiters -= 1
            self._sessions[digest] = session
            built = True
            while len(self._sessions) > self.max_sessions:
                self._sessions.popitem(last=False)
        self._sessions.move_to_end(digest)
        return {"digest": digest, "built": built, "specs": len(self._sessions)}

    def _warm_plan(self, session, coords, shape) -> int:
        from repro.sparse.coo import SparseTensor3D

        coords = np.asarray(coords)
        template = SparseTensor3D(
            coords,
            np.ones((len(coords), 1), dtype=np.float64),
            tuple(shape),
        )
        session.warm(template)
        return template.nnz

    async def _prepare(self, payload: dict) -> dict:
        session = self._session(payload["spec"])
        self._compute_waiters += 1
        try:
            async with self._compute_lock:
                nnz = await asyncio.get_running_loop().run_in_executor(
                    None,
                    self._warm_plan,
                    session,
                    payload["coords"],
                    payload["shape"],
                )
        finally:
            self._compute_waiters -= 1
        return {"nnz": nnz}

    def _run_group(self, session, payload: dict) -> List[np.ndarray]:
        from repro.sparse.coo import SparseTensor3D

        first, *rest = payload["features"]
        template = SparseTensor3D(
            np.asarray(payload["coords"]), first, tuple(payload["shape"])
        )
        frames = [template] + [template.with_features(f) for f in rest]
        return [out.features for out in session.run_batch(frames)]

    async def _execute_batch(self, payload: dict) -> dict:
        session = self._session(payload["spec"])
        self._compute_waiters += 1
        try:
            async with self._compute_lock:
                outs = await asyncio.get_running_loop().run_in_executor(
                    None, self._run_group, session, payload
                )
        finally:
            self._compute_waiters -= 1
        self.groups_served += 1
        self.frames_served += len(outs)
        return {"features": outs}

    def _health(self, payload) -> dict:
        # ``queue_depth`` and ``warm_sessions`` are additive telemetry
        # (this wire version's coordinators read them with defaults, so
        # frames from older workers that lack them still parse).
        return {
            "pid": os.getpid(),
            "port": self.port,
            "uptime_s": time.monotonic() - self._started_at,
            "specs": [digest.hex() for digest in self._sessions],
            # Warm plans are the ones the sessions still hold: a plan
            # cache evicts beyond its capacity, and so does this list.
            "prepared": sorted(
                digest.hex()
                for session in self._sessions.values()
                for digest in session.plan_cache.site_digests()
            ),
            "groups_served": self.groups_served,
            "frames_served": self.frames_served,
            "max_sessions": self.max_sessions,
            "queue_depth": self.queue_depth,
            "warm_sessions": len(self._sessions),
        }

    def _refresh(self, payload) -> dict:
        keep = None if payload is None else payload.get("keep")
        dropped = [
            digest for digest in self._sessions if digest != keep
        ]
        for digest in dropped:
            del self._sessions[digest]
        return {
            "dropped": [digest.hex() for digest in dropped],
            "kept": [digest.hex() for digest in self._sessions],
        }


READY_PREFIX = "repro-worker ready"


def ready_line(worker: ClusterWorker) -> str:
    """The startup announcement a fleet spawner parses for the port."""
    return (
        f"{READY_PREFIX} host={worker.host} port={worker.port} "
        f"pid={os.getpid()}"
    )


def parse_ready_line(line: str) -> Tuple[str, int]:
    """Extract ``(host, port)`` from a worker's readiness announcement."""
    if not line.startswith(READY_PREFIX):
        raise ValueError(f"not a worker readiness line: {line!r}")
    fields = dict(
        part.split("=", 1) for part in line.split() if "=" in part
    )
    return fields["host"], int(fields["port"])


async def serve_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    max_sessions: int = DEFAULT_MAX_SESSIONS,
    announce: Optional[Callable[[str], None]] = None,
) -> None:
    """Run one worker until cancelled (the ``python -m repro worker`` body).

    ``announce`` receives the readiness line once the socket is bound —
    the CLI prints it to stdout so a parent that spawned the worker with
    ``--port 0`` can learn the ephemeral port.
    """
    worker = ClusterWorker(host=host, port=port, max_sessions=max_sessions)
    server = await worker.start()
    if announce is not None:
        announce(ready_line(worker))
    try:
        async with server:
            await server.serve_forever()
    finally:
        await worker.stop()
