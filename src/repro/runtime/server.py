"""Async serving front door: an asyncio request queue over a session.

Many concurrent clients submit frames, and the server exploits the
session's batching guarantee — frames sharing a coordinate digest share
one plan and are bit-identical whether run one call at a time or in one
``run_batch`` — to turn queue depth into throughput.
:class:`SessionServer` does exactly that:

* clients ``await server.submit(tensor)`` and get the network output for
  their frame back, unaware of batching;
* a single dispatcher task takes the oldest request plus whatever is
  already queued behind it (up to ``max_batch`` in all) and dispatches
  them at once as one
  :meth:`repro.engine.session.InferenceSession.run_batch` call, which
  groups the micro-batch by coordinate digest internally — so concurrent
  requests over the same scene share one plan lookup and one dispatch.
  It never waits for more requests to arrive: a batch is whatever queued
  up while the previous one ran;
* results are **bit-identical** to per-request ``session.run`` calls,
  for every execution backend (the session's batching contract plus the
  backend-parity contract of :mod:`repro.engine.backend`).

``python -m repro serve`` runs a self-contained demo: a rotating scene
with several concurrent clients per frame, reporting sustained
throughput against a sequential (unbatched) baseline.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.engine.session import InferenceSession
from repro.obs.metrics import BATCH_SIZE_BUCKETS, MetricRegistry
from repro.obs.trace import Tracer
from repro.sparse.coo import SparseTensor3D


class ServerOverloaded(RuntimeError):
    """Raised by :meth:`SessionServer.submit` when the queue is full.

    A server constructed with ``max_pending`` bounds the number of
    accepted-but-unserved requests; beyond it, submissions fail fast
    with this error instead of queueing unboundedly (the client can shed
    load or retry with backoff).
    """


class DeadlineExceeded(RuntimeError):
    """A request waited in the queue longer than its ``deadline_s``.

    Raised *to the submitting client* (via its awaited future) when the
    dispatcher dequeues the request after the deadline already passed —
    the frame is dropped without being executed, keeping an overloaded
    server from burning compute on answers nobody is waiting for.
    """


@dataclass
class ServeStats:
    """Aggregate statistics of one serving run.

    ``wall_seconds`` spans from the first request's dequeue to the last
    batch's completion — it *includes* idle gaps between batches and
    event-loop scheduling, so ``fps`` is honest sustained throughput.
    ``busy_seconds`` is the time actually spent inside ``run_batch``
    (the compute fraction of the span).

    Instances are immutable-in-practice *snapshots*: the live counters
    behind them are ``repro_serve_*`` metrics in the server's
    :class:`repro.obs.metrics.MetricRegistry`, whose lock makes the
    dispatch-loop and submit-path mutations race-free (they used to be
    bare ``+=`` on this dataclass).  Read :attr:`SessionServer.stats`
    for a fresh snapshot.
    """

    requests: int = 0
    micro_batches: int = 0
    batch_sizes: List[int] = field(default_factory=list)
    wall_seconds: float = 0.0
    busy_seconds: float = 0.0
    #: Backpressure accounting: submissions refused at the queue bound
    #: and dequeued requests dropped past their deadline.
    rejected_overload: int = 0
    rejected_deadline: int = 0
    #: Dequeued requests whose future was already done — the client
    #: cancelled (or otherwise settled) while the request sat in the
    #: queue — dropped before any compute was spent on them.
    rejected_cancelled: int = 0

    @property
    def mean_batch_size(self) -> float:
        if not self.batch_sizes:
            return 0.0
        return sum(self.batch_sizes) / len(self.batch_sizes)

    @property
    def max_batch_size(self) -> int:
        return max(self.batch_sizes, default=0)

    @property
    def fps(self) -> float:
        """Sustained served frames per second (wall clock).

        Raises a clear :class:`ValueError` before any request completed
        (there is no throughput to report yet).
        """
        if self.requests == 0:
            raise ValueError(
                "fps is undefined before any request was served"
            )
        if self.wall_seconds == 0.0:
            return 0.0
        return self.requests / self.wall_seconds


class SessionServer:
    """Micro-batching asyncio front door over an :class:`InferenceSession`.

    One dispatcher task owns the session; submissions from any number of
    client tasks are queued, coalesced, and executed batch-wise.  The
    server therefore composes with every backend: the cluster tier's
    ``remote`` backend additionally fans the micro-batch's digest
    groups across TCP worker processes.

    Parameters
    ----------
    session:
        The warm session to serve (a default one is built if omitted).
    max_batch:
        Upper bound on requests per ``run_batch`` dispatch.
    max_pending:
        Bound on accepted-but-unserved requests.  ``None`` (default)
        queues without limit; with a bound, :meth:`submit` raises
        :class:`ServerOverloaded` once the backlog reaches it, so
        overload surfaces at the edge instead of as unbounded memory
        growth and stale answers.
    deadline_s:
        Per-request queueing deadline.  A request still waiting when the
        dispatcher reaches it past the deadline is rejected with
        :class:`DeadlineExceeded` instead of being executed.  ``None``
        (default) disables deadlines.
    registry:
        The :class:`repro.obs.metrics.MetricRegistry` receiving the
        server's ``repro_serve_*`` telemetry (and backing
        :attr:`stats`).  ``None`` (default) creates a private registry,
        keeping one server's accounting isolated even when several
        servers serve the same session over time.  Pass the session's
        registry (as ``python -m repro serve --metrics-port`` does) to
        expose session + server metrics on one scrape surface; sharing
        one registry across *concurrently live* servers merges their
        serve counters.
    tracer:
        Ring buffer receiving one per-micro-batch stage timeline
        (queue-wait → execute → respond).  ``None`` builds a private
        256-deep :class:`repro.obs.trace.Tracer`; tracing follows
        ``registry.enabled``.
    """

    def __init__(
        self,
        session: Optional[InferenceSession] = None,
        max_batch: int = 16,
        max_pending: Optional[int] = None,
        deadline_s: Optional[float] = None,
        registry: Optional[MetricRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1 (or None), got {max_pending}"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive (or None), got {deadline_s}"
            )
        self.session = session if session is not None else InferenceSession()
        self.max_batch = int(max_batch)
        self.max_pending = None if max_pending is None else int(max_pending)
        self.deadline_s = None if deadline_s is None else float(deadline_s)
        self.registry = registry if registry is not None else MetricRegistry()
        self.tracer = tracer if tracer is not None else Tracer(capacity=256)
        self._queue: Optional[asyncio.Queue] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._closed = False
        self._span_start: Optional[float] = None
        self._pending = 0
        # Dispatcher-owned accumulators (single task, no races): the
        # cross-thread counters live in the registry instead.
        self._batch_sizes: List[int] = []
        self._busy_seconds = 0.0
        self._wall_seconds = 0.0
        reg = self.registry
        self._m_requests = reg.counter(
            "repro_serve_requests_total",
            "Requests served to completion.",
        )
        self._m_batches = reg.counter(
            "repro_serve_batches_total",
            "Micro-batches dispatched to run_batch.",
        )
        self._m_shed = reg.counter(
            "repro_serve_shed_total",
            "Requests shed before compute, by reason.",
            labels=("reason",),
        )
        self._m_depth = reg.gauge(
            "repro_serve_queue_depth",
            "Accepted-but-unserved requests right now.",
        )
        self._m_e2e = reg.histogram(
            "repro_serve_e2e_seconds",
            "End-to-end latency: enqueue to response.",
        )
        self._m_wait = reg.histogram(
            "repro_serve_queue_wait_seconds",
            "Queue wait: enqueue to dequeue by the dispatcher.",
        )
        self._m_execute = reg.histogram(
            "repro_serve_execute_seconds",
            "run_batch executor time per micro-batch.",
        )
        self._m_batch_size = reg.histogram(
            "repro_serve_batch_size",
            "Dispatched micro-batch sizes.",
            buckets=BATCH_SIZE_BUCKETS,
        )

    @property
    def stats(self) -> ServeStats:
        """A point-in-time :class:`ServeStats` snapshot.

        Every counter is read from the registry under its lock; the
        dispatcher-owned accumulators (batch sizes, busy/wall seconds)
        are copied as-is.
        """
        return ServeStats(
            requests=int(self._m_requests.value()),
            micro_batches=int(self._m_batches.value()),
            batch_sizes=list(self._batch_sizes),
            wall_seconds=self._wall_seconds,
            busy_seconds=self._busy_seconds,
            rejected_overload=int(self._m_shed.value(reason="overload")),
            rejected_deadline=int(self._m_shed.value(reason="deadline")),
            rejected_cancelled=int(self._m_shed.value(reason="cancelled")),
        )

    def _track_pending(self, delta: int) -> None:
        self._pending += delta
        self._m_depth.set(self._pending)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "SessionServer":
        """Start the dispatcher task (idempotent)."""
        if self._dispatcher is None:
            self._closed = False
            self._queue = asyncio.Queue()
            self._pending = 0
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop()
            )
        return self

    async def stop(self) -> None:
        """Drain pending requests, then stop the dispatcher."""
        if self._dispatcher is None:
            return
        self._closed = True
        await self._queue.put(None)  # sentinel wakes the dispatcher
        await self._dispatcher
        self._dispatcher = None
        self._queue = None

    async def __aenter__(self) -> "SessionServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    async def submit(self, tensor: SparseTensor3D) -> SparseTensor3D:
        """Queue one frame and await its network output.

        Bit-identical to ``session.run(tensor)``; concurrency and
        batching are invisible to the caller.  With ``max_pending`` set,
        raises :class:`ServerOverloaded` instead of queueing once the
        backlog is full; with ``deadline_s`` set, may raise
        :class:`DeadlineExceeded` if the request could not be dispatched
        in time.
        """
        if self._dispatcher is None or self._closed:
            raise RuntimeError(
                "SessionServer is not running; use 'async with server:' or "
                "await server.start()"
            )
        if self.max_pending is not None and self._pending >= self.max_pending:
            self._m_shed.inc(reason="overload")
            raise ServerOverloaded(
                f"server backlog is full ({self._pending} pending requests, "
                f"max_pending={self.max_pending}); shed load or retry with "
                "backoff"
            )
        future = asyncio.get_running_loop().create_future()
        self._track_pending(1)
        await self._queue.put((tensor, future, time.monotonic()))
        return await future

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _collect_batch(self, first) -> list:
        """``first`` plus what is already queued, up to ``max_batch``.

        Never waits for stragglers: a micro-batch shares only its plan
        lookup, so holding the oldest request back would add latency
        without saving compute.
        """
        batch = [first]
        while len(batch) < self.max_batch and not self._queue.empty():
            item = self._queue.get_nowait()
            if item is None:
                self._queue.put_nowait(None)  # keep the stop sentinel
                break
            batch.append(item)
        return batch

    def _drop_cancelled(self, batch: list) -> list:
        """Drop dequeued requests whose future is already done.

        A client that cancels (or errors) while its request waits in the
        queue leaves a completed future behind; executing its frame
        would spend compute on an answer nobody awaits.  Dropped
        requests keep ``_pending`` exact and are counted in
        ``stats.rejected_cancelled``.
        """
        live = []
        for item in batch:
            if item[1].done():
                self._track_pending(-1)
                self._m_shed.inc(reason="cancelled")
            else:
                live.append(item)
        return live

    def _expire_overdue(self, batch: list) -> list:
        """Reject dequeued requests whose queueing deadline passed.

        Returns the still-live requests; expired ones get a
        :class:`DeadlineExceeded` on their future without touching the
        session (no compute is spent on answers nobody awaits).
        """
        if self.deadline_s is None:
            return batch
        now = time.monotonic()
        live = []
        for item in batch:
            tensor, future, enqueued = item
            waited = now - enqueued
            if waited > self.deadline_s:
                self._track_pending(-1)
                self._m_shed.inc(reason="deadline")
                if not future.done():
                    future.set_exception(
                        DeadlineExceeded(
                            f"request waited {waited * 1e3:.1f} ms in the "
                            f"queue, past its {self.deadline_s * 1e3:.1f} ms "
                            "deadline"
                        )
                    )
            else:
                live.append(item)
        return live

    async def _dispatch_loop(self) -> None:
        while True:
            first = await self._queue.get()
            if first is None:
                if self._queue.empty():
                    return
                # Requests are still queued behind the sentinel: rotate
                # it to the back and drain them first.
                self._queue.put_nowait(None)
                continue
            if self._span_start is None:
                self._span_start = time.perf_counter()
            dequeue_t = time.monotonic()
            batch = self._expire_overdue(
                self._drop_cancelled(self._collect_batch(first))
            )
            if not batch:
                continue
            tensors = [tensor for tensor, _, _ in batch]
            pre = self.session.stats if self.registry.enabled else None
            start = time.perf_counter()
            try:
                # run_batch groups the micro-batch by coordinate digest:
                # one plan / gather / scatter per distinct site set.  The
                # compute runs on the default executor so the loop keeps
                # accepting, shedding, and cancelling while the backend
                # works; only this coroutine touches the session, so
                # session state stays single-threaded.
                outputs = await asyncio.get_running_loop().run_in_executor(
                    None, self.session.run_batch, tensors
                )
            except Exception as exc:  # propagate to every waiting client
                for _, future, _ in batch:
                    self._track_pending(-1)
                    if not future.done():
                        future.set_exception(exc)
                continue
            end = time.perf_counter()
            exec_end_t = time.monotonic()
            self._m_requests.inc(len(batch))
            self._m_batches.inc()
            self._batch_sizes.append(len(batch))
            self._busy_seconds += end - start
            self._wall_seconds = end - self._span_start
            for (_, future, _), output in zip(batch, outputs):
                self._track_pending(-1)
                if not future.done():
                    future.set_result(output)
            self._record_batch(
                batch,
                dequeue_t=dequeue_t,
                execute_s=end - start,
                exec_end_t=exec_end_t,
                respond_t=time.monotonic(),
                pre=pre,
            )

    def _record_batch(
        self,
        batch: list,
        dequeue_t: float,
        execute_s: float,
        exec_end_t: float,
        respond_t: float,
        pre,
    ) -> None:
        """Histograms + one stage-timeline trace for a dispatched batch.

        The timeline (queue-wait → execute → respond) is laid out on the
        shared monotonic clock, origin at the earliest member's
        enqueue.  Plan work happens *inside* the
        execute span (the session's own ``repro_session_*`` histograms
        carry that split); its cache activity is attached as span
        metadata from the session-stats delta across the batch.
        """
        if not self.registry.enabled:
            return
        waits = [dequeue_t - enqueued for _, _, enqueued in batch]
        for wait in waits:
            self._m_wait.observe(max(wait, 0.0))
        self._m_execute.observe(execute_s)
        self._m_batch_size.observe(len(batch))
        for _, _, enqueued in batch:
            self._m_e2e.observe(max(respond_t - enqueued, 0.0))
        if not self.tracer.enabled:
            return
        post = self.session.stats
        origin = min(enqueued for _, _, enqueued in batch)
        trace = self.tracer.start("micro-batch", size=len(batch))
        trace.add_span(
            "queue-wait", 0.0, dequeue_t - origin, max_wait_s=max(waits)
        )
        trace.add_span(
            "execute",
            dequeue_t - origin,
            exec_end_t - origin,
            run_batch_s=execute_s,
            plan_misses=post.plan_misses - pre.plan_misses,
        )
        trace.add_span("respond", exec_end_t - origin, respond_t - origin)


async def serve(
    frames: Sequence[SparseTensor3D],
    session: Optional[InferenceSession] = None,
    concurrency: int = 8,
    max_batch: int = 16,
    max_pending: Optional[int] = None,
    deadline_s: Optional[float] = None,
    registry: Optional[MetricRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> tuple:
    """Serve ``frames`` through a :class:`SessionServer`, preserving order.

    Spins up the server, submits every frame from ``concurrency``
    concurrent client tasks (modeling independent users), and returns
    ``(outputs, stats)`` with ``outputs[i]`` corresponding to
    ``frames[i]``.  This is both the programmatic entry point and the
    engine under ``python -m repro serve``.

    With backpressure configured (``max_pending`` / ``deadline_s``),
    rejected requests leave ``outputs[i]`` as ``None`` and are counted
    in ``stats.rejected_overload`` / ``stats.rejected_deadline`` — the
    demo clients shed load instead of crashing, as a real edge would.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    frames = list(frames)
    outputs: List[Optional[SparseTensor3D]] = [None] * len(frames)
    pending = asyncio.Queue()
    for index, frame in enumerate(frames):
        pending.put_nowait((index, frame))

    async with SessionServer(
        session=session,
        max_batch=max_batch,
        max_pending=max_pending,
        deadline_s=deadline_s,
        registry=registry,
        tracer=tracer,
    ) as server:

        async def client() -> None:
            while True:
                try:
                    index, frame = pending.get_nowait()
                except asyncio.QueueEmpty:
                    return
                try:
                    outputs[index] = await server.submit(frame)
                except (ServerOverloaded, DeadlineExceeded):
                    pass  # counted in stats; outputs[index] stays None

        await asyncio.gather(
            *(client() for _ in range(min(concurrency, max(len(frames), 1))))
        )
        stats = server.stats
    return outputs, stats


def serve_frames(
    frames: Sequence[SparseTensor3D],
    session: Optional[InferenceSession] = None,
    **kwargs,
) -> tuple:
    """Blocking convenience wrapper around :func:`serve`."""
    return asyncio.run(serve(frames, session=session, **kwargs))
