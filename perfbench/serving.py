"""The ``serve-shared`` workload: a ``SessionServer`` over a warm session.

Two phases over one warm float32 ``scipy`` session at 96^3, drawing from
a pool of 6 site sets x 4 feature variants:

* open loop: Poisson arrivals at ``OPEN_RATE``, each request timed from
  its *scheduled* send time, so a stall also charges the requests that
  were due during it; the load generator reports how late it sent;
* saturation: ``MAX_BATCH`` closed-loop callers, so batches fill.

Each phase runs in short parts (about a second of open-loop arrivals,
or twelve full batches).  Between parts nothing is in flight, and a
burst of the ``measure.HostSpeed`` kernel gives the factor that scales
the next part's times to the reference host speed.

In a traced run the session's ``run_batch`` is wrapped from outside to
note when the server's dispatcher enters and leaves it, which splits
each open-loop request's latency into wait, execute and respond spans.
"""

from __future__ import annotations

import asyncio
import gc
import statistics
import sys
import time
import traceback
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List

import numpy as np

from repro.engine import InferenceSession
from repro.runtime import SessionServer

from perfbench import measure, scenes
from perfbench.streams import same_tensor, traced_layers
from perfbench.tracing import Tracer

#: Open-loop arrival rate (requests/s).  At light load batches hold one
#: or two requests, each costing ~7 ms on a 2-core box, so this is about
#: a third of the unbatched service rate and a fifth of the saturation
#: capacity.  Also stated in BENCHMARK.json.
OPEN_RATE = 50.0
#: Open-loop requests per second of ``--seconds``: the open-loop phase
#: lasts about ``--seconds``.
OPEN_PER_SECOND = 50
#: Saturation-phase requests per second of ``--seconds``.
SATURATION_PER_SECOND = 150
MAX_BATCH = 8
#: Open-loop requests per part of the phase (about a second).
OPEN_PART = 50
#: Saturation requests per part: twelve full batches, four rounds of the
#: pool.  Capacity is taken over each part from the first completion to
#: the one ``MAX_BATCH`` before the end, and ``capacity_per_s`` is the
#: median over parts.
SATURATION_PART = 12 * MAX_BATCH
#: Host-speed kernel times before each part or set-up.
BURST = 5
#: Every this many requests a response is kept and checked afterwards.
CHECK_EVERY = 10


class ServeShared:
    name = "serve-shared"

    def __init__(self, seed: int, seconds: int, tracer: Tracer) -> None:
        self.tracer = tracer
        self.pool = scenes.serve_pool(seed)
        rng = np.random.default_rng([seed, 1])
        n_open = OPEN_PER_SECOND * seconds
        self.open_requests = self._requests(rng, n_open)
        parts = max(1, round(SATURATION_PER_SECOND * seconds / SATURATION_PART))
        self.saturation_requests = self._requests(rng, parts * SATURATION_PART)
        self.offsets = np.cumsum(rng.exponential(1.0 / OPEN_RATE, size=n_open))
        self.host = measure.HostSpeed()
        self.kept: List[tuple] = []
        self.failed = 0
        #: id(request tensor) -> (run_batch entered, run_batch returned).
        self.batch_log: Dict[int, tuple] = {}

    def _requests(self, rng, count: int) -> List[tuple]:
        # Shuffled rounds of the whole pool: every entry is asked for
        # equally often, and each saturation part (a whole number of
        # rounds) carries the same mix.  One tensor object per request,
        # so run_batch calls can be matched back to the requests.
        rounds = -(-count // len(self.pool))
        picks = np.concatenate([rng.permutation(len(self.pool)) for _ in range(rounds)])[:count]
        return [(int(k), self.pool[k].with_features(self.pool[k].features)) for k in picks]

    def new_session(self) -> InferenceSession:
        session = InferenceSession(precision="float32", backend="scipy")
        for sites in self.pool[:: scenes.SERVE_VARIANTS]:
            session.warm(sites)
        return session

    def warm_session(self) -> InferenceSession:
        """A session that has also executed every pool entry once."""
        session = self.new_session()
        session.run_batch(self.pool)
        for tensor in self.pool:
            session.run(tensor)
        return session

    async def executor_burst(self) -> float:
        """A host-speed burst on the executor thread, which runs ``run_batch``.

        The two threads may sit on cores whose speed differs, so the
        factor for served requests is taken on the thread that serves them.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.host.burst, BURST)

    async def timed_setup(self, setups: Dict[str, List[float]]) -> None:
        """Build and warm a session, start a server, serve one answer."""
        factor = self.host.burst(BURST)
        gc.collect()
        start = time.perf_counter()
        async with SessionServer(self.new_session(), max_batch=MAX_BATCH) as server:
            await server.submit(self.pool[0])
        seconds = time.perf_counter() - start
        gc.collect()
        setups["wall"].append(seconds)
        setups["scaled"].append(seconds * factor)

    def wrap_run_batch(self, session: InferenceSession) -> None:
        inner = session.run_batch

        def run_batch(tensors):
            entered = time.perf_counter()
            outputs = inner(tensors)
            returned = time.perf_counter()
            for tensor in tensors:
                self.batch_log[id(tensor)] = (entered, returned)
            return outputs

        session.run_batch = run_batch

    async def _submit(self, server, index: int, request: tuple):
        pool_index, tensor = request
        try:
            out = await server.submit(tensor)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        if index % CHECK_EVERY == 0:
            self.kept.append((pool_index, out))
        return out

    async def open_loop(self, server: SessionServer, trace: bool) -> dict:
        # Wall times, and the same times scaled to the reference host speed.
        latency: Dict[str, List[float]] = {"wall": [], "scaled": []}
        lateness: List[float] = []

        async def one(index: int, due: float, factor: float) -> None:
            request = self.open_requests[index]
            if await self._submit(server, index, request) is None:
                return
            done = time.perf_counter()
            latency["wall"].append(done - due)
            latency["scaled"].append((done - due) * factor)
            if trace:
                entered, returned = self.batch_log.pop(id(request[1]))
                self.tracer.scale[index] = factor
                root = self.tracer.record("request", due, done, None, index)
                self.tracer.record("server.wait", due, entered, root, index)
                self.tracer.record("server.execute", entered, returned, root, index)
                self.tracer.record("server.respond", returned, done, root, index)

        for first in range(0, len(self.offsets), OPEN_PART):
            part = range(first, min(first + OPEN_PART, len(self.offsets)))
            factor = await self.executor_burst()
            # The part's first request is due one arrival gap after it starts.
            origin = time.perf_counter() - (self.offsets[first - 1] if first else 0.0)
            tasks = []
            for index in part:
                due = origin + self.offsets[index]
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                lateness.append(time.perf_counter() - due)
                tasks.append(asyncio.create_task(one(index, due, factor)))
            await asyncio.gather(*tasks)
        return {"latency": latency, "lateness": lateness}

    async def saturate(self, server: SessionServer) -> dict:
        # Per part: round-trip p50 and p90 (ms) and completion rate.
        parts: Dict[str, Dict[str, List[float]]] = {
            "wall": defaultdict(list),
            "scaled": defaultdict(list),
        }

        async def caller(indices, round_trip: List[float], completions: List[float]) -> None:
            for index in indices:
                start = time.perf_counter()
                request = self.saturation_requests[index]
                if await self._submit(server, index, request) is None:
                    continue
                end = time.perf_counter()
                round_trip.append(end - start)
                completions.append(end)

        count = len(self.saturation_requests)
        for first in range(0, count, SATURATION_PART):
            part = range(first, min(first + SATURATION_PART, count))
            factor = await self.executor_burst()
            round_trip: List[float] = []
            completions: List[float] = []
            await asyncio.gather(
                *(caller(part[offset::MAX_BATCH], round_trip, completions)
                  for offset in range(MAX_BATCH))
            )
            p50 = measure.percentile_ms(round_trip, 50)
            p90 = measure.percentile_ms(round_trip, 90)
            rate = measure.completion_rate(sorted(completions), len(part) - MAX_BATCH)
            for times, scale in (("wall", 1.0), ("scaled", factor)):
                parts[times]["p50"].append(p50 * scale)
                parts[times]["p90"].append(p90 * scale)
                parts[times]["rate"].append(rate / scale)
        return {"parts": parts, "batch_size_mean": server.stats.mean_batch_size}

    async def run(self, trace: bool) -> dict:
        # The dispatcher hands each micro-batch to one executor thread;
        # with the event loop that is two threads, one per core.
        asyncio.get_running_loop().set_default_executor(ThreadPoolExecutor(max_workers=1))
        # measure.SETUP_REPEATS set-ups: before, between and after the phases.
        setups: Dict[str, List[float]] = {"wall": [], "scaled": []}
        for _ in range(measure.SETUP_REPEATS // 2):
            await self.timed_setup(setups)
        session = self.warm_session()
        gc.collect()
        if trace:
            self.wrap_run_batch(session)
        before = session.stats
        async with SessionServer(session, max_batch=MAX_BATCH) as server:
            opened = await self.open_loop(server, trace)
        await self.timed_setup(setups)
        async with SessionServer(session, max_batch=MAX_BATCH) as server:
            saturated = await self.saturate(server)
        after = session.stats
        for _ in range(measure.SETUP_REPEATS // 2):
            await self.timed_setup(setups)

        wrong = self.wrong_outputs()
        attempted = len(self.open_requests) + len(self.saturation_requests)
        result = {
            "attempted": attempted,
            "failed": self.failed + wrong,
            "checks": {"outputs": wrong == 0},
            "info": {
                "open_rate_per_s": OPEN_RATE,
                "open_requests": len(self.open_requests),
                "saturation_requests": len(self.saturation_requests),
                "pool_nnz": sorted({t.nnz for t in self.pool}),
                "checked_outputs": len(self.kept),
            },
            "host": {"kernel_ms": self.host.kernel_ms()},
        }

        def metrics(times: str) -> Dict[str, float]:
            # Saturation: the median over parts of each part's figure.
            part = {
                name: statistics.median(values)
                for name, values in saturated["parts"][times].items()
            }
            return {
                "frame_p50_ms": part["p50"],
                "frame_p90_ms": part["p90"],
                "frames_per_s": part["rate"],
                "latency_p50_ms": measure.percentile_ms(opened["latency"][times], 50),
                "capacity_per_s": part["rate"],
                "setup_s": statistics.median(setups[times]),
            }

        if not trace:
            result["metrics"] = {**metrics("scaled"), "peak_rss_mb": measure.peak_rss_mb()}
            result["host"]["wall_metrics"] = metrics("wall")
            return result
        warm = []
        for sites in self.pool[:: scenes.SERVE_VARIANTS]:
            factor = self.host.tick()
            start = time.perf_counter()
            session.warm(sites)
            warm.append((time.perf_counter() - start) * factor)
        result["metrics"] = {
            **traced_layers(self.tracer, "request"),
            "server.batch_size_mean": saturated["batch_size_mean"],
            "loadgen.lateness_p99_ms": measure.percentile_ms(opened["lateness"], 99),
            "plan.cold_ms": measure.ms(float(np.mean(warm))),
            "rulebook.matching_passes": (after.matching_passes - before.matching_passes)
            / attempted,
        }
        return result

    def wrong_outputs(self) -> int:
        reference = InferenceSession(precision="float32", backend="scipy")
        expected = {}
        wrong = 0
        for pool_index, out in self.kept:
            if pool_index not in expected:
                expected[pool_index] = reference.run(self.pool[pool_index])
            wrong += not same_tensor(out, expected[pool_index])
        return wrong
