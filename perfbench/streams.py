"""The three stream workloads: one caller, closed loop, a fixed frame list.

Each frame is timed from outside ``session.warm`` / ``session.run`` /
``session.map``, and scaled to the reference host speed by the
``measure.HostSpeed`` kernel timed just before it.  In a traced run every
frame also records spans around those calls, and the session's counters
are read between frames (outside the frame span) to give per-frame layer
counts.
"""

from __future__ import annotations

import sys
import time
import traceback
from collections import defaultdict
from typing import Dict, List

import numpy as np
from scipy.spatial import cKDTree

from repro.engine import InferenceSession
from repro.nn.point_layers import PointNetClassifier

from perfbench import measure, scenes
from perfbench.tracing import Tracer

#: Frames per window of the windowed ``frames_per_s``.
RATE_WINDOW = 10
#: Untimed frames run before the measured ones (allocator and cache
#: warm-up), as a share of the measured frame count.
WARMUP_SHARE = 0.05
#: Stationary drift: mean voxel count of the first and last quarter of
#: frames may differ by at most this share.
NNZ_DRIFT_LIMIT = 0.01


class StreamWorkload:
    """One stream: a frame list, its session, and how one frame runs."""

    name = ""
    #: Frames per second of ``--seconds`` on the reference box; the frame
    #: count is fixed from it, so a run is fixed work, not fixed time.
    frames_per_second = 1.0
    #: Every this many frames an output is kept and checked after the loop.
    check_every = 25

    def __init__(self, seed: int, seconds: int, tracer: Tracer) -> None:
        self.tracer = tracer
        self.count = max(2 * RATE_WINDOW, round(self.frames_per_second * seconds))
        warmup = max(3, round(WARMUP_SHARE * self.count))
        frames = self.make_frames(seed, warmup + self.count)
        self.warmup_frames, self.frames = frames[:warmup], frames[warmup:]
        self.session = self.new_session()
        self.host = measure.HostSpeed()
        #: Host-speed factor of the frame being run.
        self.factor = 1.0
        self.kept: List[tuple] = []
        #: Per-layer counter totals over traced frames.
        self.counters: Dict[str, float] = defaultdict(float)

    # -- defined by each workload ---------------------------------------
    def make_frames(self, seed: int, count: int) -> list:
        raise NotImplementedError

    def new_session(self) -> InferenceSession:
        raise NotImplementedError

    def step(self, frame_id: int, tensor):
        """Run one frame inside the frame span; return its output."""
        raise NotImplementedError

    def wrong_outputs(self) -> int:
        """Kept outputs that differ from their reference."""
        raise NotImplementedError

    # -- shared ---------------------------------------------------------
    def setup(self) -> None:
        """Build a fresh net and session and serve the first frame."""
        session = self.new_session()
        self.serve_first(session, self.frames[0])

    def serve_first(self, session: InferenceSession, tensor) -> None:
        session.run(tensor)

    def before_traced(self) -> None:
        self._before = self.session.stats

    def after_traced(self, tensor, out) -> None:
        before, after = self._before, self.session.stats
        add = self.counters

        def scaled_ms(seconds: float) -> float:
            return measure.ms(seconds) * self.factor

        add["rulebook.matching_passes"] += after.matching_passes - before.matching_passes
        add["rulebook.matches"] += after.apply_matches - before.apply_matches
        add["backend.gather_ms"] += scaled_ms(after.gather_seconds - before.gather_seconds)
        add["backend.gemm_ms"] += scaled_ms(after.gemm_seconds - before.gemm_seconds)
        add["backend.scatter_ms"] += scaled_ms(after.scatter_seconds - before.scatter_seconds)
        add["backend.plans_refreshed"] += after.plans_refreshed - before.plans_refreshed
        add["backend.plans_spliced"] += after.plans_spliced - before.plans_spliced
        add["delta.patches"] += after.delta_patches - before.delta_patches
        add["delta.rebuilds"] += after.delta_rebuilds - before.delta_rebuilds

    def layer_metrics(self, spans: Dict[str, float]) -> Dict[str, float]:
        """``spans`` plus per-frame means of the counters of traced frames."""
        counters = self.counters
        out = dict(spans)
        for name in (
            "rulebook.matching_passes",
            "rulebook.matches",
            "backend.gather_ms",
            "backend.gemm_ms",
            "backend.scatter_ms",
            "backend.plans_refreshed",
            "backend.plans_spliced",
        ):
            out[name] = counters[name] / self.count
        misses = counters["delta.patches"] + counters["delta.rebuilds"]
        out["delta.patch_share"] = counters["delta.patches"] / misses if misses else 0.0
        return out

    def info(self) -> dict:
        nnz = [tensor.nnz for tensor in self.frames]
        return {"frames": self.count, "nnz_min": min(nnz), "nnz_max": max(nnz)}

    def checks(self) -> Dict[str, bool]:
        return {}


class UNetRotate(StreamWorkload):
    """Default SS U-Net session on a rotating chair: cold plan every frame."""

    name = "unet-rotate"
    frames_per_second = 20.0
    #: (tensor, modeled cycles) of the first traced frame, re-estimated
    #: on a fresh session after the loop.
    first_cycles = None

    def make_frames(self, seed, count):
        return scenes.rotating_frames(seed, count)

    def new_session(self):
        return InferenceSession()

    def step(self, frame_id, tensor):
        span = self.tracer.span
        with span("plan.cold", frame_id):
            self.session.warm(tensor)
        with span("backend.execute", frame_id):
            return self.session.run(tensor)

    def after_traced(self, tensor, out):
        super().after_traced(tensor, out)
        cycles = self.session.estimate(tensor).total_cycles
        self.counters["arch.modeled_cycles"] += cycles
        if self.first_cycles is None:
            self.first_cycles = (tensor, cycles)

    def layer_metrics(self, spans):
        out = super().layer_metrics(spans)
        out["arch.modeled_cycles"] = self.counters["arch.modeled_cycles"]
        return out

    def wrong_outputs(self):
        # The module-tree forward (session.run) against the batch executor.
        wrong = 0
        for frame_id, out in self.kept:
            (ref,) = self.session.run_batch([self.frames[frame_id]])
            wrong += not same_tensor(out, ref)
        return wrong

    def checks(self):
        if self.first_cycles is None:
            return {}
        tensor, cycles = self.first_cycles
        fresh = InferenceSession().estimate(tensor).total_cycles
        return {"modeled_cycles_repeat": fresh == cycles}


class UNetDriftInt(StreamWorkload):
    """INT8 x INT16 SS U-Net, scipy backend, delta on, stationary drift."""

    name = "unet-drift-int"
    frames_per_second = 9.0

    def make_frames(self, seed, count):
        return scenes.drift_frames(seed, count)

    def new_session(self):
        return InferenceSession(precision="int", backend="scipy", delta=True)

    def step(self, frame_id, tensor):
        span = self.tracer.span
        with span("plan.delta", frame_id):
            self.session.warm(tensor)
        with span("backend.execute", frame_id):
            return self.session.run(tensor)

    def wrong_outputs(self):
        reference = InferenceSession(precision="int", backend="scipy", delta=False)
        wrong = 0
        for frame_id, out in self.kept:
            wrong += not same_tensor(out, reference.run(self.frames[frame_id]))
        return wrong

    def checks(self):
        quarter = max(1, self.count // 4)
        first = np.mean([t.nnz for t in self.frames[:quarter]])
        last = np.mean([t.nnz for t in self.frames[-quarter:]])
        return {"stationary_nnz": bool(abs(first - last) <= NNZ_DRIFT_LIMIT * first)}


class PointsRotate(StreamWorkload):
    """PointNet classifier forward plus a cold self-query kNN per frame."""

    name = "points-rotate"
    frames_per_second = 3.0
    check_every = 1
    K = 8

    def make_frames(self, seed, count):
        return scenes.rotating_frames(seed, count)

    def new_session(self):
        return InferenceSession(net=PointNetClassifier())

    def serve_first(self, session, tensor):
        session.run(tensor)
        session.map("knn", tensor, k=self.K)

    def step(self, frame_id, tensor):
        span = self.tracer.span
        with span("points.forward", frame_id):
            self.session.run(tensor)
        with span("mapping.knn", frame_id):
            return self.session.map("knn", tensor, k=self.K)

    def after_traced(self, tensor, result):
        stats = result.stats
        self.counters["mapping.candidates"] += stats.candidates
        self.counters["mapping.queries"] += stats.num_queries
        points = tensor.coords.astype(np.float64)
        start = time.perf_counter()
        cKDTree(points).query(points, k=self.K)
        self.counters["mapping.knn_ckdtree_ms"] += (
            measure.ms(time.perf_counter() - start) * self.factor
        )

    def layer_metrics(self, spans):
        counters = self.counters
        ckdtree_ms = counters["mapping.knn_ckdtree_ms"] / self.count
        return {
            **spans,
            "mapping.knn_ckdtree_ms": ckdtree_ms,
            "mapping.knn_vs_ckdtree": spans["mapping.knn_ms"] / ckdtree_ms,
            "mapping.candidates_per_query": counters["mapping.candidates"]
            / counters["mapping.queries"],
        }

    def wrong_outputs(self):
        # Squared distances recomputed from cKDTree's neighbour indices.
        wrong = 0
        for frame_id, result in self.kept:
            points = self.frames[frame_id].coords.astype(np.float64)
            _, index = cKDTree(points).query(points, k=self.K)
            expected = ((points[index] - points[:, None, :]) ** 2).sum(axis=-1)
            wrong += not np.array_equal(result.distances, expected)
        return wrong


STREAMS = {cls.name: cls for cls in (UNetRotate, UNetDriftInt, PointsRotate)}


def same_tensor(out, ref) -> bool:
    """Bit-identical output tensors: dtype, sites and features."""
    return (
        out.features.dtype == ref.features.dtype
        and np.array_equal(out.coords, ref.coords)
        and np.array_equal(out.features, ref.features)
    )


def stream_metrics(seconds: List[float], setups: List[float]) -> Dict[str, float]:
    rate = measure.windowed_rate(seconds, RATE_WINDOW)
    return {
        "frame_p50_ms": measure.percentile_ms(seconds, 50),
        "frame_p90_ms": measure.percentile_ms(seconds, 90),
        "frames_per_s": rate,
        # One closed-loop caller: a frame is due when the previous one
        # returns, so its latency is its frame time and its capacity is
        # the frame rate.
        "latency_p50_ms": measure.percentile_ms(seconds, 50),
        "capacity_per_s": rate,
        "setup_s": float(np.median(setups)),
    }


def run_stream(workload: StreamWorkload, trace: bool) -> dict:
    tracer = workload.tracer
    host = workload.host
    setup_at = set(measure.spread_points(workload.count))
    # Wall times, and the same times scaled to the reference host speed.
    setups: Dict[str, List[float]] = {"wall": [], "scaled": []}
    seconds: Dict[str, List[float]] = {"wall": [], "scaled": []}
    failed = 0
    for tensor in workload.warmup_frames:
        host.tick()
        workload.step(-1, tensor)
    for frame_id, tensor in enumerate(workload.frames):
        factor = workload.factor = tracer.scale[frame_id] = host.tick()
        if frame_id in setup_at:
            setup = measure.timed_setup(workload.setup)
            setups["wall"].append(setup)
            setups["scaled"].append(setup * factor)
        if trace:
            workload.before_traced()
            tracer.enabled = True
        start = time.perf_counter()
        try:
            with tracer.span("frame", frame_id):
                out = workload.step(frame_id, tensor)
        except Exception:
            failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        finally:
            end = time.perf_counter()
            tracer.enabled = False
        seconds["wall"].append(end - start)
        seconds["scaled"].append((end - start) * factor)
        if trace:
            workload.after_traced(tensor, out)
        if frame_id % workload.check_every == 0:
            workload.kept.append((frame_id, out))
    if workload.count in setup_at:
        setup = measure.timed_setup(workload.setup)
        setups["wall"].append(setup)
        setups["scaled"].append(setup * workload.factor)

    wrong = workload.wrong_outputs()
    checks = workload.checks()
    result = {
        "attempted": workload.count,
        "failed": failed + wrong,
        "checks": {"outputs": wrong == 0, **checks},
        "info": {**workload.info(), "checked_outputs": len(workload.kept)},
        "host": {"kernel_ms": host.kernel_ms()},
    }
    if not trace:
        result["metrics"] = {
            **stream_metrics(seconds["scaled"], setups["scaled"]),
            "peak_rss_mb": measure.peak_rss_mb(),
        }
        result["host"]["wall_metrics"] = stream_metrics(seconds["wall"], setups["wall"])
        return result
    result["metrics"] = workload.layer_metrics(traced_layers(tracer, "frame"))
    return result


def traced_layers(tracer: Tracer, root: str) -> Dict[str, float]:
    """Mean self time per operation of every span name, in ms.

    Times are at the reference host speed (``Tracer.scale``).

    The root span's self time is reported as ``trace.remainder_ms``;
    with the layers' self times it adds up to ``trace.op_mean_ms``.
    The tail of the root spans is ``latency_p99_ms``: too noisy between
    runs on a shared 2-core box to carry a bound, it is reported here.
    """
    roots = tracer.roots()
    per_op = {
        name: measure.ms(total) / len(roots)
        for name, total in tracer.self_seconds().items()
    }
    metrics = {f"{name}_ms": value for name, value in per_op.items() if name != root}
    durations = [tracer.seconds(span) for span in roots]
    metrics["trace.op_mean_ms"] = measure.ms(sum(durations)) / len(roots)
    metrics["trace.remainder_ms"] = per_op[root]
    metrics["trace.frame_p50_ms"] = measure.percentile_ms(durations, 50)
    metrics["latency_p99_ms"] = measure.percentile_ms(durations, 99)
    return metrics
