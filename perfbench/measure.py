"""Timing statistics, host-speed scaling, set-up timing and the fingerprint."""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time
from collections import deque
from typing import Callable, List, Sequence

import numpy as np
import scipy

#: Set-ups per run (odd); their median is ``setup_s``.
SETUP_REPEATS = 7
#: Seconds one ``HostSpeed`` kernel takes on an idle 2.1 GHz Xeon vCPU
#: with one BLAS thread.  Every time the benchmark reports is scaled to
#: this speed, so changing the constant rescales every time metric.
REFERENCE_KERNEL_S = 2.5e-3
#: Kernel samples whose median gives the speed of the next operation.
SPEED_WINDOW = 5


def ms(seconds: float) -> float:
    return seconds * 1e3


def percentile_ms(seconds: Sequence[float], q: float) -> float:
    return ms(float(np.percentile(np.asarray(seconds), q)))


class HostSpeed:
    """How fast the host runs right now, from a fixed kernel timed often.

    On a shared box the same code runs up to ~2x slower while
    neighbouring machines are busy, for seconds to minutes at a time and
    with no steal time to show for it.  Every wall-clock metric moves
    with that, between runs and between sets of runs.  So a fixed
    single-thread kernel (a BLAS GEMM, a numpy sort and unique and a
    Python dict loop: the kinds of work the library does) is timed
    before every operation, outside its timed region, with its arrays
    already in cache and the garbage collector paused.  ``tick`` returns
    ``REFERENCE_KERNEL_S`` over the median of the last ``SPEED_WINDOW``
    kernel times; an operation's wall time times that factor is its time
    at the reference speed.  A change to the library changes the
    operation and not the kernel, so it shows in full.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        # Sized so that each of the three parts takes about a third.
        self._matrix = rng.standard_normal((288, 288))
        self._keys = rng.integers(0, 1 << 20, 8_000)
        self._words = rng.integers(0, 1 << 20, 10_000).tolist()
        self._recent: deque = deque(maxlen=SPEED_WINDOW)
        self.samples: List[float] = []

    def _kernel(self) -> float:
        self._matrix.sum()
        self._keys.sum()
        start = time.perf_counter()
        self._matrix @ self._matrix
        np.unique(self._keys)
        counts: dict = {}
        for word in self._words:
            counts[word] = counts.get(word, 0) + 1
        return time.perf_counter() - start

    def tick(self) -> float:
        """Time the kernel once; the factor for the next operation."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            seconds = self._kernel()
        finally:
            if collecting:
                gc.enable()
        self._recent.append(seconds)
        self.samples.append(seconds)
        return REFERENCE_KERNEL_S / statistics.median(self._recent)

    def burst(self, ticks: int) -> float:
        """Time the kernel ``ticks`` times; the factor after the last."""
        for _ in range(ticks - 1):
            self.tick()
        return self.tick()

    def kernel_ms(self) -> float:
        """Median kernel time of the run, for the record."""
        return ms(statistics.median(self.samples))


def windowed_rate(seconds: Sequence[float], window: int) -> float:
    """Median rate over consecutive, non-overlapping windows of operations.

    ``seconds`` are the durations of operations run one after another;
    each window's rate is its operation count over its summed duration,
    so set-ups timed between operations stay out of it.  The median
    keeps one host stall from moving the result.
    """
    if len(seconds) < window:
        raise ValueError(f"{len(seconds)} operations cannot fill a window of {window}")
    rates = [
        window / sum(seconds[first : first + window])
        for first in range(0, len(seconds) - window + 1, window)
    ]
    return statistics.median(rates)


def completion_rate(completions: Sequence[float], count: int) -> float:
    """Completions per second from the first completion to ``count`` later.

    ``completions`` are sorted completion times of concurrent operations.
    """
    if len(completions) <= count:
        raise ValueError(f"{len(completions)} completions cannot span {count} more")
    return count / (completions[count] - completions[0])


def timed_setup(build: Callable[[], object]) -> float:
    """Wall time of one set-up.

    Garbage is collected before and after, so neither earlier work nor
    the discarded set-up is collected inside a timed frame.
    """
    gc.collect()
    start = time.perf_counter()
    build()
    seconds = time.perf_counter() - start
    gc.collect()
    return seconds


def spread_points(count: int, repeats: int = SETUP_REPEATS) -> List[int]:
    """Operation indices before which the run's set-ups are timed."""
    return [round(i * count / (repeats - 1)) for i in range(repeats)]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint() -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }
