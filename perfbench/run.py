"""Benchmark launcher: run one workload in its own process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload unet-rotate --seed 1 --seconds 20 --trace 0

The workload runs in a child interpreter with the library on its path
and every BLAS/OpenMP pool held to one thread, so the single client plus
the serving executor never need more threads than the 2-core box has.
The child's output is passed through; its last line is the result.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The child must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170
SINGLE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: src/repro not found; run from a source checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({name: "1" for name in SINGLE_THREAD})
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    child = subprocess.Popen(
        [sys.executable, "-m", "perfbench.bench", *argv], cwd=ROOT, env=env
    )
    try:
        return child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
