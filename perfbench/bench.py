"""Run one workload in this process and print its result.

Started by ``perfbench/run.py``, which fixes the child environment.
The last line of standard output is the JSON result; the line before it
records the machine fingerprint, the inputs served, each output check,
and the host speed: the median ``HostSpeed`` kernel time and, in an
untraced run, the end-to-end times as wall-clock time before scaling.
A traced run also writes its spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import sys

from perfbench import measure
from perfbench.serving import ServeShared
from perfbench.streams import STREAMS, run_stream
from perfbench.tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = (*STREAMS, ServeShared.name)
TRACE_DIR = os.path.join(ROOT, "perfbench", "out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: bool) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    args = parse_args(argv)
    trace = bool(args.trace)
    tracer = Tracer()
    if args.workload == ServeShared.name:
        workload = ServeShared(args.seed, args.seconds, tracer)
    else:
        workload = STREAMS[args.workload](args.seed, args.seconds, tracer)
    # The inputs live for the whole run: keep the collector from
    # re-scanning them in every full collection.
    gc.collect()
    gc.freeze()
    if args.workload == ServeShared.name:
        result = asyncio.run(workload.run(trace))
    else:
        result = run_stream(workload, trace)

    measured = result["metrics"]
    declared = declared_metrics(trace)
    undeclared = set(measured) - {spec["name"] for spec in declared}
    if undeclared:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    metrics = {}
    for spec in declared:
        if not trace and spec["name"] not in measured:
            raise SystemExit(f"{args.workload} did not measure {spec['name']}")
        # A layer the workload never enters reads 0.
        value = float(measured.get(spec["name"], 0.0))
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}

    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": measure.fingerprint(),
        "inputs": result["info"],
        "host_speed": result["host"],
        "checks": result["checks"],
    }
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.dump(
            os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.json"), header
        )
    print(json.dumps(header))
    correct = all(result["checks"].values()) and result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
