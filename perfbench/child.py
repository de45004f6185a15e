"""One measured round of a workload, in a fresh process.

Run by ``perfbench/run.py`` from the checkout root with ``src`` on
``PYTHONPATH``::

    python3 -m perfbench.child --workload profile-table1 --seed 3 --work-dir perfbench/_work
    python3 -m perfbench.child --prepare --work-dir perfbench/_work

Every module the workload needs is imported before the clock starts, so
``setup_s`` covers only the workload's own set-up.  The round prints one
JSON object on stdout: set-up and body times, peak RSS, the operations
with their check results, the output digest, and with ``--trace 1`` the
per-layer metrics of the traced round.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from perfbench import trace, workloads


def host_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def run_round(workload, tracer=None, spans_path=None) -> dict:
    """Set up and run ``workload`` once; trace it when ``tracer`` is given.

    Untraced rounds set up ``workload.setup_repeats`` times and keep the
    last state; a traced round sets up once, so its per-layer counts
    describe one set-up.
    """
    restore = trace.install(tracer) if tracer is not None else None
    try:
        setups = []
        state = None
        for _ in range(1 if tracer is not None else workload.setup_repeats):
            state = None  # free the previous state before building the next
            gc.collect()
            start = time.perf_counter()
            state = workload.setup()
            setups.append(time.perf_counter() - start)
        body = workload.body
        if tracer is not None:
            body = tracer.wrap(trace.BODY_SPAN, body)
        start = time.perf_counter()
        outcome = body(state)
        run_s = time.perf_counter() - start
    finally:
        if restore is not None:
            restore()
    result = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_repeats": len(setups),
        "ops": [dataclasses.asdict(op) for op in outcome.ops],
        "digest": outcome.digest,
        "facts": outcome.facts,
        "host": host_facts(),
    }
    if tracer is not None:
        result["layers"] = {
            name: {"value": value, "unit": trace.LAYER_METRICS[name]}
            for name, value in trace.layer_metrics(tracer, outcome.facts).items()
        }
        if spans_path is not None:
            tracer.write(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--prepare", action="store_true",
                        help="train or load every victim, then exit")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--victim-seed", type=int, default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    if args.prepare:
        victims = workloads.prepare(
            sorted(workloads.WORKLOADS), args.size, args.victim_seed, args.work_dir
        )
        print(json.dumps({"victims": victims}))
        return 0
    if args.workload is None:
        parser.error("--workload or --prepare is required")
    workload = workloads.make(args.workload, args.size, args.victim_seed, args.seed,
                              args.work_dir)
    tracer = trace.Tracer() if args.trace else None
    spans_path = args.work_dir / "out" / f"{args.workload}.seed{args.seed}.spans.jsonl"
    result = run_round(workload, tracer, spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
