#!/usr/bin/env python3
"""Benchmark driver for the ``repro`` package.

Run from the root of a checkout::

    python3 perfbench/run.py --workload attack-resnet20 --seed 0 --seconds 30 --trace 0

It first prepares, untimed, a model cache of its own under the work
directory (the first run in a checkout trains the victims).  Then it runs
measured rounds of the workload, each in a fresh process, for about
``--seconds`` (at least one round), and reports the median of each
end-to-end metric over the rounds.  With ``--trace 1`` it runs one untraced
and one traced round instead, and reports the per-layer metrics of the
traced one.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

Operations are rows (attack, sweep) or devices (Table I).  One fails when
its output check fails, or when the run's output digest differs from the
digest an earlier run of the same code recorded under the work directory.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
CHILD_TIMEOUT_S = 170
PREPARE_TIMEOUT_S = 880

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def code_fingerprint() -> str:
    """SHA-256 over the program and benchmark sources."""
    digest = hashlib.sha256()
    for base in (ROOT / "src" / "repro", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def child_env(work_dir: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_CACHE_DIR"] = str(work_dir / "cache")
    return env


def run_child(args: List[str], work_dir: Path, timeout: float) -> dict:
    """Run ``perfbench.child`` with ``args``; return its JSON result."""
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.child", "--work-dir", str(work_dir), *args],
        cwd=ROOT, env=child_env(work_dir), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"perfbench child {args} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def prepare(work_dir: Path, fingerprint: str, size: str, victim_seed: int) -> None:
    """Fill the model cache once per code version (untimed)."""
    marker = work_dir / "prepared.json"
    key = {"code": fingerprint, "size": size, "victim_seed": victim_seed}
    if marker.exists() and json.loads(marker.read_text()) == key:
        return
    run_child(["--prepare", "--size", size, "--victim-seed", str(victim_seed)],
              work_dir, PREPARE_TIMEOUT_S)
    marker.write_text(json.dumps(key))


def check_digest(work_dir: Path, key: str, digest: str) -> bool:
    """Record the first digest seen for ``key``; later runs must match it."""
    path = work_dir / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key not in known:
        known[key] = digest
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return known[key] == digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repro benchmark driver")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the workload's independent operations")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="run measured rounds for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--victim-seed", type=int, default=0,
                        help="selects the victim checkpoint and the DRAM fault map")
    parser.add_argument("--size", default="full", help="workload size: full or smoke")
    parser.add_argument("--work-dir", type=Path, default=ROOT / "perfbench" / "_work")
    args = parser.parse_args(argv)
    # Exit through SystemExit on SIGTERM, so subprocess.run kills the round
    # it is waiting for instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"no repro sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    work_dir = args.work_dir.resolve()
    work_dir.mkdir(parents=True, exist_ok=True)
    fingerprint = code_fingerprint()
    prepare(work_dir, fingerprint, args.size, args.victim_seed)

    round_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--victim-seed", str(args.victim_seed), "--size", args.size]
    # Start another round only while it is expected to end within --seconds.
    # A traced run needs one untraced round, for the tracing overhead.
    rounds: List[dict] = []
    start = time.monotonic()
    last = 0.0
    while not rounds or (
        not args.trace and time.monotonic() - start + last <= args.seconds
    ):
        began = time.monotonic()
        rounds.append(run_child(round_args, work_dir, CHILD_TIMEOUT_S))
        last = time.monotonic() - began
    traced = None
    if args.trace:
        traced = run_child(round_args + ["--trace", "1"], work_dir, CHILD_TIMEOUT_S)

    measured = rounds + ([traced] if traced else [])
    attempted = sum(len(r["ops"]) for r in measured)
    failed = sum(not op["ok"] for r in measured for op in r["ops"])
    key = f"{fingerprint}|{args.workload}|{args.size}|victim_seed={args.victim_seed}"
    digests_ok = all(check_digest(work_dir, key, r["digest"]) for r in measured)
    if not digests_ok:
        failed = attempted

    run_s = statistics.median(r["run_s"] for r in rounds)
    if traced:
        metrics = traced["layers"]
        metrics["telemetry.trace_overhead_s"]["value"] = traced["run_s"] - run_s
    else:
        metrics = {
            name: {"value": statistics.median(r[name] for r in rounds), "unit": unit}
            for name, unit in END_TO_END.items()
        }

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "victim_seed": args.victim_seed,
        "size": args.size,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 **rounds[0]["host"]},
        "rounds": [{k: v for k, v in r.items() if k not in ("ops", "facts", "host", "digest")}
                   for r in rounds],
        "facts": rounds[0]["facts"],
        "digest": rounds[0]["digest"],
        "digests_match": digests_ok,
        "failed_ops": [op for r in measured for op in r["ops"] if not op["ok"]],
        "metrics": {name: metric["value"] for name, metric in metrics.items()},
    }
    out_dir = work_dir / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / "results.jsonl", "a") as handle:
        handle.write(json.dumps(details) + "\n")
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
