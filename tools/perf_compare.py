#!/usr/bin/env python3
"""Compare two trees' ``perfbench`` results against ``BENCHMARK.json``.

Usage, from the repo root::

    python3 tools/perf_compare.py PARENT_DIR CHANGE_DIR

Each directory holds ``<workload>.json``, the last stdout line of
``python3 perfbench/run.py --workload <workload> ...`` in that tree, for
every workload ``BENCHMARK.json`` lists.  A workload fails when one of its
``end_to_end`` medians is worse in the change than in the parent by more
than that metric's relative ``bound``, or when the change's share of failed
operations is larger than the parent's.  A missing result fails too.

Prints one line per comparison; exits 1 if any failed, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

REPO = Path(__file__).resolve().parent.parent


def failed_share(result: Dict[str, object]) -> float:
    """Failed operations over attempted ones (a run that attempted none fails)."""
    attempted = int(result["attempted"])
    return int(result["failed"]) / attempted if attempted else 1.0


def compare_workload(
    parent: Dict[str, object], change: Dict[str, object], end_to_end: List[Dict[str, object]]
) -> List[Tuple[bool, str]]:
    """``(ok, line)`` per end-to-end metric, then one for the failed share."""
    lines: List[Tuple[bool, str]] = []
    for metric in end_to_end:
        name, bound = metric["name"], float(metric["bound"])
        base = float(parent["metrics"][name]["value"])
        cand = float(change["metrics"][name]["value"])
        if metric["better"] == "lower":
            ok = cand <= base * (1.0 + bound)
        else:
            ok = cand >= base * (1.0 - bound)
        ratio = f"{cand / base:.3f}x" if base else "n/a"
        lines.append((ok, f"{name}: parent={base:.6g} change={cand:.6g} "
                          f"({ratio}, bound {bound:.0%} {metric['better']}-is-better)"))
    base_share, cand_share = failed_share(parent), failed_share(change)
    lines.append((cand_share <= base_share,
                  f"failed share: parent={base_share:.3f} change={cand_share:.3f}"))
    return lines


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    parent_dir, change_dir = (Path(arg) for arg in argv)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    all_ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        paths = (parent_dir / f"{workload}.json", change_dir / f"{workload}.json")
        missing = [str(path) for path in paths if not path.is_file()]
        if missing:
            print(f"[FAIL] {workload}: no result at {', '.join(missing)}")
            all_ok = False
            continue
        parent, change = (json.loads(path.read_text()) for path in paths)
        for ok, line in compare_workload(parent, change, spec["end_to_end"]):
            print(f"[{'  ok' if ok else 'FAIL'}] {workload} {line}")
            all_ok = all_ok and ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
