#!/usr/bin/env python3
"""Compare two trees' ``perfbench`` results against ``BENCHMARK.json``.

Usage, from the repo root::

    python3 tools/perf_compare.py PARENT_DIR CHANGE_DIR

Each directory holds, for every workload ``BENCHMARK.json`` lists, one or
more results ``<workload>.json`` or ``<workload>.<run>.json``: the last
stdout line of ``python3 perfbench/run.py --workload <workload> ...`` in
that tree.  Each side's value of an ``end_to_end`` metric is the median
over its runs, so one slow run does not decide the gate.  A workload fails
when one of those medians is worse in the change than in the parent by
more than that metric's relative ``bound``, or when the change's share of
failed operations (over all its runs) is larger than the parent's.  A
missing result fails too.

Prints one line per comparison; exits 1 if any failed, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

REPO = Path(__file__).resolve().parent.parent


def failed_share(results: List[Dict[str, object]]) -> float:
    """Failed operations over attempted ones (runs that attempted none fail)."""
    attempted = sum(int(result["attempted"]) for result in results)
    return sum(int(result["failed"]) for result in results) / attempted if attempted else 1.0


def median(results: List[Dict[str, object]], name: str) -> float:
    return statistics.median(float(result["metrics"][name]["value"]) for result in results)


def results_of(directory: Path, workload: str) -> List[Dict[str, object]]:
    """Every result of ``workload`` in ``directory``, in file-name order."""
    paths = [*directory.glob(f"{workload}.json"), *sorted(directory.glob(f"{workload}.*.json"))]
    return [json.loads(path.read_text()) for path in paths]


def compare_workload(
    parent: List[Dict[str, object]],
    change: List[Dict[str, object]],
    end_to_end: List[Dict[str, object]],
) -> List[Tuple[bool, str]]:
    """``(ok, line)`` per end-to-end metric, then one for the failed share."""
    lines: List[Tuple[bool, str]] = []
    for metric in end_to_end:
        name, bound = metric["name"], float(metric["bound"])
        base, cand = median(parent, name), median(change, name)
        if metric["better"] == "lower":
            ok = cand <= base * (1.0 + bound)
        else:
            ok = cand >= base * (1.0 - bound)
        ratio = f"{cand / base:.3f}x" if base else "n/a"
        lines.append((ok, f"{name}: parent={base:.6g} change={cand:.6g} "
                          f"({ratio}, bound {bound:.0%} {metric['better']}-is-better, "
                          f"medians of {len(parent)} and {len(change)} runs)"))
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
        parent, change = results_of(parent_dir, workload), results_of(change_dir, workload)
        missing = [str(d) for d, results in ((parent_dir, parent), (change_dir, change))
                   if not results]
        if missing:
            print(f"[FAIL] {workload}: no result in {', '.join(missing)}")
            all_ok = False
            continue
        for ok, line in compare_workload(parent, change, spec["end_to_end"]):
            print(f"[{'  ok' if ok else 'FAIL'}] {workload} {line}")
            all_ok = all_ok and ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
