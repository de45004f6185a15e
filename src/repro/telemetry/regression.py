"""Determinism gate: diff two ``BENCH_pipeline.json`` reports exactly.

CI runs ``repro bench`` on every push and compares the fresh report against
the committed baseline with :func:`compare_reports`.  Everything the bench
records except wall-clock is seeded, so the gate has one rule: every
counter, gauge, histogram field and flight-recorder event count that the
baseline records must be *equal* in the candidate.  Any difference fails,
an improvement included -- a seeded value that moves is a behaviour change,
and the PR that makes it regenerates the baseline on purpose.

A baseline metric missing from the candidate fails (a stage silently
disappearing is the regression the gate exists to catch); *new* candidate
metrics pass, so instrumentation can grow without re-baselining.  Spans
and ``meta`` are never compared: wall-clock belongs to ``perfbench/``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

KINDS = ("counter", "gauge", "histogram", "event")


@dataclasses.dataclass
class Deviation:
    """One metric's baseline/candidate comparison."""

    kind: str  # one of KINDS
    name: str
    baseline: float
    candidate: Optional[float]  # None when the candidate lacks the metric

    @property
    def failed(self) -> bool:
        return self.candidate != self.baseline

    def format(self) -> str:
        status = "FAIL" if self.failed else "ok"
        candidate = "missing" if self.candidate is None else repr(self.candidate)
        return (
            f"[{status:>4}] {self.kind:<9} {self.name:<40} "
            f"baseline={self.baseline!r} candidate={candidate}"
        )


def _flatten(report: Dict[str, object], kind: str) -> Dict[str, float]:
    """One kind's metrics as ``name -> value``; histograms by field."""
    if kind == "histogram":
        return {
            f"{name}.{field}": value
            for name, summary in (report.get("histograms") or {}).items()
            for field, value in summary.items()
        }
    section = report.get(f"{kind}s") or {}
    return {name: value for name, value in section.items() if value is not None}


def compare_reports(
    baseline: Dict[str, object], candidate: Dict[str, object]
) -> List[Deviation]:
    """One :class:`Deviation` per baseline metric; ``failed`` unless equal."""
    deviations: List[Deviation] = []
    for kind in KINDS:
        base, cand = _flatten(baseline, kind), _flatten(candidate, kind)
        deviations.extend(
            Deviation(kind=kind, name=name, baseline=base[name], candidate=cand.get(name))
            for name in sorted(base)
        )
    return deviations


def format_comparison(deviations: List[Deviation]) -> str:
    """Human-readable gate output: failures first, then the equal metrics."""
    failed = [d for d in deviations if d.failed]
    lines = [d.format() for d in failed + [d for d in deviations if not d.failed]]
    lines.append(f"bench-regression: {len(failed)} failed / {len(deviations)} metrics")
    return "\n".join(lines)
