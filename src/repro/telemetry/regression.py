"""Benchmark-regression gate: diff two ``BENCH_pipeline.json`` reports.

CI runs ``repro bench`` on every push and compares the fresh report against
the committed baseline with :func:`compare_reports`.  Two metric families
are gated:

- **counters** (bits flipped, hammer attempts, massaging rounds, ...): these
  are fully seeded, so any relative deviation beyond tolerance is a real
  behavior change;
- **span wall-times**: stage totals may legitimately wobble with host load,
  so only spans whose baseline total exceeds ``min_seconds`` are compared,
  each against ``time_tolerance``.

A missing baseline metric in the candidate always fails (a stage silently
disappearing is the regression the gate exists to catch); *new* candidate
metrics are allowed so instrumentation can grow without re-baselining.

Two further families are diffed **informationally** (``gated=False``, never
failing the build): histogram observation counts/sums and flight-recorder
event counts per kind.  They surface behavior drift in the gate's output
without forcing a re-baseline each time instrumentation evolves.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

DEFAULT_TOLERANCE = 0.25  # ISSUE-specified: fail beyond 25 % deviation
DEFAULT_MIN_SECONDS = 0.05  # ignore sub-noise-floor spans


@dataclasses.dataclass
class Deviation:
    """One metric's baseline/candidate comparison."""

    kind: str  # "counter" | "span" | "histogram" | "event"
    name: str
    baseline: float
    candidate: float
    relative: float  # |candidate - baseline| / baseline
    failed: bool
    gated: bool = True  # informational families never fail the build

    def format(self) -> str:
        status = "FAIL" if self.failed else ("ok" if self.gated else "info")
        return (
            f"[{status:>4}] {self.kind:<9} {self.name:<40} "
            f"baseline={self.baseline:<12.6g} candidate={self.candidate:<12.6g} "
            f"dev={100.0 * self.relative:.1f}%"
        )


def _relative(baseline: float, candidate: float) -> float:
    if baseline == 0.0:
        return 0.0 if candidate == 0.0 else float("inf")
    return abs(candidate - baseline) / abs(baseline)


def compare_reports(
    baseline: Dict[str, object],
    candidate: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
    time_tolerance: float = DEFAULT_TOLERANCE,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> List[Deviation]:
    """Compare every gated metric; a ``Deviation.failed`` entry per breach."""
    deviations: List[Deviation] = []

    base_counters: Dict[str, float] = baseline.get("counters", {})
    cand_counters: Dict[str, float] = candidate.get("counters", {})
    for name in sorted(base_counters):
        base = float(base_counters[name])
        cand = float(cand_counters.get(name, 0.0))
        missing = name not in cand_counters
        relative = _relative(base, cand)
        deviations.append(
            Deviation(
                kind="counter",
                name=name,
                baseline=base,
                candidate=cand,
                relative=relative,
                failed=missing or relative > tolerance,
            )
        )

    base_spans: Dict[str, Dict[str, float]] = baseline.get("spans", {})
    cand_spans: Dict[str, Dict[str, float]] = candidate.get("spans", {})
    for path in sorted(base_spans):
        base = float(base_spans[path]["total_seconds"])
        if path not in cand_spans:
            deviations.append(
                Deviation(
                    kind="span", name=path, baseline=base, candidate=0.0,
                    relative=float("inf"), failed=True,
                )
            )
            continue
        if base < min_seconds:
            continue
        cand = float(cand_spans[path]["total_seconds"])
        relative = _relative(base, cand)
        deviations.append(
            Deviation(
                kind="span",
                name=path,
                baseline=base,
                candidate=cand,
                relative=relative,
                failed=relative > time_tolerance,
            )
        )

    def informational(kind: str, base_map: Dict[str, float], cand_map: Dict[str, float]) -> None:
        for name in sorted(set(base_map) | set(cand_map)):
            base = float(base_map.get(name, 0.0))
            cand = float(cand_map.get(name, 0.0))
            if base == cand:
                continue
            deviations.append(
                Deviation(
                    kind=kind, name=name, baseline=base, candidate=cand,
                    relative=_relative(base, cand), failed=False, gated=False,
                )
            )

    def histogram_stats(report: Dict[str, object]) -> Dict[str, float]:
        stats: Dict[str, float] = {}
        for name, summary in (report.get("histograms") or {}).items():
            stats[f"{name}.count"] = float(summary.get("count", 0.0))
            stats[f"{name}.sum"] = float(summary.get("sum", 0.0))
        return stats

    informational("histogram", histogram_stats(baseline), histogram_stats(candidate))
    informational(
        "event",
        {k: float(v) for k, v in (baseline.get("events") or {}).items()},
        {k: float(v) for k, v in (candidate.get("events") or {}).items()},
    )
    return deviations


def cache_hit_rate_line(report: Dict[str, object]) -> str:
    """Informational one-liner on the evaluation engine's cache efficiency.

    Reads the ``engine.cache.*`` counters a bench report exports; returns a
    line suitable for ``bench-check`` output (never part of the gate).
    """
    counters: Dict[str, float] = report.get("counters", {}) or {}
    hits = float(counters.get("engine.cache.hit", 0.0))
    misses = float(counters.get("engine.cache.miss", 0.0))
    evicted = float(counters.get("engine.cache.evicted_bytes", 0.0))
    total = hits + misses
    if total == 0:
        return "engine-cache: no engine forwards recorded"
    return (
        f"engine-cache: hits={hits:.0f} misses={misses:.0f} "
        f"hit-rate={100.0 * hits / total:.1f}% evicted={evicted:.0f}B (informational)"
    )


# Top-level spans worth tracking across runs; sub-spans are too noisy for a
# trend line and already covered by the regression gate.
TREND_SPANS = ("bench", "bench_sweep", "bench_engine")


def _trend_metrics(report: Dict[str, object]) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for path, span in (report.get("spans") or {}).items():
        if path in TREND_SPANS:
            metrics[f"span.{path}.seconds"] = float(span["total_seconds"])
    for name, value in (report.get("gauges") or {}).items():
        if value is not None:
            metrics[f"gauge.{name}"] = float(value)
    return metrics


def format_trend(runs: Sequence[Tuple[str, Dict[str, object]]]) -> str:
    """Wall-time/gauge trend table across bench reports, oldest first.

    Purely informational -- ``repro bench-trend`` never gates a build; the
    25 % regression gate is :func:`compare_reports`.  Rows are the union of
    top-level span totals (:data:`TREND_SPANS`) and every recorded gauge;
    a run missing a metric shows ``n/a`` rather than failing, so trend
    output stays usable across instrumentation changes.
    """
    if not runs:
        return "bench-trend: no reports"
    per_run = [(label, _trend_metrics(report)) for label, report in runs]
    names = sorted({name for _, metrics in per_run for name in metrics})
    label_width = max(12, max(len(label) for label, _ in per_run))
    name_width = max(len(name) for name in names) if names else 6
    lines = [
        " ".join(
            ["metric".ljust(name_width)]
            + [label.rjust(label_width) for label, _ in per_run]
        )
    ]
    for name in names:
        cells = []
        for _, metrics in per_run:
            value = metrics.get(name)
            cells.append(("n/a" if value is None else f"{value:.6g}").rjust(label_width))
        lines.append(" ".join([name.ljust(name_width)] + cells))
    lines.append(f"bench-trend: {len(per_run)} run(s), informational only")
    return "\n".join(lines)


def format_comparison(deviations: List[Deviation]) -> str:
    """Human-readable gate output: failures, then passes, then drift info."""
    failed = [d for d in deviations if d.failed]
    passed = [d for d in deviations if not d.failed and d.gated]
    info = [d for d in deviations if not d.gated]
    lines = [d.format() for d in failed + passed + info]
    gated = len(failed) + len(passed)
    lines.append(
        f"bench-regression: {len(failed)} failed / {gated} gated metrics"
        + (f" ({len(info)} informational drift line(s))" if info else "")
    )
    return "\n".join(lines)
