"""Exporters: the ``BENCH_pipeline.json`` report shape, JSONL, OpenMetrics.

Three formats serve three consumers:

- :func:`build_report` / :func:`write_json` -- one aggregated JSON document
  (stage durations + metric snapshot) that the CI determinism gate diffs
  against a committed baseline.
- :func:`write_jsonl` / :func:`read_jsonl` -- one JSON object per line, full
  fidelity (every span record, every histogram observation), for ad-hoc
  analysis and lossless round-trips.
- :func:`render_openmetrics` / :func:`write_openmetrics` -- the OpenMetrics
  / Prometheus text exposition format, for scrape-based collection (e.g.
  the node_exporter textfile collector watching a live sweep's counters).
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.telemetry.events import EventRecorder
from repro.telemetry.registry import MetricsRegistry, TelemetryError
from repro.telemetry.spans import SpanRecord, SpanTracer

SCHEMA = "repro-telemetry/1"

PathLike = Union[str, Path]


def build_report(
    registry: MetricsRegistry,
    tracer: SpanTracer,
    meta: Optional[Dict[str, object]] = None,
    recorder: Optional[EventRecorder] = None,
) -> Dict[str, object]:
    """The aggregated benchmark report (the ``BENCH_pipeline.json`` shape).

    ``events`` holds per-kind flight-recorder counts (empty unless the run
    enabled event recording); ``bench-check`` requires them equal.
    """
    snapshot = registry.snapshot()
    return {
        "schema": SCHEMA,
        "meta": dict(meta or {}),
        "spans": tracer.stage_durations(),
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "histograms": snapshot["histograms"],
        "events": recorder.kind_counts() if recorder is not None else {},
    }


def write_json(report: Dict[str, object], path: PathLike) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def read_json(path: PathLike) -> Dict[str, object]:
    report = json.loads(Path(path).read_text())
    if report.get("schema") != SCHEMA:
        raise TelemetryError(
            f"{path}: expected schema {SCHEMA!r}, got {report.get('schema')!r}"
        )
    return report


# ---------------------------------------------------------------------------
# OpenMetrics / Prometheus text exposition
# ---------------------------------------------------------------------------
_METRIC_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(prefix: str, name: str) -> str:
    """``repro`` + dotted metric name -> a legal Prometheus metric name."""
    cleaned = _METRIC_NAME_RE.sub("_", name)
    return f"{prefix}_{cleaned}" if prefix else cleaned


def render_openmetrics(report: Dict[str, object], prefix: str = "repro") -> str:
    """The OpenMetrics text exposition of a report or metrics snapshot.

    Accepts either the :func:`build_report` document or a bare registry
    snapshot -- anything with ``counters``/``gauges``/``histograms`` dicts.
    Counters become ``<name>_total`` counter families, gauges become
    gauges, histogram summaries become OpenMetrics ``summary`` families
    (count, sum and the snapshot's p50/p95 quantiles).  The output ends
    with the mandatory ``# EOF`` terminator.
    """
    lines: List[str] = []
    counters = dict(report.get("counters") or {})
    for name in sorted(counters):
        metric = _metric_name(prefix, name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}_total {counters[name]:g}")
    gauges = dict(report.get("gauges") or {})
    for name in sorted(gauges):
        value = gauges[name]
        if value is None:
            continue
        metric = _metric_name(prefix, name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {value:g}")
    histograms = dict(report.get("histograms") or {})
    for name in sorted(histograms):
        summary = dict(histograms[name] or {})
        metric = _metric_name(prefix, name)
        lines.append(f"# TYPE {metric} summary")
        for quantile, key in (("0.5", "p50"), ("0.95", "p95")):
            if summary.get(key) is not None:
                lines.append(f'{metric}{{quantile="{quantile}"}} {summary[key]:g}')
        lines.append(f"{metric}_count {summary.get('count', 0):g}")
        lines.append(f"{metric}_sum {summary.get('sum', 0.0):g}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(
    report: Dict[str, object], path: PathLike, prefix: str = "repro"
) -> int:
    """Atomically write the OpenMetrics textfile; returns lines written.

    Atomic (temp file + ``os.replace``) because the intended reader is a
    textfile-collector scraping while a live run rewrites the file.
    """
    text = render_openmetrics(report, prefix=prefix)
    target = Path(path)
    tmp = target.with_name(target.name + f".{os.getpid()}.tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(str(tmp), str(target))
    return text.count("\n")


# ---------------------------------------------------------------------------
# JSONL (line-per-event, lossless)
# ---------------------------------------------------------------------------
def write_jsonl(registry: MetricsRegistry, tracer: SpanTracer, path: PathLike) -> int:
    """Stream every span and metric as one JSON object per line.

    Returns the number of lines written.  Span lines carry the full dotted
    path so the tree can be rebuilt; histogram lines carry raw observations.
    """
    lines: List[str] = [json.dumps({"kind": "schema", "value": SCHEMA})]
    for record in tracer.all_records():
        lines.append(
            json.dumps(
                {
                    "kind": "span",
                    "name": record.name,
                    "path": record.path,
                    "duration_seconds": record.duration_seconds,
                    "attributes": record.attributes,
                },
                sort_keys=True,
            )
        )
    snapshot = registry.snapshot()
    for name, value in snapshot["counters"].items():
        lines.append(json.dumps({"kind": "counter", "name": name, "value": value}))
    for name, value in snapshot["gauges"].items():
        lines.append(json.dumps({"kind": "gauge", "name": name, "value": value}))
    for name, values in registry.histogram_values().items():
        lines.append(json.dumps({"kind": "histogram", "name": name, "values": values}))
    Path(path).write_text("\n".join(lines) + "\n")
    return len(lines)


def read_jsonl(path: PathLike) -> Tuple[MetricsRegistry, SpanTracer]:
    """Rebuild a registry and span forest from a JSONL export."""
    registry = MetricsRegistry()
    tracer = SpanTracer()
    by_path: Dict[str, SpanRecord] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        event = json.loads(line)
        kind = event.get("kind")
        if kind == "schema":
            if event["value"] != SCHEMA:
                raise TelemetryError(f"{path}:{lineno}: unsupported schema {event['value']!r}")
        elif kind == "span":
            record = SpanRecord(
                name=event["name"],
                path=event["path"],
                duration_seconds=event["duration_seconds"],
                attributes=event.get("attributes", {}),
            )
            by_path[record.path] = record
            parent_path = record.path.rsplit("/", 1)[0] if "/" in record.path else None
            if parent_path is not None and parent_path in by_path:
                by_path[parent_path].children.append(record)
            else:
                tracer.roots.append(record)
        elif kind == "counter":
            registry.counter(event["name"]).add(event["value"])
        elif kind == "gauge":
            if event["value"] is not None:
                registry.gauge(event["name"]).set(event["value"])
        elif kind == "histogram":
            registry.histogram(event["name"]).values.extend(event["values"])
        else:
            raise TelemetryError(f"{path}:{lineno}: unknown event kind {kind!r}")
    return registry, tracer
