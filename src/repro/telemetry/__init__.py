"""Process-wide telemetry: metrics, nested spans, events and exporters.

The subsystem is **disabled by default** and every instrumentation hook in
the hot paths is guarded so the disabled cost is one attribute check --
tier-1 test timings are unaffected.  Enable with :func:`enable` or the
``REPRO_TELEMETRY=1`` environment variable, then::

    from repro import telemetry

    telemetry.enable()
    with telemetry.span("pipeline"):
        run_attack()
        telemetry.counter_add("online.bits_flipped", 4)
    report = telemetry.dump("BENCH_pipeline.json")

``repro bench`` (see :mod:`repro.core.bench`) wraps exactly this flow around
a small end-to-end attack to produce the CI benchmark baseline.

The **flight recorder** (:mod:`repro.telemetry.events`) is a second,
independently-gated stream of typed provenance events (which weight was
selected, which bit was kept, which frame a page landed on, which flips the
hammer achieved).  Enable it with :func:`enable_events` or
``REPRO_TELEMETRY_EVENTS=1``; export with :func:`dump_events`, render with
``repro report``, and visualize alongside the span tree via
:mod:`repro.telemetry.trace` (Chrome trace / Perfetto).

**Live observability** (:mod:`repro.telemetry.live`) is a third, sidecar
surface: per-worker status beacons and the bounded timeline ring of past
beacons, aggregated by ``repro watch`` -- wall-clock-stamped on purpose and
written next to (never inside) journals, so the determinism contract is
untouched.
"""

from __future__ import annotations

import contextlib
import os
from typing import ContextManager, Dict, Iterator, Optional, Tuple

from repro.telemetry.events import (
    FLIGHT_SCHEMA,
    Event,
    EventRecorder,
    read_events_jsonl,
)
from repro.telemetry.events import write_events_jsonl as _write_events_jsonl
from repro.telemetry.export import (
    SCHEMA,
    build_report,
    read_json,
    read_jsonl,
    render_openmetrics,
    write_json,
    write_jsonl,
    write_openmetrics,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TelemetryError,
)
from repro.telemetry.spans import SpanRecord, SpanTracer

__all__ = [
    "FLIGHT_SCHEMA",
    "SCHEMA",
    "Counter",
    "Event",
    "EventRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanRecord",
    "SpanTracer",
    "TelemetryError",
    "build_report",
    "counter_add",
    "disable",
    "disable_events",
    "dump",
    "dump_events",
    "dump_jsonl",
    "enable",
    "enable_events",
    "enabled",
    "event",
    "events_enabled",
    "gauge_set",
    "get_recorder",
    "get_registry",
    "get_tracer",
    "histogram_observe",
    "isolated",
    "read_events_jsonl",
    "read_json",
    "read_jsonl",
    "render_openmetrics",
    "reset",
    "span",
    "write_json",
    "write_jsonl",
    "write_openmetrics",
]


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").lower() in ("1", "true", "yes", "on")


_enabled: bool = _env_flag("REPRO_TELEMETRY")
_events_enabled: bool = _env_flag("REPRO_TELEMETRY_EVENTS")
_registry = MetricsRegistry()
_tracer = SpanTracer()
_recorder = EventRecorder()


class _NullSpan:
    """Reusable no-op context manager returned while telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


# -- state ----------------------------------------------------------------
def enabled() -> bool:
    """Whether instrumentation hooks record anything (the hot-path guard)."""
    return _enabled


def enable() -> None:
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def events_enabled() -> bool:
    """Whether the flight recorder captures events (its own hot-path guard).

    Independent of :func:`enabled` so a metrics-only run pays nothing for
    the event stream unless it asks for provenance.
    """
    return _events_enabled


def enable_events() -> None:
    global _events_enabled
    _events_enabled = True


def disable_events() -> None:
    global _events_enabled
    _events_enabled = False


def reset() -> None:
    """Drop all recorded metrics, spans and events (flags are untouched)."""
    _registry.reset()
    _tracer.reset()
    _recorder.reset()


def get_registry() -> MetricsRegistry:
    return _registry


def get_tracer() -> SpanTracer:
    return _tracer


def get_recorder() -> EventRecorder:
    return _recorder


@contextlib.contextmanager
def isolated(
    enable: Optional[bool] = None, record_events: Optional[bool] = None
) -> Iterator[Tuple[MetricsRegistry, SpanTracer]]:
    """Swap in a fresh registry/tracer/recorder for the duration of the block.

    Everything recorded inside is confined to the fresh state; the previous
    registry, tracer, recorder and both enabled flags are restored on exit.
    The sweep runner wraps each in-process task in this so per-task metrics
    and events can be captured (and later merged) without clobbering the
    caller's telemetry.  ``enable`` / ``record_events`` optionally override
    the respective flags inside the block.  The fresh recorder is reachable
    via :func:`get_recorder` inside the block.
    """
    global _registry, _tracer, _recorder, _enabled, _events_enabled
    saved = (_registry, _tracer, _recorder, _enabled, _events_enabled)
    _registry, _tracer, _recorder = MetricsRegistry(), SpanTracer(), EventRecorder()
    if enable is not None:
        _enabled = enable
    if record_events is not None:
        _events_enabled = record_events
    try:
        yield _registry, _tracer
    finally:
        _registry, _tracer, _recorder, _enabled, _events_enabled = saved


# -- recording (all no-ops while disabled) --------------------------------
def span(name: str, **attributes: object) -> ContextManager:
    """Time a pipeline stage; nests under the innermost open span."""
    if not _enabled:
        return _NULL_SPAN
    return _tracer.span(name, **attributes)


def counter_add(name: str, amount: float = 1.0) -> None:
    if _enabled:
        _registry.counter(name).add(amount)


def gauge_set(name: str, value: float) -> None:
    if _enabled:
        _registry.gauge(name).set(value)


def histogram_observe(name: str, value: float) -> None:
    if _enabled:
        _registry.histogram(name).observe(value)


def event(kind: str, **data: object) -> None:
    """Record one flight-recorder event (no-op unless events are enabled).

    The event inherits the innermost open span's path, so the stream can be
    correlated with the span tree (and anchored inside it by the trace
    exporter).  Callers with non-trivial payload construction should guard
    with :func:`events_enabled` first, same as the metric hooks.
    """
    if _events_enabled:
        _recorder.record(kind, span=_tracer.current_path(), **data)


# -- export ---------------------------------------------------------------
def dump(
    path: Optional[str] = None, meta: Optional[Dict[str, object]] = None
) -> Dict[str, object]:
    """Build the aggregated report; write it as JSON when ``path`` is given."""
    report = build_report(_registry, _tracer, meta=meta, recorder=_recorder)
    if path is not None:
        write_json(report, path)
    return report


def dump_jsonl(path: str) -> int:
    """Write the full-fidelity line-per-event export; returns lines written."""
    return write_jsonl(_registry, _tracer, path)


def dump_events(path: str, meta: Optional[Dict[str, object]] = None) -> int:
    """Write the flight record as JSONL; returns lines written."""
    return _write_events_jsonl(_recorder, path, meta=meta)
