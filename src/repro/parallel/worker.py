"""Sweep worker: runs one task in a (possibly forked/spawned) process.

Workers are plain functions over JSON-able payloads so they pickle cleanly
into :class:`concurrent.futures.ProcessPoolExecutor`.  ``execute_task``
never raises -- failures come back as structured outcome dicts, so one
crashing task degrades the sweep instead of killing it.

Process-global mutable state audit (what :func:`reset_worker_state` must
cover, because ``fork`` workers inherit the parent's modules verbatim):

- :mod:`repro.telemetry`'s module-level registry/tracer/recorder and its
  two enabled flags (metrics and flight-recorder events) -- reset and
  disabled here; each task records into fresh isolated state.
- :mod:`repro.telemetry.live`'s registry of active beacon writers and
  timeline samplers -- *discarded* here (no final write): a forked worker
  inherits the parent's writer objects but not their threads, and must
  never rewrite the parent's beacon path as its own.
- :mod:`repro.rowhammer.device_profiles`' custom-profile registry --
  restored to the built-in Table I set.
- The model-zoo disk cache (:mod:`repro.core.training`) is shared on
  purpose; writes are atomic (temp file + rename), so concurrent workers
  can never read a torn checkpoint.
- :data:`repro.models.MODEL_REGISTRY` and the quantization/page constants
  are populated at import time and never mutated: safe under fork.
- :mod:`repro.engine`'s enabled flag is read from ``REPRO_ENGINE`` at
  import time and only changed by the CLI, which mirrors the change into
  the environment before the pool starts -- fork and spawn workers agree
  with the parent.  Engine *instances* (and their activation caches) are
  created per evaluation loop, never at module level, so no cached
  activations can leak across tasks or processes.
- :mod:`repro.backend`'s process-wide kernel instance is created at
  import time and holds no state (no threads, no caches): safe under fork.
"""

from __future__ import annotations

import time
import traceback
from typing import Dict, Optional

from repro import telemetry
from repro.parallel.grid import SweepTask
from repro.rowhammer import device_profiles
from repro.telemetry import live


def reset_worker_state() -> None:
    """Reset every known piece of process-global mutable state."""
    telemetry.disable()
    telemetry.disable_events()
    telemetry.get_tracer().reset(force=True)
    telemetry.get_registry().reset()
    telemetry.get_recorder().reset()
    live.reset_live()
    device_profiles.reset_profiles()


def initialize_worker() -> None:
    """``ProcessPoolExecutor`` initializer: start from a clean slate."""
    reset_worker_state()


def _run_task(task: SweepTask) -> Dict[str, float]:
    # Imported lazily: repro.core.experiment imports the runner, which
    # imports this module, so a top-level import would be circular.
    from repro.core.experiment import ExperimentScale, run_single_experiment

    scale = ExperimentScale(**task.scale) if task.scale is not None else ExperimentScale.from_env()
    return run_single_experiment(
        task.method,
        task.model,
        dataset=task.dataset,
        scale=scale,
        target_class=task.target_class,
        device=task.device,
        seed=task.seed,
    )


def execute_task(payload: Dict[str, object]) -> Dict[str, object]:
    """Run one task; return a structured outcome dict (never raises).

    ``payload`` is ``{"task": <SweepTask JSON>, "telemetry": bool,
    "events": bool}``.  With telemetry requested, the task runs inside an
    isolated registry/tracer (safe both in a worker process and inline in
    the parent) and the outcome carries the raw metric values plus the
    serialized span tree for deterministic merging on the parent side.
    With events requested, the isolated flight recorder's stream ships back
    too; the parent renumbers it into its own recorder in grid order.
    """
    start = time.perf_counter()
    task_id: Optional[str] = None
    try:
        task = SweepTask.from_json(dict(payload["task"]))  # type: ignore[arg-type]
        task_id = task.task_id
        capture = bool(payload.get("telemetry", False))
        capture_events = bool(payload.get("events", False))
        metrics: Optional[Dict[str, object]] = None
        spans = None
        events = None
        # Always isolated (even when muted): an inline task must not leak
        # its pipeline counters/spans/events into the parent state, which
        # would make workers=1 telemetry differ from pooled runs.
        with telemetry.isolated(enable=capture, record_events=capture_events) as (
            registry,
            tracer,
        ):
            if capture:
                with telemetry.span("sweep.task", task=task_id):
                    row = _run_task(task)
                snapshot = registry.snapshot()
                metrics = {
                    "counters": snapshot["counters"],
                    "gauges": snapshot["gauges"],
                    "histogram_values": registry.histogram_values(),
                }
                spans = [record.to_dict() for record in tracer.roots]
            else:
                row = _run_task(task)
            if capture_events:
                events = telemetry.get_recorder().to_dicts()
        return {
            "task_id": task_id,
            "status": "ok",
            "row": row,
            "duration_seconds": time.perf_counter() - start,
            "metrics": metrics,
            "spans": spans,
            "events": events,
        }
    except BaseException as exc:  # noqa: B036 - workers must not propagate
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        return {
            "task_id": task_id,
            "status": "failed",
            "row": None,
            "duration_seconds": time.perf_counter() - start,
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            },
        }
