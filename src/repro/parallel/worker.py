"""Sweep worker: runs one task, inline or in a spawned queue worker.

Workers are plain functions over JSON-able payloads, so a spawned local
queue worker (:func:`repro.parallel.runner.run_sweep` with ``workers > 1``)
can import them by reference.  ``execute_task`` never raises -- failures
come back as structured outcome dicts, so one crashing task degrades the
sweep instead of killing it.

Process state.  A local queue worker is a spawned process: a fresh
interpreter that inherits only its parent's environment.  It has no beacon
writer and no custom device profile (``run_sweep`` refuses a custom device
when it would spawn workers), its telemetry flags and BLAS thread count
(:func:`blas_thread_cap`) come from the environment, and
:func:`execute_task` runs every task in isolated telemetry state.  The
model-zoo disk cache is shared on purpose; its writes are atomic.
"""

from __future__ import annotations

import contextlib
import os
import time
import traceback
from typing import Dict, Iterator, Optional

from repro import telemetry
from repro.parallel.grid import SweepTask


# The variables NumPy's BLAS builds read for their thread count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def blas_thread_cap(workers: int) -> Iterator[None]:
    """Cap each spawned worker's BLAS threads so workers x threads <= CPUs.

    Sets every :data:`BLAS_THREAD_VARS` entry to ``cpu_count // workers``
    (at least 1) in this process's environment, which spawned queue
    workers inherit, and restores it on exit.  Leaves the environment
    alone when the user already set any of them.
    """
    if any(name in os.environ for name in BLAS_THREAD_VARS):
        yield
        return
    threads = str(max(1, (os.cpu_count() or 1) // max(1, workers)))
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, threads))
    try:
        yield
    finally:
        for name in BLAS_THREAD_VARS:
            os.environ.pop(name, None)


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
        # would make workers=1 telemetry differ from multi-worker runs.
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
