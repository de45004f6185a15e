"""Process-pool sweep runner with checkpoint/resume and retry-with-backoff.

The runner shards an expanded :class:`~repro.parallel.grid.SweepGrid`
across ``ProcessPoolExecutor`` workers.  Three guarantees:

- **Determinism**: every task carries its own explicit seed, result rows
  are returned in grid order, and worker telemetry is merged in grid order
  -- so ``workers=N`` never changes any output, numeric or telemetric.
- **Checkpointing**: each finished task is appended (and flushed) to a
  JSONL journal; ``resume=True`` skips tasks the journal already records
  as successful, re-running only the remainder.
- **Degradation**: a task that raises is retried with exponential backoff
  up to ``max_attempts``; a worker that dies outright (``BrokenProcessPool``)
  breaks the whole pool, so in-flight siblings are resubmitted uncharged and
  the rebuilt pool finishes serially -- only the provably-crashing task is
  charged attempts, and the sweep finishes with a structured failure record
  instead of crashing.

Multi-host scale-out layers on top of the same guarantees.  ``shard=(i, n)``
runs one contiguous slice of the canonical grid order as the worker
``shard-<i>-of-<n>``; :mod:`repro.parallel.scheduler` instead lets
heterogeneous hosts claim tasks dynamically from a filesystem-backed
work-stealing queue.  Both write the same journal (header pinned to the
*full* grid, see :mod:`repro.parallel.journal`), and
:mod:`repro.parallel.merge` reassembles any set of them into the
byte-identical unsharded result.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import socket
import time
from collections import deque
from pathlib import Path
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro import telemetry
from repro.errors import SweepError
from repro.log import get_logger
from repro.parallel import worker
from repro.parallel.grid import (
    ShardLike,
    ShardSpec,
    SweepGrid,
    SweepTask,
    ensure_unique,
    grid_sha_of,
    task_ids_of,
)
from repro.parallel.journal import SweepJournal, build_result_record, check_owner
from repro.telemetry.live import BEACON_SUFFIX, TIMELINE_SUFFIX, BeaconWriter
from repro.telemetry.spans import SpanRecord

TaskRunner = Callable[[Dict[str, object]], Dict[str, object]]

log = get_logger(__name__)


@dataclasses.dataclass
class TaskOutcome:
    """Final state of one grid task after all attempts (or a resume skip)."""

    task: SweepTask
    status: str  # "ok" | "failed" | "resumed"
    attempts: int = 0
    duration_seconds: float = 0.0
    row: Optional[Dict[str, object]] = None
    error: Optional[Dict[str, object]] = None
    metrics: Optional[Dict[str, object]] = None
    spans: Optional[List[Dict[str, object]]] = None
    events: Optional[List[Dict[str, object]]] = None


@dataclasses.dataclass
class SweepResult:
    """Everything a finished sweep (or one shard of it) produced, in grid order.

    ``grid_sha`` and ``total_tasks`` always describe the *full* grid;
    ``outcomes`` covers only ``shard``'s contiguous slice (all of it for
    the trivial shard ``0/1``).
    """

    outcomes: List[TaskOutcome]
    grid_sha: str
    journal_path: Optional[str] = None
    shard: ShardSpec = ShardSpec(0, 1)
    total_tasks: int = 0

    @property
    def rows(self) -> List[Dict[str, object]]:
        """Result rows of successful (or resumed) tasks, in grid order."""
        return [o.row for o in self.outcomes if o.row is not None]

    @property
    def failures(self) -> List[TaskOutcome]:
        return [o for o in self.outcomes if o.status == "failed"]

    @property
    def resumed_count(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "resumed")

    @property
    def completed_count(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "ok")


def run_sweep(
    grid: Union[SweepGrid, Sequence[SweepTask]],
    workers: int = 1,
    journal_path: Optional[str] = None,
    resume: bool = False,
    max_attempts: int = 2,
    backoff_seconds: float = 0.25,
    mp_context: str = "spawn",
    capture_telemetry: Optional[bool] = None,
    capture_events: Optional[bool] = None,
    task_runner: TaskRunner = worker.execute_task,
    shard: Optional[ShardLike] = None,
    live_dir: Optional[str] = None,
    beacon_interval: float = 2.0,
) -> SweepResult:
    """Run every grid task, fanned out over ``workers`` processes.

    ``workers <= 1`` executes tasks inline (no pool) -- numerically
    identical to any pooled run, since each task is a pure function of its
    descriptor.  ``capture_telemetry`` defaults to the parent's
    :func:`repro.telemetry.enabled` state; when on, worker metrics and
    span trees are merged into the parent registry in grid order.
    ``capture_events`` likewise defaults to
    :func:`repro.telemetry.events_enabled`; when on, every worker's flight
    record ships back and is renumbered into the parent recorder in grid
    order, so the merged stream is identical for any worker count.

    ``shard`` restricts the run to one contiguous slice of the canonical
    grid order (a :class:`~repro.parallel.grid.ShardSpec`, an ``'i/n'``
    string, or an ``(i, n)`` pair).  The journal's owner is
    ``shard-<i>-of-<n>`` (``shard-0-of-1`` unsharded) and its header pins
    the *full* grid, so any set of journals covering the grid can later be
    reassembled by :func:`repro.parallel.merge.merge_journals` --
    byte-identical to an unsharded run.  Resume/retry semantics are
    unchanged within a shard.

    ``live_dir`` points a status beacon (:mod:`repro.telemetry.live`) at
    that directory: one ``<worker>.beacon.json`` kept fresh every
    ``beacon_interval`` seconds for the whole sweep, with every beacon
    also appended to ``timeline/<worker>.timeline.jsonl``.  Purely a
    sidecar -- rows, journal, metrics and flight record are byte-identical
    with or without it.
    """
    if max_attempts < 1:
        raise SweepError(f"max_attempts must be positive, got {max_attempts}")
    full_tasks = ensure_unique(grid.expand() if isinstance(grid, SweepGrid) else list(grid))
    sha = grid_sha_of(full_tasks)
    spec = ShardSpec.coerce(shard) if shard is not None else ShardSpec(0, 1)
    tasks = list(spec.slice(full_tasks))
    if capture_telemetry is None:
        capture_telemetry = telemetry.enabled()
    if capture_events is None:
        capture_events = telemetry.events_enabled()
    payloads = [
        {
            "task": task.to_json(),
            "telemetry": capture_telemetry,
            "events": capture_events,
        }
        for task in tasks
    ]

    outcomes: Dict[int, TaskOutcome] = {}
    journal: Optional[SweepJournal] = None
    beacon: Optional[BeaconWriter] = None
    if live_dir is not None:
        beacon_id = f"{socket.gethostname()}-{os.getpid()}"
        if shard is not None:
            beacon_id += f"-shard{spec.index}"
        beacon = BeaconWriter(
            Path(live_dir) / f"{beacon_id}{BEACON_SUFFIX}",
            worker=beacon_id,
            interval=beacon_interval,
            timeline_path=Path(live_dir) / "timeline" / f"{beacon_id}{TIMELINE_SUFFIX}",
        ).start()

    def _beacon_progress() -> None:
        if beacon is None:
            return
        beacon.update(
            phase="running",
            tasks_done=sum(1 for o in outcomes.values() if o.status != "failed"),
            tasks_failed=sum(1 for o in outcomes.values() if o.status == "failed"),
            claims=len(outcomes),
        )

    try:
        if journal_path is not None:
            journal = _open_journal(
                journal_path, sha, full_tasks, tasks, spec, resume, outcomes
            )
        elif resume:
            raise SweepError("resume=True requires a journal_path to resume from")

        pending = [index for index in range(len(tasks)) if index not in outcomes]
        log.info(
            "sweep %s shard %s: %d task(s), %d pending, workers=%d",
            sha[:12], spec, len(tasks), len(pending), workers,
        )

        def finalize(index: int, attempt: int, outcome_dict: Dict[str, object]) -> None:
            outcome = TaskOutcome(
                task=tasks[index],
                status=str(outcome_dict.get("status", "failed")),
                attempts=attempt,
                duration_seconds=float(outcome_dict.get("duration_seconds", 0.0)),
                row=outcome_dict.get("row"),
                error=outcome_dict.get("error"),
                metrics=outcome_dict.get("metrics"),
                spans=outcome_dict.get("spans"),
                events=outcome_dict.get("events"),
            )
            outcomes[index] = outcome
            if journal is not None:
                # Ship telemetry through the journal too: a journal is its
                # task's *complete* output, so `repro merge` can rebuild the
                # merged metrics snapshot and flight record without talking
                # to the host that ran it.
                journal.append(
                    build_result_record(
                        tasks[index].task_id,
                        outcome.status,
                        attempt,
                        outcome.duration_seconds,
                        row=outcome.row,
                        error=outcome.error,
                        metrics=outcome.metrics,
                        spans=outcome.spans,
                        events=outcome.events,
                    )
                )
            _beacon_progress()

        with telemetry.span("sweep", workers=workers, tasks=len(tasks)):
            if pending:
                if workers <= 1:
                    _run_inline(
                        pending, payloads, task_runner, max_attempts, backoff_seconds, finalize
                    )
                else:
                    with worker.blas_thread_cap(workers):
                        _run_pool(
                            pending,
                            payloads,
                            task_runner,
                            workers,
                            max_attempts,
                            backoff_seconds,
                            mp_context,
                            finalize,
                        )
            ordered = [outcomes[index] for index in range(len(tasks))]
            _record_sweep_telemetry(ordered)
    finally:
        if journal is not None:
            journal.close()
        if beacon is not None:
            beacon.stop(phase="done")
    return SweepResult(
        outcomes=ordered, grid_sha=sha, journal_path=journal_path,
        shard=spec, total_tasks=len(full_tasks),
    )


# ---------------------------------------------------------------------------
def _open_journal(
    journal_path: str,
    sha: str,
    full_tasks: Sequence[SweepTask],
    tasks: Sequence[SweepTask],
    spec: ShardSpec,
    resume: bool,
    outcomes: Dict[int, TaskOutcome],
) -> SweepJournal:
    """Open (and maybe replay) the journal; fills ``outcomes`` with skips."""
    state = SweepJournal.load(journal_path)
    if not resume and state.records:
        raise SweepError(
            f"journal {journal_path!r} already holds {len(state.records)} results; "
            "pass resume=True to continue it or point --journal elsewhere"
        )
    if state.header is not None:
        check_owner(state.header, journal_path, sha, spec.owner)
    journal = SweepJournal(journal_path).open()
    if state.header is None:
        journal.append_header(sha, task_ids_of(full_tasks), spec.owner)
    if resume:
        completed = state.completed
        for index, task in enumerate(tasks):
            record = completed.get(task.task_id)
            if record is None:
                continue
            outcomes[index] = TaskOutcome(
                task=task,
                status="resumed",
                attempts=int(record.get("attempts", 1)),
                duration_seconds=float(record.get("duration_seconds", 0.0)),
                row=record.get("row"),
                # Restore journaled telemetry so a resumed shard's merged
                # metrics/flight record still match a fresh run exactly.
                metrics=record.get("metrics"),
                spans=record.get("spans"),
                events=record.get("events"),
            )
        if state.records:
            journal.append(
                {"kind": "resume", "grid_sha": sha, "skipped": len(outcomes)}
            )
    return journal


def _attempt_failure(exc: BaseException) -> Dict[str, object]:
    """Synthetic outcome for a task whose worker died before answering."""
    return {
        "status": "failed",
        "error": {
            "type": type(exc).__name__,
            "message": str(exc) or "worker process crashed",
            "traceback": "",
        },
    }


def _backoff(backoff_seconds: float, attempt: int) -> None:
    if backoff_seconds > 0:
        time.sleep(backoff_seconds * (2 ** (attempt - 1)))


def attempt_with_retries(
    payload: Dict[str, object],
    task_runner: TaskRunner,
    max_attempts: int,
    backoff_seconds: float,
) -> Tuple[int, Dict[str, object]]:
    """Run one task payload with retry-and-backoff; never raises.

    Returns ``(attempts_used, outcome_dict)`` where the outcome is either
    the runner's (``status == "ok"``) or a structured failure after the
    last attempt.  Shared by the inline pool path and the queue scheduler
    so both record identical attempt semantics.
    """
    attempt = 1
    while True:
        try:
            outcome = task_runner(payload)
        except Exception as exc:  # custom runners may raise
            outcome = _attempt_failure(exc)
        if outcome.get("status") == "ok" or attempt >= max_attempts:
            return attempt, outcome
        _backoff(backoff_seconds, attempt)
        attempt += 1


def _run_inline(
    pending: Sequence[int],
    payloads: Sequence[Dict[str, object]],
    task_runner: TaskRunner,
    max_attempts: int,
    backoff_seconds: float,
    finalize: Callable[[int, int, Dict[str, object]], None],
) -> None:
    for index in pending:
        attempt, outcome = attempt_with_retries(
            payloads[index], task_runner, max_attempts, backoff_seconds
        )
        finalize(index, attempt, outcome)


def _run_pool(
    pending: Sequence[int],
    payloads: Sequence[Dict[str, object]],
    task_runner: TaskRunner,
    workers: int,
    max_attempts: int,
    backoff_seconds: float,
    mp_context: str,
    finalize: Callable[[int, int, Dict[str, object]], None],
) -> None:
    context = multiprocessing.get_context(mp_context)
    queue: Deque[Tuple[int, int]] = deque((index, 1) for index in pending)
    active: Dict[Future, Tuple[int, int]] = {}
    executor: Optional[ProcessPoolExecutor] = None
    # After a pool break the executor fails every in-flight future with
    # BrokenProcessPool, so the actual crasher is indistinguishable from
    # innocent victims.  Recovery therefore runs one task at a time: the
    # sole in-flight task of a broken serial pool is provably the crasher
    # and is the only one charged an attempt.
    serial_recovery = False

    def handle(index: int, attempt: int, outcome: Dict[str, object]) -> None:
        if outcome.get("status") == "ok" or attempt >= max_attempts:
            finalize(index, attempt, outcome)
        else:
            log.info(
                "task #%d failed on attempt %d/%d; backing off and retrying",
                index, attempt, max_attempts,
            )
            _backoff(backoff_seconds, attempt)
            queue.append((index, attempt + 1))

    try:
        while queue or active:
            if executor is None:
                executor = ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=context,
                    initializer=worker.initialize_worker,
                )
            while queue and not (serial_recovery and active):
                index, attempt = queue.popleft()
                active[executor.submit(task_runner, payloads[index])] = (index, attempt)
            done, _ = wait(set(active), return_when=FIRST_COMPLETED)
            pool_broken = False
            for future in done:
                index, attempt = active.pop(future)
                try:
                    outcome = future.result()
                except (BrokenProcessPool, OSError) as exc:
                    # A worker died without answering (os._exit, segfault,
                    # OOM kill).  In serial recovery the dead task was alone
                    # in flight, so the crash is its own and costs it an
                    # attempt; in parallel mode it may be a collateral victim
                    # of a sibling's crash, so it is requeued uncharged and
                    # retried serially.
                    pool_broken = True
                    if serial_recovery:
                        handle(index, attempt, _attempt_failure(exc))
                    else:
                        queue.append((index, attempt))
                    continue
                except Exception as exc:
                    outcome = _attempt_failure(exc)
                handle(index, attempt, outcome)
            if pool_broken:
                serial_recovery = True
                log.warning(
                    "process pool broke; resubmitting %d in-flight task(s) and "
                    "finishing in serial recovery for exact crash attribution",
                    len(active),
                )
                for index, attempt in active.values():
                    queue.append((index, attempt))
                active.clear()
                executor.shutdown(wait=False, cancel_futures=True)
                executor = None
    finally:
        if executor is not None:
            executor.shutdown(wait=True)


def _record_sweep_telemetry(ordered: Sequence[TaskOutcome]) -> None:
    """Merge worker telemetry into the parent, strictly in grid order."""
    if telemetry.events_enabled():
        recorder = telemetry.get_recorder()
        base_path = telemetry.get_tracer().current_path()
        for outcome in ordered:
            if outcome.events:
                recorder.attach(outcome.events, base_path=base_path)
    if not telemetry.enabled():
        return
    registry = telemetry.get_registry()
    tracer = telemetry.get_tracer()
    for outcome in ordered:
        telemetry.counter_add(f"sweep.tasks_{outcome.status}")
        if outcome.attempts > 1:
            telemetry.counter_add("sweep.retries", outcome.attempts - 1)
        if outcome.status == "ok":
            telemetry.histogram_observe("sweep.task_seconds", outcome.duration_seconds)
        if outcome.metrics:
            registry.merge_snapshot(
                counters=outcome.metrics.get("counters"),
                gauges=outcome.metrics.get("gauges"),
                histogram_values=outcome.metrics.get("histogram_values"),
            )
        for span_payload in outcome.spans or ():
            tracer.attach(SpanRecord.from_dict(span_payload))
