"""Sweep runner with checkpoint/resume and retry-with-backoff.

The runner executes an expanded :class:`~repro.parallel.grid.SweepGrid`
inline (``workers <= 1``) or over ``workers`` local queue workers: spawned
processes that drain a private :mod:`repro.parallel.scheduler` queue in a
temporary directory.  Three guarantees:

- **Determinism**: every task carries its own explicit seed, result rows
  are returned in grid order, and worker telemetry is merged in grid order
  -- so ``workers=N`` never changes any output, numeric or telemetric.
  A grid that spawned workers could not run the same way (a device
  profile registered only in this process) is refused up front.
- **Checkpointing**: each finished task is appended (and flushed) to a
  JSONL journal as soon as it commits; ``resume=True`` skips tasks the
  journal already records as successful, re-running only the remainder.
- **Degradation**: a task that raises is retried with exponential backoff
  up to ``max_attempts``; a worker process that dies outright costs only
  the task it leased one attempt, and a task that crashed ``max_attempts``
  times gets a structured failure record instead of crashing the sweep.

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
import itertools
import json
import multiprocessing
import os
import socket
import tempfile
import time
from multiprocessing.connection import wait
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro import telemetry
from repro.errors import SweepError, WorkerExitError
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

    @classmethod
    def from_outcome(
        cls, task: SweepTask, attempts: int, outcome: Dict[str, object]
    ) -> "TaskOutcome":
        """Build from a runner's outcome dict or a journaled result record."""
        return cls(
            task=task,
            status=str(outcome.get("status", "failed")),
            attempts=attempts,
            duration_seconds=float(outcome.get("duration_seconds", 0.0)),
            row=outcome.get("row"),
            error=outcome.get("error"),
            metrics=outcome.get("metrics"),
            spans=outcome.get("spans"),
            events=outcome.get("events"),
        )

    def record(self, worker: Optional[str] = None) -> Dict[str, object]:
        """This outcome's ``result`` journal line (telemetry included, so
        ``repro merge`` needs nothing else); ``worker`` names a queue worker."""
        extra = {} if worker is None else {"worker": worker}
        return build_result_record(
            self.task.task_id, self.status, self.attempts, self.duration_seconds,
            row=self.row, error=self.error, metrics=self.metrics,
            spans=self.spans, events=self.events, **extra,
        )


class GridOutcomes:
    """Rows and failures of a grid-ordered ``outcomes`` list."""

    outcomes: List[TaskOutcome]

    @property
    def rows(self) -> List[Dict[str, object]]:
        """Result rows of successful (or resumed) tasks, in grid order."""
        return [o.row for o in self.outcomes if o.row is not None]

    @property
    def failures(self) -> List[TaskOutcome]:
        return [o for o in self.outcomes if o.status == "failed"]


@dataclasses.dataclass
class SweepResult(GridOutcomes):
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
    capture_telemetry: Optional[bool] = None,
    capture_events: Optional[bool] = None,
    task_runner: TaskRunner = worker.execute_task,
    shard: Optional[ShardLike] = None,
    live_dir: Optional[str] = None,
    beacon_interval: float = 2.0,
) -> SweepResult:
    """Run every grid task, fanned out over ``workers`` processes.

    ``workers <= 1`` executes tasks inline -- numerically identical to a
    run over local queue workers, since each task is a pure function of its
    descriptor.  Spawned workers know only the built-in Table I device
    profiles, so with ``workers > 1`` a task on a device registered in
    this process raises :class:`SweepError` before anything is journaled.
    ``capture_telemetry`` defaults to the parent's
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
    if workers > 1:
        _refuse_custom_devices(tasks)
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
            outcome = TaskOutcome.from_outcome(tasks[index], attempt, outcome_dict)
            outcomes[index] = outcome
            if journal is not None:
                journal.append(outcome.record())
            _beacon_progress()

        with telemetry.span("sweep", workers=workers, tasks=len(tasks)):
            if pending:
                if workers <= 1:
                    _run_inline(
                        pending, payloads, task_runner, max_attempts, backoff_seconds, finalize
                    )
                else:
                    processes = min(workers, len(pending))
                    options = dict(
                        task_runner=task_runner, max_attempts=max_attempts,
                        backoff_seconds=backoff_seconds, capture_telemetry=capture_telemetry,
                        capture_events=capture_events,
                    )
                    with worker.blas_thread_cap(processes):
                        _run_local_queue(pending, tasks, processes, options, finalize)
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
def _refuse_custom_devices(tasks: Sequence[SweepTask]) -> None:
    """Reject devices that spawned workers cannot resolve.

    A spawned worker starts as a fresh interpreter and knows only the
    built-in Table I profiles, so a device registered in this process with
    :func:`repro.rowhammer.register_profile` would fail every task there.
    """
    from repro.rowhammer.device_profiles import DEVICE_PROFILES

    unknown = sorted({task.device for task in tasks} - set(DEVICE_PROFILES))
    if unknown:
        raise SweepError(
            f"device(s) {', '.join(unknown)} are not built-in Table I profiles; "
            "spawned sweep workers cannot resolve a profile registered in this "
            "process, so run this grid with workers=1"
        )


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
            # Restore journaled telemetry too, so a resumed shard's merged
            # metrics/flight record still match a fresh run exactly.
            outcomes[index] = dataclasses.replace(
                TaskOutcome.from_outcome(task, int(record.get("attempts", 1)), record),
                status="resumed",
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


def attempt_with_retries(
    payload: Dict[str, object],
    task_runner: TaskRunner,
    max_attempts: int,
    backoff_seconds: float,
    spent: int = 0,
) -> Tuple[int, Dict[str, object]]:
    """Run one task payload with retry-and-backoff; never raises.

    Returns ``(attempts_used, outcome_dict)`` where the outcome is either
    the runner's (``status == "ok"``) or a structured failure after the
    last attempt.  ``spent`` attempts were already charged to the task
    (worker crashes); they count towards ``max_attempts`` and
    ``attempts_used``, and at least one attempt runs.  Shared by the inline
    path and the queue scheduler so both record identical attempt semantics.
    """
    attempt = spent + 1
    while True:
        try:
            outcome = task_runner(payload)
        except Exception as exc:  # custom runners may raise
            outcome = _attempt_failure(exc)
        if outcome.get("status") == "ok" or attempt >= max_attempts:
            return attempt, outcome
        if backoff_seconds > 0:
            time.sleep(backoff_seconds * (2 ** (attempt - 1)))
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


def _queue_worker(queue_dir: str, worker_id: str, options: Dict[str, object]) -> None:
    """Body of one spawned local worker: drain the private queue."""
    from repro.parallel.scheduler import run_queue  # it imports this module

    run_queue(queue_dir, worker_id=worker_id, beacon_interval=0, **options)


def _run_local_queue(
    pending: Sequence[int],
    tasks: Sequence[SweepTask],
    processes: int,
    options: Dict[str, object],
    finalize: Callable[[int, int, Dict[str, object]], None],
) -> None:
    """Run ``pending`` on ``processes`` spawned workers over a private queue.

    ``options`` are the workers' :func:`~repro.parallel.scheduler.run_queue`
    arguments.  The parent only supervises: it finalizes each task as soon
    as its ``done/`` marker appears, reading the record from the winning
    worker's journal.  A worker that exits nonzero can only have killed the
    task it leased, so that task alone is charged an attempt; its lease is
    freed at once (no TTL wait) and a replacement worker starts.  A task
    that crashes ``max_attempts`` times is committed as failed here.  The
    charge is written into the queue before the lease is freed, and the
    worker that reruns the task counts on from it, so its record counts
    each crash and each in-process attempt once.
    """
    from repro.parallel import scheduler

    context = multiprocessing.get_context("spawn")
    serial = itertools.count()
    procs: List[multiprocessing.process.BaseProcess] = []
    offsets: Dict[str, int] = {}
    records: Dict[Tuple[str, str], Dict[str, object]] = {}
    finalized: Set[int] = set()

    def spawn() -> None:
        worker_id = f"local-{next(serial)}"
        procs.append(context.Process(
            target=_queue_worker, name=worker_id, args=(str(manifest.root), worker_id, options)
        ))
        procs[-1].start()

    def read_record(worker_id: str, task_id: str) -> Optional[Dict[str, object]]:
        # Each journal is read once, from where the last read stopped.
        with open(manifest.journal_path(worker_id), "rb") as handle:
            handle.seek(offsets.get(worker_id, 0))
            chunk = handle.read()
        chunk = chunk[: chunk.rfind(b"\n") + 1]
        offsets[worker_id] = offsets.get(worker_id, 0) + len(chunk)
        for line in chunk.splitlines():
            try:
                event = json.loads(line)
            except ValueError:
                continue  # a dead worker's torn line
            if event.get("kind") == "result":
                records[(worker_id, str(event.get("task_id")))] = event
        return records.pop((worker_id, task_id), None)

    def charge_crash(worker_id: str, exitcode: int) -> bool:
        """Charge and free the dead worker's lease; False if it held none."""
        for path in (manifest.root / scheduler.LEASE_DIR).glob("task-*.json"):
            lease = scheduler.read_json(path)
            if lease is None or lease.get("worker") != worker_id:
                continue
            index = int(lease["task_index"])
            # A worker that died after committing its task owes nothing.
            if not manifest.done_path(index).exists():
                charged = scheduler.charge_attempt(manifest, index)
                if charged >= int(options["max_attempts"]):
                    exc = WorkerExitError(
                        f"worker {worker_id} exited with code {exitcode} while "
                        f"running {lease['task_id']}"
                    )
                    failure = TaskOutcome.from_outcome(
                        manifest.tasks[index], charged, _attempt_failure(exc)
                    )
                    with SweepJournal(manifest.journal_path(worker_id)) as journal:
                        journal.append(failure.record(worker=worker_id))
                    scheduler.try_commit(manifest, scheduler.Lease(
                        path, worker_id, failure.task.task_id, index, manifest.lease_ttl, 0.0
                    ), "failed")
            path.unlink()
            return True
        return False

    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as queue_dir:
        manifest = scheduler.init_queue(queue_dir, [tasks[index] for index in pending])
        done_dir = manifest.root / scheduler.DONE_DIR
        try:
            for _ in range(processes):
                spawn()
            while len(finalized) < len(pending):
                wait([proc.sentinel for proc in procs], timeout=0.05)
                owed = 0
                for proc in [proc for proc in procs if proc.exitcode is not None]:
                    procs.remove(proc)
                    if proc.exitcode:
                        log.warning("sweep worker %s exited with code %d",
                                    proc.name, proc.exitcode)
                        owed += charge_crash(proc.name, proc.exitcode)
                for name in sorted(os.listdir(done_dir)):
                    index = int(name[len("task-"):-len(".json")])
                    if index in finalized:
                        continue
                    winner = scheduler.read_json(done_dir / name)
                    if winner is None:
                        continue  # the marker is still being written
                    record = read_record(str(winner["worker"]), manifest.tasks[index].task_id)
                    if record is not None:
                        finalized.add(index)
                        finalize(pending[index], int(record["attempts"]), record)
                if len(finalized) < len(pending):
                    for _ in range(owed):
                        spawn()
                    if not procs:
                        raise SweepError(
                            f"every local sweep worker exited before "
                            f"{len(pending) - len(finalized)} task(s) finished"
                        )
        finally:
            # Every task is committed (or the sweep failed): a worker still
            # alive is only polling, so stop it rather than wait for it.
            for proc in procs:
                proc.terminate()
                proc.join()


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
