"""Filesystem-backed work-stealing queue for multi-host sweeps.

Static ``--shard i/n`` slicing gates the whole sweep on its slowest host.
This module removes that barrier: the canonical grid becomes a queue
of leasable tasks in a shared directory (any POSIX filesystem visible to
every worker -- NFS, a shared bind mount, or one box running N processes),
and heterogeneous workers pull tasks at their own pace.

The protocol is **coordinator-free**: there is no broker process, only
atomic filesystem primitives.

- **Claim**: ``leases/task-NNNNN.json`` created with ``O_CREAT | O_EXCL``.
  Exactly one racer wins; everyone else moves on to the next unclaimed
  task in canonical grid order.
- **Heartbeat**: the owner renews its lease deadline every ``ttl / 3``
  (temp file + ``os.replace``) from a background thread, so a healthy
  worker's lease never expires no matter how long the task runs.
- **Steal**: a lease whose deadline passed (owner died or wedged) is
  stolen by ``os.rename``-ing it to a per-thief name -- rename of one
  source succeeds for exactly one racer -- after which the thief claims
  afresh.  ``sched.steals`` / ``sched.lease_expired`` count these.
- **Commit**: ``done/task-NNNNN.json`` created with ``O_CREAT | O_EXCL``
  *after* the result record is in the worker's journal.  The done marker,
  not the lease, is the authoritative commit: leases are merely an
  optimization that keeps duplicate work rare.
- **Charge**: a supervisor that sees a worker die (the parent of a local
  ``--workers`` sweep) writes the task's crash count to
  ``charges/task-NNNNN.json`` before it frees the lease; the next claimer
  counts its attempts on from there.

Duplicate completions (possible when a slow-but-alive owner is stolen
from) are resolved at commit time: the loser appends a
``status="superseded"`` tombstone naming the winner, and journal
supersession (later lines win) retracts its earlier result record.
``repro merge`` additionally dedups identical rows and rejects genuinely
conflicting ones, so the headline invariant survives every fault mode:
scheduling may change *who* computes a row, never its value -- merged
rows, metrics and flight record are byte-identical to the unsharded run.

Each worker appends to its own ``journals/<worker>.journal.jsonl``, with the
same header as every other sweep journal (:mod:`repro.parallel.journal`):
the full grid plus the worker as owner.  That is exactly what ``repro
merge`` consumes, alongside any shard journals of the same grid.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import os
import re
import socket
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import telemetry
from repro.errors import SweepError
from repro.log import get_logger
from repro.telemetry import live
from repro.parallel import worker
from repro.parallel.grid import (
    SweepGrid,
    SweepTask,
    ensure_unique,
    grid_sha_of,
    task_ids_of,
)
from repro.parallel.journal import SweepJournal, build_result_record, check_owner
from repro.parallel.runner import GridOutcomes, TaskOutcome, TaskRunner, attempt_with_retries

QUEUE_SCHEMA = 1
DEFAULT_LEASE_TTL = 30.0

#: Env var: seconds to sleep before executing each claimed task.  Fault
#: injection for tests and the CI ``queue`` job (an artificially slow
#: worker must not change any merged byte).
FAULT_DELAY_ENV = "REPRO_SCHED_FAULT_DELAY"

MANIFEST_NAME = "queue.json"
LEASE_DIR = "leases"
DONE_DIR = "done"
JOURNAL_DIR = "journals"
#: Attempts already charged to a task by a supervising parent (worker
#: crashes of a local sweep), one file per task.
CHARGE_DIR = "charges"
#: Live-side (non-deterministic, advisory) artifacts live in their own
#: subdirectories so nothing the merge reads can ever pick them up.
BEACON_DIR = "beacons"
TIMELINE_DIR = "timeline"
EVENTS_DIR = "events"

log = get_logger(__name__)

_WORKER_ID_RE = re.compile(r"[^A-Za-z0-9._-]+")


def default_worker_id() -> str:
    """``<hostname>-<pid>``, sanitized to filename-safe characters."""
    return sanitize_worker_id(f"{socket.gethostname()}-{os.getpid()}")


def sanitize_worker_id(worker_id: str) -> str:
    cleaned = _WORKER_ID_RE.sub("-", str(worker_id)).strip("-")
    if not cleaned:
        raise SweepError(f"worker id {worker_id!r} has no filename-safe characters")
    return cleaned


def _task_name(index: int) -> str:
    return f"task-{index:05d}"


def read_json(path: Path) -> Optional[Dict[str, object]]:
    """A queue file's payload; ``None`` while it is half-written, torn or gone."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def charged_attempts(manifest: "QueueManifest", index: int) -> int:
    """Attempts charged to task ``index`` before it was claimed (0 if none)."""
    return int((read_json(manifest.charge_path(index)) or {}).get("attempts", 0))


def charge_attempt(manifest: "QueueManifest", index: int) -> int:
    """Charge task ``index`` one more attempt; returns its new charge.

    Only the task's supervisor calls this, before it deletes the dead
    worker's lease; the file is replaced whole, so a worker that claims the
    task once the lease is gone reads the full count.
    """
    charged = charged_attempts(manifest, index) + 1
    path = manifest.charge_path(index)
    path.parent.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"attempts": charged}), encoding="utf-8")
    os.replace(tmp, path)
    return charged


# ---------------------------------------------------------------------------
# Queue manifest
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class QueueManifest:
    """Parsed ``queue.json``: the grid every worker must agree on."""

    root: Path
    grid_sha: str
    tasks: List[SweepTask]
    lease_ttl: float

    @property
    def total_tasks(self) -> int:
        return len(self.tasks)

    @property
    def task_ids(self) -> List[str]:
        return task_ids_of(self.tasks)

    def lease_path(self, index: int) -> Path:
        return self.root / LEASE_DIR / (_task_name(index) + ".json")

    def done_path(self, index: int) -> Path:
        return self.root / DONE_DIR / (_task_name(index) + ".json")

    def journal_path(self, worker_id: str) -> Path:
        return self.root / JOURNAL_DIR / f"{worker_id}.journal.jsonl"

    def charge_path(self, index: int) -> Path:
        return self.root / CHARGE_DIR / (_task_name(index) + ".json")

    def journal_paths(self) -> List[Path]:
        return sorted((self.root / JOURNAL_DIR).glob("*.jsonl"))

    def beacon_path(self, worker_id: str) -> Path:
        return self.root / BEACON_DIR / f"{worker_id}{live.BEACON_SUFFIX}"

    def timeline_path(self, worker_id: str) -> Path:
        return self.root / TIMELINE_DIR / f"{worker_id}{live.TIMELINE_SUFFIX}"

    def events_path(self, worker_id: str) -> Path:
        return self.root / EVENTS_DIR / f"{worker_id}.events.jsonl"


def init_queue(
    path: Union[str, Path],
    grid: Union[SweepGrid, Sequence[SweepTask]],
    lease_ttl: float = DEFAULT_LEASE_TTL,
) -> QueueManifest:
    """Create (or attach to) the queue directory for ``grid``.

    Creation is race-safe: the manifest is written to a temp file and
    ``os.link``-ed into place, so when several workers race to initialize
    the same directory exactly one manifest wins and everyone else
    attaches to it.  Attaching to an existing queue validates that its
    grid SHA matches this run's grid -- mixing grids in one queue
    directory is the queue-mode analogue of ``sha-mismatch`` at merge
    time, and is cheaper to reject here.
    """
    if lease_ttl <= 0:
        raise SweepError(f"lease_ttl must be positive, got {lease_ttl}")
    tasks = ensure_unique(grid.expand() if isinstance(grid, SweepGrid) else list(grid))
    sha = grid_sha_of(tasks)
    root = Path(path)
    for sub in (LEASE_DIR, DONE_DIR, JOURNAL_DIR):
        (root / sub).mkdir(parents=True, exist_ok=True)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        payload = {
            "schema": QUEUE_SCHEMA,
            "grid_sha": sha,
            "total_tasks": len(tasks),
            "lease_ttl_seconds": float(lease_ttl),
            "tasks": [task.to_json() for task in tasks],
        }
        tmp = root / f".{MANIFEST_NAME}.{default_worker_id()}.tmp"
        tmp.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        try:
            os.link(str(tmp), str(manifest_path))
        except OSError as exc:
            if exc.errno != errno.EEXIST:
                raise
            # Another worker initialized first; fall through and attach.
        finally:
            tmp.unlink()
    manifest = load_queue(root)
    if manifest.grid_sha != sha:
        raise SweepError(
            f"queue {root} was initialized for a different grid "
            f"(queue sha {manifest.grid_sha!r} != run sha {sha!r})"
        )
    return manifest


def load_queue(path: Union[str, Path]) -> QueueManifest:
    """Attach to an existing queue directory (validates the manifest)."""
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise SweepError(f"{root} is not a queue directory (no {MANIFEST_NAME})")
    try:
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SweepError(f"queue manifest {manifest_path} is corrupt: {exc}") from None
    if payload.get("schema") != QUEUE_SCHEMA:
        raise SweepError(
            f"queue manifest {manifest_path} has unsupported schema {payload.get('schema')!r}"
        )
    tasks = [SweepTask.from_json(dict(item)) for item in payload.get("tasks", [])]
    sha = str(payload.get("grid_sha", ""))
    if not tasks or grid_sha_of(tasks) != sha:
        raise SweepError(
            f"queue manifest {manifest_path} is inconsistent: task list does not "
            f"hash to its recorded grid_sha"
        )
    return QueueManifest(
        root=root,
        grid_sha=sha,
        tasks=tasks,
        lease_ttl=float(payload.get("lease_ttl_seconds", DEFAULT_LEASE_TTL)),
    )


# ---------------------------------------------------------------------------
# Leases
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class Lease:
    """A live claim on one task, renewable until released.

    The deadline is advisory: passing it makes the lease *stealable*, but
    commit authority always rests with the ``done/`` marker.
    """

    path: Path
    worker: str
    task_id: str
    task_index: int
    ttl: float
    deadline: float
    heartbeats: int = 0

    def payload(self) -> Dict[str, object]:
        return {
            "worker": self.worker,
            "task_id": self.task_id,
            "task_index": self.task_index,
            "ttl_seconds": self.ttl,
            "deadline_unix": self.deadline,
            "heartbeats": self.heartbeats,
        }

    def renew(self) -> bool:
        """Extend the deadline by one TTL; refuses once already expired.

        An expired lease may already have been stolen, and rewriting its
        path could clobber the thief's fresh lease -- so a late owner
        keeps computing (commit-time dedup handles the duplicate) but
        stops touching the lease file.
        """
        now = time.time()
        if now > self.deadline:
            return False
        self.deadline = now + self.ttl
        self.heartbeats += 1
        tmp = self.path.with_suffix(f".renew-{self.worker}.tmp")
        try:
            tmp.write_text(json.dumps(self.payload(), sort_keys=True), encoding="utf-8")
            os.replace(str(tmp), str(self.path))
        except OSError:
            return False
        return True

    def release(self) -> None:
        try:
            self.path.unlink()
        except OSError:
            pass


def _create_lease(manifest: QueueManifest, index: int, worker_id: str) -> Optional[Lease]:
    """Atomically claim task ``index``; ``None`` if someone else holds it."""
    lease = Lease(
        path=manifest.lease_path(index),
        worker=worker_id,
        task_id=manifest.tasks[index].task_id,
        task_index=index,
        ttl=manifest.lease_ttl,
        deadline=time.time() + manifest.lease_ttl,
    )
    try:
        fd = os.open(str(lease.path), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except OSError as exc:
        if exc.errno == errno.EEXIST:
            return None
        raise
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(lease.payload(), sort_keys=True))
    return lease


def _lease_expired(path: Path, default_ttl: float) -> bool:
    """Whether the lease at ``path`` is past its deadline.

    A torn/unreadable lease (its owner died inside the initial write)
    falls back to file-mtime + TTL, so it too becomes stealable instead
    of wedging the task forever.
    """
    now = time.time()
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        return now > float(payload["deadline_unix"])
    except (OSError, ValueError, KeyError):
        try:
            return now > path.stat().st_mtime + default_ttl
        except OSError:
            return False  # vanished: owner released or a thief renamed it


def _steal_lease(manifest: QueueManifest, index: int, worker_id: str) -> bool:
    """Remove an expired lease; True if *this* worker won the removal race.

    ``os.rename`` to a thief-unique name succeeds for exactly one racer
    (everyone else gets ENOENT), which serializes the steal without any
    lock server.  The winner still has to win the fresh ``O_EXCL`` claim
    afterwards -- a third worker may slip in -- but the expired lease can
    never be double-stolen.
    """
    source = manifest.lease_path(index)
    grave = source.with_suffix(f".stolen-by-{worker_id}.tmp")
    try:
        os.rename(str(source), str(grave))
    except OSError:
        return False
    try:
        grave.unlink()
    except OSError:
        pass
    return True


# ---------------------------------------------------------------------------
# Claim / commit
# ---------------------------------------------------------------------------
def claim_next(
    manifest: QueueManifest, worker_id: str
) -> Tuple[Optional[Lease], bool, int]:
    """Claim the first claimable task in canonical grid order.

    Returns ``(lease, stole, open_tasks)``.  ``lease`` is ``None`` when
    nothing is claimable right now.  ``open_tasks`` counts uncommitted
    tasks *seen by the scan*, so it is the full count only when the scan
    completed (``lease is None``); that is the only case callers need it
    -- ``open_tasks > 0`` then means "validly leased elsewhere, poll again
    later" and ``0`` means the queue is drained.  ``stole`` reports
    whether this claim reclaimed an expired lease.
    """
    open_tasks = 0
    for index in range(manifest.total_tasks):
        if manifest.done_path(index).exists():
            continue
        open_tasks += 1
        lease = _create_lease(manifest, index, worker_id)
        stole = False
        if lease is None and _lease_expired(manifest.lease_path(index), manifest.lease_ttl):
            telemetry.counter_add("sched.lease_expired")
            telemetry.event(
                "sched.lease_expired", task_id=manifest.tasks[index].task_id, worker=worker_id
            )
            if _steal_lease(manifest, index, worker_id):
                stole = True
                lease = _create_lease(manifest, index, worker_id)
        if lease is not None:
            telemetry.counter_add("sched.claims")
            if stole:
                telemetry.counter_add("sched.steals")
            telemetry.event(
                "sched.steal" if stole else "sched.claim",
                task_id=lease.task_id,
                worker=worker_id,
            )
            return lease, stole, open_tasks
    return None, False, open_tasks


def try_commit(manifest: QueueManifest, lease: Lease, status: str) -> Tuple[bool, str]:
    """Commit ``lease``'s result; returns ``(won, winning_worker)``.

    First ``O_EXCL`` creation of the ``done/`` marker wins, for ``ok`` and
    ``failed`` alike (a deterministic failure is terminal too -- otherwise
    workers would re-run it forever).  Losers learn the winner's identity
    so their journal tombstone can name it.
    """
    path = manifest.done_path(lease.task_index)
    try:
        fd = os.open(str(path), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except OSError as exc:
        if exc.errno != errno.EEXIST:
            raise
        return False, str((read_json(path) or {}).get("worker", "unknown"))
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        handle.write(
            json.dumps(
                {"task_id": lease.task_id, "worker": lease.worker, "status": status},
                sort_keys=True,
            )
        )
    return True, lease.worker


# ---------------------------------------------------------------------------
# Status
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class QueueStatus:
    """Point-in-time snapshot of a queue directory (``repro queue-status``).

    Besides the drain counts, the snapshot carries the live-side view:
    per-lease expiry countdowns, per-worker beacon heartbeat ages, the
    failed-commit count and any structured health causes
    (:data:`repro.errors.HEALTH_CAUSES`) detected over beacons + queue
    state.  All live fields are advisory; the counts alone decide the
    exit code of ``repro queue-status``.
    """

    grid_sha: str
    total_tasks: int
    done: int
    leased: int
    expired: int
    workers: List[str]
    failed: int = 0
    leases: List[Dict[str, object]] = dataclasses.field(default_factory=list)
    heartbeats: Dict[str, float] = dataclasses.field(default_factory=dict)
    health: List[Dict[str, object]] = dataclasses.field(default_factory=list)
    beacons: List[Dict[str, object]] = dataclasses.field(default_factory=list)

    @property
    def open_tasks(self) -> int:
        return self.total_tasks - self.done

    @property
    def complete(self) -> bool:
        return self.done >= self.total_tasks

    def to_json(self) -> Dict[str, object]:
        # Beacons are exposed in full by `repro watch`; here only their
        # heartbeat ages, to keep queue-status output compact.
        return {
            "grid_sha": self.grid_sha,
            "total_tasks": self.total_tasks,
            "done": self.done,
            "failed": self.failed,
            "open": self.open_tasks,
            "leased": self.leased,
            "expired_leases": self.expired,
            "complete": self.complete,
            "workers": self.workers,
            "leases": self.leases,
            "heartbeats": self.heartbeats,
            "health": self.health,
        }


def queue_status(
    path: Union[str, Path],
    now: Optional[float] = None,
    thresholds: Optional["live.HealthThresholds"] = None,
) -> QueueStatus:
    """Inspect a queue directory without mutating it."""
    manifest = load_queue(path)
    clock = time.time() if now is None else now
    done = failed = leased = expired = 0
    leases: List[Dict[str, object]] = []
    for index in range(manifest.total_tasks):
        done_path = manifest.done_path(index)
        if done_path.exists():
            done += 1
            if (read_json(done_path) or {}).get("status") == "failed":
                failed += 1
            continue
        lease_path = manifest.lease_path(index)
        if lease_path.exists():
            leased += 1
            is_expired = _lease_expired(lease_path, manifest.lease_ttl)
            if is_expired:
                expired += 1
            entry: Dict[str, object] = {
                "task_id": manifest.tasks[index].task_id,
                "expired": is_expired,
            }
            payload = read_json(lease_path) or {}
            deadline = payload.get("deadline_unix")
            entry["worker"] = payload.get("worker")
            entry["expires_in_seconds"] = (
                None if deadline is None else round(float(deadline) - clock, 3)
            )
            leases.append(entry)
    workers = [p.name[: -len(".journal.jsonl")] for p in manifest.journal_paths()]
    beacons = live.read_beacons(manifest.root / BEACON_DIR)
    heartbeats = {
        str(b.get("worker", "?")): round(
            max(0.0, clock - float(b.get("updated_unix") or clock)), 3
        )
        for b in beacons
    }
    health = live.detect_health(
        total_tasks=manifest.total_tasks,
        done=done,
        failed=failed,
        beacons=beacons,
        expired_leases=expired,
        now=clock,
        thresholds=thresholds,
    )
    return QueueStatus(
        grid_sha=manifest.grid_sha,
        total_tasks=manifest.total_tasks,
        done=done,
        leased=leased,
        expired=expired,
        workers=workers,
        failed=failed,
        leases=leases,
        heartbeats=heartbeats,
        health=health,
        beacons=beacons,
    )


# ---------------------------------------------------------------------------
# Worker loop
# ---------------------------------------------------------------------------
class _Heartbeat:
    """Background lease renewal: runs until stopped, renewing every ttl/3."""

    def __init__(self, lease: Lease) -> None:
        self._lease = lease
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"lease-heartbeat-{lease.task_index}", daemon=True
        )

    def start(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def _run(self) -> None:
        interval = max(self._lease.ttl / 3.0, 0.05)
        while not self._stop.wait(interval):
            if not self._lease.renew():
                log.warning(
                    "worker %s lost lease on %s (expired before renewal); "
                    "continuing -- commit-time dedup will resolve any duplicate",
                    self._lease.worker,
                    self._lease.task_id,
                )
                return

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


@dataclasses.dataclass
class QueueRunResult(GridOutcomes):
    """Everything one queue worker produced (its committed share of the grid)."""

    outcomes: List[TaskOutcome]
    grid_sha: str
    total_tasks: int
    worker: str
    journal_path: str
    claims: int = 0
    steals: int = 0
    lease_expired: int = 0
    superseded: int = 0


def run_queue(
    queue_dir: Union[str, Path],
    worker_id: Optional[str] = None,
    max_attempts: int = 2,
    backoff_seconds: float = 0.25,
    capture_telemetry: Optional[bool] = None,
    capture_events: Optional[bool] = None,
    task_runner: TaskRunner = worker.execute_task,
    max_tasks: Optional[int] = None,
    wait_for_completion: bool = True,
    poll_seconds: float = 0.2,
    beacon_interval: float = live.DEFAULT_BEACON_INTERVAL,
) -> QueueRunResult:
    """Work a queue until it drains (or ``max_tasks`` is reached).

    The worker loop: claim the next open task in canonical grid order
    (stealing expired leases), execute it through the same
    retry-with-backoff path as :func:`repro.parallel.runner.run_sweep`,
    append the full result record to this worker's journal, then commit
    the ``done/`` marker.  Append-before-commit
    ordering means a crash between the two leaves an uncommitted-but-
    journaled result: harmless, because another worker re-runs the task
    and ``repro merge`` dedups the identical rows.

    With ``wait_for_completion`` (the default) a worker that finds nothing
    claimable polls until every task is committed -- it may still steal
    from a worker that dies late.  ``max_tasks`` bounds how many tasks
    this call commits (test hook); ``wait_for_completion=False`` makes a
    single pass and returns as soon as nothing is claimable.

    Set ``REPRO_SCHED_FAULT_DELAY=<seconds>`` to sleep before executing
    each claimed task -- the fault-injection hook the tests and the CI
    ``queue`` job use to make one worker pathologically slow without
    changing any merged byte.

    While running, the worker keeps a live status beacon fresh at
    ``<queue>/beacons/<worker>.beacon.json`` every ``beacon_interval``
    seconds (``0`` disables) and appends every beacon to the
    ``<queue>/timeline/<worker>.timeline.jsonl`` ring.  Both are sidecar
    artifacts (:mod:`repro.telemetry.live`): written next to, never into,
    the journal -- merged rows/metrics/flight records are byte-identical
    with or without them.
    """
    if max_attempts < 1:
        raise SweepError(f"max_attempts must be positive, got {max_attempts}")
    manifest = load_queue(queue_dir)
    wid = sanitize_worker_id(worker_id) if worker_id is not None else default_worker_id()
    if capture_telemetry is None:
        capture_telemetry = telemetry.enabled()
    if capture_events is None:
        capture_events = telemetry.events_enabled()
    fault_delay = float(os.environ.get(FAULT_DELAY_ENV, "0") or "0")

    journal_path = manifest.journal_path(wid)
    state = SweepJournal.load(journal_path)
    if state.header is not None:
        check_owner(state.header, journal_path, manifest.grid_sha, wid)

    committed: List[Tuple[int, TaskOutcome]] = []
    counters = {"claims": 0, "steals": 0, "lease_expired": 0, "superseded": 0}

    beacon: Optional[live.BeaconWriter] = None
    failed_count = 0

    def _beacon_counts() -> Dict[str, object]:
        return {
            "tasks_done": len(committed),
            "tasks_failed": failed_count,
            "claims": counters["claims"],
            "steals": counters["steals"],
            "lease_expired": counters["lease_expired"],
            "superseded": counters["superseded"],
        }

    if beacon_interval and beacon_interval > 0:
        beacon = live.BeaconWriter(
            manifest.beacon_path(wid), worker=wid, interval=beacon_interval,
            timeline_path=manifest.timeline_path(wid),
        ).start()

    journal = SweepJournal(journal_path).open()
    try:
        if state.header is None:
            journal.append_header(manifest.grid_sha, manifest.task_ids, wid)
        elif state.records:
            journal.append(
                {"kind": "resume", "grid_sha": manifest.grid_sha, "skipped": len(state.records)}
            )
        log.info(
            "queue worker %s on %s: %d task(s), ttl=%.1fs",
            wid, manifest.root, manifest.total_tasks, manifest.lease_ttl,
        )
        while True:
            if max_tasks is not None and counters["claims"] >= max_tasks:
                break
            lease, stole, open_tasks = claim_next(manifest, wid)
            if lease is None:
                if open_tasks == 0 or not wait_for_completion:
                    break
                if beacon is not None:
                    beacon.update(phase="idle", current_task=None, **_beacon_counts())
                time.sleep(poll_seconds)
                continue
            counters["claims"] += 1
            if stole:
                counters["steals"] += 1
                counters["lease_expired"] += 1
            if beacon is not None:
                beacon.update(
                    phase="running", current_task=lease.task_id, **_beacon_counts()
                )
            heartbeat = _Heartbeat(lease).start()
            try:
                if fault_delay > 0:
                    time.sleep(fault_delay)
                payload = {
                    "task": manifest.tasks[lease.task_index].to_json(),
                    "telemetry": capture_telemetry,
                    "events": capture_events,
                }
                attempt, outcome_dict = attempt_with_retries(
                    payload, task_runner, max_attempts, backoff_seconds,
                    spent=charged_attempts(manifest, lease.task_index),
                )
            finally:
                heartbeat.stop()
            outcome = TaskOutcome.from_outcome(
                manifest.tasks[lease.task_index], attempt, outcome_dict
            )
            # Append the full result BEFORE committing: a crash in the gap
            # duplicates work (another worker re-runs the task) but never
            # loses a committed task's bytes.
            journal.append(outcome.record(worker=wid))
            won, winner = try_commit(manifest, lease, outcome.status)
            if won:
                committed.append((lease.task_index, outcome))
                if outcome.status == "failed":
                    failed_count += 1
                telemetry.event(
                    "sched.commit", task_id=outcome.task.task_id, worker=wid,
                    status=outcome.status,
                )
            else:
                # Lost the duplicate-completion race (we were stolen from,
                # yet finished anyway).  Retract our record: the tombstone
                # supersedes it on journal load, and names the winner so
                # merge -- and operators -- can audit the race.
                counters["superseded"] += 1
                telemetry.counter_add("sched.superseded")
                telemetry.event(
                    "sched.superseded", task_id=outcome.task.task_id, worker=wid,
                    winner=winner,
                )
                journal.append(
                    build_result_record(
                        outcome.task.task_id,
                        "superseded",
                        attempt,
                        outcome.duration_seconds,
                        worker=wid,
                        cause="duplicate-completion",
                        winner=winner,
                    )
                )
            lease.release()
            if beacon is not None:
                beacon.update(phase="running", current_task=None, **_beacon_counts())
    finally:
        journal.close()
        if beacon is not None:
            beacon.update(**_beacon_counts())
            beacon.stop(phase="done")
    # Grid-ordered, like SweepResult.outcomes -- steals can commit tasks
    # out of claim order.
    outcomes = [outcome for _, outcome in sorted(committed, key=lambda item: item[0])]
    log.info(
        "queue worker %s finished: %d committed, %d stolen, %d superseded",
        wid, len(outcomes), counters["steals"], counters["superseded"],
    )
    return QueueRunResult(
        outcomes=outcomes,
        grid_sha=manifest.grid_sha,
        total_tasks=manifest.total_tasks,
        worker=wid,
        journal_path=str(journal_path),
        claims=counters["claims"],
        steals=counters["steals"],
        lease_expired=counters["lease_expired"],
        superseded=counters["superseded"],
    )
