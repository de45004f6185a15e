"""Live fleet observability: status beacons, health detection, fleet status.

Every other telemetry surface (metrics snapshots, flight records, traces,
reports) is post-hoc; this module is the sidecar that makes a *running*
multi-host sweep observable without touching the determinism contract:

- :class:`BeaconWriter` -- each worker keeps one small JSON "beacon" file
  fresh on a wall-clock interval (worker id, current task, tasks
  done/failed, claim/steal counts, rolling task rate, counter deltas).
  Beacons are written with atomic ``os.replace`` next to the queue
  directory, **never** into journals: merged rows, metrics snapshots and
  flight records stay byte-identical whether beacons are on or off.
- :func:`detect_health` -- structured health causes over beacons + queue
  state, mirroring the ``MergeError`` pattern: every cause is a registered
  slug in :data:`repro.errors.HEALTH_CAUSES` and documented in README and
  DESIGN (``tools/check_docs.py`` enforces both).
- :func:`fleet_status` -- the aggregated snapshot behind ``repro watch``:
  per-worker table, drain %, fleet throughput, ETA, lease churn, health.
- :func:`fleet_trace_from_queue` -- stitches every worker's journaled
  spans/events into one Chrome-trace/Perfetto file with one lane (pid)
  per worker.

Live artifacts are advisory and lossy by design (a beacon may be one
interval stale, a timeline ring drops old samples); the journals remain
the only authority on what was computed.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import os
import socket
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import HEALTH_CAUSES
from repro.telemetry.registry import TelemetryError

PathLike = Union[str, Path]

BEACON_SCHEMA = "repro-beacon/1"
LIVE_SCHEMA = "repro-live/1"
BEACON_SUFFIX = ".beacon.json"

DEFAULT_BEACON_INTERVAL = 2.0

#: Counter families a beacon/timeline snapshot carries (everything else is
#: noise at fleet granularity and bloats the per-interval write).
LIVE_COUNTER_PREFIXES = (
    "sched.",
    "engine.",
    "sweep.",
    "pipeline.",
    "train.",
    "online.",
)


def _filtered_counters() -> Dict[str, float]:
    """Current process-global counters, restricted to the live families."""
    from repro import telemetry  # lazy: repro.telemetry imports this module

    if not telemetry.enabled():
        return {}
    counters = telemetry.get_registry().snapshot()["counters"]
    return {
        name: value
        for name, value in counters.items()
        if name.startswith(LIVE_COUNTER_PREFIXES)
    }


# ---------------------------------------------------------------------------
# Fork-safety registry
# ---------------------------------------------------------------------------
_ACTIVE_LOCK = threading.Lock()
_ACTIVE: List[object] = []


def register_live(obj: object) -> None:
    """Track a live writer/sampler so :func:`reset_live` can disown it."""
    with _ACTIVE_LOCK:
        _ACTIVE.append(obj)


def unregister_live(obj: object) -> None:
    with _ACTIVE_LOCK:
        if obj in _ACTIVE:
            _ACTIVE.remove(obj)


def reset_live() -> None:
    """Disown every live writer/sampler without a final write.

    Called from :func:`repro.parallel.worker.reset_worker_state`: a forked
    worker inherits the parent's module state (including any
    :class:`BeaconWriter` object) but not its threads, and must never write
    the parent's beacon path -- so inherited writers are discarded, not
    stopped.
    """
    with _ACTIVE_LOCK:
        stale = list(_ACTIVE)
        _ACTIVE.clear()
    for obj in stale:
        discard = getattr(obj, "discard", None)
        if callable(discard):
            discard()


# ---------------------------------------------------------------------------
# Beacons
# ---------------------------------------------------------------------------
class BeaconWriter:
    """Keeps one worker's status beacon fresh from a background thread.

    The beacon is rewritten atomically (temp file + ``os.replace``) every
    ``interval`` seconds and immediately on every :meth:`update`, so a
    reader never observes a torn file and a dead worker is recognizable by
    its stale ``updated_unix``.  Progress (``tasks_done`` changing) bumps
    ``last_progress_unix``; a rolling window of (time, tasks_done) samples
    yields ``rate_tasks_per_s``.  Write failures are swallowed: beacons
    are advisory and must never fail a sweep.
    """

    def __init__(
        self,
        path: PathLike,
        worker: str,
        interval: float = DEFAULT_BEACON_INTERVAL,
        counters_fn: Optional[Callable[[], Dict[str, float]]] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = Path(path)
        self.worker = str(worker)
        self.interval = max(float(interval), 0.05)
        self._clock = clock
        self._counters_fn = counters_fn if counters_fn is not None else _filtered_counters
        self._lock = threading.Lock()
        now = clock()
        self._started = now
        self._last_progress = now
        self._fields: Dict[str, object] = {
            "phase": "starting",
            "current_task": None,
            "tasks_done": 0,
            "tasks_failed": 0,
            "claims": 0,
            "steals": 0,
            "lease_expired": 0,
            "superseded": 0,
        }
        self._history: collections.deque = collections.deque(maxlen=16)
        self._last_counters: Dict[str, float] = {}
        self._stop = threading.Event()
        self._discarded = False
        self._thread = threading.Thread(
            target=self._run, name=f"beacon-{self.worker}", daemon=True
        )

    def start(self) -> "BeaconWriter":
        register_live(self)
        self._write()
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._write()

    def update(self, **fields: object) -> None:
        """Merge ``fields`` into the beacon and write it immediately."""
        with self._lock:
            if self._discarded:
                return
            before = self._fields.get("tasks_done")
            self._fields.update(fields)
            if self._fields.get("tasks_done") != before:
                self._last_progress = self._clock()
        self._write()

    def stop(self, phase: str = "done") -> None:
        """Stop the refresh thread and write one final beacon."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=2.0)
        with self._lock:
            if not self._discarded:
                self._fields["phase"] = phase
        self._write()
        unregister_live(self)

    def discard(self) -> None:
        """Abandon the beacon without writing (see :func:`reset_live`)."""
        with self._lock:
            self._discarded = True
        self._stop.set()

    def payload(self) -> Dict[str, object]:
        """The beacon document (also records a rate-window sample)."""
        now = self._clock()
        with self._lock:
            fields = dict(self._fields)
            self._history.append((now, int(fields.get("tasks_done") or 0)))
            rate = 0.0
            if len(self._history) >= 2:
                (t0, done0), (t1, done1) = self._history[0], self._history[-1]
                if t1 > t0:
                    rate = (done1 - done0) / (t1 - t0)
            current = dict(self._counters_fn() or {})
            deltas = {
                name: round(value - self._last_counters.get(name, 0.0), 6)
                for name, value in current.items()
            }
            self._last_counters = current
            started = self._started
            last_progress = self._last_progress
        return {
            "schema": BEACON_SCHEMA,
            "worker": self.worker,
            "pid": os.getpid(),
            "hostname": socket.gethostname(),
            "interval_seconds": self.interval,
            "started_unix": started,
            "updated_unix": now,
            "last_progress_unix": last_progress,
            "rate_tasks_per_s": round(max(rate, 0.0), 6),
            "counters": current,
            "counter_deltas": deltas,
            **fields,
        }

    def _write(self) -> None:
        with self._lock:
            if self._discarded:
                return
        payload = self.payload()
        tmp = self.path.with_name(self.path.name + f".{os.getpid()}.tmp")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
            os.replace(str(tmp), str(self.path))
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass


def read_beacons(directory: PathLike) -> List[Dict[str, object]]:
    """Parse every ``*.beacon.json`` in ``directory``, sorted by worker.

    Corrupt or foreign-schema files are skipped -- a reader races the
    writers by construction, and a beacon is advisory anyway.
    """
    root = Path(directory)
    beacons: List[Dict[str, object]] = []
    if not root.is_dir():
        return beacons
    for path in sorted(root.glob(f"*{BEACON_SUFFIX}")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if payload.get("schema") != BEACON_SCHEMA:
            continue
        beacons.append(payload)
    beacons.sort(key=lambda b: str(b.get("worker", "")))
    return beacons


# ---------------------------------------------------------------------------
# Health detection
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class HealthThresholds:
    """Tunables for :func:`detect_health` (CLI: ``repro watch --stall-after``)."""

    stall_after_seconds: float = 30.0
    clock_skew_seconds: float = 5.0
    failure_rate: float = 0.25
    min_failures: int = 2
    lease_churn: int = 3


def health_issue(
    cause: str, message: str, worker: Optional[str] = None, **details: object
) -> Dict[str, object]:
    """One structured health observation; ``cause`` must be registered."""
    if cause not in HEALTH_CAUSES:
        raise TelemetryError(
            f"health cause {cause!r} is not registered in repro.errors.HEALTH_CAUSES"
        )
    issue: Dict[str, object] = {"cause": cause, "message": message}
    if worker is not None:
        issue["worker"] = worker
    issue.update(details)
    return issue


def detect_health(
    total_tasks: int,
    done: int,
    failed: int,
    beacons: List[Dict[str, object]],
    expired_leases: int = 0,
    now: Optional[float] = None,
    thresholds: Optional[HealthThresholds] = None,
) -> List[Dict[str, object]]:
    """Structured health causes for one point-in-time fleet snapshot.

    Pure function of its inputs (no filesystem access), so every cause is
    unit-testable with synthetic beacons.  Cause slugs come from
    :data:`repro.errors.HEALTH_CAUSES`.
    """
    t = thresholds or HealthThresholds()
    clock = time.time() if now is None else now
    drained = done >= total_tasks
    issues: List[Dict[str, object]] = []

    churn = 0
    for beacon in beacons:
        worker = str(beacon.get("worker", "?"))
        updated = float(beacon.get("updated_unix") or clock)
        age = clock - updated
        churn += int(beacon.get("lease_expired") or 0)
        if age < -t.clock_skew_seconds:
            issues.append(
                health_issue(
                    "clock-skew",
                    f"beacon of worker {worker} is {-age:.1f}s in the future; "
                    "host clocks are not synchronized",
                    worker=worker,
                    skew_seconds=round(-age, 3),
                )
            )
            continue
        if drained or beacon.get("phase") == "done":
            continue
        if age > t.stall_after_seconds:
            issues.append(
                health_issue(
                    "stalled-worker",
                    f"worker {worker} has not updated its beacon for {age:.1f}s "
                    "while the queue still holds open tasks",
                    worker=worker,
                    heartbeat_age_seconds=round(age, 3),
                )
            )
            continue
        last_progress = float(beacon.get("last_progress_unix") or updated)
        idle = clock - last_progress
        if beacon.get("phase") == "running" and idle > t.stall_after_seconds:
            issues.append(
                health_issue(
                    "no-progress",
                    f"worker {worker} is alive but has not committed a task "
                    f"for {idle:.1f}s (wedged mid-task, or starved)",
                    worker=worker,
                    idle_seconds=round(idle, 3),
                    current_task=beacon.get("current_task"),
                )
            )

    if not drained and churn + expired_leases >= t.lease_churn:
        issues.append(
            health_issue(
                "expired-lease-churn",
                f"{churn + expired_leases} lease expiries observed; the lease "
                "TTL is likely shorter than the task duration",
                expired_total=churn + expired_leases,
            )
        )
    if done > 0 and failed >= t.min_failures and failed / done > t.failure_rate:
        issues.append(
            health_issue(
                "failure-rate",
                f"{failed} of {done} committed task(s) failed terminally "
                f"({failed / done:.0%})",
                failed=failed,
                done=done,
            )
        )
    issues.sort(key=lambda issue: (str(issue["cause"]), str(issue.get("worker", ""))))
    return issues


# ---------------------------------------------------------------------------
# Fleet status (the `repro watch` snapshot)
# ---------------------------------------------------------------------------
def fleet_status(
    queue_dir: PathLike,
    now: Optional[float] = None,
    thresholds: Optional[HealthThresholds] = None,
) -> Dict[str, object]:
    """Aggregate queue state + beacons into one fleet snapshot document.

    Throughput sums the rolling rates of workers that are alive and not
    finished; the ETA is ``open / throughput`` (``None`` while nothing is
    moving).  All of it is advisory -- the snapshot races the fleet it
    observes.
    """
    from repro.parallel.scheduler import queue_status  # lazy: avoids a cycle

    t = thresholds or HealthThresholds()
    clock = time.time() if now is None else now
    status = queue_status(queue_dir, now=clock, thresholds=t)

    workers: List[Dict[str, object]] = []
    throughput = 0.0
    for beacon in status.beacons:
        age = max(0.0, clock - float(beacon.get("updated_unix") or clock))
        entry = dict(beacon)
        entry["heartbeat_age_seconds"] = round(age, 3)
        workers.append(entry)
        if beacon.get("phase") != "done" and age <= t.stall_after_seconds:
            throughput += float(beacon.get("rate_tasks_per_s") or 0.0)
    throughput = round(throughput, 6)

    drained = status.complete
    if drained:
        eta: Optional[float] = 0.0
    elif throughput > 0:
        eta = round(status.open_tasks / throughput, 3)
    else:
        eta = None

    churn = {
        "expired_leases": status.expired,
        "lease_expiries_seen": sum(int(b.get("lease_expired") or 0) for b in status.beacons),
        "steals": sum(int(b.get("steals") or 0) for b in status.beacons),
        "superseded": sum(int(b.get("superseded") or 0) for b in status.beacons),
    }
    percent = 100.0 * status.done / status.total_tasks if status.total_tasks else 0.0
    return {
        "schema": LIVE_SCHEMA,
        "queue": str(queue_dir),
        "grid_sha": status.grid_sha,
        "total_tasks": status.total_tasks,
        "done": status.done,
        "failed": status.failed,
        "open": status.open_tasks,
        "leased": status.leased,
        "expired_leases": status.expired,
        "drained": drained,
        "drain_percent": round(percent, 2),
        "throughput_tasks_per_s": throughput,
        "eta_seconds": eta,
        "lease_churn": churn,
        "leases": status.leases,
        "workers": workers,
        "health": status.health,
    }


def format_fleet(fleet: Dict[str, object]) -> str:
    """Human dashboard text for one :func:`fleet_status` snapshot."""
    eta = fleet.get("eta_seconds")
    eta_text = "-" if eta is None else f"{eta:.1f}s"
    lines = [
        f"queue {fleet['queue']} (grid {str(fleet['grid_sha'])[:12]}): "
        f"{fleet['done']}/{fleet['total_tasks']} done "
        f"({fleet['drain_percent']:.1f}%), {fleet['leased']} leased, "
        f"{fleet['failed']} failed",
        f"throughput {fleet['throughput_tasks_per_s']:.3f} task/s, ETA {eta_text}, "
        f"drained: {'yes' if fleet['drained'] else 'no'}",
    ]
    churn = fleet.get("lease_churn") or {}
    lines.append(
        "lease churn: "
        f"{churn.get('expired_leases', 0)} expired now, "
        f"{churn.get('lease_expiries_seen', 0)} expiries seen, "
        f"{churn.get('steals', 0)} steal(s), "
        f"{churn.get('superseded', 0)} superseded"
    )
    workers = fleet.get("workers") or []
    if workers:
        header = (
            f"{'worker':<20} {'phase':<9} {'done':>5} {'fail':>5} {'claim':>6} "
            f"{'steal':>6} {'rate/s':>8} {'hb age':>8}  current task"
        )
        lines += ["", header, "-" * len(header)]
        for w in workers:
            lines.append(
                f"{str(w.get('worker', '?')):<20} {str(w.get('phase', '?')):<9} "
                f"{w.get('tasks_done', 0):>5} {w.get('tasks_failed', 0):>5} "
                f"{w.get('claims', 0):>6} {w.get('steals', 0):>6} "
                f"{float(w.get('rate_tasks_per_s') or 0.0):>8.3f} "
                f"{float(w.get('heartbeat_age_seconds') or 0.0):>7.1f}s  "
                f"{w.get('current_task') or '-'}"
            )
    else:
        lines.append("(no worker beacons yet)")
    health = fleet.get("health") or []
    if health:
        lines.append("")
        for issue in health:
            lines.append(f"health [{issue['cause']}]: {issue['message']}")
    else:
        lines.append("health: ok")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Stitched fleet trace
# ---------------------------------------------------------------------------
def fleet_trace_from_queue(queue_dir: PathLike) -> Dict[str, object]:
    """One Chrome-trace/Perfetto document with a lane per queue worker.

    Rebuilds each worker's span forest and event stream from its journal
    (journals ship telemetry precisely so post-hoc tools never need the
    host that ran the task) and stitches the per-worker traces into one
    trace with one process lane per worker.
    """
    from repro.parallel.journal import SweepJournal
    from repro.parallel.scheduler import load_queue
    from repro.telemetry.events import EventRecorder
    from repro.telemetry.spans import SpanRecord, SpanTracer
    from repro.telemetry.trace import build_trace, stitch_traces

    manifest = load_queue(queue_dir)
    named: List[Tuple[str, Dict[str, object]]] = []
    for journal_path in manifest.journal_paths():
        state = SweepJournal.load(journal_path)
        header = state.header or {}
        worker = str(header.get("worker") or journal_path.name.split(".")[0])
        tracer = SpanTracer()
        recorder = EventRecorder()
        order = header.get("grid_task_ids") or sorted(state.records)
        for task_id in order:
            record = state.records.get(task_id)
            if not record:
                continue
            for span_payload in record.get("spans") or ():
                tracer.attach(SpanRecord.from_dict(span_payload))
            if record.get("events"):
                recorder.attach(record["events"])
        named.append(
            (worker, build_trace(tracer, recorder=recorder, meta={"worker": worker}))
        )
    return stitch_traces(
        named, meta={"queue": str(queue_dir), "grid_sha": manifest.grid_sha}
    )


def write_fleet_trace(path: PathLike, queue_dir: PathLike) -> int:
    """Write the stitched fleet trace; returns the number of trace events."""
    trace = fleet_trace_from_queue(queue_dir)
    Path(path).write_text(json.dumps(trace, sort_keys=True) + "\n", encoding="utf-8")
    return len(trace["traceEvents"])
