"""Live fleet observability: status beacons, health detection, the dashboard.

Every other telemetry surface (metrics snapshots, flight records, traces,
reports) is post-hoc; this module is the sidecar that makes a *running*
multi-host sweep observable without touching the determinism contract:

- :class:`BeaconWriter` -- each worker keeps one small JSON "beacon" file
  fresh on a wall-clock interval (worker id, current task, tasks
  done/failed, claim/steal counts, rolling task rate, counter deltas) and
  appends every beacon it writes to a bounded ``timeline.jsonl`` ring, so
  the beacon is just the ring's newest entry (:func:`read_timeline`).
  Both are written next to the queue directory, **never** into journals:
  merged rows, metrics snapshots and flight records stay byte-identical
  whether beacons are on or off.
- :func:`detect_health` -- structured health causes over beacons + queue
  state, mirroring the ``MergeError`` pattern: every cause is a registered
  slug in :data:`repro.errors.HEALTH_CAUSES` and documented in README and
  DESIGN (``tools/check_docs.py`` enforces both).
- :func:`format_fleet` -- the text rendering of the ``repro-live/1``
  queue snapshot (:func:`repro.parallel.scheduler.queue_status`) that
  ``repro queue-status`` and ``repro watch`` print: drain %, fleet
  throughput, ETA, lease churn, leases, journals, workers and health.
- :func:`fleet_trace_from_queue` -- stitches every worker's journaled
  spans/events into one Chrome-trace/Perfetto file with one lane (pid)
  per worker.

Live artifacts are advisory and lossy by design (a beacon may be one
interval stale, a timeline ring drops old beacons); the journals remain
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
TIMELINE_SUFFIX = ".timeline.jsonl"

DEFAULT_BEACON_INTERVAL = 2.0
#: Beacons a timeline ring keeps before it is compacted to the newest ones.
TIMELINE_MAX_SAMPLES = 4096

#: Counter families a beacon snapshot carries (everything else is
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
# Beacons
# ---------------------------------------------------------------------------
class BeaconWriter:
    """Keeps one worker's status beacon and timeline ring fresh from one thread.

    The beacon is rewritten atomically (temp file + ``os.replace``) every
    ``interval`` seconds and immediately on every :meth:`update`, so a
    reader never observes a torn file and a dead worker is recognizable by
    its stale ``updated_unix``.  With ``timeline_path`` set, every beacon
    written is also appended to that JSONL ring, which is compacted in
    place to the newest :data:`TIMELINE_MAX_SAMPLES` entries once it grows
    past them.  Progress (``tasks_done`` changing) bumps
    ``last_progress_unix``; a rolling window of (time, tasks_done) samples
    yields ``rate_tasks_per_s``.  Write failures are swallowed: beacons are
    advisory and must never fail a sweep.
    """

    def __init__(
        self,
        path: PathLike,
        worker: str,
        interval: float = DEFAULT_BEACON_INTERVAL,
        counters_fn: Optional[Callable[[], Dict[str, float]]] = None,
        clock: Callable[[], float] = time.time,
        timeline_path: Optional[PathLike] = None,
    ) -> None:
        self.path = Path(path)
        self.worker = str(worker)
        self.interval = max(float(interval), 0.05)
        self.timeline_path = Path(timeline_path) if timeline_path is not None else None
        self._clock = clock
        self._counters_fn = counters_fn if counters_fn is not None else _filtered_counters
        self._lock = threading.Lock()
        # Serializes whole writes (the refresh thread races update()), so
        # the temp file and the ring see one writer at a time.
        self._write_lock = threading.Lock()
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
            "superseded": 0,
        }
        self._history: collections.deque = collections.deque(maxlen=16)
        self._last_counters: Dict[str, float] = {}
        self._ring: collections.deque = collections.deque(maxlen=TIMELINE_MAX_SAMPLES)
        self._ring_lines = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"beacon-{self.worker}", daemon=True
        )

    def start(self) -> "BeaconWriter":
        self.write()
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.write()

    def update(self, **fields: object) -> None:
        """Merge ``fields`` into the beacon and write it immediately."""
        with self._lock:
            before = self._fields.get("tasks_done")
            self._fields.update(fields)
            if self._fields.get("tasks_done") != before:
                self._last_progress = self._clock()
        self.write()

    def stop(self, phase: str = "done") -> None:
        """Stop the refresh thread and write one final beacon."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=2.0)
        with self._lock:
            self._fields["phase"] = phase
        self.write()

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

    def write(self) -> Dict[str, object]:
        """Replace the beacon and append it to the ring; returns the beacon."""
        with self._write_lock:
            payload = self.payload()
            line = json.dumps(payload, sort_keys=True) + "\n"
            try:
                _replace_text(self.path, line)
                if self.timeline_path is not None:
                    self._append_to_ring(payload, line)
            except OSError:
                pass
            return payload

    def _append_to_ring(self, payload: Dict[str, object], line: str) -> None:
        self._ring.append(payload)
        self._ring_lines += 1
        if self._ring_lines > self._ring.maxlen or not self.timeline_path.exists():
            # Compact: rewrite the file as just the ring's newest entries.
            _replace_text(
                self.timeline_path,
                "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in self._ring),
            )
            self._ring_lines = len(self._ring)
        else:
            with open(self.timeline_path, "a", encoding="utf-8") as handle:
                handle.write(line)


def _replace_text(path: Path, text: str) -> None:
    """Atomically replace ``path`` with ``text`` (temp file + ``os.replace``)."""
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text, encoding="utf-8")
        os.replace(str(tmp), str(path))
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def read_timeline(path: PathLike) -> List[Dict[str, object]]:
    """The beacons a timeline ring holds, oldest first (torn lines skipped)."""
    samples: List[Dict[str, object]] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        return samples
    for line in text.splitlines():
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if isinstance(entry, dict) and entry.get("schema") == BEACON_SCHEMA:
            samples.append(entry)
    return samples


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
        churn += int(beacon.get("steals") or 0)
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
# The dashboard text of one queue snapshot
# ---------------------------------------------------------------------------
def format_fleet(fleet: Dict[str, object]) -> str:
    """Human text for one ``repro-live/1`` queue snapshot.

    The snapshot is :func:`repro.parallel.scheduler.queue_status`'s
    document; ``repro queue-status`` and ``repro watch`` both print it
    through this renderer.
    """
    eta = fleet.get("eta_seconds")
    eta_text = "-" if eta is None else f"{eta:.1f}s"
    lines = [
        f"queue {fleet['queue']} (grid {str(fleet['grid_sha'])[:12]}): "
        f"{fleet['done']}/{fleet['total_tasks']} done "
        f"({fleet['drain_percent']:.1f}%), {fleet['open']} open, "
        f"{fleet['leased']} leased, {fleet['failed']} failed",
        f"throughput {fleet['throughput_tasks_per_s']:.3f} task/s, ETA {eta_text}, "
        f"drained: {'yes' if fleet['drained'] else 'no'}",
    ]
    churn = fleet.get("lease_churn") or {}
    lines.append(
        "lease churn: "
        f"{churn.get('expired_leases', 0)} expired now, "
        f"{churn.get('steals', 0)} steal(s), "
        f"{churn.get('superseded', 0)} superseded"
    )
    lines.append(f"journals: {', '.join(fleet.get('journals') or []) or '(none yet)'}")
    for lease in fleet.get("leases") or []:
        remaining = lease.get("expires_in_seconds")
        countdown = "?" if remaining is None else f"{remaining:.1f}s"
        state = "EXPIRED" if lease.get("expired") else f"expires in {countdown}"
        lines.append(f"lease {lease['task_id']} -> {lease.get('worker')} ({state})")
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
