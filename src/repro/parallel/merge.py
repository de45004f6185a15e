"""Reassemble per-host sweep journals into one sweep: ``repro merge``.

A distributed sweep leaves one journal per host, and every journal has the
same header (:mod:`repro.parallel.journal`): the *full* grid's SHA and
canonical task ids, plus the journal's owner ``worker``.  A journal owns
the tasks it committed -- a ``--shard i/n`` journal (owner
``shard-<i>-of-<n>``) owns its fixed contiguous slice, a queue worker's
(:mod:`repro.parallel.scheduler`) whatever it claimed.  So any mix of
shard, queue and unsharded journals of one grid merges through one
validation:

- every journal pins the same grid (SHA *and* task-id list);
- one journal per owner;
- no result outside the grid;
- ``superseded`` tombstones are dropped; duplicate results are kept only
  when their rows are identical (steal races and overlapping journals
  produce them), with a deterministic winner, and rejected otherwise;
- every grid task holds a result.

The merge then rebuilds the grid-ordered rows, the merged telemetry
snapshot and the merged flight-recorder event stream.  The determinism
contract is the headline guarantee: scheduling may change *who* computes a
row, never its value -- for any shard count, worker count, steal or crash,
the merge is byte-identical to the equivalent unsharded
:func:`repro.parallel.runner.run_sweep`.

Every malformed-journal scenario (truncated journal, schema-1 header,
duplicated owner, mismatched grid SHA, ...) fails with a structured
:class:`repro.errors.MergeError` naming the offending journals/tasks (all
causes: :data:`repro.errors.MERGE_ERROR_CAUSES`).  ``allow_incomplete=True``
degrades only ``missing-result`` into a grid-ordered partial merge with the
gaps reported; trust failures (SHA mismatch, duplicates, conflicts) are
never degradable.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from repro.errors import MergeError
from repro.log import get_logger
from repro.parallel.journal import HEADER_FIELDS, SweepJournal, header_problem
from repro.telemetry.events import EventRecorder, write_events_jsonl
from repro.telemetry.registry import MetricsRegistry

PathLike = Union[str, Path]

log = get_logger(__name__)


def _preview(items: Sequence[str], limit: int = 5) -> str:
    shown = ", ".join(str(item) for item in list(items)[:limit])
    extra = len(items) - limit
    return shown + (f", ... (+{extra} more)" if extra > 0 else "")


@dataclasses.dataclass
class JournalView:
    """Parsed view of one per-host journal (header + final per-task records).

    ``records`` holds each task's *final* journal line -- journal
    supersession already applied, so a queue worker's retracted results
    appear here as their ``superseded`` tombstones.
    """

    path: str
    header: Dict[str, object]
    records: Dict[str, Dict[str, object]]

    @property
    def grid_sha(self) -> str:
        return str(self.header["grid_sha"])

    @property
    def worker(self) -> str:
        """The journal's owner: a queue worker id or ``shard-<i>-of-<n>``."""
        return str(self.header["worker"])

    @property
    def total_tasks(self) -> int:
        return int(self.header["total_tasks"])  # type: ignore[arg-type]

    @property
    def grid_task_ids(self) -> List[str]:
        """The full grid's task ids in canonical order."""
        return [str(tid) for tid in self.header["grid_task_ids"]]  # type: ignore[union-attr]

    @property
    def committed(self) -> Dict[str, Dict[str, object]]:
        """Final records minus ``superseded`` tombstones (lost commit races)."""
        return {
            tid: record
            for tid, record in self.records.items()
            if record.get("status") != "superseded"
        }


@dataclasses.dataclass
class MergeResult:
    """A validated, grid-ordered reassembly of per-host journals.

    ``task_ids`` is the full grid in canonical order; ``records`` holds the
    winning final record of every task some journal committed.
    ``missing_task_ids`` reports the gaps an ``allow_incomplete`` merge
    tolerated.
    """

    grid_sha: str
    total_tasks: int
    journals: List[JournalView]
    task_ids: List[str]
    records: Dict[str, Dict[str, object]]
    missing_task_ids: List[str]

    @property
    def rows(self) -> List[Dict[str, object]]:
        """Successful result rows in grid order (same shape as a sweep's)."""
        return [
            self.records[tid]["row"]  # type: ignore[misc]
            for tid in self.task_ids
            if tid in self.records and self.records[tid].get("status") == "ok"
        ]

    @property
    def failures(self) -> List[Tuple[str, Dict[str, object]]]:
        """(task_id, record) for every task whose final record is a failure."""
        return [
            (tid, self.records[tid])
            for tid in self.task_ids
            if tid in self.records and self.records[tid].get("status") != "ok"
        ]

    @property
    def missing_count(self) -> int:
        """Tasks of the full grid with no result."""
        return len(self.missing_task_ids)

    @property
    def workers(self) -> List[str]:
        """Sorted owners of the journals the merge drew results from."""
        return [view.worker for view in self.journals]

    @property
    def seeds(self) -> List[int]:
        """Sorted distinct seeds of the merged tasks (from their task IDs)."""
        return sorted({int(tid.rsplit("seed=", 1)[1]) for tid in self.records})


def merge_journals(
    paths: Sequence[PathLike], allow_incomplete: bool = False
) -> MergeResult:
    """Validate and reassemble per-host journals; see the module docstring.

    Duplicate results are kept only when their rows are identical; the
    winner is chosen deterministically (``ok`` over ``failed``, then the
    lowest owner id), so the merge is independent of argument order.
    """
    if not paths:
        raise MergeError("no-journals", "no journals to merge")

    views: List[JournalView] = []
    for path in paths:
        if not Path(path).exists():
            raise MergeError(
                "unreadable-journal", f"{path}: no such journal", path=str(path)
            )
        state = SweepJournal.load(path)
        header = state.header or {}
        problem = (
            "has no intact header line" if state.header is None
            else header_problem(header)
        )
        if problem is not None:
            raise MergeError(
                "missing-header",
                f"{path}: journal {problem}",
                path=str(path),
                schema=header.get("schema"),
                fields=[name for name in HEADER_FIELDS if name not in header],
            )
        views.append(JournalView(path=str(path), header=header, records=state.records))

    shas = {view.grid_sha for view in views}
    if len(shas) > 1:
        raise MergeError(
            "sha-mismatch",
            "journals were written for different grids: "
            + ", ".join(f"{view.path} sha={view.grid_sha}" for view in views),
            shas={view.path: view.grid_sha for view in views},
        )

    grid_ids = views[0].grid_task_ids
    for view in views:
        if view.grid_task_ids != grid_ids or view.total_tasks != len(grid_ids):
            raise MergeError(
                "grid-tasks-mismatch",
                f"{view.path}: header task-id list disagrees with "
                f"{views[0].path} despite matching grid SHA (edited/corrupt "
                "header?)",
                path=view.path,
            )

    by_worker: Dict[str, JournalView] = {}
    for view in views:
        if view.worker in by_worker:
            raise MergeError(
                "duplicate-worker",
                f"owner {view.worker!r} appears in both "
                f"{by_worker[view.worker].path} and {view.path} "
                "(journal passed twice, or two hosts share a worker id?)",
                worker=view.worker,
            )
        by_worker[view.worker] = view

    grid_id_set = set(grid_ids)
    for view in views:
        foreign = sorted(set(view.records) - grid_id_set)
        if foreign:
            raise MergeError(
                "foreign-result",
                f"{view.path} records task(s) outside the grid: "
                f"{_preview(foreign)}",
                path=view.path,
                task_ids=foreign,
            )

    ordered = [by_worker[worker] for worker in sorted(by_worker)]
    records: Dict[str, Dict[str, object]] = {}
    missing_task_ids: List[str] = []
    conflicting: List[str] = []
    for tid in grid_ids:
        candidates = [view.committed[tid] for view in ordered if tid in view.committed]
        if not candidates:
            missing_task_ids.append(tid)
            continue
        pool = [rec for rec in candidates if rec.get("status") == "ok"] or candidates
        if len({json.dumps(rec.get("row"), sort_keys=True) for rec in pool}) > 1:
            conflicting.append(tid)
            continue
        # Deterministic winner: candidates are already in sorted-owner
        # order, so the first is the lowest owner id with the best status.
        records[tid] = pool[0]
    if conflicting:
        raise MergeError(
            "conflicting-result",
            f"{len(conflicting)} task(s) have conflicting results across "
            f"journals: {_preview(conflicting)}",
            task_ids=conflicting,
        )
    if missing_task_ids:
        if not allow_incomplete:
            raise MergeError(
                "missing-result",
                f"{len(missing_task_ids)} grid task(s) have no committed result "
                "(a journal not passed, a queue not drained, or a host killed "
                f"mid-sweep?): {_preview(missing_task_ids)}; pass "
                "--allow-incomplete for a partial merge",
                task_ids=missing_task_ids,
            )
        log.warning(
            "partial merge: %d of %d grid task(s) missing",
            len(missing_task_ids), len(grid_ids),
        )
    return MergeResult(
        grid_sha=views[0].grid_sha,
        total_tasks=len(grid_ids),
        journals=ordered,
        task_ids=list(grid_ids),
        records=records,
        missing_task_ids=missing_task_ids,
    )


# ---------------------------------------------------------------------------
# Merged artifacts
# ---------------------------------------------------------------------------
def write_merged_rows(result: MergeResult, path: PathLike) -> Path:
    """Write grid-ordered rows, byte-identical to ``repro sweep --out``."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result.rows, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def merged_events(result: MergeResult) -> EventRecorder:
    """Renumber every task's journaled event stream in grid order.

    Mirrors the parent-side :meth:`EventRecorder.attach` merge an unsharded
    sweep performs, so the reassembled stream is identical to one recorded
    in-process.  Raises ``MergeError("missing-events")`` when a successful
    result carries no event stream (the shard ran without ``--events``).
    """
    recorder = EventRecorder()
    for tid in result.task_ids:
        record = result.records.get(tid)
        if record is None or record.get("status") != "ok":
            continue
        events = record.get("events")
        if events is None:
            raise MergeError(
                "missing-events",
                f"result for {tid!r} carries no event stream "
                "(was the shard run with --events?)",
                task_id=tid,
            )
        recorder.attach(events)  # type: ignore[arg-type]
    return recorder


def write_merged_events(result: MergeResult, path: PathLike) -> int:
    """Write the merged flight record; returns the number of lines.

    The schema line's meta mirrors what the equivalent unsharded
    ``repro sweep --events`` writes, keeping the merged record
    byte-identical to it.
    """
    return write_events_jsonl(
        merged_events(result), path,
        meta={"command": "sweep", "grid_sha": result.grid_sha},
    )


def merged_metrics(result: MergeResult) -> Dict[str, object]:
    """Replay the parent-side grid-order telemetry merge from the journals.

    Returns ``{"counters", "gauges", "histogram_values"}`` exactly as the
    unsharded parent registry would hold them, *except* the wall-clock
    ``sweep.task_seconds`` histogram, which is inherently nondeterministic
    and therefore excluded from the determinism contract.
    """
    registry = MetricsRegistry()
    for tid in result.task_ids:
        record = result.records.get(tid)
        if record is None:
            continue
        registry.counter(f"sweep.tasks_{record.get('status')}").add(1)
        attempts = int(record.get("attempts", 1))
        if attempts > 1:
            registry.counter("sweep.retries").add(attempts - 1)
        metrics = record.get("metrics")
        if metrics:
            registry.merge_snapshot(
                counters=metrics.get("counters"),
                gauges=metrics.get("gauges"),
                histogram_values=metrics.get("histogram_values"),
            )
    snapshot = registry.snapshot()
    return {
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "histogram_values": registry.histogram_values(),
    }


def write_merged_journal(result: MergeResult, path: PathLike) -> Path:
    """Write the reassembled journal: one header, grid-ordered records.

    The merged journal is itself a valid journal, owned by ``merged`` --
    ``repro report`` renders it and ``repro merge`` accepts it again, where
    an incomplete merge honestly re-reports its gaps.  ``merged_from``
    records how many per-host journals it was assembled from.
    """
    path = Path(path)
    if path.exists():
        path.unlink()
    with SweepJournal(path) as journal:
        journal.append_header(
            result.grid_sha, result.task_ids, "merged",
            merged_from=len(result.journals),
        )
        for tid in result.task_ids:
            record = result.records.get(tid)
            if record is not None:
                journal.append(record)
    return path


__all__ = [
    "JournalView",
    "MergeResult",
    "merge_journals",
    "merged_events",
    "merged_metrics",
    "write_merged_events",
    "write_merged_journal",
    "write_merged_rows",
]
