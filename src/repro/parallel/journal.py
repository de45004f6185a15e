"""JSONL checkpoint journal for parallel sweeps.

One line per event, appended and flushed as tasks finish, so a sweep killed
at any point leaves a journal whose intact prefix is a valid checkpoint:

- ``{"kind": "header", ...}``   -- once: the *full* grid's identity
  (``grid_sha``, ``total_tasks`` and the canonical ``grid_task_ids``) and
  the journal's owner ``worker`` (:meth:`SweepJournal.append_header`);
- ``{"kind": "result", ...}``   -- one per finished task (``ok``,
  ``failed``, or ``superseded`` when a queue worker lost the commit race),
  carrying the row and -- when captured -- the task's metrics, span tree
  and flight-recorder events, so a journal is the *complete* output
  ``repro merge`` needs to reassemble the sweep;
- ``{"kind": "resume", ...}``   -- appended each time a sweep resumes.

Every journal has the same header, whoever wrote it.  A journal *owns the
tasks it committed*: a queue worker (:mod:`repro.parallel.scheduler`) owns
whatever it claimed, and a ``run_sweep`` shard is a worker named
``shard-<i>-of-<n>`` whose claims were one fixed contiguous slice (an
unsharded run is ``shard-0-of-1``).  A header of another schema (the
schema-1 headers of earlier versions) is rejected, not translated.

Loading tolerates a torn trailing line (the kill case) and skips malformed
interior lines rather than aborting, because losing one checkpoint entry
only costs re-running that task.  Later ``result`` lines for one task
supersede earlier ones, which is how a queue worker retracts a result that
lost the duplicate-completion race (``status="superseded"``).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, IO, List, Optional, Sequence, Union

from repro.errors import SweepError
from repro.log import get_logger

JOURNAL_SCHEMA = 2

#: Header fields every journal carries besides ``kind`` and ``schema``.
HEADER_FIELDS = ("grid_sha", "total_tasks", "grid_task_ids", "worker")

log = get_logger(__name__)


def build_result_record(
    task_id: str,
    status: str,
    attempts: int,
    duration_seconds: float,
    row: Optional[Dict[str, object]] = None,
    error: Optional[Dict[str, object]] = None,
    metrics: Optional[Dict[str, object]] = None,
    spans: Optional[List[Dict[str, object]]] = None,
    events: Optional[List[Dict[str, object]]] = None,
    **extra: object,
) -> Dict[str, object]:
    """One ``result`` journal line, whoever writes it.

    Successful records carry the row plus any captured telemetry (metrics,
    span tree, flight-recorder events), so ``repro merge`` can reassemble a
    sweep from journals alone.  Failed records carry the ``error`` instead.
    """
    record: Dict[str, object] = {
        "kind": "result",
        "task_id": task_id,
        "status": status,
        "attempts": attempts,
        "duration_seconds": duration_seconds,
        **extra,
    }
    if status == "ok":
        record["row"] = row
        if metrics is not None:
            record["metrics"] = metrics
        if spans is not None:
            record["spans"] = spans
        if events is not None:
            record["events"] = events
    elif status == "failed" or error is not None:
        record["error"] = error
    return record


def header_problem(header: Dict[str, object]) -> Optional[str]:
    """Why ``header`` is not a current journal header (``None`` if it is)."""
    absent = [name for name in HEADER_FIELDS if name not in header]
    if header.get("schema") == JOURNAL_SCHEMA and not absent:
        return None
    return (
        f"not a schema-{JOURNAL_SCHEMA} journal header "
        f"(schema {header.get('schema')!r}, lacks {absent})"
    )


def check_owner(
    header: Dict[str, object], path: object, grid_sha: str, worker: str
) -> None:
    """Refuse to append to a journal of another schema, grid or owner.

    Runs on every reopen -- resume or not -- so a mismatched journal fails
    here instead of surfacing later at merge time.
    """
    problem = header_problem(header)
    if problem is not None:
        raise SweepError(f"journal {str(path)!r} is {problem}; start a new journal")
    if header["grid_sha"] != grid_sha:
        raise SweepError(
            f"journal {str(path)!r} was written for a different grid "
            f"(journal sha {header['grid_sha']!r} != run sha {grid_sha!r})"
        )
    if header["worker"] != worker:
        raise SweepError(
            f"journal {str(path)!r} belongs to worker {header['worker']!r}, "
            f"not {worker!r}"
        )


@dataclasses.dataclass
class JournalState:
    """Parsed view of an on-disk journal."""

    header: Optional[Dict[str, object]] = None
    records: Dict[str, Dict[str, object]] = dataclasses.field(default_factory=dict)
    resumes: List[Dict[str, object]] = dataclasses.field(default_factory=list)
    malformed_lines: int = 0

    @property
    def completed(self) -> Dict[str, Dict[str, object]]:
        """task_id -> record for every task that finished successfully."""
        return {
            task_id: record
            for task_id, record in self.records.items()
            if record.get("status") == "ok"
        }


class SweepJournal:
    """Append-only JSONL writer with crash-tolerant loading."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle: Optional[IO[str]] = None

    # -- writing ---------------------------------------------------------
    def open(self) -> "SweepJournal":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # A sweep killed mid-write leaves a torn line without a trailing
        # newline; terminate it so the next append starts a fresh line
        # instead of corrupting itself by concatenation.
        if self.path.exists():
            with open(self.path, "rb") as handle:
                handle.seek(0, 2)
                if handle.tell() > 0:
                    handle.seek(-1, 2)
                    torn = handle.read(1) != b"\n"
            if torn:
                log.warning("journal %s ends in a torn line; terminating it", self.path)
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write("\n")
        self._handle = open(self.path, "a", encoding="utf-8")
        return self

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self.open()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def append(self, record: Dict[str, object]) -> None:
        """Write one event line and flush it (the checkpoint guarantee)."""
        if self._handle is None:
            raise SweepError("journal is not open for appending")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def append_header(
        self, grid_sha: str, grid_task_ids: Sequence[str], worker: str, **extra: object
    ) -> None:
        """Write the one header every journal carries: the full grid and
        the journal's owner (a queue worker id or ``shard-<i>-of-<n>``)."""
        self.append(
            {
                "kind": "header",
                "schema": JOURNAL_SCHEMA,
                "grid_sha": grid_sha,
                "total_tasks": len(grid_task_ids),
                "grid_task_ids": list(grid_task_ids),
                "worker": worker,
                **extra,
            }
        )

    # -- reading ---------------------------------------------------------
    @classmethod
    def load(cls, path: Union[str, Path]) -> JournalState:
        """Parse a journal, skipping torn/malformed lines.

        Later ``result`` lines for the same task supersede earlier ones
        (a failed attempt followed by a successful retry on resume).
        """
        state = JournalState()
        journal_path = Path(path)
        if not journal_path.exists():
            return state
        with open(journal_path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    state.malformed_lines += 1
                    continue
                kind = event.get("kind")
                if kind == "header":
                    if state.header is None:
                        state.header = event
                elif kind == "result" and "task_id" in event:
                    state.records[str(event["task_id"])] = event
                elif kind == "resume":
                    state.resumes.append(event)
                else:
                    state.malformed_lines += 1
        if state.malformed_lines:
            log.warning(
                "journal %s: skipped %d malformed/torn line(s)",
                journal_path,
                state.malformed_lines,
            )
        return state
