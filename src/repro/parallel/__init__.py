"""Parallel experiment fan-out: grids, journals, runner, queue and merge.

Reproducing a paper table is a grid of independent pipeline runs; this
package fans such grids out with deterministic output (worker count and
scheduling never change numbers), JSONL checkpoint/resume and structured
failure handling.  Two ways to run a grid, one journal model:

- **Sweep runner**: :func:`run_sweep` runs the grid -- or one contiguous
  ``ShardSpec`` slice of it, for hosts with no shared filesystem -- inline
  or over local queue workers that drain a private queue.
- **Work-stealing queue**: :func:`init_queue`/:func:`run_queue` expose the
  grid as a filesystem-backed queue that heterogeneous hosts claim from
  dynamically (:mod:`repro.parallel.scheduler`).

Both write the same journal: a header pinning the full grid and the
journal's owner (a queue worker, or ``shard-<i>-of-<n>``), then the results
that owner committed.  :func:`merge_journals` reassembles any set of such
journals into the byte-identical unsharded result.  See ``README.md``
("Running a multi-host sweep") and the DESIGN.md "Distributed sweeps"
chapter.
"""

from repro.parallel.grid import (
    ShardSpec,
    SweepGrid,
    SweepTask,
    ensure_unique,
    grid_sha_of,
    task_ids_of,
)
from repro.parallel.journal import JOURNAL_SCHEMA, JournalState, SweepJournal
from repro.parallel.merge import (
    JournalView,
    MergeResult,
    merge_journals,
    merged_events,
    merged_metrics,
    write_merged_events,
    write_merged_journal,
    write_merged_rows,
)
from repro.parallel.runner import SweepResult, TaskOutcome, run_sweep
from repro.parallel.scheduler import (
    QueueManifest,
    QueueRunResult,
    init_queue,
    load_queue,
    queue_status,
    run_queue,
)
from repro.parallel.worker import execute_task

__all__ = [
    "JOURNAL_SCHEMA",
    "JournalState",
    "JournalView",
    "MergeResult",
    "QueueManifest",
    "QueueRunResult",
    "ShardSpec",
    "SweepGrid",
    "SweepJournal",
    "SweepResult",
    "SweepTask",
    "TaskOutcome",
    "ensure_unique",
    "execute_task",
    "grid_sha_of",
    "init_queue",
    "load_queue",
    "merge_journals",
    "merged_events",
    "merged_metrics",
    "queue_status",
    "run_queue",
    "run_sweep",
    "task_ids_of",
    "write_merged_events",
    "write_merged_journal",
    "write_merged_rows",
]
