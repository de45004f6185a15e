"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything the library raises with a single ``except`` clause.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ShapeError(ReproError):
    """A tensor operation received operands with incompatible shapes."""


class GradientError(ReproError):
    """Backpropagation was requested in an invalid state."""


class QuantizationError(ReproError):
    """Quantization or bit-level manipulation failed."""


class MemoryModelError(ReproError):
    """The DRAM/OS memory simulation was driven into an invalid state."""


class RowhammerError(ReproError):
    """A Rowhammer profiling or hammering operation failed."""


class AttackError(ReproError):
    """An attack was configured or executed incorrectly."""


class DefenseError(ReproError):
    """A defense was configured or executed incorrectly."""


class SweepError(ReproError):
    """A parallel experiment sweep was misconfigured or failed permanently."""


class MergeError(SweepError):
    """Merging sweep journals failed (or would silently lose data).

    Carries a machine-readable ``cause`` slug plus a JSON-able ``details``
    dict naming the offending journals, task IDs or grid SHAs, so callers
    (and tests) can react to the specific failure instead of parsing the
    message.  Every cause is registered in :data:`MERGE_ERROR_CAUSES` and
    documented in the README troubleshooting table (``tools/check_docs.py``
    enforces both).  Causes:

    - ``"no-journals"``          -- nothing to merge;
    - ``"unreadable-journal"``   -- a named journal file does not exist;
    - ``"missing-header"``       -- a journal has no (intact) header line;
    - ``"mixed-schedule"``       -- shard-mode and queue-mode journals were
      passed to one merge (they describe different runs);
    - ``"missing-shard-metadata"`` -- a shard journal predates sharding
      (header lacks ``shard_index``/``shard_count``/``shard_task_ids``);
    - ``"missing-queue-metadata"`` -- a ``schedule=queue`` journal header
      lacks ``worker``/``grid_task_ids``;
    - ``"sha-mismatch"``         -- journals were written for different grids;
    - ``"grid-tasks-mismatch"``  -- queue journals agree on the grid SHA but
      disagree on the grid's task-id list (corrupted/edited header);
    - ``"shard-count-mismatch"`` -- journals disagree on the split's ``n``;
    - ``"duplicate-shard"``      -- the same shard index appears twice;
    - ``"duplicate-worker"``     -- two queue journals claim the same worker
      id (a journal merged twice, or two hosts misconfigured alike);
    - ``"duplicate-task"``       -- a task ID is claimed by several shards
      (identical result rows);
    - ``"conflicting-result"``   -- one task has *different* result rows
      across journals (a shard duplicate, or two queue workers that somehow
      both committed);
    - ``"foreign-result"``       -- a journal records a task outside its own
      shard slice (shard mode) or outside the grid (queue mode);
    - ``"missing-shard"``        -- a shard index of the split has no journal
      (degradable via ``allow_incomplete``);
    - ``"incomplete-coverage"``  -- shard slices do not add up to the full
      grid (degradable via ``allow_incomplete``);
    - ``"missing-result"``       -- a covered task holds no final result --
      killed mid-sweep, a torn trailing line, or (queue mode) a task no
      worker completed (degradable via ``allow_incomplete``);
    - ``"missing-events"``       -- a merged flight record was requested but
      a result carries no event stream.
    """

    def __init__(self, cause: str, message: str, **details: object) -> None:
        super().__init__(message)
        self.cause = cause
        self.details = details


#: Every live-health cause slug :func:`repro.telemetry.live.health_issue`
#: may emit, mirroring :data:`MERGE_ERROR_CAUSES`: machine-readable, in one
#: registry, and required (by ``tools/check_docs.py``) to be documented in
#: both README.md and DESIGN.md.  Health issues are advisory observations
#: over a *live* fleet (``repro watch`` / ``repro queue-status``), not
#: exceptions -- the determinism contract is unaffected either way.
#:
#: - ``"stalled-worker"``       -- a worker's beacon stopped updating while
#:   the queue still holds open tasks (process died or wedged);
#: - ``"expired-lease-churn"``  -- leases keep expiring and being re-stolen
#:   (lease TTL likely shorter than the task duration);
#: - ``"failure-rate"``         -- an abnormal share of committed tasks
#:   failed terminally;
#: - ``"no-progress"``          -- a worker heartbeats but has not committed
#:   a task for a long time (wedged mid-task, or starved);
#: - ``"clock-skew"``           -- a beacon is timestamped in this host's
#:   future (unsynchronized clocks make ages/ETAs untrustworthy).
HEALTH_CAUSES = frozenset(
    {
        "stalled-worker",
        "expired-lease-churn",
        "failure-rate",
        "no-progress",
        "clock-skew",
    }
)


#: Every ``MergeError.cause`` slug the library raises, in one place, so the
#: docs-freshness gate (``tools/check_docs.py``) and the operator runbook can
#: be checked against the code instead of rotting silently.
MERGE_ERROR_CAUSES = frozenset(
    {
        "no-journals",
        "unreadable-journal",
        "missing-header",
        "mixed-schedule",
        "missing-shard-metadata",
        "missing-queue-metadata",
        "sha-mismatch",
        "grid-tasks-mismatch",
        "shard-count-mismatch",
        "duplicate-shard",
        "duplicate-worker",
        "duplicate-task",
        "conflicting-result",
        "foreign-result",
        "missing-shard",
        "incomplete-coverage",
        "missing-result",
        "missing-events",
    }
)
