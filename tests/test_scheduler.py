"""The work-stealing queue scheduler and its determinism contract.

Mirrors ``test_merge.py``'s layering, cheapest first:

1. **Protocol units**: queue init/attach validation, grid-order claiming,
   lease expiry and the rename-serialized steal, commit-marker dedup.
2. **Fake-runner byte identity**: interleaved workers, a killed worker, a
   wedged-then-stolen worker -- every fault mode merges to the rows,
   metrics and flight record of the unsharded run.
3. **Merge fault injection on queue journals**: the :class:`MergeError`
   causes dynamic ownership can trigger, and which degrade under
   ``allow_incomplete``.
4. **CLI end-to-end** (tier-1 acceptance): the real micro-scale pipeline
   through ``repro sweep --queue`` + ``repro queue-status`` +
   ``repro merge``, byte-identical to the unsharded run.
"""

from __future__ import annotations

import json
import shutil
import threading
import time

import pytest

from repro import telemetry
from repro.errors import MergeError, SweepError
from repro.parallel import (
    SweepGrid,
    SweepJournal,
    SweepTask,
    init_queue,
    load_queue,
    merge_journals,
    merged_metrics,
    queue_status,
    run_queue,
    run_sweep,
    write_merged_events,
)
from repro.parallel import scheduler
from repro.parallel.journal import build_result_record
from repro.parallel.scheduler import claim_next, try_commit


# ---------------------------------------------------------------------------
# Shared fakes (same shapes as test_merge.py, so the contracts line up).
def _rich_runner(payload):
    task = SweepTask.from_json(payload["task"])
    value = float(task.seed * 10 + len(task.method))
    return {
        "status": "ok",
        "row": {
            "model": task.model, "device": task.device, "seed": task.seed,
            "method": task.method, "offline_n_flip": value, "offline_ta": 90.0,
            "offline_asr": 80.0, "online_n_flip": value, "online_ta": 88.0,
            "online_asr": 79.0, "r_match": 100.0,
        },
        "duration_seconds": 0.01,
        "metrics": {
            "counters": {"worker.flips": value},
            "gauges": {"worker.last_seed": float(task.seed)},
            "histogram_values": {"worker.loss": [value / 100.0]},
        },
        "spans": [],
        "events": [
            {"seq": 0, "kind": "task.done", "span": "attack",
             "data": {"task_id": task.task_id}},
        ],
    }


def _grid(methods=("a", "b", "c"), seeds=(0, 1)):
    return SweepGrid(methods=methods, models=("m",), devices=("K1",), seeds=seeds)


def _reference(tmp_path, grid):
    """Unsharded run + its journal-backed MergeResult (the byte oracle)."""
    path = tmp_path / "reference.jsonl"
    run_sweep(grid, workers=1, task_runner=_rich_runner, journal_path=str(path))
    return merge_journals([path])


def _assert_identical(tmp_path, result, reference):
    assert json.dumps(result.rows, sort_keys=True) == json.dumps(
        reference.rows, sort_keys=True
    )
    assert merged_metrics(result) == merged_metrics(reference)
    got, want = tmp_path / "got.events.jsonl", tmp_path / "want.events.jsonl"
    write_merged_events(result, got)
    write_merged_events(reference, want)
    assert got.read_bytes() == want.read_bytes()


class _NoHeartbeat:
    """Stand-in for a wedged worker whose heartbeat thread died."""

    def __init__(self, lease):
        pass

    def start(self):
        return self

    def stop(self):
        pass


# ---------------------------------------------------------------------------
# Queue init / attach / manifest validation.
def test_init_queue_creates_and_reattaches(tmp_path):
    grid = _grid()
    manifest = init_queue(tmp_path / "q", grid, lease_ttl=5.0)
    assert manifest.total_tasks == len(grid.expand())
    assert manifest.grid_sha == grid.grid_sha()
    again = init_queue(tmp_path / "q", grid)  # attach, not clobber
    assert again.grid_sha == manifest.grid_sha
    assert load_queue(tmp_path / "q").lease_ttl == 5.0


def test_init_queue_rejects_different_grid(tmp_path):
    init_queue(tmp_path / "q", _grid())
    with pytest.raises(SweepError, match="different grid"):
        init_queue(tmp_path / "q", _grid(seeds=(7,)))


def test_load_queue_rejects_non_queue_and_corrupt_manifest(tmp_path):
    with pytest.raises(SweepError, match="not a queue directory"):
        load_queue(tmp_path)
    manifest = init_queue(tmp_path / "q", _grid())
    payload = json.loads((manifest.root / "queue.json").read_text())
    payload["tasks"] = payload["tasks"][:-1]  # no longer hashes to grid_sha
    (manifest.root / "queue.json").write_text(json.dumps(payload))
    with pytest.raises(SweepError, match="inconsistent"):
        load_queue(tmp_path / "q")


def test_init_queue_rejects_nonpositive_ttl(tmp_path):
    with pytest.raises(SweepError, match="lease_ttl"):
        init_queue(tmp_path / "q", _grid(), lease_ttl=0)


# ---------------------------------------------------------------------------
# Claim / steal / commit protocol units.
def test_claims_follow_grid_order_and_exclude_leased_tasks(tmp_path):
    manifest = init_queue(tmp_path / "q", _grid(), lease_ttl=60.0)
    first, stole, _ = claim_next(manifest, "w1")
    assert (first.task_id, stole) == (manifest.task_ids[0], False)
    second, _, _ = claim_next(manifest, "w2")
    assert second.task_id == manifest.task_ids[1]  # w1's lease skipped
    first.release()
    third, _, _ = claim_next(manifest, "w2")
    assert third.task_id == manifest.task_ids[0]  # released -> claimable again


def test_expired_lease_is_stolen_exactly_once(tmp_path):
    manifest = init_queue(tmp_path / "q", _grid(), lease_ttl=0.05)
    lease, _, _ = claim_next(manifest, "dead")
    time.sleep(0.1)
    stolen, stole, _ = claim_next(manifest, "thief")
    assert stole and stolen.task_id == lease.task_id
    assert stolen.worker == "thief"
    # The original holder must not resurrect its lease file post-steal.
    assert lease.renew() is False


def test_commit_marker_first_writer_wins(tmp_path):
    manifest = init_queue(tmp_path / "q", _grid(), lease_ttl=60.0)
    mine, _, _ = claim_next(manifest, "w1")
    theirs = scheduler.Lease(
        path=mine.path, worker="w2", task_id=mine.task_id,
        task_index=mine.task_index, ttl=60.0, deadline=mine.deadline,
    )
    assert try_commit(manifest, mine, "ok") == (True, "w1")
    assert try_commit(manifest, theirs, "ok") == (False, "w1")


# ---------------------------------------------------------------------------
# Byte identity under every scheduling/fault mode.
def test_interleaved_workers_merge_byte_identical(tmp_path):
    grid = _grid()
    reference = _reference(tmp_path, grid)
    init_queue(tmp_path / "q", grid, lease_ttl=60.0)
    r1 = run_queue(tmp_path / "q", worker_id="w1", task_runner=_rich_runner,
                   max_tasks=2, wait_for_completion=False)
    r2 = run_queue(tmp_path / "q", worker_id="w2", task_runner=_rich_runner,
                   max_tasks=2, wait_for_completion=False)
    r3 = run_queue(tmp_path / "q", worker_id="w1", task_runner=_rich_runner)
    assert (r1.claims, r2.claims) == (2, 2)
    assert r1.claims + r2.claims + r3.claims == reference.total_tasks
    assert queue_status(tmp_path / "q")["drained"]
    # w1 reattached to its own journal; merge sees one journal per worker.
    result = merge_journals([r1.journal_path, r2.journal_path])
    assert result.workers == ["w1", "w2"]
    _assert_identical(tmp_path, result, reference)


def test_killed_worker_before_journaling_is_stolen(tmp_path):
    """Worker dies after claiming, before writing anything: lease expires,
    a survivor steals the task, and the merge shows no trace of the death."""
    grid = _grid()
    reference = _reference(tmp_path, grid)
    manifest = init_queue(tmp_path / "q", grid, lease_ttl=0.05)
    claim_next(manifest, "dead-worker")  # claims, then "crashes": no release
    time.sleep(0.1)
    survivor = run_queue(tmp_path / "q", worker_id="survivor",
                         task_runner=_rich_runner)
    assert survivor.steals == 1
    assert survivor.claims == reference.total_tasks
    result = merge_journals([survivor.journal_path])
    _assert_identical(tmp_path, result, reference)


def test_killed_worker_after_journaling_dedups_identically(tmp_path):
    """Worker dies between journal append and commit: the task is re-run by
    another worker, the duplicate rows are identical, and merge keeps the
    deterministic winner."""
    grid = _grid()
    reference = _reference(tmp_path, grid)
    manifest = init_queue(tmp_path / "q", grid, lease_ttl=0.05)
    lease, _, _ = claim_next(manifest, "aa-crashed")
    outcome = _rich_runner({"task": manifest.tasks[0].to_json()})
    with SweepJournal(manifest.journal_path("aa-crashed")) as journal:
        journal.append_header(manifest.grid_sha, manifest.task_ids, "aa-crashed")
        journal.append(build_result_record(
            lease.task_id, "ok", 1, 0.01, row=outcome["row"],
            metrics=outcome["metrics"], spans=outcome["spans"],
            events=outcome["events"], worker="aa-crashed",
        ))
    time.sleep(0.1)  # ... and dies here, without ever committing
    survivor = run_queue(tmp_path / "q", worker_id="zz-survivor",
                         task_runner=_rich_runner)
    assert survivor.claims == reference.total_tasks  # task 0 re-run
    result = merge_journals([
        manifest.journal_path("aa-crashed"), survivor.journal_path,
    ])
    assert result.workers == ["aa-crashed", "zz-survivor"]
    _assert_identical(tmp_path, result, reference)


def test_wedged_worker_is_stolen_and_supersedes_itself(tmp_path, monkeypatch):
    """The full race: a wedged worker's lease expires mid-task, a thief
    steals and commits, then the original finishes anyway -- its late
    result loses the commit race and is retracted with a structured
    tombstone, and the merge stays byte-identical."""
    monkeypatch.setattr(scheduler, "_Heartbeat", _NoHeartbeat)
    grid = _grid()
    reference = _reference(tmp_path, grid)
    init_queue(tmp_path / "q", grid, lease_ttl=0.4)

    def wedged_runner(payload):
        time.sleep(2.0)  # well past the TTL; no heartbeat to renew
        return _rich_runner(payload)

    results = {}

    def run_wedged():
        results["wedged"] = run_queue(
            tmp_path / "q", worker_id="wedged", task_runner=wedged_runner,
            max_tasks=1, wait_for_completion=False,
        )

    thread = threading.Thread(target=run_wedged)
    thread.start()
    time.sleep(1.0)  # lease (0.4 s) is now expired; wedged still asleep
    thief = run_queue(tmp_path / "q", worker_id="thief", task_runner=_rich_runner)
    thread.join()
    wedged = results["wedged"]

    assert thief.steals >= 1 and thief.claims == reference.total_tasks
    assert wedged.superseded == 1 and wedged.outcomes == []
    state = SweepJournal.load(wedged.journal_path)
    tombstone = state.records[reference.task_ids[0]]
    assert tombstone["status"] == "superseded"
    assert tombstone["cause"] == "duplicate-completion"
    assert tombstone["winner"] == "thief"

    result = merge_journals([wedged.journal_path, thief.journal_path])
    _assert_identical(tmp_path, result, reference)


def test_fault_delay_env_slows_but_never_changes_bytes(tmp_path, monkeypatch):
    grid = _grid(methods=("a", "b"), seeds=(0,))
    reference = _reference(tmp_path, grid)
    init_queue(tmp_path / "q", grid, lease_ttl=60.0)
    monkeypatch.setenv(scheduler.FAULT_DELAY_ENV, "0.05")
    slow = run_queue(tmp_path / "q", worker_id="slow", task_runner=_rich_runner,
                     max_tasks=1, wait_for_completion=False)
    monkeypatch.delenv(scheduler.FAULT_DELAY_ENV)
    fast = run_queue(tmp_path / "q", worker_id="fast", task_runner=_rich_runner)
    result = merge_journals([slow.journal_path, fast.journal_path])
    _assert_identical(tmp_path, result, reference)


def test_sched_counters_are_exact_and_stay_out_of_merged_metrics(
    tmp_path, monkeypatch
):
    """With telemetry on, a fault-injected two-worker drain (plus one dead
    claimer) records exact ``sched.*`` counters in the process registry --
    and none of them leak into the merged (deterministic) metrics."""
    grid = _grid()  # 6 tasks
    reference = _reference(tmp_path, grid)
    telemetry.enable()
    telemetry.get_registry().reset()
    manifest = init_queue(tmp_path / "q", grid, lease_ttl=0.05)
    claim_next(manifest, "dead")  # 1 claim, then "crashes" without releasing
    time.sleep(0.1)
    monkeypatch.setenv(scheduler.FAULT_DELAY_ENV, "0.01")
    slow = run_queue(tmp_path / "q", worker_id="slow", task_runner=_rich_runner,
                     max_tasks=2, wait_for_completion=False)
    monkeypatch.delenv(scheduler.FAULT_DELAY_ENV)
    fast = run_queue(tmp_path / "q", worker_id="fast", task_runner=_rich_runner)

    counters = telemetry.get_registry().snapshot()["counters"]
    # dead's 1 claim + slow's 2 + fast's 4 = 7; exactly one of them stole
    # the dead worker's expired lease.
    assert counters["sched.claims"] == 7.0
    assert counters["sched.steals"] == 1.0
    assert counters["sched.lease_expired"] == 1.0
    assert "sched.superseded" not in counters  # no commit race happened
    assert slow.steals + fast.steals == 1

    result = merge_journals([slow.journal_path, fast.journal_path])
    _assert_identical(tmp_path, result, reference)
    merged = merged_metrics(result)
    assert not [k for k in merged["counters"] if k.startswith("sched.")]


# ---------------------------------------------------------------------------
# queue-status and worker-side validation.
def test_queue_status_counts(tmp_path):
    grid = _grid()
    manifest = init_queue(tmp_path / "q", grid, lease_ttl=60.0)
    run_queue(tmp_path / "q", worker_id="w1", task_runner=_rich_runner,
              max_tasks=2, wait_for_completion=False)
    claim_next(manifest, "w2")  # one live lease, never executed
    status = queue_status(tmp_path / "q")
    assert (status["done"], status["leased"], status["open"]) == (
        2, 1, manifest.total_tasks - 2
    )
    assert not status["drained"]
    assert status["journals"] == ["w1"]
    assert status["expired_leases"] == 0


def test_run_queue_rejects_foreign_journal_identity(tmp_path):
    grid = _grid(methods=("a",), seeds=(0,))
    manifest = init_queue(tmp_path / "q", grid)
    run_queue(tmp_path / "q", worker_id="w1", task_runner=_rich_runner)
    # Another worker id reusing w1's journal file is a misconfiguration.
    shutil.copy(manifest.journal_path("w1"), manifest.journal_path("w2"))
    with pytest.raises(SweepError, match="belongs to worker"):
        run_queue(tmp_path / "q", worker_id="w2", task_runner=_rich_runner)
    with pytest.raises(SweepError, match="no filename-safe characters"):
        run_queue(tmp_path / "q", worker_id="///", task_runner=_rich_runner)


# ---------------------------------------------------------------------------
# Merge fault injection on queue journals: the structured causes.
def _drain(tmp_path, grid, workers=("w1", "w2")):
    init_queue(tmp_path / "q", grid, lease_ttl=60.0)
    paths = []
    for index, worker_id in enumerate(workers):
        last = index == len(workers) - 1
        result = run_queue(
            tmp_path / "q", worker_id=worker_id, task_runner=_rich_runner,
            max_tasks=None if last else 2, wait_for_completion=last,
        )
        paths.append(result.journal_path)
    return paths


def _edit_header(path, **changes):
    from pathlib import Path

    path = Path(path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    for key, value in changes.items():
        if value is None:
            header.pop(key, None)
        else:
            header[key] = value
    lines[0] = json.dumps(header, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")


def _cause(paths, **kwargs):
    with pytest.raises(MergeError) as excinfo:
        merge_journals(paths, **kwargs)
    return excinfo.value.cause


def test_merge_rejects_missing_queue_metadata(tmp_path):
    paths = _drain(tmp_path, _grid())
    _edit_header(paths[0], worker=None)
    assert _cause(paths) == "missing-header"


def test_merge_rejects_duplicate_worker(tmp_path):
    paths = _drain(tmp_path, _grid())
    copy = tmp_path / "q" / "journals" / "other-host.journal.jsonl"
    shutil.copy(paths[0], copy)  # same header worker id under a new filename
    assert _cause(paths + [str(copy)]) == "duplicate-worker"


def test_merge_rejects_grid_tasks_mismatch(tmp_path):
    paths = _drain(tmp_path, _grid())
    ids = json.loads(
        open(paths[0]).readline()
    )["grid_task_ids"]
    _edit_header(paths[0], grid_task_ids=list(reversed(ids)))
    assert _cause(paths) == "grid-tasks-mismatch"


def test_merge_rejects_foreign_result(tmp_path):
    grid = _grid()
    paths = _drain(tmp_path, grid)
    shard = tmp_path / "shard.jsonl"
    run_sweep(grid, task_runner=_rich_runner, shard=(0, 2), journal_path=str(shard))
    foreign = json.dumps(build_result_record(
        "not|in|this|grid|seed=9", "ok", 1, 0.0, row={"x": 1}
    )) + "\n"
    # A queue worker's and a shard's journal alike may own any grid task,
    # but nothing outside the grid.
    for path in (paths[0], shard):
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(foreign)
        with pytest.raises(MergeError) as excinfo:
            merge_journals([shard, *paths])
        assert excinfo.value.cause == "foreign-result"
        assert excinfo.value.details["path"] == str(path)
        assert excinfo.value.details["task_ids"] == ["not|in|this|grid|seed=9"]


def test_merge_rejects_conflicting_duplicate_rows(tmp_path):
    grid = _grid()
    reference = _reference(tmp_path, grid)
    paths = _drain(tmp_path, grid, workers=("w1",))
    # Forge a second worker that claims a different value for one task.
    forged = tmp_path / "q" / "journals" / "w2.journal.jsonl"
    shutil.copy(paths[0], forged)
    _edit_header(forged, worker="w2")
    lines = forged.read_text().splitlines()
    record = json.loads(lines[1])
    record["row"]["offline_n_flip"] = 99999.0
    lines[1] = json.dumps(record, sort_keys=True)
    forged.write_text("\n".join(lines) + "\n")
    assert _cause([paths[0], str(forged)]) == "conflicting-result"
    # ... but identical duplicates are benign (steal races produce them).
    _edit_header(forged, worker="w3")
    record = json.loads(open(paths[0]).read().splitlines()[1])
    lines[1] = json.dumps(dict(record, worker="w3"), sort_keys=True)
    forged.write_text("\n".join(lines) + "\n")
    result = merge_journals([paths[0], str(forged)])
    _assert_identical(tmp_path, result, reference)


def test_merge_missing_result_degrades_for_undrained_queue(tmp_path):
    grid = _grid()
    init_queue(tmp_path / "q", grid, lease_ttl=60.0)
    partial = run_queue(tmp_path / "q", worker_id="w1", task_runner=_rich_runner,
                        max_tasks=2, wait_for_completion=False)
    assert _cause([partial.journal_path]) == "missing-result"
    result = merge_journals([partial.journal_path], allow_incomplete=True)
    assert len(result.rows) == 2
    assert result.missing_count == len(grid.expand()) - 2
    assert result.task_ids == [task.task_id for task in grid.expand()]


# ---------------------------------------------------------------------------
# Tier-1 acceptance: the real micro-scale pipeline over the CLI.
def test_cli_queue_sweep_is_byte_identical_to_unsharded_sweep(tmp_path, monkeypatch):
    """``repro sweep --queue`` + ``repro merge <dir>`` reproduce the
    unsharded sweep's rows and flight record byte-for-byte, and
    ``repro queue-status`` tracks drain state through its exit code."""
    from repro.cli import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    argv = [
        "sweep", "--methods", "CFT,CFT+BR", "--models", "tinycnn",
        "--devices", "K1", "--target", "1", "--scale", "micro",
    ]
    ref_rows = tmp_path / "ref.json"
    ref_events = tmp_path / "ref.events.jsonl"
    assert main(argv + ["--out", str(ref_rows), "--events", str(ref_events)]) == 0

    qdir = tmp_path / "q"
    assert main(argv + [
        "--queue", str(qdir), "--worker-id", "w1", "--lease-ttl", "60",
        "--out", str(tmp_path / "w1.json"),
        "--events", str(tmp_path / "w1.sched.jsonl"),
    ]) == 0
    assert main(["queue-status", str(qdir)]) == 0  # drained -> exit 0
    # A late joiner finds nothing to claim and exits cleanly with no rows.
    assert main(argv + [
        "--queue", str(qdir), "--worker-id", "w2",
        "--out", str(tmp_path / "w2.json"),
    ]) == 0
    assert json.loads((tmp_path / "w2.json").read_text()) == []

    merged_rows = tmp_path / "merged.json"
    merged_events_path = tmp_path / "merged.events.jsonl"
    assert main([
        "merge", str(qdir), "--out", str(merged_rows),
        "--events", str(merged_events_path),
        "--journal", str(tmp_path / "merged.journal.jsonl"),
        "--no-manifest",
    ]) == 0
    assert merged_rows.read_bytes() == ref_rows.read_bytes()
    assert merged_events_path.read_bytes() == ref_events.read_bytes()
    # The per-worker scheduler decision log is the claim/commit audit trail.
    sched_kinds = [
        json.loads(line).get("kind")
        for line in (tmp_path / "w1.sched.jsonl").read_text().splitlines()
    ]
    assert "sched.claim" in sched_kinds and "sched.commit" in sched_kinds


def test_cli_queue_rejects_shard_and_workers_combos(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    base = ["sweep", "--queue", str(tmp_path / "q"), "--scale", "micro",
            "--methods", "CFT", "--models", "tinycnn",
            "--out", str(tmp_path / "rows.json")]
    assert main(base + ["--shard", "0/2"]) == 2
    assert main(base + ["--workers", "4"]) == 2
    err = capsys.readouterr().err
    assert "incompatible with --shard" in err and "inline" in err
