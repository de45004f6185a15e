"""The determinism contract of multi-host sharding + ``repro merge``.

Three layers, cheapest first:

1. **Fake-runner byte identity**: for n in {1, 2, 3}, merging n shard
   journals reproduces the unsharded sweep's rows, telemetry snapshot and
   flight record byte-for-byte -- including after a shard is killed
   mid-sweep and resumed, and for any mix of shard, queue-worker and
   unsharded journals that covers the grid.
2. **Fault injection**: every malformed-journal scenario raises a
   :class:`MergeError` with the documented machine-readable ``cause``, and
   only ``missing-result`` degrades under ``allow_incomplete``.
3. **CLI end-to-end** (tier-1 acceptance): the real micro-scale pipeline,
   sharded n-ways through ``repro sweep --shard`` and reassembled with
   ``repro merge``, is byte-identical to the unsharded run -- rows, flight
   record and manifest digests alike.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from repro import telemetry
from repro.errors import MergeError, SweepError
from repro.parallel import (
    ShardSpec,
    SweepGrid,
    SweepJournal,
    SweepTask,
    init_queue,
    merge_journals,
    merged_events,
    merged_metrics,
    run_queue,
    run_sweep,
    write_merged_events,
    write_merged_journal,
    write_merged_rows,
)


# ---------------------------------------------------------------------------
# Fake task runners (module-level so pool tests could pickle them, and so
# every test shares one deterministic row/metrics/events shape).
def _rich_runner(payload):
    """Deterministic full-width row plus metrics and a flight-record event."""
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


def _plain_runner(payload):
    """Rows only -- no metrics, no events (a shard run without --events)."""
    outcome = _rich_runner(payload)
    return {k: v for k, v in outcome.items() if k in ("status", "row", "duration_seconds")}


def _grid(methods=("a", "b", "c"), seeds=(0, 1)):
    return SweepGrid(methods=methods, models=("m",), devices=("K1",), seeds=seeds)


def _slice(grid, index, count):
    """Shard ``index`` of ``count`` of the canonical grid order."""
    return list(ShardSpec(index, count).slice(grid.expand()))


def _make_shards(dirpath, grid, count, runner=_rich_runner):
    """One journal per shard, exactly as ``count`` hosts would produce."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    paths = []
    for index in range(count):
        path = dirpath / f"shard{index}.jsonl"
        run_sweep(grid, workers=1, task_runner=runner, shard=(index, count),
                  journal_path=str(path))
        paths.append(path)
    return paths


def _edit_header(path, **changes):
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header.update(changes)
    lines[0] = json.dumps(header, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")


def _record_line(path, task_id):
    for line in path.read_text().splitlines():
        event = json.loads(line)
        if event.get("kind") == "result" and event.get("task_id") == task_id:
            return line
    raise AssertionError(f"no result for {task_id!r} in {path}")


def _drop_record(path, task_id):
    lines = [
        line for line in path.read_text().splitlines()
        if json.loads(line).get("task_id") != task_id
    ]
    path.write_text("\n".join(lines) + "\n")


def _append_line(path, line):
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")


# ---------------------------------------------------------------------------
# Byte identity: merge(shards(n)) == unsharded run, for n in {1, 2, 3}.
def test_merge_rows_and_metrics_match_unsharded_run(tmp_path):
    grid = _grid()
    telemetry.enable()
    telemetry.reset()
    reference = run_sweep(grid, workers=1, task_runner=_rich_runner,
                          capture_telemetry=True)
    registry = telemetry.get_registry()
    expected_rows = json.dumps(reference.rows, indent=2, sort_keys=True) + "\n"
    expected_counters = registry.snapshot()["counters"]
    expected_gauges = registry.snapshot()["gauges"]
    # The wall-clock task-duration histogram is outside the contract.
    expected_hist = {
        name: values for name, values in registry.histogram_values().items()
        if name != "sweep.task_seconds"
    }

    for count in (1, 2, 3):
        result = merge_journals(_make_shards(tmp_path / f"n{count}", grid, count))
        assert result.grid_sha == reference.grid_sha
        assert result.total_tasks == len(grid.expand())
        assert not result.missing_task_ids
        rows_path = write_merged_rows(result, tmp_path / f"rows{count}.json")
        assert rows_path.read_text() == expected_rows
        metrics = merged_metrics(result)
        assert metrics["counters"] == expected_counters
        assert metrics["gauges"] == expected_gauges
        assert metrics["histogram_values"] == expected_hist


def test_merged_events_match_the_in_process_flight_record(tmp_path):
    grid = _grid()
    telemetry.enable_events()
    reference = run_sweep(grid, workers=1, task_runner=_rich_runner)
    expected = tmp_path / "reference.events.jsonl"
    telemetry.dump_events(
        str(expected), meta={"command": "sweep", "grid_sha": reference.grid_sha}
    )
    for count in (1, 2, 3):
        result = merge_journals(_make_shards(tmp_path / f"n{count}", grid, count))
        merged_path = tmp_path / f"events{count}.jsonl"
        write_merged_events(result, merged_path)
        assert merged_path.read_bytes() == expected.read_bytes()


def test_merge_tolerates_empty_shards_of_an_oversplit_grid(tmp_path):
    grid = _grid(methods=("a", "b"), seeds=(0,))  # 2 tasks, 5 shards
    result = merge_journals(_make_shards(tmp_path, grid, 5))
    assert [row["method"] for row in result.rows] == ["a", "b"]
    assert result.total_tasks == 2 and len(result.journals) == 5


def test_killed_shard_resumes_and_merges_byte_identically(tmp_path):
    grid = _grid()
    reference = run_sweep(grid, workers=1, task_runner=_rich_runner)
    expected_rows = json.dumps(reference.rows, indent=2, sort_keys=True) + "\n"
    paths = _make_shards(tmp_path, grid, 2)

    # Kill simulation: shard 0 keeps its header, first result and a torn line.
    lines = paths[0].read_text().splitlines(True)
    paths[0].write_text("".join(lines[:2]) + lines[2][: len(lines[2]) // 2])
    with pytest.raises(MergeError) as exc:
        merge_journals(paths)
    assert exc.value.cause == "missing-result"

    resumed = run_sweep(grid, workers=1, task_runner=_rich_runner, shard=(0, 2),
                        journal_path=str(paths[0]), resume=True)
    assert resumed.resumed_count == 1

    result = merge_journals(paths)
    rows_path = write_merged_rows(result, tmp_path / "rows.json")
    assert rows_path.read_text() == expected_rows
    # The resumed task's flight record came back from the journal, so the
    # merged stream is still complete and in grid order.
    events = merged_events(result)
    assert [e.data["task_id"] for e in events.events] == result.task_ids


def test_merge_any_mix_of_shard_queue_and_unsharded_journals(tmp_path):
    """One journal model: ``--shard 0/2`` and ``1/2`` journals, two
    queue-worker journals and an overlapping unsharded journal of one grid.
    Every mix that covers the grid merges byte-identical to the unsharded
    rows, flight record and merged metrics; overlapping identical results
    deduplicate, and a mix that leaves a gap reports ``missing-result``."""
    grid = _grid()
    expected_rows = json.dumps(
        run_sweep(grid, workers=1, task_runner=_rich_runner).rows,
        indent=2, sort_keys=True,
    ) + "\n"
    unsharded = tmp_path / "unsharded.jsonl"
    run_sweep(grid, workers=1, task_runner=_rich_runner, journal_path=str(unsharded))
    reference = merge_journals([unsharded])
    expected_events = tmp_path / "expected.events.jsonl"
    write_merged_events(reference, expected_events)

    shards = _make_shards(tmp_path / "shards", grid, 2)
    init_queue(tmp_path / "q", grid, lease_ttl=60.0)
    queue = [
        run_queue(tmp_path / "q", worker_id="w1", task_runner=_rich_runner,
                  max_tasks=2, wait_for_completion=False).journal_path,
        run_queue(tmp_path / "q", worker_id="w2",
                  task_runner=_rich_runner).journal_path,
    ]
    journals = {"s0": shards[0], "s1": shards[1], "q1": queue[0], "q2": queue[1],
                "u": unsharded}
    owned = {name: set(merge_journals([path], allow_incomplete=True).records)
             for name, path in journals.items()}
    assert owned["q1"] and owned["q2"] and not owned["q1"] & owned["q2"]

    grid_ids = set(reference.task_ids)
    covering = 0
    for size in range(1, len(journals) + 1):
        for names in itertools.combinations(sorted(journals), size):
            paths = [journals[name] for name in names]
            if set().union(*(owned[name] for name in names)) != grid_ids:
                with pytest.raises(MergeError) as exc:
                    merge_journals(paths)
                assert exc.value.cause == "missing-result", names
                continue
            covering += 1
            result = merge_journals(paths)
            rows = write_merged_rows(result, tmp_path / "rows.json")
            assert rows.read_text() == expected_rows, names
            assert merged_metrics(result) == merged_metrics(reference), names
            events = tmp_path / "events.jsonl"
            write_merged_events(result, events)
            assert events.read_bytes() == expected_events.read_bytes(), names
    # u alone and each of its 15 supersets, plus s0+s1, q1+q2, s0+q... mixes.
    assert covering > 16


def test_merged_journal_round_trips_through_merge_and_reports_gaps(tmp_path):
    grid = _grid()
    paths = _make_shards(tmp_path, grid, 3)
    result = merge_journals(paths)
    merged = write_merged_journal(result, tmp_path / "merged.jsonl")

    header = SweepJournal.load(merged).header
    assert header["worker"] == "merged(shard-0-of-3+shard-1-of-3+shard-2-of-3)"
    assert header["grid_task_ids"] == result.task_ids
    assert header["merged_from"] == 3
    again = merge_journals([merged])
    assert again.rows == result.rows and again.grid_sha == result.grid_sha

    # A *partial* merged journal honestly re-reports its coverage gap.
    partial = merge_journals(paths[:-1], allow_incomplete=True)
    partial_path = write_merged_journal(partial, tmp_path / "partial.jsonl")
    with pytest.raises(MergeError) as exc:
        merge_journals([partial_path])
    assert exc.value.cause == "missing-result"
    reread = merge_journals([partial_path], allow_incomplete=True)
    assert reread.rows == partial.rows


def test_partial_merged_journals_merge_into_the_unsharded_rows(tmp_path):
    # Shards 0-1 and 2-3 of a 4-way split, each merged with allow_incomplete,
    # then merged together: distinct owners, the unsharded sweep's rows.
    grid = _grid()
    reference = tmp_path / "ref.jsonl"
    run_sweep(grid, workers=1, task_runner=_rich_runner, journal_path=str(reference))
    expected = write_merged_rows(merge_journals([reference]), tmp_path / "ref_rows.json")
    paths = _make_shards(tmp_path / "shards", grid, 4)
    halves = []
    for name, pair in (("low", paths[:2]), ("high", paths[2:])):
        partial = merge_journals(pair, allow_incomplete=True)
        halves.append(write_merged_journal(partial, tmp_path / f"{name}.jsonl"))
    owners = [SweepJournal.load(path).header["worker"] for path in halves]
    assert owners == ["merged(shard-0-of-4+shard-1-of-4)", "merged(shard-2-of-4+shard-3-of-4)"]
    result = merge_journals(halves)
    rows = write_merged_rows(result, tmp_path / "rows.json")
    assert rows.read_bytes() == expected.read_bytes()
    # Merged again, the owners nest, so the composition stays mergeable.
    whole = write_merged_journal(result, tmp_path / "whole.jsonl")
    assert SweepJournal.load(whole).header["worker"] == "merged(" + "+".join(owners) + ")"
    assert merge_journals([whole, halves[0]]).rows == result.rows


# ---------------------------------------------------------------------------
# Fault injection: every malformed-shard scenario, by structured cause.
def test_merge_rejects_empty_and_unreadable_inputs(tmp_path):
    with pytest.raises(MergeError) as exc:
        merge_journals([])
    assert exc.value.cause == "no-journals"
    with pytest.raises(MergeError) as exc:
        merge_journals([tmp_path / "absent.jsonl"])
    assert exc.value.cause == "unreadable-journal"
    assert exc.value.details["path"].endswith("absent.jsonl")


def test_merge_rejects_journal_without_header(tmp_path):
    path = tmp_path / "headless.jsonl"
    path.write_text('{"kind": "result", "task_id": "t", "status": "ok", "row": {}}\n')
    with pytest.raises(MergeError) as exc:
        merge_journals([path])
    assert exc.value.cause == "missing-header"


def test_merge_rejects_pre_sharding_journal(tmp_path):
    path = tmp_path / "old.jsonl"
    with SweepJournal(path) as journal:
        # A pre-sharding header: no task ids, no owner.
        journal.append({"kind": "header", "schema": 1, "grid_sha": "abc",
                        "total_tasks": 1})
    with pytest.raises(MergeError) as exc:
        merge_journals([path])
    assert exc.value.cause == "missing-header"
    assert exc.value.details["fields"] == ["grid_task_ids", "worker"]


def test_schema1_journals_are_rejected_at_merge_and_resume(tmp_path):
    """Schema-1 headers -- shard (``shard_index``/``shard_count``/
    ``shard_task_ids``) and queue (``schedule="queue"``) alike -- are
    rejected, never translated: ``missing-header`` at merge, naming the
    absent fields, and ``SweepError`` on resume."""
    grid = _grid()
    ids = [t.task_id for t in grid.expand()]
    shard1 = {"kind": "header", "schema": 1, "grid_sha": grid.grid_sha(),
              "total_tasks": len(ids), "schedule": "shard", "shard_index": 0,
              "shard_count": 1, "shard_task_ids": ids}
    queue1 = {"kind": "header", "schema": 1, "grid_sha": grid.grid_sha(),
              "total_tasks": len(ids), "schedule": "queue", "worker": "w1",
              "grid_task_ids": ids}
    for name, header, absent in (("shard", shard1, ["grid_task_ids", "worker"]),
                                 ("queue", queue1, [])):
        path = tmp_path / f"{name}.jsonl"
        with SweepJournal(path) as journal:
            journal.append(header)
        _append_line(path, json.dumps(_rich_runner({"task": grid.expand()[0].to_json()})
                                      | {"kind": "result", "task_id": ids[0],
                                         "attempts": 1}))
        with pytest.raises(MergeError) as exc:
            merge_journals([path])
        assert exc.value.cause == "missing-header"
        assert exc.value.details["schema"] == 1
        assert exc.value.details["fields"] == absent
        before = path.read_bytes()
        with pytest.raises(SweepError, match="not a schema-2 journal header"):
            run_sweep(grid, workers=1, task_runner=_rich_runner,
                      journal_path=str(path), resume=True)
        assert path.read_bytes() == before  # rejected, not rewritten


def test_merge_rejects_mismatched_grid_shas(tmp_path):
    grid_a, grid_b = _grid(), _grid(methods=("x", "y", "z"))
    s0 = _make_shards(tmp_path / "a", grid_a, 2)[0]
    s1 = _make_shards(tmp_path / "b", grid_b, 2)[1]
    with pytest.raises(MergeError) as exc:
        merge_journals([s0, s1])
    assert exc.value.cause == "sha-mismatch"
    # The error names both offending SHAs.
    assert grid_a.grid_sha() in str(exc.value) and grid_b.grid_sha() in str(exc.value)


def test_merge_rejects_duplicate_shard(tmp_path):
    paths = _make_shards(tmp_path, _grid(), 2)
    with pytest.raises(MergeError) as exc:
        merge_journals([paths[0], paths[0]])
    assert exc.value.cause == "duplicate-worker"
    assert exc.value.details["worker"] == "shard-0-of-2"


def test_merge_rejects_conflicting_results_for_one_task(tmp_path):
    grid = _grid()
    reference = run_sweep(grid, workers=1, task_runner=_rich_runner)
    paths = _make_shards(tmp_path, grid, 2)
    stolen = _slice(grid, 0, 2)[-1].task_id
    line = _record_line(paths[0], stolen)
    # Shard 1 also committed a task of shard 0's slice: an identical result
    # is a benign overlap and deduplicates ...
    _append_line(paths[1], line)
    assert merge_journals(paths).rows == reference.rows
    # ... but the same task with a different answer is a conflict.
    record = json.loads(line)
    record["row"]["offline_n_flip"] += 1.0
    _append_line(paths[1], json.dumps(record, sort_keys=True))
    with pytest.raises(MergeError) as exc:
        merge_journals(paths)
    assert exc.value.cause == "conflicting-result"
    assert exc.value.details["task_ids"] == [stolen]


def test_merge_rejects_task_claimed_by_two_shards(tmp_path):
    grid = _grid()
    paths = _make_shards(tmp_path, grid, 2)
    # Shard 0 also committed two tasks of shard 1's slice, each with a
    # different answer: every such task is named, in grid order.
    claimed = [t.task_id for t in _slice(grid, 1, 2)[:2]]
    for tid in reversed(claimed):
        record = json.loads(_record_line(paths[1], tid))
        record["row"]["online_asr"] -= 1.0
        _append_line(paths[0], json.dumps(record, sort_keys=True))
    with pytest.raises(MergeError) as exc:
        merge_journals(paths)
    assert exc.value.cause == "conflicting-result"
    assert exc.value.details["task_ids"] == claimed


def test_merge_rejects_result_outside_the_shard_slice(tmp_path):
    grid = _grid()
    reference = run_sweep(grid, workers=1, task_runner=_rich_runner)
    paths = _make_shards(tmp_path, grid, 2)
    # A result outside the shard's slice but inside the grid is owned by
    # the journal that committed it ...
    other = _slice(grid, 1, 2)[0].task_id
    _append_line(paths[0], _record_line(paths[1], other))
    assert merge_journals(paths).rows == reference.rows
    # ... a result outside the grid is foreign and rejected.
    foreign = json.loads(_record_line(paths[1], other))
    foreign["task_id"] = "not|in|this|grid|seed=9"
    _append_line(paths[0], json.dumps(foreign, sort_keys=True))
    with pytest.raises(MergeError) as exc:
        merge_journals(paths)
    assert exc.value.cause == "foreign-result"
    assert exc.value.details["path"] == str(paths[0])
    assert exc.value.details["task_ids"] == ["not|in|this|grid|seed=9"]


def test_merge_missing_shard_degrades_only_with_allow_incomplete(tmp_path):
    grid = _grid()
    reference = run_sweep(grid, workers=1, task_runner=_rich_runner)
    paths = _make_shards(tmp_path, grid, 3)
    kept = [paths[0], paths[2]]  # shard 1 never reported back
    lost = [t.task_id for t in _slice(grid, 1, 3)]
    with pytest.raises(MergeError) as exc:
        merge_journals(kept)
    assert exc.value.cause == "missing-result"
    assert exc.value.details["task_ids"] == lost

    partial = merge_journals(kept, allow_incomplete=True)
    assert partial.missing_task_ids == lost
    assert partial.task_ids == [t.task_id for t in grid.expand()]  # grid-ordered
    assert partial.rows == [
        outcome.row for outcome in reference.outcomes
        if outcome.task.task_id not in lost
    ]
    assert partial.missing_count == len(lost)


def test_merge_truncated_journal_degrades_only_with_allow_incomplete(tmp_path):
    grid = _grid()
    reference = run_sweep(grid, workers=1, task_runner=_rich_runner)
    paths = _make_shards(tmp_path, grid, 2)
    lost = _slice(grid, 1, 2)[-1].task_id
    _drop_record(paths[1], lost)  # the kill ate the last checkpoint line
    with pytest.raises(MergeError) as exc:
        merge_journals(paths)
    assert exc.value.cause == "missing-result"
    assert exc.value.details["task_ids"] == [lost]

    partial = merge_journals(paths, allow_incomplete=True)
    assert partial.missing_task_ids == [lost]
    assert partial.missing_count == 1
    assert partial.rows == reference.rows[:-1]


def test_merge_incomplete_slice_coverage_degrades_only_with_allow_incomplete(tmp_path):
    grid = _grid()  # 6 tasks
    halves = _make_shards(tmp_path / "two", grid, 2)
    thirds = _make_shards(tmp_path / "three", grid, 3)
    # Shard 0/2 (tasks 0-2) and shard 2/3 (tasks 4-5) leave task 3 uncovered.
    paths = [halves[0], thirds[2]]
    gap = grid.expand()[3].task_id
    with pytest.raises(MergeError) as exc:
        merge_journals(paths)
    assert exc.value.cause == "missing-result"
    assert exc.value.details["task_ids"] == [gap]
    partial = merge_journals(paths, allow_incomplete=True)
    assert partial.missing_task_ids == [gap]
    assert len(partial.rows) == len(grid.expand()) - 1
    # Slices of different splits combine: adding shard 1/3 closes the gap.
    assert len(merge_journals(paths + [thirds[1]]).rows) == len(grid.expand())


def test_merged_events_require_shards_run_with_events(tmp_path):
    result = merge_journals(_make_shards(tmp_path, _grid(), 2, runner=_plain_runner))
    assert result.rows  # rows merge fine without event streams
    with pytest.raises(MergeError) as exc:
        merged_events(result)
    assert exc.value.cause == "missing-events"


# ---------------------------------------------------------------------------
# The merge CLI on fake journals (fast) and the report's shard identity.
def test_cli_merge_reports_structured_failure_and_degrades(tmp_path, capsys):
    from repro.cli import main

    grid = _grid()
    paths = _make_shards(tmp_path, grid, 2)
    out = tmp_path / "rows.json"
    argv = [str(paths[0]), "--out", str(out),
            "--journal", str(tmp_path / "merged.jsonl")]

    assert main(["merge"] + argv) == 2
    err = capsys.readouterr().err
    assert "merge failed [missing-result]" in err and "task_ids" in err

    assert main(["merge"] + argv + ["--allow-incomplete", "--no-manifest"]) == 0
    rows = json.loads(out.read_text())
    assert [row["method"] for row in rows] == [t.method for t in _slice(grid, 0, 2)]


def test_report_renders_shard_and_merged_identity(tmp_path):
    from repro.telemetry.report import render_report

    grid = _grid()
    paths = _make_shards(tmp_path, grid, 2)
    shard_report = render_report(str(paths[1]))
    assert "owner: shard-1-of-2" in shard_report

    merged = write_merged_journal(merge_journals(paths), tmp_path / "merged.jsonl")
    merged_report = render_report(str(merged))
    assert "merged from 2 per-host journal(s)" in merged_report


# ---------------------------------------------------------------------------
# Tier-1 acceptance: the real micro-scale pipeline, sharded over the CLI.
def test_cli_shard_merge_is_byte_identical_to_unsharded_sweep(tmp_path, monkeypatch):
    """``merge(shards(1..n)) == run_sweep`` for the real pipeline: rows,
    flight record and manifest digests, for n in {1, 2, 3} -- and the merge
    manifest itself is identical regardless of how the sweep was split."""
    from repro.cli import main
    from repro.telemetry.manifest import manifest_path_for, read_manifest

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    argv = [
        "sweep", "--methods", "CFT,CFT+BR", "--models", "tinycnn",
        "--devices", "K1,A1", "--target", "1", "--scale", "micro",
        "--workers", "1",
    ]
    ref_rows = tmp_path / "ref.json"
    ref_events = tmp_path / "ref.events.jsonl"
    assert main(argv + ["--out", str(ref_rows), "--events", str(ref_events)]) == 0
    ref_manifest = read_manifest(
        manifest_path_for(ref_rows.with_name(ref_rows.name + ".journal.jsonl"))
    )

    merged_rows = tmp_path / "merged.json"
    merged_events_path = tmp_path / "merged.events.jsonl"
    merged_journal = tmp_path / "merged.journal.jsonl"
    manifest_bytes = None
    for count in (1, 2, 3):
        shard_dir = tmp_path / f"n{count}"
        shard_dir.mkdir()
        journals = []
        for index in range(count):
            journal = shard_dir / f"shard{index}.jsonl"
            assert main(argv + [
                "--shard", f"{index}/{count}",
                "--out", str(shard_dir / f"rows{index}.json"),
                "--events", str(shard_dir / f"events{index}.jsonl"),
                "--journal", str(journal),
            ]) == 0
            journals.append(str(journal))
        assert main(["merge"] + journals + [
            "--out", str(merged_rows),
            "--events", str(merged_events_path),
            "--journal", str(merged_journal),
        ]) == 0

        assert merged_rows.read_bytes() == ref_rows.read_bytes()
        assert merged_events_path.read_bytes() == ref_events.read_bytes()
        manifest_path = manifest_path_for(merged_rows)
        merge_manifest = read_manifest(manifest_path)
        # Digest equality is the manifest-level proof of the byte identity,
        # and it ties the merged artifacts to the unsharded sweep's.
        assert (merge_manifest["artifact_sha256"]["rows"]
                == ref_manifest["artifact_sha256"]["rows"])
        assert (merge_manifest["artifact_sha256"]["events"]
                == ref_manifest["artifact_sha256"]["events"])
        assert merge_manifest["grid_sha"] == ref_manifest["grid_sha"]
        # Any n-way split merges to the same manifest, byte for byte.
        if manifest_bytes is None:
            manifest_bytes = manifest_path.read_bytes()
        assert manifest_path.read_bytes() == manifest_bytes
