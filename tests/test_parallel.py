"""The parallel sweep runner: grids, journals, retries and determinism.

Most tests drive :func:`repro.parallel.run_sweep` with fake task runners so
the orchestration logic (retry, journaling, resume, worker-crash recovery,
telemetry merge) is exercised in milliseconds.  The end-to-end determinism
and resume-after-kill tests at the bottom run the real micro-scale pipeline
through the CLI; they are the ISSUE's tier-1 acceptance tests.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

import pytest

from repro import telemetry
from repro.errors import SweepError
from repro.parallel import (
    SweepGrid,
    SweepJournal,
    SweepTask,
    ensure_unique,
    execute_task,
    grid_sha_of,
    reset_worker_state,
    run_sweep,
)
from repro.parallel.scheduler import DEFAULT_LEASE_TTL
from repro.parallel.worker import BLAS_THREAD_VARS, blas_thread_cap
from repro.rowhammer import available_profiles, register_profile, reset_profiles
from repro.rowhammer.device_profiles import DeviceProfile
from repro.utils.rng import derive_seed


# ---------------------------------------------------------------------------
# Fake task runners.  Module-level so spawned queue workers can import them
# by reference.
def _ok_runner(payload):
    task = SweepTask.from_json(payload["task"])
    return {
        "status": "ok",
        "row": {"method": task.method, "seed": task.seed},
        "duration_seconds": 0.01,
    }


def _blas_env_runner(payload):
    task = SweepTask.from_json(payload["task"])
    return {
        "status": "ok",
        "row": {"method": task.method, "blas": [os.environ.get(name) for name in BLAS_THREAD_VARS]},
        "duration_seconds": 0.01,
    }


def _failing_runner(payload):
    task = SweepTask.from_json(payload["task"])
    if task.method == "bad":
        return {
            "status": "failed",
            "error": {"type": "AttackError", "message": "boom", "traceback": ""},
        }
    return _ok_runner(payload)


def _flaky_runner(payload):
    """Fails on the first call per marker file, succeeds afterwards."""
    marker = payload["task"]["dataset"]  # smuggled marker path
    task = SweepTask.from_json(payload["task"])
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write("seen")
        return {
            "status": "failed",
            "error": {"type": "RuntimeError", "message": "flaky", "traceback": ""},
        }
    return {"status": "ok", "row": {"method": task.method}, "duration_seconds": 0.0}


def _crashing_runner(payload):
    task = SweepTask.from_json(payload["task"])
    if task.method == "crash":
        os._exit(17)  # simulates a segfault / OOM kill: no exception, no answer
    return _ok_runner(payload)


def _crash_then_raise_runner(payload):
    """``crash`` kills its worker on the first call per marker file, then raises."""
    marker = payload["task"]["dataset"]  # smuggled marker path
    task = SweepTask.from_json(payload["task"])
    if task.method != "crash":
        return _ok_runner(payload)
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write("seen")
        os._exit(17)
    raise RuntimeError("still broken")


def _journal_order_runner(payload):
    """``b`` fails unless ``a``'s result reaches the sweep journal first."""
    journal = payload["task"]["dataset"]  # smuggled sweep-journal path
    task = SweepTask.from_json(payload["task"])
    deadline = time.monotonic() + 60.0
    while task.method == "b" and {"method": "a"} not in [
        record.get("row") for record in SweepJournal.load(journal).completed.values()
    ]:
        if time.monotonic() > deadline:
            return {
                "status": "failed",
                "error": {"type": "TimeoutError", "message": "a never journaled",
                          "traceback": ""},
            }
        time.sleep(0.05)
    return {"status": "ok", "row": {"method": task.method}, "duration_seconds": 0.0}


def _metrics_runner(payload):
    task = SweepTask.from_json(payload["task"])
    return {
        "status": "ok",
        "row": {"method": task.method},
        "duration_seconds": 0.01,
        "metrics": {
            "counters": {"worker.flips": 2},
            "gauges": {"worker.last_seed": float(task.seed)},
            "histogram_values": {"worker.loss": [0.5]},
        },
        "spans": [
            {
                "name": "task_stage",
                "path": "task_stage",
                "duration_seconds": 0.01,
                "attributes": {},
                "children": [],
            }
        ],
    }


def _grid(methods=("a", "b"), seeds=(0,)):
    return SweepGrid(methods=methods, models=("m",), devices=("K1",), seeds=seeds)


# ---------------------------------------------------------------------------
# Seeds and grids.
def test_derive_seed_is_stable_and_component_sensitive():
    assert derive_seed(0, "CFT", 3) == derive_seed(0, "CFT", 3)
    assert derive_seed(0, "CFT", 3) != derive_seed(0, "CFT", 4)
    assert derive_seed(0, "CFT", 3) != derive_seed(1, "CFT", 3)
    assert 0 <= derive_seed(12345, "x") < 2**32


def test_grid_expand_is_ordered_and_unique():
    grid = _grid(methods=("a", "b"), seeds=(0, 1))
    tasks = grid.expand()
    assert [(t.seed, t.method) for t in tasks] == [(0, "a"), (0, "b"), (1, "a"), (1, "b")]
    assert len({t.task_id for t in tasks}) == len(tasks)
    assert grid_sha_of(tasks) == grid.grid_sha()


def test_grid_rejects_empty_axes_and_duplicates():
    with pytest.raises(SweepError):
        SweepGrid(methods=(), models=("m",)).expand()
    with pytest.raises(SweepError):
        ensure_unique(_grid().expand() + _grid().expand())


def test_grid_with_replicas_derives_distinct_seeds():
    grid = SweepGrid.with_replicas(0, 4, methods=("a",), models=("m",))
    seeds = [t.seed for t in grid.expand()]
    assert len(set(seeds)) == 4
    assert seeds == [t.seed for t in SweepGrid.with_replicas(0, 4, methods=("a",), models=("m",)).expand()]


def test_task_json_round_trip_rejects_unknown_fields():
    task = _grid().expand()[0]
    assert SweepTask.from_json(task.to_json()) == task
    with pytest.raises(SweepError):
        SweepTask.from_json({**task.to_json(), "bogus": 1})


# ---------------------------------------------------------------------------
# Journal.
def test_journal_round_trip_with_torn_and_malformed_lines(tmp_path):
    path = tmp_path / "j.jsonl"
    with SweepJournal(str(path)) as journal:
        journal.append_header(grid_sha="abc", grid_task_ids=["t1", "t2"], worker="w")
        journal.append({"kind": "result", "task_id": "t1", "status": "ok", "row": {"x": 1}})
        journal.append({"kind": "result", "task_id": "t2", "status": "failed"})
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("not json\n")
        handle.write('{"kind": "result", "task_id": "t2", "status": "ok", "row": {"x": 2}}\n')
        handle.write('{"kind": "result", "task_id":')  # torn trailing write

    state = SweepJournal.load(str(path))
    assert state.header["grid_sha"] == "abc"
    assert state.malformed_lines == 2
    # The later t2 line supersedes the failed one.
    assert set(state.completed) == {"t1", "t2"}
    assert state.completed["t2"]["row"] == {"x": 2}


def test_journal_load_of_missing_file_is_empty(tmp_path):
    state = SweepJournal.load(str(tmp_path / "absent.jsonl"))
    assert state.header is None and not state.records


# ---------------------------------------------------------------------------
# Runner orchestration (fake runners, inline).
def test_run_sweep_inline_returns_rows_in_grid_order():
    result = run_sweep(_grid(methods=("b", "a")), workers=1, task_runner=_ok_runner)
    assert [row["method"] for row in result.rows] == ["b", "a"]
    assert result.completed_count == 2 and not result.failures


def test_run_sweep_records_structured_failures_and_keeps_going():
    result = run_sweep(
        _grid(methods=("a", "bad", "b")), workers=1, task_runner=_failing_runner,
        max_attempts=1,
    )
    assert [row["method"] for row in result.rows] == ["a", "b"]
    (failure,) = result.failures
    assert failure.task.method == "bad"
    assert failure.error["type"] == "AttackError"
    assert failure.attempts == 1


def test_run_sweep_retries_flaky_task(tmp_path):
    marker = str(tmp_path / "flaky.marker")
    grid = [SweepTask(method="a", model="m", device="K1", seed=0, dataset=marker)]
    result = run_sweep(grid, workers=1, task_runner=_flaky_runner,
                       max_attempts=2, backoff_seconds=0.0)
    assert result.completed_count == 1
    assert result.outcomes[0].attempts == 2


def test_run_sweep_rejects_bad_arguments(tmp_path):
    with pytest.raises(SweepError):
        run_sweep(_grid(), max_attempts=0, task_runner=_ok_runner)
    with pytest.raises(SweepError):
        run_sweep(_grid(), resume=True, task_runner=_ok_runner)  # no journal


def test_run_sweep_journal_and_resume(tmp_path):
    journal = str(tmp_path / "sweep.jsonl")
    grid = _grid(methods=("a", "b", "c"))
    first = run_sweep(grid, workers=1, journal_path=journal, task_runner=_ok_runner)
    assert first.completed_count == 3

    # Simulate a kill after the first result: header + one result line.
    lines = open(journal, encoding="utf-8").read().splitlines(True)
    cut = str(tmp_path / "cut.jsonl")
    with open(cut, "w", encoding="utf-8") as handle:
        handle.writelines(lines[:2])
        handle.write(lines[2][: len(lines[2]) // 2])  # torn mid-write line

    resumed = run_sweep(grid, workers=1, journal_path=cut, resume=True,
                        task_runner=_ok_runner)
    assert resumed.resumed_count == 1
    assert resumed.completed_count == 2
    assert json.dumps(resumed.rows, sort_keys=True) == json.dumps(first.rows, sort_keys=True)
    state = SweepJournal.load(cut)
    assert len(state.resumes) == 1 and len(state.completed) == 3


def test_run_sweep_refuses_dirty_journal_without_resume(tmp_path):
    journal = str(tmp_path / "sweep.jsonl")
    run_sweep(_grid(), workers=1, journal_path=journal, task_runner=_ok_runner)
    with pytest.raises(SweepError, match="resume"):
        run_sweep(_grid(), workers=1, journal_path=journal, task_runner=_ok_runner)


def test_run_sweep_refuses_resume_for_different_grid(tmp_path):
    journal = str(tmp_path / "sweep.jsonl")
    run_sweep(_grid(), workers=1, journal_path=journal, task_runner=_ok_runner)
    with pytest.raises(SweepError, match="different grid"):
        run_sweep(_grid(methods=("x", "y")), workers=1, journal_path=journal,
                  resume=True, task_runner=_ok_runner)


def test_run_sweep_grid_sha_check_fails_fast_even_without_resume(tmp_path):
    """A header-only journal (no results yet) written for another grid is
    rejected at open time -- naming both SHAs -- instead of surfacing the
    mismatch at merge time."""
    journal = tmp_path / "sweep.jsonl"
    other = _grid(methods=("x", "y"))
    with SweepJournal(journal) as handle:
        handle.append_header(grid_sha=other.grid_sha(),
                             grid_task_ids=[t.task_id for t in other.expand()],
                             worker="shard-0-of-1")
    with pytest.raises(SweepError) as exc:
        run_sweep(_grid(), workers=1, journal_path=str(journal), task_runner=_ok_runner)
    assert other.grid_sha() in str(exc.value)
    assert _grid().grid_sha() in str(exc.value)


def test_run_sweep_refuses_resume_under_a_different_shard_spec(tmp_path):
    journal = str(tmp_path / "shard.jsonl")
    grid = _grid(methods=("a", "b", "c"))
    run_sweep(grid, workers=1, journal_path=journal, task_runner=_ok_runner,
              shard="0/2")
    with pytest.raises(SweepError, match=r"'shard-0-of-2', not 'shard-1-of-2'"):
        run_sweep(grid, workers=1, journal_path=journal, resume=True,
                  task_runner=_ok_runner, shard="1/2")
    with pytest.raises(SweepError, match=r"'shard-0-of-2', not 'shard-0-of-1'"):
        run_sweep(grid, workers=1, journal_path=journal, resume=True,
                  task_runner=_ok_runner)


def test_run_sweep_merges_worker_telemetry_in_grid_order():
    telemetry.enable()
    telemetry.reset()
    result = run_sweep(_grid(methods=("a", "b")), workers=1, task_runner=_metrics_runner,
                       capture_telemetry=True)
    assert result.completed_count == 2
    registry = telemetry.get_registry()
    snapshot = registry.snapshot()
    assert snapshot["counters"]["worker.flips"] == 4  # summed across tasks
    assert snapshot["counters"]["sweep.tasks_ok"] == 2
    # Gauge merge is last-writer-wins in *grid* order: task "b" has seed 0 too,
    # but with distinct seeds the final value must be the last grid cell's.
    assert snapshot["gauges"]["worker.last_seed"] == 0.0
    # Worker span trees attach under the parent's sweep span.
    paths = telemetry.get_tracer().stage_durations()
    assert any(path.endswith("task_stage") for path in paths)


# ---------------------------------------------------------------------------
# Runner orchestration (real local queue workers).
def test_run_sweep_pool_matches_inline_with_fake_runner():
    grid = _grid(methods=("a", "b", "c", "d"))
    inline = run_sweep(grid, workers=1, task_runner=_ok_runner)
    queued = run_sweep(grid, workers=2, task_runner=_ok_runner)
    assert json.dumps(inline.rows, sort_keys=True) == json.dumps(queued.rows, sort_keys=True)


def test_queue_workers_start_with_capped_blas_threads(monkeypatch):
    for name in BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    queued = run_sweep(_grid(methods=("a", "b")), workers=2, task_runner=_blas_env_runner)
    assert [row["blas"] for row in queued.rows] == [["2"] * 3] * 2
    # Two tasks start two workers, however many were asked for: each gets
    # half of 8 CPUs, not a quarter.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    queued = run_sweep(_grid(methods=("a", "b")), workers=4, task_runner=_blas_env_runner)
    assert [row["blas"] for row in queued.rows] == [["4"] * 3] * 2
    # Inline runs, and the parent after the workers, keep the default.
    inline = run_sweep(_grid(methods=("a",)), workers=1, task_runner=_blas_env_runner)
    assert inline.rows[0]["blas"] == [None] * 3
    assert not any(name in os.environ for name in BLAS_THREAD_VARS)


def test_blas_thread_cap_leaves_a_user_setting_alone(monkeypatch):
    for name in BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    with blas_thread_cap(8):
        assert [os.environ.get(name) for name in BLAS_THREAD_VARS] == [None, "3", None]
    monkeypatch.delenv("OMP_NUM_THREADS")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with blas_thread_cap(4):  # more workers than CPUs: one thread each
        assert [os.environ.get(name) for name in BLAS_THREAD_VARS] == ["1"] * 3
    assert not any(name in os.environ for name in BLAS_THREAD_VARS)


@pytest.mark.parametrize(
    "cpus,workers,threads",
    [(8, 1, "8"), (8, 2, "4"), (8, 3, "2"), (5, 2, "2"), (2, 4, "1"), (None, 2, "1")],
)
def test_blas_thread_cap_gives_each_worker_its_share_of_the_cpus(
    monkeypatch, cpus, workers, threads
):
    for name in BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)  # None: the count is unknown
    with blas_thread_cap(workers):
        assert [os.environ.get(name) for name in BLAS_THREAD_VARS] == [threads] * 3
    assert not any(name in os.environ for name in BLAS_THREAD_VARS)


@pytest.mark.parametrize("user_var", BLAS_THREAD_VARS)
def test_blas_thread_cap_yields_to_any_one_user_setting(monkeypatch, user_var):
    for name in BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv(user_var, "7")
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    with blas_thread_cap(2):
        assert {name: os.environ.get(name) for name in BLAS_THREAD_VARS} == {
            name: "7" if name == user_var else None for name in BLAS_THREAD_VARS
        }
    assert os.environ[user_var] == "7"


def test_run_sweep_survives_worker_crash(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    grid = _grid(methods=("a", "crash", "b"))
    start = time.monotonic()
    result = run_sweep(grid, workers=2, task_runner=_crashing_runner,
                       max_attempts=2, backoff_seconds=0.0)
    # A dead worker's lease is freed at once, not stolen after its TTL.
    assert time.monotonic() - start < DEFAULT_LEASE_TTL / 2
    assert [row["method"] for row in result.rows] == ["a", "b"]
    (failure,) = result.failures
    assert failure.task.method == "crash"
    assert failure.attempts == 2
    assert failure.error["type"] == "WorkerExitError"
    assert "exited with code 17" in failure.error["message"]
    assert not list(tmp_path.glob("repro-sweep-*"))  # the private queue is gone


def test_run_sweep_journals_each_task_as_it_finishes(tmp_path):
    journal = str(tmp_path / "sweep.jsonl")
    grid = [SweepTask(method=method, model="m", device="K1", seed=0, dataset=journal)
            for method in ("a", "b")]
    result = run_sweep(grid, workers=2, journal_path=journal,
                       task_runner=_journal_order_runner, max_attempts=1)
    assert [row["method"] for row in result.rows] == ["a", "b"], result.failures


def test_crash_and_rerun_share_one_attempt_budget(tmp_path):
    # The crash is charged in the queue before the rerun claims the task,
    # so the rerun's own failure is the second and last attempt.
    marker = str(tmp_path / "crashed")
    grid = [SweepTask(method=method, model="m", device="K1", seed=0, dataset=marker)
            for method in ("a", "crash")]
    result = run_sweep(grid, workers=2, task_runner=_crash_then_raise_runner,
                       max_attempts=2, backoff_seconds=0.0)
    assert os.path.exists(marker)
    assert [row["method"] for row in result.rows] == ["a"]
    (failure,) = result.failures
    assert failure.attempts == 2
    assert failure.error["type"] == "RuntimeError"


def test_worker_crash_never_charges_innocent_siblings():
    # Each task runs in its own worker process, so a crasher takes down
    # only the task it leased: its siblings must finish uncharged rather
    # than burn their attempts on a crash that was not theirs.
    methods = ("a", "b", "crash", "c", "d", "e", "f")
    grid = _grid(methods=methods)
    result = run_sweep(grid, workers=4, task_runner=_crashing_runner,
                       max_attempts=2, backoff_seconds=0.0)
    survivors = [m for m in methods if m != "crash"]
    assert [row["method"] for row in result.rows] == survivors
    (failure,) = result.failures
    assert failure.task.method == "crash"
    assert failure.attempts == 2


# ---------------------------------------------------------------------------
# Worker state hygiene.
def test_reset_worker_state_clears_forked_globals():
    telemetry.enable()
    telemetry.counter_add("stale.counter", 5)
    register_profile(DeviceProfile(name="ZZ", ddr_version=4, flips_per_page=1.0,
                                   trr_protected=False))
    try:
        assert "ZZ" in available_profiles()
        reset_worker_state()
        assert not telemetry.enabled()
        assert telemetry.get_registry().snapshot()["counters"] == {}
        assert "ZZ" not in available_profiles()
    finally:
        reset_profiles()


def test_register_profile_rejects_builtin_shadowing():
    with pytest.raises(Exception):
        register_profile(DeviceProfile(name="K1", ddr_version=4, flips_per_page=1.0,
                                       trr_protected=False))


# ---------------------------------------------------------------------------
# End-to-end acceptance: the real micro-scale pipeline through the CLI.
@pytest.mark.parametrize("resume_workers", ["1", "2"])
def test_cli_sweep_is_deterministic_across_worker_counts_and_resumes(
    tmp_path, monkeypatch, resume_workers
):
    """workers=1 and workers=4 produce byte-identical row files (and flight
    records), and a sweep killed mid-journal resumes to the same table."""
    from repro.cli import main
    from repro.telemetry.manifest import manifest_path_for, read_manifest

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    out1, out4 = tmp_path / "rows1.json", tmp_path / "rows4.json"
    events1, events4 = tmp_path / "run1.events.jsonl", tmp_path / "run4.events.jsonl"
    argv = [
        "sweep", "--methods", "CFT,CFT+BR", "--models", "tinycnn",
        "--devices", "K1,A1", "--target", "1", "--scale", "micro",
    ]
    assert main(argv + ["--workers", "1", "--out", str(out1),
                        "--events", str(events1)]) == 0
    assert main(argv + ["--workers", "4", "--out", str(out4),
                        "--events", str(events4)]) == 0
    assert out1.read_bytes() == out4.read_bytes()
    # Worker events are merged in grid order, so the flight record is also
    # byte-identical across worker counts.
    assert events1.read_bytes() == events4.read_bytes()
    manifest = read_manifest(
        manifest_path_for(out1.with_name(out1.name + ".journal.jsonl"))
    )
    assert manifest["run_kind"] == "sweep"
    assert "workers" not in manifest["config"]
    rows = json.loads(out1.read_text())
    assert [row["method"] for row in rows] == ["CFT", "CFT+BR"] * 2
    assert all(row["offline_n_flip"] >= 1 for row in rows)

    # Kill simulation: keep the header, the first result and a torn line.
    journal = out1.with_name(out1.name + ".journal.jsonl")
    lines = journal.read_text().splitlines(True)
    cut = tmp_path / "cut.journal.jsonl"
    cut.write_text("".join(lines[:2]) + lines[2][: len(lines[2]) // 2])
    out_resumed = tmp_path / "rows_resumed.json"
    assert main(argv + ["--workers", resume_workers, "--out", str(out_resumed),
                        "--journal", str(cut), "--resume"]) == 0
    assert json.loads(out_resumed.read_text()) == rows
    state = SweepJournal.load(str(cut))
    assert len(state.completed) == 4 and len(state.resumes) == 1


def test_cli_sweep_reports_sweep_errors_as_one_line_and_exit_2(tmp_path, capsys):
    """A misconfigured plain sweep fails like a queue sweep does: one
    ``sweep: <message>`` line on stderr and exit 2, never a traceback."""
    from repro.cli import main

    argv = ["sweep", "--methods", "CFT", "--models", "tinycnn", "--scale", "micro",
            "--out", str(tmp_path / "rows.json")]
    dirty = tmp_path / "dirty.jsonl"
    with SweepJournal(dirty) as journal:  # an earlier run's results
        journal.append({"kind": "header", "grid_sha": "abc"})
        journal.append({"kind": "result", "task_id": "t", "status": "ok", "row": {}})
    cases = [
        (["--journal", str(dirty)], "already holds 1 results"),
        (["--max-attempts", "0"], "max_attempts must be positive"),
        (["--workers", "-2"], "--workers must be at least 1, got -2"),
        (["--workers", "0"], "--workers must be at least 1, got 0"),
    ]
    for extra, message in cases:
        assert main(argv + extra) == 2, extra
        err = capsys.readouterr().err
        assert err.startswith("sweep: ") and message in err, err
        assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "rows.json").exists()


def test_run_method_comparison_delegates_to_the_runner(tmp_path, monkeypatch):
    """Table II via the sweep runner: inline and worker rows are identical,
    and a permanently failing cell raises SweepError."""
    from repro.core.experiment import SCALE_PRESETS, run_method_comparison

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    scale = SCALE_PRESETS["micro"]
    kwargs = dict(dataset="cifar10", methods=("CFT", "CFT+BR"), scale=scale,
                  target_class=1, device="K1", seed=0)
    inline = run_method_comparison("tinycnn", **kwargs)
    pooled = run_method_comparison("tinycnn", workers=2, **kwargs)
    assert json.dumps(inline, sort_keys=True) == json.dumps(pooled, sort_keys=True)
    with pytest.raises(SweepError, match="nope"):
        run_method_comparison("tinycnn", dataset="cifar10", methods=("nope",),
                              scale=scale, target_class=1, seed=0)


def test_execute_task_returns_structured_failure_for_unknown_method():
    task = SweepTask(method="nope", model="tinycnn", device="K1", seed=0)
    outcome = execute_task({"task": task.to_json(), "telemetry": False})
    assert outcome["status"] == "failed"
    assert outcome["error"]["type"] == "AttackError"
    assert "nope" in outcome["error"]["message"]
    # The parent's telemetry state is untouched even though the task ran inline.
    assert not telemetry.enabled()
