"""Live fleet observability: beacons, health detection, watch, timelines.

Layered cheapest-first, mirroring ``test_scheduler.py``:

1. **Beacon units**: atomic writes, rolling rates under an injected clock,
   reader tolerance to corrupt/foreign files.
2. **Timeline ring/OpenMetrics units**: the beacon writer's ring and its
   compaction, exposition format.
3. **Health detection**: every registered ``HEALTH_CAUSES`` slug from
   synthetic beacons (pure-function, no sleeping).
4. **Fleet end-to-end**: a two-worker fault-slowed queue drain with
   beacons and their timeline rings on merges byte-identical to the
   unsharded run, the ``queue_status`` snapshot is sane mid-drain and
   after, ``queue-status`` and ``watch`` print that one document, and a
   synthetic stalled worker surfaces in both.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import telemetry
from repro.errors import HEALTH_CAUSES, SweepError
from repro.parallel import (
    SweepGrid,
    SweepTask,
    init_queue,
    merge_journals,
    merged_metrics,
    queue_status,
    run_queue,
    run_sweep,
    write_merged_events,
)
from repro.parallel.scheduler import BEACON_DIR, claim_next
from repro.telemetry.export import render_openmetrics, write_openmetrics
from repro.telemetry.live import (
    BEACON_SUFFIX,
    BeaconWriter,
    HealthThresholds,
    detect_health,
    fleet_trace_from_queue,
    format_fleet,
    health_issue,
    read_beacons,
    read_timeline,
    write_fleet_trace,
)
from repro.telemetry.registry import TelemetryError
from repro.telemetry.trace import stitch_traces, validate_trace


# ---------------------------------------------------------------------------
# Shared fakes (the same outcome shape as test_scheduler.py).
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


def _beacon(worker="w1", now=1000.0, **overrides):
    """A minimal synthetic beacon document for detect_health tests."""
    doc = {
        "schema": "repro-beacon/1",
        "worker": worker,
        "phase": "running",
        "updated_unix": now,
        "last_progress_unix": now,
        "tasks_done": 1,
        "tasks_failed": 0,
        "steals": 0,
        "rate_tasks_per_s": 1.0,
        "current_task": "t",
    }
    doc.update(overrides)
    return doc


class _FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ---------------------------------------------------------------------------
# Beacon units.
class TestBeaconWriter:
    def test_beacon_document_shape_and_atomicity(self, tmp_path):
        clock = _FakeClock()
        path = tmp_path / f"w1{BEACON_SUFFIX}"
        beacon = BeaconWriter(path, worker="w1", interval=60.0,
                              counters_fn=lambda: {"sched.claims": 2.0},
                              clock=clock)
        beacon.start()
        try:
            doc = json.loads(path.read_text())
            assert doc["schema"] == "repro-beacon/1"
            assert doc["worker"] == "w1" and doc["phase"] == "starting"
            assert doc["counters"] == {"sched.claims": 2.0}
            assert doc["steals"] == 0
            # No torn temp files survive the atomic replace.
            assert list(tmp_path.glob("*.tmp")) == []
        finally:
            beacon.stop()
        assert json.loads(path.read_text())["phase"] == "done"

    def test_rate_and_progress_tracking_with_injected_clock(self, tmp_path):
        clock = _FakeClock(start=100.0)
        beacon = BeaconWriter(tmp_path / f"w{BEACON_SUFFIX}", worker="w",
                              interval=60.0, counters_fn=dict, clock=clock)
        beacon.start()
        try:
            clock.advance(10.0)
            beacon.update(tasks_done=5)
            assert beacon.payload()["last_progress_unix"] == 110.0
            clock.advance(10.0)
            beacon.update(phase="idle")  # no progress: timestamp must not move
            doc = beacon.payload()
            assert doc["last_progress_unix"] == 110.0
            # 5 tasks over the 20 s window covered by the rate samples.
            assert doc["rate_tasks_per_s"] == pytest.approx(0.25)
        finally:
            beacon.stop()

    def test_counter_deltas_are_per_interval(self, tmp_path):
        counters = {"sched.claims": 0.0}
        beacon = BeaconWriter(tmp_path / f"w{BEACON_SUFFIX}", worker="w",
                              interval=60.0, counters_fn=lambda: dict(counters))
        counters["sched.claims"] = 3.0
        assert beacon.payload()["counter_deltas"] == {"sched.claims": 3.0}
        counters["sched.claims"] = 5.0
        assert beacon.payload()["counter_deltas"] == {"sched.claims": 2.0}

    def test_read_beacons_skips_corrupt_and_foreign_files(self, tmp_path):
        (tmp_path / f"good{BEACON_SUFFIX}").write_text(
            json.dumps(_beacon(worker="good")))
        (tmp_path / f"torn{BEACON_SUFFIX}").write_text('{"schema": "repro-be')
        (tmp_path / f"alien{BEACON_SUFFIX}").write_text(
            json.dumps({"schema": "other/1", "worker": "alien"}))
        (tmp_path / f"zz{BEACON_SUFFIX}").write_text(
            json.dumps(_beacon(worker="aa")))
        beacons = read_beacons(tmp_path)
        assert [b["worker"] for b in beacons] == ["aa", "good"]
        assert read_beacons(tmp_path / "missing") == []


# ---------------------------------------------------------------------------
# The beacon writer's timeline ring + OpenMetrics exposition.
class TestTimelineSampler:
    """Every beacon the writer writes is also a timeline ring entry."""

    def test_samples_carry_counters_deltas_and_extras(self, tmp_path):
        counters = {"sched.claims": 1.0}
        path = tmp_path / "t.timeline.jsonl"
        beacon = BeaconWriter(tmp_path / f"w1{BEACON_SUFFIX}", worker="w1",
                              interval=60.0, counters_fn=lambda: dict(counters),
                              timeline_path=path)
        beacon.start()
        counters["sched.claims"] = 4.0
        beacon.update(tasks_done=2)
        beacon.stop()
        samples = read_timeline(path)
        assert len(samples) == 3  # start + update + final
        assert samples[0]["counter_deltas"] == {"sched.claims": 1.0}
        assert samples[1]["counter_deltas"] == {"sched.claims": 3.0}
        assert samples[1]["tasks_done"] == 2
        assert all(s["worker"] == "w1" for s in samples)
        # The beacon is just the newest ring entry.
        assert samples[-1] == json.loads(beacon.path.read_text())
        assert samples[-1]["phase"] == "done"

    def test_ring_compaction_bounds_the_file(self, tmp_path, monkeypatch):
        from repro.telemetry import live

        monkeypatch.setattr(live, "TIMELINE_MAX_SAMPLES", 4)
        path = tmp_path / "t.timeline.jsonl"
        beacon = BeaconWriter(tmp_path / f"w{BEACON_SUFFIX}", worker="w",
                              interval=60.0, counters_fn=dict,
                              timeline_path=path)
        beacon.start()
        for done in range(1, 11):
            beacon.update(tasks_done=done)
        beacon.stop()
        lines = path.read_text().splitlines()
        assert len(lines) <= 5  # compacted to 4, plus at most one append
        samples = read_timeline(path)
        assert len(samples) == len(lines)
        assert [s["tasks_done"] for s in samples][-2:] == [10, 10]
        assert list(tmp_path.glob("*.tmp")) == []

    def test_concurrent_writes_never_tear_or_lose_ring_entries(self, tmp_path):
        """The refresh thread races every update(); whole writes are
        serialized, so each one lands as exactly one intact ring line."""
        import sys

        path = tmp_path / "t.timeline.jsonl"
        beacon = BeaconWriter(tmp_path / f"w{BEACON_SUFFIX}", worker="w",
                              interval=0.05, counters_fn=dict, timeline_path=path)
        written = []
        real_write = beacon.write

        def counting_write():
            payload = real_write()
            written.append(payload)
            return payload

        beacon.write = counting_write
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            beacon.start()
            threads = [
                threading.Thread(
                    target=lambda: [beacon.update(phase="running") for _ in range(50)]
                )
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
            beacon.stop()
        finally:
            sys.setswitchinterval(switch)
        lines = path.read_text().splitlines()
        assert len(lines) == len(written) >= 4 * 50 + 2
        ring = read_timeline(path)

        def canonical(docs):
            return sorted(json.dumps(doc, sort_keys=True) for doc in docs)

        assert canonical(ring) == canonical(written)
        assert json.loads(beacon.path.read_text()) == ring[-1]

    def test_read_timeline_tolerates_torn_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps(_beacon(worker="w1")) + "\n"
            + json.dumps({"schema": "other/1", "worker": "alien"}) + "\n"
            + '{"schema": "repro-beacon/1", "worker": "w\n'
        )
        assert [s["worker"] for s in read_timeline(path)] == ["w1"]
        assert read_timeline(tmp_path / "missing.jsonl") == []


class TestOpenMetrics:
    def test_exposition_format(self):
        text = render_openmetrics({
            "counters": {"sched.claims": 3.0},
            "gauges": {"engine.batched_speedup": 2.5, "unset": None},
            "histograms": {"train.loss": {
                "count": 4, "sum": 2.0, "p50": 0.4, "p95": 0.9}},
        })
        lines = text.splitlines()
        assert "# TYPE repro_sched_claims counter" in lines
        assert "repro_sched_claims_total 3" in lines
        assert "# TYPE repro_engine_batched_speedup gauge" in lines
        assert "repro_engine_batched_speedup 2.5" in lines
        assert "# TYPE repro_train_loss summary" in lines
        assert 'repro_train_loss{quantile="0.5"} 0.4' in lines
        assert 'repro_train_loss{quantile="0.95"} 0.9' in lines
        assert "repro_train_loss_count 4" in lines
        assert "repro_train_loss_sum 2" in lines
        assert "unset" not in text  # None gauges are skipped, not emitted as 0
        assert lines[-1] == "# EOF"

    def test_write_openmetrics_counts_lines_and_is_atomic(self, tmp_path):
        path = tmp_path / "m.prom"
        lines = write_openmetrics({"counters": {"a.b": 1.0}}, path)
        assert lines == len(path.read_text().splitlines())
        assert list(tmp_path.glob("*.tmp")) == []

    def test_bench_report_round_trips(self):
        """The full `repro bench --openmetrics` path: a build_report doc
        (histogram summaries, None gauges) renders without error."""
        from repro.telemetry.export import build_report

        registry, tracer = telemetry.MetricsRegistry(), telemetry.SpanTracer()
        registry.counter("pipeline.bits").add(3.0)
        registry.histogram("train.loss").observe(0.5)
        text = render_openmetrics(build_report(registry, tracer))
        assert "repro_pipeline_bits_total 3" in text and text.endswith("# EOF\n")


# ---------------------------------------------------------------------------
# Stitched fleet traces.
class TestStitchTraces:
    def _trace(self, name):
        return {
            "traceEvents": [
                {"name": "process_name", "ph": "M", "pid": 1,
                 "args": {"name": "repro"}},
                {"name": "sweep.task", "ph": "X", "pid": 1, "tid": 1,
                 "ts": 0.0, "dur": 5.0, "args": {"worker": name}},
            ],
            "displayTimeUnit": "ms",
        }

    def test_one_lane_per_worker(self):
        stitched = stitch_traces(
            [("w1", self._trace("w1")), ("w2", self._trace("w2"))],
            meta={"queue": "q"},
        )
        validate_trace(stitched)
        lanes = {e["pid"]: e["args"]["name"] for e in stitched["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert lanes == {1: "w1", 2: "w2"}
        spans = [e for e in stitched["traceEvents"] if e["ph"] == "X"]
        assert [s["pid"] for s in spans] == [1, 2]
        assert stitched["otherData"] == {"queue": "q"}


# ---------------------------------------------------------------------------
# Health detection (pure function over synthetic beacons -- no sleeping).
class TestDetectHealth:
    NOW = 1000.0

    def _detect(self, beacons, total=10, done=2, failed=0, expired=0, **kw):
        return detect_health(total, done, failed, beacons,
                             expired_leases=expired, now=self.NOW,
                             thresholds=HealthThresholds(**kw))

    def test_healthy_fleet_is_quiet(self):
        assert self._detect([_beacon(now=self.NOW)]) == []

    def test_stalled_worker(self):
        issues = self._detect([_beacon(updated_unix=self.NOW - 999)])
        assert [i["cause"] for i in issues] == ["stalled-worker"]
        assert issues[0]["worker"] == "w1"
        assert issues[0]["heartbeat_age_seconds"] == pytest.approx(999.0)

    def test_stale_beacon_of_drained_queue_is_fine(self):
        beacons = [_beacon(updated_unix=self.NOW - 999)]
        assert self._detect(beacons, total=10, done=10) == []
        assert self._detect([_beacon(phase="done",
                                     updated_unix=self.NOW - 999)]) == []

    def test_no_progress_while_heartbeat_fresh(self):
        beacon = _beacon(updated_unix=self.NOW,
                         last_progress_unix=self.NOW - 120,
                         current_task="m|K1|seed=0|a")
        issues = self._detect([beacon])
        assert [i["cause"] for i in issues] == ["no-progress"]
        assert issues[0]["current_task"] == "m|K1|seed=0|a"

    def test_clock_skew(self):
        issues = self._detect([_beacon(updated_unix=self.NOW + 60)])
        assert [i["cause"] for i in issues] == ["clock-skew"]
        assert issues[0]["skew_seconds"] == pytest.approx(60.0)

    def test_expired_lease_churn_sums_beacons_and_queue(self):
        beacons = [_beacon(worker="w1", now=self.NOW, steals=2)]
        issues = self._detect(beacons, expired=1)
        assert [i["cause"] for i in issues] == ["expired-lease-churn"]
        assert issues[0]["expired_total"] == 3
        # ... but a drained queue's historical churn is not a live problem.
        assert self._detect(beacons, total=2, done=2, expired=1) == []

    def test_failure_rate_needs_volume_and_ratio(self):
        assert self._detect([], done=2, failed=1) == []  # below min_failures
        issues = self._detect([], done=4, failed=2)
        assert [i["cause"] for i in issues] == ["failure-rate"]
        assert (issues[0]["failed"], issues[0]["done"]) == (2, 4)

    def test_every_registered_cause_is_reachable(self):
        beacons = [
            _beacon(worker="stale", updated_unix=self.NOW - 999),
            _beacon(worker="future", updated_unix=self.NOW + 60),
            _beacon(worker="wedged", updated_unix=self.NOW,
                    last_progress_unix=self.NOW - 999, steals=5),
        ]
        issues = self._detect(beacons, done=4, failed=2)
        assert {i["cause"] for i in issues} == HEALTH_CAUSES

    def test_unregistered_cause_is_rejected(self):
        with pytest.raises(TelemetryError, match="not registered"):
            health_issue("totally-new-cause", "nope")


# ---------------------------------------------------------------------------
# Fleet end-to-end: queue drain with the live layer on.
class TestFleetEndToEnd:
    def test_live_layer_never_perturbs_merged_bytes(self, tmp_path, monkeypatch):
        """Acceptance: beacons + their timeline rings + a fault-injection
        delay on one worker change nothing about the merged
        rows/metrics/events, and a live worker runs one writer thread."""
        from repro.parallel import scheduler

        live_threads = set()

        def observed_runner(payload):
            live_threads.update(
                t.name for t in threading.enumerate()
                if t.name.startswith(("beacon-", "timeline-"))
            )
            return _rich_runner(payload)

        grid = _grid()
        reference = _reference(tmp_path, grid)
        manifest = init_queue(tmp_path / "q", grid, lease_ttl=60.0)
        monkeypatch.setenv(scheduler.FAULT_DELAY_ENV, "0.02")
        slow = run_queue(tmp_path / "q", worker_id="slow", task_runner=_rich_runner,
                         max_tasks=2, wait_for_completion=False,
                         beacon_interval=0.1)
        monkeypatch.delenv(scheduler.FAULT_DELAY_ENV)

        # Mid-drain snapshot: one worker finished its slice, queue not drained.
        fleet = queue_status(tmp_path / "q")
        assert fleet["schema"] == "repro-live/1"
        assert not fleet["drained"] and fleet["done"] == 2
        assert [w["worker"] for w in fleet["workers"]] == ["slow"]
        assert fleet["drain_percent"] == 33.33  # rounded for display

        fast = run_queue(tmp_path / "q", worker_id="fast", task_runner=observed_runner,
                         beacon_interval=0.1)
        assert live_threads == {"beacon-fast"}
        result = merge_journals([slow.journal_path, fast.journal_path])
        _assert_identical(tmp_path, result, reference)

        # The live artifacts exist, in their own subdirs, outside journals/.
        beacons = read_beacons(manifest.root / BEACON_DIR)
        assert [b["worker"] for b in beacons] == ["fast", "slow"]
        assert all(b["phase"] == "done" for b in beacons)
        assert beacons[0]["tasks_done"] == fast.claims
        ring = read_timeline(manifest.timeline_path("fast"))
        assert ring and {s["worker"] for s in ring} == {"fast"}
        assert ring[-1] == beacons[0]  # the beacon is the newest ring entry
        assert not list((manifest.root / "journals").glob("*beacon*"))

        # Drained snapshot: ETA collapses to 0 and health is quiet.
        fleet = queue_status(tmp_path / "q")
        assert fleet["drained"] and fleet["eta_seconds"] == 0.0
        assert fleet["done"] == 6 and fleet["health"] == []
        assert len(fleet["workers"]) == 2
        text = format_fleet(fleet)
        assert "drained: yes" in text and "health: ok" in text

    def test_queue_status_reports_heartbeats_and_lease_countdowns(self, tmp_path):
        import time as _time

        grid = _grid()
        manifest = init_queue(tmp_path / "q", grid, lease_ttl=60.0)
        run_queue(tmp_path / "q", worker_id="w1", task_runner=_rich_runner,
                  max_tasks=1, wait_for_completion=False, beacon_interval=0.1)
        claim_next(manifest, "w2")  # a live lease, never executed
        payload = queue_status(tmp_path / "q")
        assert payload["failed"] == 0
        assert [w["worker"] for w in payload["workers"]] == ["w1"]
        assert payload["workers"][0]["heartbeat_age_seconds"] < 60.0
        (lease,) = payload["leases"]
        assert lease["worker"] == "w2" and not lease["expired"]
        assert 0.0 < lease["expires_in_seconds"] <= 60.0
        # One clock decides both a lease's countdown and its expiry.
        later = queue_status(tmp_path / "q", now=_time.time() + 120.0)
        (lease,) = later["leases"]
        assert lease["expired"] and lease["expires_in_seconds"] < 0.0
        assert later["expired_leases"] == 1

    def test_synthetic_stalled_worker_surfaces_everywhere(self, tmp_path, capsys):
        """A beacon whose heartbeat went stale mid-drain must raise
        ``stalled-worker`` in queue_status() and in the text of both the
        queue-status and watch CLIs -- and its dead rate must not count
        toward fleet throughput."""
        import time as _time

        from repro.cli import main

        grid = _grid()
        manifest = init_queue(tmp_path / "q", grid, lease_ttl=60.0)
        run_queue(tmp_path / "q", worker_id="live", task_runner=_rich_runner,
                  max_tasks=1, wait_for_completion=False, beacon_interval=0.1)
        stale = _beacon(worker="ghost", now=_time.time() - 999,
                        rate_tasks_per_s=5.0)
        beacon_dir = manifest.root / BEACON_DIR
        beacon_dir.mkdir(parents=True, exist_ok=True)
        (beacon_dir / f"ghost{BEACON_SUFFIX}").write_text(json.dumps(stale))

        fleet = queue_status(tmp_path / "q")
        assert "stalled-worker" in [i["cause"] for i in fleet["health"]]
        assert json.loads(json.dumps(fleet))["health"] == fleet["health"]
        assert fleet["throughput_tasks_per_s"] < 5.0
        assert "health [stalled-worker]" in format_fleet(fleet)
        capsys.readouterr()
        assert main(["queue-status", str(tmp_path / "q")]) == 1  # tasks open
        assert main(["watch", str(tmp_path / "q"), "--once"]) == 0
        out = capsys.readouterr().out
        assert out.count("health [stalled-worker]") == 2

    def test_fleet_trace_stitches_one_lane_per_worker(self, tmp_path):
        grid = _grid(methods=("a", "b"), seeds=(0,))
        init_queue(tmp_path / "q", grid, lease_ttl=60.0)
        run_queue(tmp_path / "q", worker_id="w1", task_runner=_rich_runner,
                  max_tasks=1, wait_for_completion=False, beacon_interval=0)
        run_queue(tmp_path / "q", worker_id="w2", task_runner=_rich_runner,
                  beacon_interval=0)
        trace = fleet_trace_from_queue(tmp_path / "q")
        validate_trace(trace)
        lanes = sorted(e["args"]["name"] for e in trace["traceEvents"]
                       if e["ph"] == "M" and e["name"] == "process_name")
        assert lanes == ["w1", "w2"]
        out = tmp_path / "fleet.trace.json"
        assert write_fleet_trace(out, tmp_path / "q") == len(trace["traceEvents"])
        validate_trace(json.loads(out.read_text()))

    def test_queue_status_rejects_non_queue_dir(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SweepError, match="not a queue directory"):
            queue_status(tmp_path)
        assert main(["queue-status", str(tmp_path)]) == 2
        assert "queue-status failed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The watch CLI and the plain-sweep live directory.
class TestWatchCli:
    def _drain(self, tmp_path):
        grid = _grid(methods=("a", "b"), seeds=(0,))
        init_queue(tmp_path / "q", grid, lease_ttl=60.0)
        run_queue(tmp_path / "q", worker_id="w1", task_runner=_rich_runner,
                  beacon_interval=0.1)
        return tmp_path / "q"

    def test_watch_once_json_snapshot(self, tmp_path, capsys):
        from repro.cli import main

        qdir = self._drain(tmp_path)
        assert main(["watch", str(qdir), "--once", "--json"]) == 0
        fleet = json.loads(capsys.readouterr().out)
        assert fleet["schema"] == "repro-live/1"
        assert fleet["drained"] is True and fleet["health"] == []
        assert [w["worker"] for w in fleet["workers"]] == ["w1"]

    def test_queue_status_and_watch_print_one_document(self, tmp_path, capsys,
                                                       monkeypatch):
        """At one clock, ``queue-status --json`` and ``watch --once --json``
        print the same repro-live/1 document; only the exit codes differ."""
        import time as _time

        from repro.cli import main

        grid = _grid()
        manifest = init_queue(tmp_path / "q", grid, lease_ttl=60.0)
        run_queue(tmp_path / "q", worker_id="w1", task_runner=_rich_runner,
                  max_tasks=2, wait_for_completion=False, beacon_interval=0.1)
        claim_next(manifest, "w2")  # a live lease with a countdown
        frozen = _time.time()
        monkeypatch.setattr(_time, "time", lambda: frozen)
        assert main(["queue-status", str(tmp_path / "q"), "--json"]) == 1
        status = capsys.readouterr().out
        assert main(["watch", str(tmp_path / "q"), "--once", "--json"]) == 0
        assert capsys.readouterr().out == status
        fleet = json.loads(status)
        assert fleet["schema"] == "repro-live/1" and not fleet["drained"]
        assert fleet["journals"] == ["w1"]
        (lease,) = fleet["leases"]
        assert lease["worker"] == "w2" and not lease["expired"]
        assert [w["worker"] for w in fleet["workers"]] == ["w1"]

    def test_watch_loops_until_drained_and_writes_trace(self, tmp_path, capsys):
        from repro.cli import main

        qdir = self._drain(tmp_path)
        trace_path = tmp_path / "fleet.json"
        # Already drained: the no-flag loop renders once and exits.
        assert main(["watch", str(qdir), "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "drained: yes" in out and "stitched fleet trace" in out
        validate_trace(json.loads(trace_path.read_text()))

    def test_watch_rejects_non_queue_dir(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["watch", str(tmp_path)]) == 2
        assert "watch failed" in capsys.readouterr().err

    def test_watch_stall_after_flag_reaches_detection(self, tmp_path, capsys):
        import time as _time

        from repro.cli import main

        grid = _grid()
        manifest = init_queue(tmp_path / "q", grid, lease_ttl=60.0)
        run_queue(tmp_path / "q", worker_id="w1", task_runner=_rich_runner,
                  max_tasks=1, wait_for_completion=False, beacon_interval=0)
        beacon_dir = manifest.root / BEACON_DIR
        beacon_dir.mkdir(parents=True, exist_ok=True)
        (beacon_dir / f"ghost{BEACON_SUFFIX}").write_text(
            json.dumps(_beacon(worker="ghost", now=_time.time() - 10)))
        # 10 s of silence is a stall only under the tightened threshold.
        assert main(["watch", str(tmp_path / "q"), "--once", "--json",
                     "--stall-after", "5"]) == 0
        fleet = json.loads(capsys.readouterr().out)
        assert "stalled-worker" in [i["cause"] for i in fleet["health"]]

    def test_queue_dir_report_renders_scheduler_decisions(self, tmp_path, capsys):
        """``repro report <queue-dir>`` renders a per-worker results table
        plus the scheduler-decision table from the ``--events`` decision
        logs copied into ``<queue>/events/``."""
        from repro.cli import main
        from repro.telemetry.report import render_report

        grid = _grid(methods=("a", "b"), seeds=(0,))
        manifest = init_queue(tmp_path / "q", grid, lease_ttl=60.0)
        telemetry.enable_events()
        telemetry.get_recorder().reset()
        run_queue(tmp_path / "q", worker_id="w1", task_runner=_rich_runner,
                  beacon_interval=0)
        events_path = manifest.events_path("w1")
        events_path.parent.mkdir(parents=True, exist_ok=True)
        telemetry.dump_events(str(events_path), meta={"worker": "w1"})

        assert main(["report", str(tmp_path / "q")]) == 0
        out = capsys.readouterr().out
        assert "# Queue fleet report" in out
        assert "## Scheduler decisions" in out
        assert "| w1 | 2 | 0 | 2 | 0 | 0 |" in out  # claims/steals/commits/...

        payload = json.loads(render_report(str(tmp_path / "q"), fmt="json"))
        assert payload["source"] == "queue"
        assert payload["report"]["sched"]["w1"]["claim"] == 2
        assert payload["report"]["sched"]["w1"]["commit"] == 2
        assert payload["report"]["workers"]["w1"]["ok"] == 2

    def test_queue_dir_report_without_decision_logs_degrades(self, tmp_path):
        from repro.telemetry.report import render_report

        grid = _grid(methods=("a",), seeds=(0,))
        init_queue(tmp_path / "q", grid, lease_ttl=60.0)
        run_queue(tmp_path / "q", worker_id="w1", task_runner=_rich_runner,
                  beacon_interval=0)
        markdown = render_report(str(tmp_path / "q"))
        assert "no decision logs found" in markdown

    def test_plain_sweep_live_dir_beacon(self, tmp_path):
        grid = _grid(methods=("a",), seeds=(0, 1))
        live_dir = tmp_path / "live"
        run_sweep(grid, workers=1, task_runner=_rich_runner,
                  journal_path=str(tmp_path / "j.jsonl"),
                  live_dir=str(live_dir), beacon_interval=0.1)
        (beacon,) = read_beacons(live_dir)
        assert beacon["phase"] == "done"
        assert beacon["tasks_done"] == 2 and beacon["tasks_failed"] == 0
        (ring,) = (live_dir / "timeline").glob("*.timeline.jsonl")
        assert read_timeline(ring)[-1] == beacon
