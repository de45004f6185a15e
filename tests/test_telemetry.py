"""Telemetry layer: registry merges, nested spans, disabled no-ops,
JSON/JSONL round-trips and the bench determinism gate."""

import json
from pathlib import Path

import pytest

from repro import telemetry
from repro.telemetry import (
    MetricsRegistry,
    SpanTracer,
    TelemetryError,
    build_report,
    read_json,
    read_jsonl,
    write_json,
    write_jsonl,
)
from repro.telemetry.regression import compare_reports


class TestRegistry:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        registry.counter("bits").add(3)
        registry.counter("bits").add(2)
        assert registry.snapshot()["counters"]["bits"] == 5
        with pytest.raises(TelemetryError):
            registry.counter("bits").add(-1)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("asr").set(0.2)
        registry.gauge("asr").set(0.9)
        assert registry.snapshot()["gauges"]["asr"] == 0.9

    def test_histogram_summary_is_deterministic(self):
        registry = MetricsRegistry()
        for value in (5.0, 1.0, 3.0, 2.0, 4.0):
            registry.histogram("lat").observe(value)
        summary = registry.snapshot()["histograms"]["lat"]
        assert summary["count"] == 5
        assert summary["min"] == 1.0 and summary["max"] == 5.0
        assert summary["mean"] == 3.0
        assert summary["p50"] == 3.0

    def test_name_cannot_change_kind(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TelemetryError):
            registry.gauge("x")

    def test_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("flips").add(2)
        b.counter("flips").add(3)
        b.counter("only_b").add(1)
        a.gauge("asr").set(0.5)
        b.gauge("asr").set(0.8)
        a.histogram("t").observe(1.0)
        b.histogram("t").observe(2.0)
        a.merge(b)
        snap = a.snapshot()
        assert snap["counters"]["flips"] == 5  # counters add
        assert snap["counters"]["only_b"] == 1  # new metrics appear
        assert snap["gauges"]["asr"] == 0.8  # gauges: other wins
        assert snap["histograms"]["t"]["count"] == 2  # histograms concatenate

    def test_merge_is_seed_safe(self):
        """Merging shards in any order yields identical counter totals."""
        shards = []
        for value in (1, 2, 3):
            shard = MetricsRegistry()
            shard.counter("n").add(value)
            shards.append(shard)
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for shard in shards:
            forward.merge(shard)
        for shard in reversed(shards):
            backward.merge(shard)
        assert forward.snapshot() == backward.snapshot()


class TestSpans:
    def test_nesting_builds_paths(self):
        tracer = SpanTracer()
        with tracer.span("pipeline"):
            with tracer.span("offline"):
                pass
            with tracer.span("online"):
                with tracer.span("hammer"):
                    pass
        assert [r.path for r in tracer.all_records()] == [
            "pipeline", "pipeline/offline", "pipeline/online", "pipeline/online/hammer",
        ]
        assert tracer.find("pipeline/online/hammer") is not None

    def test_durations_nonzero_and_parent_covers_child(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(1000))
        outer, inner = tracer.roots[0], tracer.roots[0].children[0]
        assert outer.duration_seconds >= inner.duration_seconds >= 0.0

    def test_repeated_stage_aggregates(self):
        tracer = SpanTracer()
        with tracer.span("train"):
            for epoch in range(3):
                with tracer.span("epoch", epoch=epoch):
                    pass
        stats = tracer.stage_durations()
        assert stats["train/epoch"]["count"] == 3
        assert stats["train"]["count"] == 1

    def test_span_closes_on_exception(self):
        tracer = SpanTracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert tracer._stack == []
        assert tracer.roots[0].duration_seconds >= 0.0

    def test_reset_inside_open_span_requires_force(self):
        tracer = SpanTracer()
        with tracer.span("open"):
            with pytest.raises(TelemetryError):
                tracer.reset()
            tracer.reset(force=True)
        assert tracer.roots == []

    def test_slash_in_name_rejected(self):
        tracer = SpanTracer()
        with pytest.raises(TelemetryError):
            with tracer.span("a/b"):
                pass


class TestDisabledMode:
    def test_disabled_records_nothing(self):
        assert not telemetry.enabled()  # the conftest guard's default
        with telemetry.span("ghost"):
            telemetry.counter_add("ghost.counter", 7)
            telemetry.gauge_set("ghost.gauge", 1.0)
            telemetry.histogram_observe("ghost.hist", 1.0)
        report = telemetry.dump()
        assert report["spans"] == {}
        assert report["counters"] == {}
        assert report["gauges"] == {}
        assert report["histograms"] == {}

    def test_disabled_span_is_shared_noop(self):
        first, second = telemetry.span("a"), telemetry.span("b")
        assert first is second  # no per-call allocation on the hot path

    def test_enable_disable_toggles_recording(self):
        telemetry.enable()
        telemetry.counter_add("real", 1)
        telemetry.disable()
        telemetry.counter_add("real", 100)
        assert telemetry.dump()["counters"] == {"real": 1}


class TestExport:
    def _populate(self):
        registry = MetricsRegistry()
        tracer = SpanTracer()
        registry.counter("online.bits_flipped").add(4)
        registry.gauge("attack.asr").set(0.97)
        registry.histogram("epoch_seconds").observe(0.5)
        registry.histogram("epoch_seconds").observe(0.7)
        with tracer.span("bench"):
            with tracer.span("train", epochs=2):
                pass
            with tracer.span("attack"):
                pass
        return registry, tracer

    def test_json_report_round_trip(self, tmp_path):
        registry, tracer = self._populate()
        report = build_report(registry, tracer, meta={"seed": 0})
        path = tmp_path / "BENCH_pipeline.json"
        write_json(report, path)
        loaded = read_json(path)
        assert loaded == json.loads(json.dumps(report))  # stable through JSON
        assert loaded["meta"]["seed"] == 0
        assert set(loaded["spans"]) == {"bench", "bench/train", "bench/attack"}

    def test_read_json_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/9"}))
        with pytest.raises(TelemetryError):
            read_json(path)

    def test_jsonl_round_trip(self, tmp_path):
        registry, tracer = self._populate()
        path = tmp_path / "telemetry.jsonl"
        lines = write_jsonl(registry, tracer, path)
        assert lines == len(path.read_text().splitlines())
        registry2, tracer2 = read_jsonl(path)
        assert registry2.snapshot() == registry.snapshot()
        assert registry2.histogram_values() == registry.histogram_values()
        assert tracer2.stage_durations() == tracer.stage_durations()
        assert [r.attributes for r in tracer2.all_records()] == [
            r.attributes for r in tracer.all_records()
        ]


class TestRegressionGate:
    """The exact rule: every seeded baseline metric must be equal."""

    def _report(self):
        return {
            "schema": telemetry.SCHEMA,
            "counters": {"online.bits_flipped": 4.0, "hammer.attempts": 3936.0},
            "gauges": {"online.r_match": 99.8},
            "histograms": {"cft.round_asr": {"count": 2, "sum": 2.0, "p50": 1.0}},
            "events": {"cft.round": 2},
            "spans": {
                "bench": {"count": 1, "total_seconds": 1.0,
                          "min_seconds": 1.0, "max_seconds": 1.0},
            },
            "meta": {"python": "3.12.0"},
        }

    def _failed(self, base, cand):
        return [(d.kind, d.name) for d in compare_reports(base, cand) if d.failed]

    def test_identical_reports_pass(self):
        deviations = compare_reports(self._report(), self._report())
        assert not any(d.failed for d in deviations)
        assert {d.kind for d in deviations} == {"counter", "gauge", "histogram", "event"}

    @pytest.mark.parametrize("delta", [1.0, -1.0, 1e-9])
    def test_any_counter_difference_fails_improvements_included(self, delta):
        cand = self._report()
        cand["counters"]["hammer.attempts"] += delta
        assert self._failed(self._report(), cand) == [("counter", "hammer.attempts")]

    def test_gauge_difference_fails(self):
        cand = self._report()
        cand["gauges"]["online.r_match"] = 99.9
        assert self._failed(self._report(), cand) == [("gauge", "online.r_match")]

    @pytest.mark.parametrize("field", ["count", "sum", "p50"])
    def test_every_histogram_field_is_gated(self, field):
        cand = self._report()
        cand["histograms"]["cft.round_asr"][field] += 1
        assert self._failed(self._report(), cand) == [
            ("histogram", f"cft.round_asr.{field}")
        ]

    def test_event_count_difference_fails(self):
        cand = self._report()
        cand["events"]["cft.round"] = 3
        assert self._failed(self._report(), cand) == [("event", "cft.round")]

    def test_spans_and_meta_are_never_compared(self):
        cand = self._report()
        cand["spans"]["bench"]["total_seconds"] = 9.0
        cand["spans"]["bench/new"] = dict(cand["spans"]["bench"])
        cand["meta"]["python"] = "3.9.0"
        assert self._failed(self._report(), cand) == []
        del cand["spans"]["bench"]
        assert self._failed(self._report(), cand) == []

    def test_new_candidate_metrics_pass(self):
        cand = self._report()
        cand["counters"]["engine.cache.hit"] = 7.0
        cand["gauges"]["new.gauge"] = 0.5
        cand["histograms"]["new.hist"] = {"count": 1}
        cand["events"]["verify.flip"] = 2
        assert self._failed(self._report(), cand) == []

    @pytest.mark.parametrize(
        "section, name, kind, failed_name",
        [
            ("counters", "online.bits_flipped", "counter", "online.bits_flipped"),
            ("gauges", "online.r_match", "gauge", "online.r_match"),
            ("histograms", "cft.round_asr", "histogram", "cft.round_asr.count"),
            ("events", "cft.round", "event", "cft.round"),
        ],
    )
    def test_missing_metric_fails(self, section, name, kind, failed_name):
        from repro.telemetry.regression import format_comparison

        cand = self._report()
        del cand[section][name]
        deviations = compare_reports(self._report(), cand)
        assert (kind, failed_name) in [(d.kind, d.name) for d in deviations if d.failed]
        assert "candidate=missing" in format_comparison(deviations)

    def test_format_lists_failures_first_and_counts_them(self):
        from repro.telemetry.regression import format_comparison

        cand = self._report()
        cand["counters"]["online.bits_flipped"] = 5.0
        lines = format_comparison(compare_reports(self._report(), cand)).splitlines()
        assert lines[0].startswith("[FAIL] counter") and "online.bits_flipped" in lines[0]
        assert lines[-1] == "bench-regression: 1 failed / 7 metrics"


class TestClosedStdout:
    """``repro bench-check ... | head -1``: the reader closes the pipe early."""

    def _run(self, tmp_path, candidate_counters):
        import os
        import subprocess
        import sys

        # Enough lines to overflow a pipe buffer, so the writer must hit
        # the closed pipe rather than finish into the buffer.
        counters = {f"c.{i:05d}": float(i) for i in range(4000)}
        for name, counters_ in (("base", counters), ("cand", candidate_counters(counters))):
            (tmp_path / f"{name}.json").write_text(
                json.dumps({"schema": telemetry.SCHEMA, "counters": counters_})
            )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "bench-check",
             str(tmp_path / "base.json"), str(tmp_path / "cand.json")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        return proc.wait(timeout=60), first.decode(), stderr

    def test_a_failing_gate_keeps_exit_1_without_a_traceback(self, tmp_path):
        def drift(counters):
            return {**counters, "c.00000": 1.0}

        code, first, stderr = self._run(tmp_path, drift)
        assert first.startswith("[FAIL] counter")
        assert code == 1
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr

    def test_a_passing_gate_keeps_exit_0_without_a_traceback(self, tmp_path):
        code, first, stderr = self._run(tmp_path, dict)
        assert first.startswith("[  ok] counter")
        assert code == 0
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr


class TestBenchBaseline:
    def test_fresh_bench_equals_the_committed_baseline_with_an_empty_cache(
        self, tmp_path, monkeypatch
    ):
        """``repro bench`` never reads the model cache, and every seeded
        metric of a fresh run equals ``benchmarks/BENCH_pipeline.json``."""
        from repro.core.bench import run_bench
        from repro.telemetry.regression import format_comparison

        cache = tmp_path / "cache"
        cache.mkdir()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        fresh = run_bench(out=str(tmp_path / "BENCH_pipeline.json"))
        baseline = read_json(
            Path(__file__).resolve().parent.parent / "benchmarks" / "BENCH_pipeline.json"
        )
        deviations = compare_reports(baseline, fresh)
        assert not any(d.failed for d in deviations), format_comparison(deviations)
        assert list(cache.iterdir()) == []


class TestPipelineIntegration:
    def test_enabled_training_records_epochs(self, tiny_model, tiny_dataset):
        from repro.core.training import TrainingConfig, train_model

        telemetry.enable()
        train_model(tiny_model, tiny_dataset, TrainingConfig(epochs=2, seed=0))
        report = telemetry.dump()
        assert report["counters"]["train.epochs"] == 2
        assert report["spans"]["train.epoch"]["count"] == 2

    def test_hammer_counters(self, small_dram):
        from repro.rowhammer.device_profiles import get_profile
        from repro.rowhammer.hammer import HammerEngine

        telemetry.enable()
        engine = HammerEngine(small_dram, get_profile("K1"))
        engine.hammer_victim(0, 1, n_sides=7)
        counters = telemetry.dump()["counters"]
        assert counters["hammer.attempts"] == 1
        assert counters["hammer.simulated_seconds"] == pytest.approx(0.4)


class TestWorkerShipping:
    """The primitives sweep workers use to ship telemetry across processes."""

    def test_merge_snapshot_folds_plain_dicts(self):
        registry = MetricsRegistry()
        registry.counter("flips").add(1)
        registry.gauge("loss").set(9.0)
        registry.merge_snapshot(
            counters={"flips": 2, "rounds": 1},
            gauges={"loss": 0.5, "absent": None},
            histogram_values={"epoch_seconds": [1.0, 2.0]},
        )
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"flips": 3, "rounds": 1}
        assert snapshot["gauges"] == {"loss": 0.5}  # last writer wins, None skipped
        assert registry.histogram_values()["epoch_seconds"] == [1.0, 2.0]

    def test_span_record_dict_round_trip(self):
        from repro.telemetry.spans import SpanRecord

        record = SpanRecord(name="a", path="a", duration_seconds=1.0,
                            attributes={"k": 1})
        record.children.append(SpanRecord(name="b", path="a/b", duration_seconds=0.5))
        rebuilt = SpanRecord.from_dict(record.to_dict())
        assert rebuilt.to_dict() == record.to_dict()

    def test_attach_rebases_under_the_open_span(self):
        from repro.telemetry.spans import SpanRecord

        tracer = SpanTracer()
        shipped = SpanRecord(name="task", path="stale/prefix/task")
        shipped.children.append(SpanRecord(name="stage", path="stale/prefix/task/stage"))
        with tracer.span("sweep"):
            tracer.attach(shipped)
        assert shipped.path == "sweep/task"
        assert shipped.children[0].path == "sweep/task/stage"
        assert "sweep/task/stage" in tracer.stage_durations()
        # Without an open span the record becomes a root.
        orphan = tracer.attach(SpanRecord(name="solo", path="x/solo"))
        assert orphan.path == "solo" and orphan in tracer.roots

    def test_isolated_swaps_and_restores_the_module_globals(self):
        telemetry.enable()
        telemetry.counter_add("outer", 1)
        outer_registry = telemetry.get_registry()
        with telemetry.isolated(enable=True) as (registry, tracer):
            assert telemetry.get_registry() is registry
            telemetry.counter_add("inner", 5)
            with telemetry.span("inner_stage"):
                pass
            assert registry.snapshot()["counters"] == {"inner": 5}
        assert telemetry.get_registry() is outer_registry
        assert telemetry.get_registry().snapshot()["counters"] == {"outer": 1}
        assert telemetry.get_tracer().find("inner_stage") is None

    def test_isolated_restores_enabled_flag(self):
        assert not telemetry.enabled()
        with telemetry.isolated(enable=True):
            assert telemetry.enabled()
        assert not telemetry.enabled()
