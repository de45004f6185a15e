"""Flight recorder, run manifests, trace export and ``repro report``."""

from __future__ import annotations

import json
import logging

import pytest

from repro import telemetry
from repro.log import configure, get_logger, verbosity_to_level
from repro.telemetry import Event, EventRecorder, FLIGHT_SCHEMA, TelemetryError
from repro.telemetry.events import read_events_jsonl, write_events_jsonl
from repro.telemetry.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    manifest_path_for,
    read_manifest,
    write_manifest,
)
from repro.telemetry.regression import compare_reports, format_comparison
from repro.telemetry.report import detect_input_kind, render_report
from repro.telemetry.spans import SpanTracer
from repro.telemetry.trace import build_trace, validate_trace, write_trace


# ---------------------------------------------------------------------------
# EventRecorder
# ---------------------------------------------------------------------------
class TestEventRecorder:
    def test_record_assigns_monotone_sequence_numbers(self):
        recorder = EventRecorder()
        first = recorder.record("cft.round", span="attack", round=0, loss=1.5)
        second = recorder.record("cft.flip_committed", index=12)
        assert (first.seq, second.seq) == (0, 1)
        assert len(recorder) == 2
        assert first.span == "attack" and second.span == ""
        assert second.data == {"index": 12}

    def test_reset_clears_events_and_sequence(self):
        recorder = EventRecorder()
        recorder.record("a")
        recorder.reset()
        assert len(recorder) == 0
        assert recorder.record("b").seq == 0

    def test_kind_counts_and_by_kind_are_sorted_views(self):
        recorder = EventRecorder()
        for kind in ("z.last", "a.first", "z.last"):
            recorder.record(kind)
        assert recorder.kind_counts() == {"a.first": 1, "z.last": 2}
        assert [e.seq for e in recorder.by_kind()["z.last"]] == [0, 2]

    def test_event_dict_round_trip(self):
        event = Event(seq=7, kind="verify.flip", span="pipeline/online",
                      data={"page": 3, "bit": 5, "achieved": True})
        assert Event.from_dict(event.to_dict()) == event
        # Worker shipping goes through JSON; survive that too.
        assert Event.from_dict(json.loads(json.dumps(event.to_dict()))) == event

    def test_attach_renumbers_and_rebases_span_paths(self):
        worker = EventRecorder()
        worker.record("hammer.attempt", span="online.hammer", row=4)
        worker.record("verify.summary")  # no open span in the worker
        parent = EventRecorder()
        parent.record("sweep.start")
        attached = parent.attach(worker.to_dicts(), base_path="sweep/task0")
        assert [e.seq for e in attached] == [1, 2]
        assert attached[0].span == "sweep/task0/online.hammer"
        assert attached[1].span == "sweep/task0"  # empty span -> base path
        assert attached[0].data == {"row": 4}
        # Without a base path the shipped span is kept verbatim.
        plain = EventRecorder().attach(worker.to_dicts())
        assert [e.span for e in plain] == ["online.hammer", ""]


# ---------------------------------------------------------------------------
# Module-level facade: events_enabled gating and isolation
# ---------------------------------------------------------------------------
class TestFacade:
    def test_event_is_dropped_unless_events_enabled(self):
        telemetry.event("cft.round", round=0)
        assert len(telemetry.get_recorder()) == 0
        telemetry.enable_events()
        telemetry.event("cft.round", round=1)
        assert len(telemetry.get_recorder()) == 1

    def test_event_captures_the_open_span_path(self):
        # Spans record only while metrics are enabled; with both streams on,
        # each event inherits the innermost open span's path.
        telemetry.enable()
        telemetry.enable_events()
        with telemetry.span("pipeline"):
            with telemetry.span("online"):
                telemetry.event("massage.release", pages=2)
        (event,) = telemetry.get_recorder().events
        assert event.span == "pipeline/online"

    def test_isolated_swaps_recorder_and_restores_flags(self):
        telemetry.enable_events()
        telemetry.event("outer")
        outer_recorder = telemetry.get_recorder()
        with telemetry.isolated(record_events=True):
            assert telemetry.get_recorder() is not outer_recorder
            telemetry.event("inner")
            assert telemetry.get_recorder().kind_counts() == {"inner": 1}
        assert telemetry.get_recorder() is outer_recorder
        assert telemetry.events_enabled()
        assert outer_recorder.kind_counts() == {"outer": 1}

    def test_isolated_can_disable_event_recording(self):
        telemetry.enable_events()
        with telemetry.isolated(record_events=False):
            telemetry.event("dropped")
            assert len(telemetry.get_recorder()) == 0
        assert telemetry.events_enabled()


# ---------------------------------------------------------------------------
# Flight-record JSONL
# ---------------------------------------------------------------------------
class TestFlightJsonl:
    def _recorder(self) -> EventRecorder:
        recorder = EventRecorder()
        recorder.record("attack.offline_start", span="bench", method="CFT+BR", seed=0)
        recorder.record("verify.summary", required=2, achieved=2)
        return recorder

    def test_round_trip_and_byte_determinism(self, tmp_path):
        recorder = self._recorder()
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        lines = write_events_jsonl(recorder, path_a, meta={"seed": 0})
        write_events_jsonl(recorder, path_b, meta={"seed": 0})
        assert lines == 3  # schema line + two events
        assert path_a.read_bytes() == path_b.read_bytes()
        assert read_events_jsonl(path_a) == recorder.events
        schema = json.loads(path_a.read_text().splitlines()[0])
        assert schema == {"kind": "schema", "value": FLIGHT_SCHEMA,
                          "meta": {"seed": 0}}

    def test_read_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"kind": "header", "grid_sha": "x"}\n')
        with pytest.raises(TelemetryError, match="flight schema"):
            read_events_jsonl(path)

    def test_dump_events_writes_the_active_recorder(self, tmp_path):
        telemetry.enable_events()
        telemetry.event("cft.round", round=0)
        path = tmp_path / "run.events.jsonl"
        assert telemetry.dump_events(path, meta={"command": "test"}) == 2
        assert [e.kind for e in read_events_jsonl(path)] == ["cft.round"]


# ---------------------------------------------------------------------------
# Chrome-trace / Perfetto export
# ---------------------------------------------------------------------------
class TestTraceExport:
    def _tracer_and_recorder(self):
        tracer = SpanTracer()
        recorder = EventRecorder()
        with tracer.span("pipeline"):
            with tracer.span("offline"):
                recorder.record("cft.round", span="pipeline/offline", round=0)
                recorder.record("cft.round", span="pipeline/offline", round=1)
            with tracer.span("online"):
                recorder.record("hammer.attempt", span="pipeline/online", row=3)
        recorder.record("orphan")  # no interval for this span path
        return tracer, recorder

    def test_build_trace_validates_and_nests(self):
        tracer, recorder = self._tracer_and_recorder()
        trace = build_trace(tracer, recorder, meta={"seed": 0})
        validate_trace(trace)
        events = trace["traceEvents"]
        spans = {e["name"]: e for e in events if e["ph"] == "X"}
        assert set(spans) == {"pipeline", "offline", "online"}
        parent, child = spans["pipeline"], spans["offline"]
        assert parent["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1e-6
        instants = [e for e in events if e["ph"] == "i"]
        # Here every span opened in stream order, so ts order == seq order
        # (the orphan event trails the whole timeline).
        assert [e["args"]["seq"] for e in instants] == [0, 1, 2, 3]
        assert all(e["s"] == "t" for e in instants)
        assert trace["otherData"] == {"seed": 0}

    def test_instants_within_a_span_keep_stream_order(self):
        tracer, recorder = self._tracer_and_recorder()
        trace = build_trace(tracer, recorder)
        offline = [e for e in trace["traceEvents"]
                   if e["ph"] == "i" and e["args"]["span"] == "pipeline/offline"]
        assert [e["args"]["round"] for e in offline] == [0, 1]
        assert offline[0]["ts"] < offline[1]["ts"]

    def test_write_trace_is_loadable_json(self, tmp_path):
        tracer, recorder = self._tracer_and_recorder()
        path = tmp_path / "trace.json"
        count = write_trace(path, tracer, recorder)
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == count
        validate_trace(loaded)

    def test_validate_trace_rejects_malformed_objects(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_trace({})
        with pytest.raises(ValueError, match="phase"):
            validate_trace({"traceEvents": [{"ph": "B", "name": "x"}]})
        with pytest.raises(ValueError, match="dur"):
            validate_trace({"traceEvents": [
                {"ph": "X", "name": "x", "ts": 0.0, "pid": 1, "tid": 1}
            ]})


# ---------------------------------------------------------------------------
# Run manifests
# ---------------------------------------------------------------------------
class TestManifest:
    def test_build_write_read_round_trip(self, tmp_path):
        manifest = build_manifest(
            "bench",
            config={"iterations": 10},
            seeds=[0, 1],
            device="K1",
            artifacts={"report": "BENCH_pipeline.json"},
        )
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["device_profile"]["name"] == "K1"
        assert manifest["seeds"] == [0, 1]
        assert "timestamp" not in json.dumps(manifest)  # byte-reproducible
        path = write_manifest(manifest, tmp_path / "m.json")
        assert read_manifest(path) == manifest

    def test_manifest_path_sits_next_to_the_artifact(self, tmp_path):
        artifact = tmp_path / "rows.json"
        assert manifest_path_for(artifact) == tmp_path / "rows.json.manifest.json"

    def test_read_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"schema": "other/9"}\n')
        with pytest.raises(TelemetryError, match="schema"):
            read_manifest(path)


# ---------------------------------------------------------------------------
# repro report
# ---------------------------------------------------------------------------
class TestReport:
    def _flight_file(self, tmp_path):
        recorder = EventRecorder()
        recorder.record("attack.offline_start", span="bench",
                        method="CFT+BR", n_flip_budget=2, seed=0)
        recorder.record("cft.round", span="bench", round=0, loss=0.9,
                        asr=0.5, candidates=10)
        recorder.record("cft.flip_committed", span="bench", round=0, page=1,
                        byte_offset=64, bit=7, direction=-1, old=236, new=108,
                        layer="fc.weight", index=4160, bits_changed=1)
        recorder.record("cft.flip_committed", span="bench", round=0, page=2,
                        byte_offset=8, bit=6, direction=1, old=3, new=67,
                        layer="fc.weight", index=8200, bits_changed=1)
        recorder.record("attack.offline_complete", span="bench",
                        method="CFT+BR", n_flip=2)
        recorder.record("online.plan", span="bench/online", required=2,
                        pages=2, matched=1, unmatched=1)
        recorder.record("massage.place", span="bench/online", page=1,
                        planned_frame=17, actual_frame=17, hit=True)
        recorder.record("verify.flip", span="bench/online", page=1,
                        byte_offset=64, bit=7, direction=-1, achieved=True,
                        cause="")
        recorder.record("verify.flip", span="bench/online", page=2,
                        byte_offset=8, bit=6, direction=1, achieved=False,
                        cause="unmatched_page")
        recorder.record("verify.summary", span="bench/online", required=2,
                        achieved=1, accidental_targeted=0,
                        accidental_elsewhere=0, r_match=50.0,
                        placement_verified=True)
        path = tmp_path / "run.events.jsonl"
        write_events_jsonl(recorder, path)
        return path

    def _journal_file(self, tmp_path):
        path = tmp_path / "sweep.journal.jsonl"
        lines = [
            {"kind": "header", "schema": 1, "grid_sha": "abc123",
             "total_tasks": 2},
            {"kind": "result", "task_id": "CFT/tinycnn/K1/s0", "status": "ok",
             "attempts": 1},
            {"kind": "result", "task_id": "CFT+BR/tinycnn/K1/s0",
             "status": "failed", "attempts": 2,
             "error": {"type": "AttackError", "message": "boom"}},
        ]
        path.write_text("".join(json.dumps(l) + "\n" for l in lines))
        return path

    def test_detect_input_kind(self, tmp_path):
        assert detect_input_kind(self._flight_file(tmp_path)) == "flight"
        assert detect_input_kind(self._journal_file(tmp_path)) == "journal"
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text("not json\n")
        with pytest.raises(TelemetryError, match="neither"):
            detect_input_kind(bogus)

    def test_flight_report_joins_commits_with_verdicts(self, tmp_path):
        path = self._flight_file(tmp_path)
        report = json.loads(render_report(path, fmt="json"))
        assert report["source"] == "flight"
        body = report["report"]
        assert body["run"]["method"] == "CFT+BR"
        outcomes = {f["page"]: f["online"] for f in body["flips"]}
        assert outcomes[1] == "achieved"
        assert outcomes[2] == "no compatible flippy frame (templating)"
        assert [f["page"] for f in body["failures"]] == [2]
        markdown = render_report(path, fmt="markdown")
        assert "1 / 2 planned flips achieved" in markdown
        assert "no compatible flippy frame (templating)" in markdown
        assert "236 -> 108" in markdown

    def test_report_is_byte_deterministic(self, tmp_path):
        flight = self._flight_file(tmp_path)
        journal = self._journal_file(tmp_path)
        for path in (flight, journal):
            for fmt in ("markdown", "json"):
                assert render_report(path, fmt=fmt) == render_report(path, fmt=fmt)

    def test_journal_report_lists_failure_causes(self, tmp_path):
        markdown = render_report(self._journal_file(tmp_path))
        assert "grid sha: `abc123`" in markdown
        assert "failed: 1" in markdown
        assert "AttackError: boom" in markdown

    def test_render_report_rejects_unknown_format(self, tmp_path):
        with pytest.raises(TelemetryError, match="format"):
            render_report(self._flight_file(tmp_path), fmt="yaml")


# ---------------------------------------------------------------------------
# Histograms and event counts in the determinism gate
# ---------------------------------------------------------------------------
class TestHistogramAndEventGate:
    def test_histogram_and_event_drift_fails_the_gate(self):
        baseline = {
            "counters": {"pipeline.runs": 1.0},
            "spans": {},
            "histograms": {"hammer.flips": {"count": 10, "sum": 40.0}},
            "events": {"cft.round": 8},
        }
        candidate = {
            "counters": {"pipeline.runs": 1.0},
            "spans": {},
            "histograms": {"hammer.flips": {"count": 12, "sum": 40.0}},
            "events": {"cft.round": 9, "verify.flip": 2},
        }
        deviations = compare_reports(baseline, candidate)
        # verify.flip is new in the candidate, so it is not compared.
        assert {(d.kind, d.name) for d in deviations if d.failed} == {
            ("histogram", "hammer.flips.count"),
            ("event", "cft.round"),
        }
        text = format_comparison(deviations)
        assert "2 failed / 4 metrics" in text
        assert text.count("[FAIL]") == 2

    def test_reports_without_those_sections_compare_counters_only(self):
        baseline = {"counters": {"c": 1.0}, "spans": {}}
        candidate = {"counters": {"c": 1.0}, "spans": {}}
        deviations = compare_reports(baseline, candidate)
        assert [(d.kind, d.name, d.failed) for d in deviations] == [("counter", "c", False)]
        assert "0 failed / 1 metrics" in format_comparison(deviations)


# ---------------------------------------------------------------------------
# stdlib logging plumbing
# ---------------------------------------------------------------------------
class TestLogging:
    def test_get_logger_nests_foreign_names_under_repro(self):
        assert get_logger().name == "repro"
        assert get_logger("repro.parallel.runner").name == "repro.parallel.runner"
        assert get_logger("tests.helper").name == "repro.tests.helper"

    def test_configure_is_idempotent_and_sets_level(self):
        logger = configure("info")
        handlers_before = list(logger.handlers)
        assert configure("debug") is logger
        assert logger.level == logging.DEBUG
        assert list(logger.handlers) == handlers_before
        with pytest.raises(ValueError, match="log level"):
            configure("loud")

    def test_verbosity_mapping(self):
        assert verbosity_to_level(0) == "warning"
        assert verbosity_to_level(1) == "info"
        assert verbosity_to_level(2) == "debug"
        assert verbosity_to_level(5) == "debug"
