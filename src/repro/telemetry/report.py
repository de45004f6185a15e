"""``repro report``: render a forensics report from recorded artifacts.

Two input shapes are understood, auto-detected from the first line:

- a **flight record** (``*.events.jsonl``, written by
  :func:`repro.telemetry.dump_events`): the full per-bit provenance of one
  attack run -- flip table, CFT(+BR) convergence, massaging timeline,
  hammering outcomes and failure causes;
- a **sweep journal** (``*.journal.jsonl``, written by
  :class:`repro.parallel.journal.SweepJournal`): per-task status, attempts
  and structured failure causes for a whole grid, headed by the journal's
  owner (a queue worker, ``shard-<i>-of-<n>``, or a ``repro merge`` output).

A **queue directory** (as passed to ``sweep --queue``) is accepted too:
the report then covers the whole fleet -- per-worker commit counts from
``journals/*.jsonl`` plus a scheduler-decision summary (claims, steals,
commits, superseded per worker) from the ``events/*.events.jsonl``
decision logs that ``sweep --queue --events`` drops into the directory.
A flight record that itself carries ``sched.*`` events gets the same
decision summary as an extra section.

Rendering is a pure function of the input file -- no clocks, no host
information -- so repeated invocations are byte-identical, and a fixed-seed
re-run that regenerates the inputs regenerates the same report.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.telemetry.events import FLIGHT_SCHEMA, Event, read_events_jsonl
from repro.telemetry.registry import TelemetryError

PathLike = Union[str, Path]

REPORT_FORMATS = ("markdown", "json")

_CAUSE_LABELS = {
    "unmatched_page": "no compatible flippy frame (templating)",
    "placement_miss": "page landed on the wrong frame (massaging)",
    "cell_not_flipped": "cell did not flip under hammering",
    "not_attempted": "abandoned by the single-flip relaxation",
}


def detect_input_kind(path: PathLike) -> str:
    """``"flight"`` or ``"journal"``, from the file's first JSON line."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                first = json.loads(line)
            except json.JSONDecodeError:
                break
            kind = first.get("kind")
            if kind == "schema" and first.get("value") == FLIGHT_SCHEMA:
                return "flight"
            if kind in ("header", "result", "resume"):
                return "journal"
            break
    raise TelemetryError(
        f"{path}: neither a flight record ({FLIGHT_SCHEMA}) nor a sweep journal"
    )


# ---------------------------------------------------------------------------
# Flight-record analysis
# ---------------------------------------------------------------------------
def _first(events: Sequence[Event], kind: str) -> Optional[Event]:
    for event in events:
        if event.kind == kind:
            return event
    return None


def _all(events: Sequence[Event], kind: str) -> List[Event]:
    return [event for event in events if event.kind == kind]


def analyze_flight(events: Sequence[Event]) -> Dict[str, object]:
    """Structured forensics (the JSON report body) from one event stream."""
    start = _first(events, "attack.offline_start")
    offline = _first(events, "attack.offline_complete")
    verify_summary = _first(events, "verify.summary")

    committed = _all(events, "cft.flip_committed")
    pruned_keys = {
        (e.data.get("page"), e.data.get("byte_offset"))
        for e in _all(events, "cft.flip_pruned")
    }
    verifications = {
        (e.data.get("page"), e.data.get("byte_offset"), e.data.get("bit"),
         e.data.get("direction")): e.data
        for e in _all(events, "verify.flip")
    }

    flips: List[Dict[str, object]] = []
    for event in committed:
        data = dict(event.data)
        key = (data.get("page"), data.get("byte_offset"))
        data["pruned"] = key in pruned_keys
        verdict = verifications.get(
            (data.get("page"), data.get("byte_offset"), data.get("bit"),
             data.get("direction"))
        )
        if data["pruned"]:
            data["online"] = "pruned offline"
        elif verdict is None:
            data["online"] = "no verification recorded"
        elif verdict.get("achieved"):
            data["online"] = "achieved"
        else:
            cause = str(verdict.get("cause", ""))
            data["online"] = _CAUSE_LABELS.get(cause, cause or "missed")
        flips.append(data)
    # Planned flips the offline stream did not log a commit for (baseline
    # attacks record no cft.* events) still show up via their verification.
    seen = {(f.get("page"), f.get("byte_offset"), f.get("bit"), f.get("direction"))
            for f in flips}
    for key, verdict in verifications.items():
        if key in seen:
            continue
        cause = str(verdict.get("cause", ""))
        flips.append(
            {
                "page": key[0], "byte_offset": key[1], "bit": key[2],
                "direction": key[3], "pruned": False,
                "online": "achieved" if verdict.get("achieved")
                else _CAUSE_LABELS.get(cause, cause or "missed"),
            }
        )
    flips.sort(key=lambda f: (f.get("page") or 0, f.get("byte_offset") or 0,
                              f.get("bit") or 0))

    rounds = [
        {
            "round": e.data.get("round"),
            "loss": e.data.get("loss"),
            "asr": e.data.get("asr"),
            "candidates": e.data.get("candidates"),
        }
        for e in _all(events, "cft.round")
    ]

    timeline = [
        {"seq": e.seq, "kind": e.kind, **e.data}
        for e in events
        if e.kind in ("template.page", "online.plan", "online.fallback",
                      "massage.release", "massage.place",
                      "page_cache.insert", "page_cache.evict")
    ]
    placements = _all(events, "massage.place")
    placement_hits = sum(1 for e in placements if e.data.get("hit"))

    online_hammer = [
        e.data for e in _all(events, "hammer.attempt")
        if "online" in e.span
    ]
    profiling_attempts = sum(
        1 for e in _all(events, "hammer.attempt") if "online" not in e.span
    )

    failures = [f for f in flips
                if f["online"] not in ("achieved", "pruned offline")]

    evaluations = {
        str(e.data.get("phase")): e.data for e in _all(events, "pipeline.evaluate")
    }

    sched = analyze_sched(events)

    spec_events = _all(events, "engine.spec")
    speculation = {
        "promoted": sum(1 for e in spec_events if e.data.get("promoted")),
        "discarded": sum(1 for e in spec_events if not e.data.get("promoted")),
    }

    return {
        "run": {
            "method": (offline or start or Event(0, "")).data.get("method"),
            "seed": (start or Event(0, "")).data.get("seed"),
            "offline_n_flip": (offline or Event(0, "")).data.get("n_flip"),
            "verify": dict(verify_summary.data) if verify_summary else None,
            "evaluations": evaluations,
        },
        "flips": flips,
        "rounds": rounds,
        "massaging": {
            "timeline": timeline,
            "placements": len(placements),
            "placement_hits": placement_hits,
        },
        "hammering": {
            "online_attempts": online_hammer,
            "profiling_attempts": profiling_attempts,
        },
        "failures": failures,
        "sched": sched,
        "speculation": speculation,
        "event_kinds": _kind_counts(events),
    }


_SCHED_DECISIONS = ("claim", "steal", "commit", "superseded", "lease_expired")


def analyze_sched(events: Sequence[Event]) -> Dict[str, Dict[str, int]]:
    """Per-worker scheduler-decision counts from ``sched.*`` events.

    Returns ``{worker: {claims, steals, commits, superseded,
    lease_expired}}`` (sorted, zero-filled), empty when the stream holds
    no scheduler decisions at all.
    """
    per_worker: Dict[str, Dict[str, int]] = {}
    for event in events:
        if not event.kind.startswith("sched."):
            continue
        decision = event.kind[len("sched."):]
        if decision not in _SCHED_DECISIONS:
            continue
        worker = str(event.data.get("worker", "?"))
        counts = per_worker.setdefault(
            worker, {name: 0 for name in _SCHED_DECISIONS}
        )
        counts[decision] += 1
    return {worker: per_worker[worker] for worker in sorted(per_worker)}


def render_sched_section(sched: Dict[str, Dict[str, int]]) -> List[str]:
    """The "Scheduler decisions" markdown section (empty list when none)."""
    if not sched:
        return []
    lines = ["", "## Scheduler decisions", ""]
    rows = [
        [worker] + [_fmt(counts.get(name, 0)) for name in _SCHED_DECISIONS]
        for worker, counts in sched.items()
    ]
    lines += _table(
        ["worker", "claims", "steals", "commits", "superseded", "lease expiries"],
        rows,
    )
    return lines


def _kind_counts(events: Sequence[Event]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return {kind: counts[kind] for kind in sorted(counts)}


def _fmt(value: object, spec: str = "") -> str:
    if value is None:
        return "-"
    if spec and isinstance(value, (int, float)):
        return format(value, spec)
    return str(value)


def _table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def render_flight_markdown(analysis: Dict[str, object]) -> str:
    """The human-facing forensics report for one recorded attack run."""
    run = analysis["run"]
    lines: List[str] = ["# Attack flight report", ""]
    lines.append(f"- method: **{_fmt(run.get('method'))}**")
    lines.append(f"- seed: {_fmt(run.get('seed'))}")
    lines.append(f"- offline N_flip: {_fmt(run.get('offline_n_flip'))}")
    verify = run.get("verify")
    if verify:
        lines.append(
            f"- online: {_fmt(verify.get('achieved'))} / "
            f"{_fmt(verify.get('required'))} planned flips achieved, "
            f"r_match {_fmt(verify.get('r_match'), '.2f')} %, "
            f"{_fmt(verify.get('accidental_targeted'))} accidental flips in "
            f"targeted pages, {_fmt(verify.get('accidental_elsewhere'))} elsewhere"
        )
    for phase in sorted(run.get("evaluations", {})):
        data = run["evaluations"][phase]
        lines.append(
            f"- {phase} evaluation: TA {_fmt(data.get('ta'), '.4f')}, "
            f"ASR {_fmt(data.get('asr'), '.4f')}"
        )

    flips = analysis["flips"]
    lines += ["", "## Flip provenance", ""]
    if flips:
        rows = [
            [
                _fmt(f.get("page")), _fmt(f.get("byte_offset")),
                _fmt(f.get("bit")),
                {1: "0->1", -1: "1->0"}.get(f.get("direction"), "-"),
                f"{_fmt(f.get('old'))} -> {_fmt(f.get('new'))}"
                if "old" in f else "-",
                _fmt(f.get("layer")), f.get("online", "-"),
            ]
            for f in flips
        ]
        lines += _table(
            ["page", "offset", "bit", "dir", "byte", "layer", "online outcome"], rows
        )
    else:
        lines.append("(no weight flips recorded)")

    rounds = analysis["rounds"]
    lines += ["", "## CFT(+BR) convergence", ""]
    if rounds:
        rows = [
            [_fmt(r.get("round")), _fmt(r.get("loss"), ".6f"),
             _fmt(r.get("asr"), ".4f"), _fmt(r.get("candidates"))]
            for r in rounds
        ]
        lines += _table(["round", "loss", "ASR", "candidates"], rows)
    else:
        lines.append("(no per-round convergence events recorded)")
    speculation = analysis.get("speculation") or {}
    if speculation.get("promoted") or speculation.get("discarded"):
        lines.append("")
        lines.append(
            f"Round-ahead speculation: {speculation['promoted']} commit(s) "
            f"promoted from scoring buffers, {speculation['discarded']} "
            "discarded (stale signatures fall back to recompute)."
        )

    massaging = analysis["massaging"]
    lines += ["", "## Massaging timeline", ""]
    if massaging["timeline"]:
        lines.append(
            f"{massaging['placement_hits']} / {massaging['placements']} "
            "target pages landed on their planned frame."
        )
        lines.append("")
        for step in massaging["timeline"]:
            detail = ", ".join(
                f"{k}={v}" for k, v in step.items() if k not in ("seq", "kind")
            )
            lines.append(f"- `{step['seq']:>5}` {step['kind']}: {detail}")
    else:
        lines.append("(no massaging events recorded)")

    hammering = analysis["hammering"]
    lines += ["", "## Hammering", ""]
    lines.append(
        f"{hammering['profiling_attempts']} profiling hammer attempts preceded "
        "the online phase."
    )
    if hammering["online_attempts"]:
        lines.append("")
        rows = [
            [_fmt(a.get("bank")), _fmt(a.get("row")), _fmt(a.get("n_sides")),
             _fmt(a.get("flips")), _fmt(a.get("seconds"), ".3f")]
            for a in hammering["online_attempts"]
        ]
        lines += _table(["bank", "row", "sides", "flips", "sim s"], rows)

    failures = analysis["failures"]
    lines += ["", "## Failure causes", ""]
    if failures:
        for f in failures:
            lines.append(
                f"- page {_fmt(f.get('page'))} offset {_fmt(f.get('byte_offset'))} "
                f"bit {_fmt(f.get('bit'))}: {f.get('online')}"
            )
    else:
        lines.append("No planned flip failed.")

    lines += render_sched_section(analysis.get("sched") or {})

    lines += ["", "## Event stream", ""]
    for kind, count in analysis["event_kinds"].items():
        lines.append(f"- {kind}: {count}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Sweep-journal analysis
# ---------------------------------------------------------------------------
def analyze_journal(path: PathLike) -> Dict[str, object]:
    from repro.parallel.journal import SweepJournal

    state = SweepJournal.load(path)
    tasks = [
        {
            "task_id": task_id,
            "status": record.get("status"),
            "attempts": record.get("attempts"),
            "error": record.get("error"),
        }
        for task_id, record in sorted(state.records.items())
    ]
    by_status: Dict[str, int] = {}
    for task in tasks:
        status = str(task["status"])
        by_status[status] = by_status.get(status, 0) + 1
    return {
        "header": state.header,
        "tasks": tasks,
        "by_status": {status: by_status[status] for status in sorted(by_status)},
        "resumes": len(state.resumes),
        "malformed_lines": state.malformed_lines,
    }


def render_journal_markdown(analysis: Dict[str, object]) -> str:
    header = analysis.get("header") or {}
    lines: List[str] = ["# Sweep journal report", ""]
    lines.append(f"- grid sha: `{_fmt(header.get('grid_sha'))}`")
    lines.append(f"- total tasks: {_fmt(header.get('total_tasks'))}")
    # Ownership identity: every journal names its owner -- a queue worker,
    # ``shard-<i>-of-<n>``, or ``merged(<owners>)`` with the count of
    # journals it reassembled.
    lines.append(f"- owner: {_fmt(header.get('worker'))}")
    if header.get("merged_from") is not None:
        lines.append(
            f"- merged from {_fmt(header.get('merged_from'))} per-host journal(s)"
        )
    lines.append(f"- recorded results: {len(analysis['tasks'])}")
    for status, count in analysis["by_status"].items():
        lines.append(f"- {status}: {count}")
    lines.append(f"- resumes: {analysis['resumes']}")
    if analysis["malformed_lines"]:
        lines.append(f"- malformed/torn lines skipped: {analysis['malformed_lines']}")

    lines += ["", "## Tasks", ""]
    rows = [
        [task["task_id"], _fmt(task["status"]), _fmt(task["attempts"])]
        for task in analysis["tasks"]
    ]
    if rows:
        lines += _table(["task", "status", "attempts"], rows)
    else:
        lines.append("(journal holds no results)")

    failures = [t for t in analysis["tasks"] if t["status"] == "failed"]
    lines += ["", "## Failure causes", ""]
    if failures:
        for task in failures:
            error = task.get("error") or {}
            lines.append(
                f"- `{task['task_id']}` after {_fmt(task['attempts'])} attempt(s): "
                f"{_fmt(error.get('type'))}: {_fmt(error.get('message'))}"
            )
    else:
        lines.append("No task failed.")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Queue-directory (fleet) analysis
# ---------------------------------------------------------------------------
def analyze_queue_dir(path: PathLike) -> Dict[str, object]:
    """Fleet-level analysis of a queue directory: journals + decision logs."""
    from repro.parallel.journal import SweepJournal

    root = Path(path)
    journal_paths = sorted((root / "journals").glob("*.jsonl"))
    if not journal_paths:
        raise TelemetryError(
            f"{root}: not a queue directory report target (no journals/*.jsonl)"
        )
    grid_sha: Optional[str] = None
    total_tasks: Optional[int] = None
    workers: Dict[str, Dict[str, int]] = {}
    for journal_path in journal_paths:
        state = SweepJournal.load(journal_path)
        header = state.header or {}
        grid_sha = grid_sha or header.get("grid_sha")
        total_tasks = total_tasks or header.get("total_tasks")
        worker = str(header.get("worker") or journal_path.name.split(".")[0])
        counts = workers.setdefault(
            worker, {"ok": 0, "failed": 0, "superseded": 0, "other": 0}
        )
        for record in state.records.values():
            status = str(record.get("status"))
            counts[status if status in counts else "other"] += 1
    decisions: Dict[str, Dict[str, int]] = {}
    events_dir = root / "events"
    decision_logs = sorted(events_dir.glob("*.jsonl")) if events_dir.is_dir() else []
    for log_path in decision_logs:
        for worker, counts in analyze_sched(read_events_jsonl(log_path)).items():
            merged = decisions.setdefault(
                worker, {name: 0 for name in _SCHED_DECISIONS}
            )
            for name, value in counts.items():
                merged[name] += value
    return {
        "queue": str(root),
        "grid_sha": grid_sha,
        "total_tasks": total_tasks,
        "workers": {worker: workers[worker] for worker in sorted(workers)},
        "decision_logs": [p.name for p in decision_logs],
        "sched": {worker: decisions[worker] for worker in sorted(decisions)},
    }


def render_queue_markdown(analysis: Dict[str, object]) -> str:
    lines: List[str] = ["# Queue fleet report", ""]
    lines.append(f"- queue: `{analysis['queue']}`")
    lines.append(f"- grid sha: `{_fmt(analysis.get('grid_sha'))}`")
    lines.append(f"- total tasks: {_fmt(analysis.get('total_tasks'))}")
    lines.append(f"- workers: {len(analysis['workers'])}")

    lines += ["", "## Per-worker results", ""]
    rows = [
        [worker, _fmt(counts["ok"]), _fmt(counts["failed"]),
         _fmt(counts["superseded"]), _fmt(counts["other"])]
        for worker, counts in analysis["workers"].items()
    ]
    lines += _table(["worker", "ok", "failed", "superseded", "other"], rows)

    sched = analysis.get("sched") or {}
    if sched:
        lines += render_sched_section(sched)
    else:
        lines += [
            "", "## Scheduler decisions", "",
            "(no decision logs found -- run the workers with "
            "`sweep --queue ... --events` to record them)",
        ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def render_report(path: PathLike, fmt: str = "markdown") -> str:
    """Render the forensics report for a flight record, journal or queue dir."""
    if fmt not in REPORT_FORMATS:
        raise TelemetryError(f"format must be one of {REPORT_FORMATS}, got {fmt!r}")
    if Path(path).is_dir():
        analysis = analyze_queue_dir(path)
        if fmt == "json":
            return json.dumps(
                {"source": "queue", "report": analysis}, indent=2, sort_keys=True
            ) + "\n"
        return render_queue_markdown(analysis)
    kind = detect_input_kind(path)
    if kind == "flight":
        analysis = analyze_flight(read_events_jsonl(path))
        source: Tuple[str, Dict[str, object]] = ("flight", analysis)
    else:
        analysis = analyze_journal(path)
        source = ("journal", analysis)
    if fmt == "json":
        return json.dumps(
            {"source": source[0], "report": source[1]}, indent=2, sort_keys=True
        ) + "\n"
    if kind == "flight":
        return render_flight_markdown(analysis)
    return render_journal_markdown(analysis)
