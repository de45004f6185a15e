"""Command-line interface for the reproduction's experiments.

Usage (after ``pip install -e .``):

    python -m repro.cli table2 --model resnet20
    python -m repro.cli attack --model resnet20 --target 2 --flips 4
    python -m repro.cli probability --flips-per-page 34 --pages 32768
    python -m repro.cli devices
    python -m repro.cli bench --out BENCH_pipeline.json --events flight.jsonl --trace trace.json
    python -m repro.cli bench-check benchmarks/BENCH_pipeline.json BENCH_pipeline.json
    python -m repro.cli bench-trend benchmarks/BENCH_pipeline.json BENCH_pipeline.*.json
    python -m repro.cli sweep --models resnet20 --devices K1,A1 --workers 4 --out rows.json
    python -m repro.cli sweep --shard 0/2 --out s0.json --journal shard0.jsonl   # host A
    python -m repro.cli sweep --shard 1/2 --out s1.json --journal shard1.jsonl   # host B
    python -m repro.cli merge shard0.jsonl shard1.jsonl --out rows.json
    python -m repro.cli sweep --queue /shared/q --out w.json    # any number of hosts
    python -m repro.cli queue-status /shared/q
    python -m repro.cli watch /shared/q                # live fleet dashboard
    python -m repro.cli watch /shared/q --once --json  # one snapshot, for scripts
    python -m repro.cli merge /shared/q --out rows.json
    python -m repro.cli report flight.jsonl
    python -m repro.cli report rows.json.journal.jsonl --format json

Global ``--log-level``/``-v`` flags route the package's stdlib logging to
stderr; recorded-run artifacts (flight records, traces, manifests, reports)
are byte-deterministic under a fixed seed.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional


def _shard_type(text: str):
    """argparse type for ``--shard i/n`` (validated ShardSpec)."""
    from repro.errors import SweepError
    from repro.parallel.grid import ShardSpec

    try:
        return ShardSpec.parse(text)
    except SweepError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_devices(args: argparse.Namespace) -> int:
    from repro.rowhammer import available_profiles

    profiles = available_profiles()
    print(f"{'tag':<5} {'DDR':>4} {'flips/page':>11} {'TRR':>5}")
    for name in sorted(profiles):
        profile = profiles[name]
        print(
            f"{name:<5} {profile.ddr_version:>4} {profile.flips_per_page:>11.2f} "
            f"{'yes' if profile.trr_protected else 'no':>5}"
        )
    return 0


def _cmd_probability(args: argparse.Namespace) -> int:
    from repro.analysis import target_page_probability_approx

    for offsets in range(1, args.max_offsets + 1):
        p = target_page_probability_approx(offsets, args.flips_per_page, args.pages)
        print(f"k+l={offsets}: P(find target page) = {p:.8f}")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro import telemetry
    from repro.analysis import evaluate_attack
    from repro.attacks import AttackConfig, CFTAttack
    from repro.core import pretrained_quantized_model

    if args.events:
        telemetry.enable_events()
        # Fresh flight record per invocation (repeated main() calls share
        # the process-wide recorder).
        telemetry.get_recorder().reset()
    qmodel, _, test_data, attacker_data = pretrained_quantized_model(
        args.model, dataset=args.dataset, width=args.width, epochs=args.epochs, seed=args.seed
    )
    config = AttackConfig(
        target_class=args.target,
        n_flip_budget=args.flips,
        iterations=args.iterations,
        epsilon=0.01,
        seed=args.seed,
    )
    result = CFTAttack(config, bit_reduction=not args.no_bit_reduction).run(
        qmodel, attacker_data
    )
    evaluation = evaluate_attack(qmodel.module, test_data, result.trigger, args.target)
    if args.events:
        from repro.telemetry.manifest import (
            build_manifest,
            manifest_path_for,
            write_manifest,
        )

        lines = telemetry.dump_events(args.events, meta={"command": "attack"})
        write_manifest(
            build_manifest(
                "attack",
                config={
                    "model": args.model,
                    "dataset": args.dataset,
                    "target_class": args.target,
                    "n_flip_budget": args.flips,
                    "iterations": args.iterations,
                    "bit_reduction": not args.no_bit_reduction,
                },
                seeds=[args.seed],
                artifacts={"events": args.events},
            ),
            manifest_path_for(args.events),
        )
        print(f"wrote flight record ({lines} lines) to {args.events}")
    print(f"method: {result.method}")
    print(f"N_flip: {result.n_flip} / {qmodel.total_bits} bits")
    print(f"TA:     {evaluation.test_accuracy:.2%}")
    print(f"ASR:    {evaluation.attack_success_rate:.2%}")
    if args.save:
        from repro.utils.serialization import save_offline_result

        save_offline_result(result, args.save)
        print(f"saved offline result to {args.save}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.core.bench import run_bench

    report = run_bench(
        out=args.out,
        jsonl=args.jsonl,
        seed=args.seed,
        epochs=args.epochs,
        iterations=args.iterations,
        n_flip_budget=args.flips,
        include_sweep=not args.skip_sweep,
        include_engine=not args.skip_engine,
        events=args.events,
        trace=args.trace,
        manifest=not args.no_manifest,
    )
    bench_seconds = report["spans"]["bench"]["total_seconds"]
    counters = report["counters"]
    if args.openmetrics:
        from repro.telemetry.export import write_openmetrics

        lines = write_openmetrics(report, args.openmetrics)
        print(f"wrote OpenMetrics textfile ({lines} lines) to {args.openmetrics}")
    print(f"wrote {args.out} ({bench_seconds:.2f} s end-to-end)")
    for name in sorted(counters):
        print(f"  {name}: {counters[name]:g}")
    for name, value in sorted(report["gauges"].items()):
        if value is not None:
            print(f"  {name}: {value:g}")
    return 0


def _cmd_bench_check(args: argparse.Namespace) -> int:
    from repro.telemetry import read_json
    from repro.telemetry.regression import (
        cache_hit_rate_line,
        compare_reports,
        format_comparison,
    )

    candidate = read_json(args.candidate)
    deviations = compare_reports(
        read_json(args.baseline),
        candidate,
        tolerance=args.tolerance,
        time_tolerance=args.time_tolerance,
        min_seconds=args.min_seconds,
    )
    print(format_comparison(deviations))
    print(cache_hit_rate_line(candidate))
    return 1 if any(d.failed for d in deviations) else 0


def _cmd_bench_trend(args: argparse.Namespace) -> int:
    import os

    from repro.telemetry import read_json
    from repro.telemetry.regression import format_trend

    runs = [(os.path.basename(path), read_json(path)) for path in args.reports]
    print(format_trend(runs))
    # Informational only: trend drift never gates a build (bench-check does).
    return 0


def _cmd_queue_sweep(args: argparse.Namespace, grid) -> int:
    """``repro sweep --queue DIR``: work the shared queue as one worker.

    Per-worker output differs from a plain sweep on purpose: ``--out``
    holds only the rows *this* worker committed, ``--events`` holds the
    scheduler's decision log (claims, steals, commits) rather than a task
    flight record, and no manifest is written -- the deterministic
    artifacts of a queue-scheduled sweep are the ones ``repro merge``
    produces from every worker's journal.
    """
    import json

    from repro import telemetry
    from repro.core.experiment import format_sweep
    from repro.errors import SweepError
    from repro.parallel.scheduler import init_queue, run_queue

    if args.shard is not None or args.resume:
        print("sweep: --queue is incompatible with --shard/--resume "
              "(queue workers claim tasks dynamically; a restarted worker "
              "just reattaches to the queue directory)", file=sys.stderr)
        return 2
    if args.workers != 1:
        print("sweep: --queue workers run tasks inline; start more "
              "`repro sweep --queue` processes instead of --workers",
              file=sys.stderr)
        return 2
    if args.events:
        telemetry.enable_events()
        telemetry.get_recorder().reset()
    try:
        manifest = init_queue(args.queue, grid, lease_ttl=args.lease_ttl)
        result = run_queue(
            args.queue,
            worker_id=args.worker_id,
            max_attempts=args.max_attempts,
            backoff_seconds=args.backoff,
            beacon_interval=args.beacon_interval,
            timeline_interval=args.timeline_interval,
        )
    except SweepError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result.rows, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if args.events:
        meta = {"command": "sweep", "schedule": "queue", "worker": result.worker}
        lines = telemetry.dump_events(args.events, meta=meta)
        # A copy inside the queue directory makes it self-contained:
        # `repro report <queue-dir>` renders the fleet's scheduler
        # decisions from events/*.events.jsonl without extra bookkeeping.
        queue_copy = manifest.events_path(result.worker)
        queue_copy.parent.mkdir(parents=True, exist_ok=True)
        telemetry.dump_events(str(queue_copy), meta=meta)
        print(f"wrote scheduler decision log ({lines} lines) to {args.events} "
              f"(copy: {queue_copy})")
    print(format_sweep(result.rows))
    print(
        f"queue worker {result.worker}: {len(result.outcomes)} committed of "
        f"{result.total_tasks} grid task(s) ({result.claims} claim(s), "
        f"{result.steals} steal(s), {result.superseded} superseded, "
        f"{len(result.failures)} failed); rows -> {args.out}, "
        f"journal -> {result.journal_path}"
    )
    for failure in result.failures:
        error = failure.error or {}
        print(
            f"  FAILED {failure.task.task_id} after {failure.attempts} attempt(s): "
            f"{error.get('type')}: {error.get('message')}"
        )
    return 1 if result.failures else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from repro import telemetry
    from repro.core.experiment import SCALE_PRESETS, ExperimentScale, format_sweep
    from repro.parallel import SweepGrid, run_sweep

    scale = SCALE_PRESETS[args.scale] if args.scale else ExperimentScale.from_env()
    grid_kwargs = dict(
        methods=tuple(args.methods.split(",")),
        models=tuple(args.models.split(",")),
        devices=tuple(args.devices.split(",")),
        dataset=args.dataset,
        target_class=args.target,
        scale=dataclasses.asdict(scale),
    )
    if args.replicas is not None:
        grid = SweepGrid.with_replicas(args.base_seed, args.replicas, **grid_kwargs)
    else:
        grid = SweepGrid(seeds=tuple(int(s) for s in args.seeds.split(",")), **grid_kwargs)

    if args.queue is not None:
        return _cmd_queue_sweep(args, grid)
    if args.events:
        telemetry.enable_events()
        # Fresh flight record per invocation (repeated main() calls share
        # the process-wide recorder).
        telemetry.get_recorder().reset()
    journal = args.journal or f"{args.out}.journal.jsonl"
    result = run_sweep(
        grid,
        workers=args.workers,
        journal_path=journal,
        resume=args.resume,
        max_attempts=args.max_attempts,
        backoff_seconds=args.backoff,
        shard=args.shard,
        live_dir=args.live_dir,
        beacon_interval=args.beacon_interval,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result.rows, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if args.events:
        meta = {"command": "sweep", "grid_sha": result.grid_sha}
        if args.shard is not None:
            meta["shard"] = str(args.shard)
        lines = telemetry.dump_events(args.events, meta=meta)
        print(f"wrote flight record ({lines} lines) to {args.events}")
    if not args.no_manifest:
        from repro.telemetry.manifest import (
            build_manifest,
            manifest_path_for,
            sha256_file,
            write_manifest,
        )

        artifacts = {"rows": args.out, "journal": journal}
        # Digest only the deterministic artifacts (rows, flight record) --
        # the journal carries wall-clock durations, and pinning it would
        # break the manifest's byte-reproducibility across re-runs.
        digests = {"rows": sha256_file(args.out)}
        if args.events:
            artifacts["events"] = args.events
            digests["events"] = sha256_file(args.events)
        config = {
            "methods": args.methods,
            "models": args.models,
            "devices": args.devices,
            "dataset": args.dataset,
            "target_class": args.target,
            "scale": dataclasses.asdict(scale),
            "max_attempts": args.max_attempts,
        }
        if args.shard is not None:
            config["shard"] = str(args.shard)
        write_manifest(
            build_manifest(
                "sweep",
                config=config,
                seeds=sorted({outcome.task.seed for outcome in result.outcomes}),
                grid_sha=result.grid_sha,
                artifacts=artifacts,
                artifact_sha256=digests,
            ),
            manifest_path_for(journal),
        )
    print(format_sweep(result.rows))
    shard_note = f", shard {args.shard} of {result.total_tasks}" if args.shard else ""
    print(
        f"sweep: {result.completed_count} completed, {result.resumed_count} resumed, "
        f"{len(result.failures)} failed ({len(result.outcomes)} tasks{shard_note}, "
        f"workers={args.workers}); rows -> {args.out}, journal -> {journal}"
    )
    for failure in result.failures:
        error = failure.error or {}
        print(
            f"  FAILED {failure.task.task_id} after {failure.attempts} attempt(s): "
            f"{error.get('type')}: {error.get('message')}"
        )
    return 1 if result.failures else 0


def _cmd_watch(args: argparse.Namespace) -> int:
    """``repro watch QUEUE``: live fleet dashboard over beacons + queue state.

    An observer only -- exit code 0 whether or not the queue is drained
    (scripts read ``drained`` from ``--once --json``), 2 on error.  Without
    ``--once`` the dashboard refreshes every ``--interval`` seconds until
    the queue drains.
    """
    import json
    import time

    from repro.errors import SweepError
    from repro.telemetry.live import (
        HealthThresholds,
        fleet_status,
        format_fleet,
        write_fleet_trace,
    )

    thresholds = HealthThresholds(stall_after_seconds=args.stall_after)
    while True:
        try:
            fleet = fleet_status(args.queue, thresholds=thresholds)
        except SweepError as exc:
            print(f"watch failed: {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(fleet, indent=2, sort_keys=True))
        else:
            if not args.once and sys.stdout.isatty():
                print("\x1b[2J\x1b[H", end="")
            print(format_fleet(fleet), end="")
        if args.once or fleet["drained"]:
            break
        time.sleep(args.interval)
    if args.trace:
        try:
            events = write_fleet_trace(args.trace, args.queue)
        except SweepError as exc:
            print(f"watch failed: {exc}", file=sys.stderr)
            return 2
        print(f"wrote stitched fleet trace ({events} event(s)) to {args.trace}")
    return 0


def _cmd_queue_status(args: argparse.Namespace) -> int:
    import json

    from repro.errors import SweepError
    from repro.parallel.scheduler import queue_status

    try:
        status = queue_status(args.queue)
    except SweepError as exc:
        print(f"queue-status failed: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(status.to_json(), indent=2, sort_keys=True))
    else:
        print(f"queue {args.queue} (grid {status.grid_sha[:12]}):")
        print(f"  done:    {status.done}/{status.total_tasks} "
              f"({status.failed} failed)")
        print(f"  leased:  {status.leased} ({status.expired} expired/stealable)")
        print(f"  open:    {status.open_tasks}")
        print(f"  workers: {', '.join(status.workers) or '(none yet)'}")
        for worker, age in sorted(status.heartbeats.items()):
            print(f"  heartbeat {worker}: {age:.1f}s ago")
        for lease in status.leases:
            remaining = lease.get("expires_in_seconds")
            countdown = "?" if remaining is None else f"{remaining:.1f}s"
            state = "EXPIRED" if lease.get("expired") else f"expires in {countdown}"
            print(f"  lease {lease['task_id']} -> {lease.get('worker')} ({state})")
        for issue in status.health:
            print(f"  health [{issue['cause']}]: {issue['message']}")
    return 0 if status.complete else 1


def _expand_journal_args(paths):
    """Expand queue-directory arguments to their per-worker journal files."""
    from pathlib import Path

    expanded = []
    for path in paths:
        candidate = Path(path)
        if candidate.is_dir():
            inner = candidate / "journals" if (candidate / "journals").is_dir() else candidate
            expanded.extend(str(p) for p in sorted(inner.glob("*.jsonl")))
        else:
            expanded.append(path)
    return expanded


def _cmd_merge(args: argparse.Namespace) -> int:
    from repro.core.experiment import format_sweep
    from repro.errors import MergeError
    from repro.parallel.merge import (
        merge_journals,
        write_merged_events,
        write_merged_journal,
        write_merged_rows,
    )

    journal = args.journal or f"{args.out}.journal.jsonl"
    try:
        result = merge_journals(
            _expand_journal_args(args.journals), allow_incomplete=args.allow_incomplete
        )
        write_merged_rows(result, args.out)
        write_merged_journal(result, journal)
        if args.events:
            lines = write_merged_events(result, args.events)
            print(f"wrote merged flight record ({lines} lines) to {args.events}")
    except MergeError as exc:
        print(f"merge failed [{exc.cause}]: {exc}", file=sys.stderr)
        for key, value in sorted(exc.details.items()):
            print(f"  {key}: {value}", file=sys.stderr)
        return 2
    if not args.no_manifest:
        from repro.telemetry.manifest import (
            build_manifest,
            manifest_path_for,
            sha256_file,
            write_manifest,
        )

        artifacts = {"rows": args.out, "journal": journal}
        digests = {"rows": sha256_file(args.out)}
        if args.events:
            artifacts["events"] = args.events
            digests["events"] = sha256_file(args.events)
        # Deliberately free of shard-split details (how many journals, which
        # paths): a 2-way and a 3-way split of the same sweep merge to
        # byte-identical manifests, mirroring the row/event byte-identity.
        write_manifest(
            build_manifest(
                "merge",
                config={
                    "allow_incomplete": args.allow_incomplete,
                    "total_tasks": result.total_tasks,
                    "merged_results": len(result.records),
                    "failed_tasks": len(result.failures),
                    "missing_tasks": result.missing_count,
                },
                seeds=result.seeds,
                grid_sha=result.grid_sha,
                artifacts=artifacts,
                artifact_sha256=digests,
            ),
            manifest_path_for(args.out),
        )
    print(format_sweep(result.rows))
    print(
        f"merge: {len(result.shards)} {result.schedule} journal(s), "
        f"{len(result.records)} result(s) "
        f"({len(result.failures)} failed, {result.missing_count} missing) of "
        f"{result.total_tasks} grid task(s); rows -> {args.out}, journal -> {journal}"
    )
    if result.workers:
        print(f"  queue workers: {', '.join(result.workers)}")
    if result.missing_shards:
        print(f"  missing shard index(es): {result.missing_shards}")
    for task_id in result.missing_task_ids:
        print(f"  MISSING {task_id} (no journaled result)")
    for task_id, record in result.failures:
        error = record.get("error") or {}
        print(
            f"  FAILED {task_id} after {record.get('attempts', 1)} attempt(s): "
            f"{error.get('type')}: {error.get('message')}"
        )
    return 1 if result.failures else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.telemetry.report import render_report

    rendered = render_report(args.input, fmt=args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"wrote {args.format} report to {args.out}")
    else:
        print(rendered, end="")
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.core.experiment import ExperimentScale, format_table2, run_method_comparison

    scale = ExperimentScale.from_env()
    methods = tuple(args.methods.split(",")) if args.methods else (
        "BadNet", "FT", "TBT", "CFT", "CFT+BR"
    )
    rows = run_method_comparison(
        args.model, dataset=args.dataset, methods=methods, scale=scale, seed=args.seed,
        workers=args.workers,
    )
    print(format_table2(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the repro CLI's argument parser (subcommand per experiment)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rowhammer DNN backdoor reproduction (DSN 2023) experiments",
    )
    parser.add_argument(
        "--log-level",
        choices=["critical", "error", "warning", "info", "debug"],
        default=None,
        help="stdlib logging level for the repro package (stderr)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="-v: info, -vv: debug (shorthand for --log-level)",
    )
    parser.add_argument(
        "--no-engine", action="store_true",
        help="disable the layer-prefix activation caching engine "
             "(results are byte-identical either way; this is purely a "
             "performance switch)",
    )
    parser.add_argument(
        "--engine-cache-mb", type=float, default=None, metavar="MB",
        help="LRU byte budget for the engine's activation cache "
             "(default: REPRO_ENGINE_CACHE_MB or 64)",
    )
    parser.add_argument(
        "--no-engine-batch", action="store_true",
        help="score round candidates sequentially instead of through the "
             "batched stacked-suffix scorer (byte-identical either way; "
             "purely a performance switch)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list the Table I DRAM device profiles")

    prob = sub.add_parser("probability", help="Eq. 2 target-page probabilities")
    prob.add_argument("--flips-per-page", type=float, default=34.0)
    prob.add_argument("--pages", type=int, default=32_768)
    prob.add_argument("--max-offsets", type=int, default=3)

    attack = sub.add_parser("attack", help="run the offline CFT(+BR) attack")
    attack.add_argument("--model", default="resnet20")
    attack.add_argument("--dataset", default="cifar10", choices=["cifar10", "imagenet"])
    attack.add_argument("--width", type=float, default=0.25)
    attack.add_argument("--epochs", type=int, default=12)
    attack.add_argument("--target", type=int, default=2)
    attack.add_argument("--flips", type=int, default=4)
    attack.add_argument("--iterations", type=int, default=80)
    attack.add_argument("--seed", type=int, default=0)
    attack.add_argument("--no-bit-reduction", action="store_true")
    attack.add_argument("--save", help="save the offline result to this .npz path")
    attack.add_argument("--events", help="record the flight-recorder event stream "
                        "(JSONL) of the offline attack to this path")

    bench = sub.add_parser(
        "bench", help="run the telemetry-instrumented end-to-end benchmark"
    )
    bench.add_argument("--out", default="BENCH_pipeline.json")
    bench.add_argument("--jsonl", help="also write the line-per-event export here")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--epochs", type=int, default=3)
    bench.add_argument("--iterations", type=int, default=10)
    bench.add_argument("--flips", type=int, default=2)
    bench.add_argument("--skip-sweep", action="store_true",
                       help="skip the 1-vs-2-worker sweep timing section")
    bench.add_argument("--skip-engine", action="store_true",
                       help="skip the cached-vs-uncached engine timing section")
    bench.add_argument("--events", help="record the run's flight-recorder event "
                       "stream (JSONL) to this path")
    bench.add_argument("--trace", help="export spans + events as a Chrome-trace/"
                       "Perfetto JSON file to this path")
    bench.add_argument("--openmetrics", metavar="PATH",
                       help="also write the report's counters/gauges/histograms "
                            "as an OpenMetrics/Prometheus textfile to this path")
    bench.add_argument("--no-manifest", action="store_true",
                       help="skip writing <out>.manifest.json")

    check = sub.add_parser(
        "bench-check", help="fail if a bench report regressed against a baseline"
    )
    check.add_argument("baseline", help="committed BENCH_pipeline.json baseline")
    check.add_argument("candidate", help="freshly produced BENCH_pipeline.json")
    check.add_argument("--tolerance", type=float, default=0.25,
                       help="max relative deviation for counters (default 0.25)")
    check.add_argument("--time-tolerance", type=float, default=0.25,
                       help="max relative deviation for span wall-times (default 0.25)")
    check.add_argument("--min-seconds", type=float, default=0.05,
                       help="ignore spans whose baseline total is below this")

    trend = sub.add_parser(
        "bench-trend",
        help="print an informational metric trend across bench reports "
             "(never fails the build)",
    )
    trend.add_argument("reports", nargs="+",
                       help="BENCH_pipeline.json reports, oldest first "
                            "(typically the committed baseline then per-run copies)")

    table2 = sub.add_parser("table2", help="run a Table II method comparison")
    table2.add_argument("--model", default="resnet20")
    table2.add_argument("--dataset", default="cifar10", choices=["cifar10", "imagenet"])
    table2.add_argument("--methods", help="comma-separated subset of methods")
    table2.add_argument("--seed", type=int, default=0)
    table2.add_argument("--workers", type=int, default=1,
                        help="process-pool size for the per-method fan-out")

    sweep = sub.add_parser(
        "sweep",
        help="run a (method x model x device x seed) grid across a process pool",
    )
    sweep.add_argument("--methods", default="BadNet,FT,TBT,CFT,CFT+BR",
                       help="comma-separated attack methods")
    sweep.add_argument("--models", default="resnet20", help="comma-separated model names")
    sweep.add_argument("--devices", default="K1", help="comma-separated Table I device tags")
    sweep.add_argument("--seeds", default="0", help="comma-separated explicit seeds")
    sweep.add_argument("--replicas", type=int, default=None,
                       help="instead of --seeds: N replica seeds derived from --base-seed")
    sweep.add_argument("--base-seed", type=int, default=0,
                       help="root seed for --replicas derivation")
    sweep.add_argument("--dataset", default="cifar10", choices=["cifar10", "imagenet"])
    sweep.add_argument("--target", type=int, default=2, help="backdoor target class")
    sweep.add_argument("--scale", choices=["micro", "tiny", "small", "full"],
                       help="experiment scale preset (default: REPRO_BENCH_SCALE)")
    sweep.add_argument("--workers", type=int, default=1, help="process-pool size")
    sweep.add_argument("--shard", type=_shard_type, default=None, metavar="I/N",
                       help="run only shard I of an N-way contiguous split of the "
                            "canonical grid order (one journal per shard; reassemble "
                            "with `repro merge`)")
    sweep.add_argument("--queue", metavar="DIR", default=None,
                       help="work-stealing mode: claim tasks from this shared queue "
                            "directory (created on first use) instead of a static "
                            "shard; start one such process per host and reassemble "
                            "with `repro merge DIR` (incompatible with --shard/"
                            "--resume/--workers; no manifest is written)")
    sweep.add_argument("--worker-id", default=None,
                       help="queue mode: stable worker identity for leases and the "
                            "per-worker journal (default: <hostname>-<pid>)")
    sweep.add_argument("--lease-ttl", type=float, default=30.0, metavar="SECONDS",
                       help="queue mode: lease time-to-live; a worker silent this "
                            "long is presumed dead and its task is stolen "
                            "(default 30)")
    sweep.add_argument("--out", default="sweep_rows.json",
                       help="write the final result rows here as JSON")
    sweep.add_argument("--journal", help="JSONL checkpoint journal "
                       "(default: <out>.journal.jsonl)")
    sweep.add_argument("--resume", action="store_true",
                       help="skip tasks the journal already records as successful")
    sweep.add_argument("--max-attempts", type=int, default=2,
                       help="attempts per task before recording a failure")
    sweep.add_argument("--backoff", type=float, default=0.25,
                       help="base retry backoff in seconds (doubles per attempt)")
    sweep.add_argument("--events", help="record every task's flight-recorder "
                       "events, merged in grid order, to this JSONL path")
    sweep.add_argument("--no-manifest", action="store_true",
                       help="skip writing <journal>.manifest.json")
    sweep.add_argument("--beacon-interval", type=float, default=2.0,
                       metavar="SECONDS",
                       help="live status beacon refresh interval (0 disables; "
                            "queue mode writes to <queue>/beacons/, pool/shard "
                            "mode needs --live-dir)")
    sweep.add_argument("--timeline-interval", type=float, default=0.0,
                       metavar="SECONDS",
                       help="queue mode: sample sched./engine./pipeline counters "
                            "to <queue>/timeline/<worker>.timeline.jsonl every "
                            "SECONDS (0 disables)")
    sweep.add_argument("--live-dir", metavar="DIR", default=None,
                       help="pool/shard mode: keep a live status beacon fresh "
                            "in this directory for `repro watch`-style tooling "
                            "(sidecar only; never changes any output byte)")

    status = sub.add_parser(
        "queue-status",
        help="inspect a queue directory: done/leased/open counts per worker "
             "(exit 0 when the queue is fully drained, 1 otherwise)",
    )
    status.add_argument("queue", help="queue directory (as passed to sweep --queue)")
    status.add_argument("--json", action="store_true",
                        help="print the snapshot as JSON instead of text")

    watch = sub.add_parser(
        "watch",
        help="live fleet dashboard for a queue directory: per-worker beacons, "
             "drain %%, throughput, ETA, lease churn and health causes "
             "(exit 0 as an observer regardless of drain state, 2 on error)",
    )
    watch.add_argument("queue", help="queue directory (as passed to sweep --queue)")
    watch.add_argument("--once", action="store_true",
                       help="print one snapshot and exit instead of refreshing "
                            "until the queue drains")
    watch.add_argument("--json", action="store_true",
                       help="print the repro-live/1 snapshot as JSON (for "
                            "scripts/CI; pair with --once)")
    watch.add_argument("--interval", type=float, default=2.0, metavar="SECONDS",
                       help="dashboard refresh interval (default 2)")
    watch.add_argument("--stall-after", type=float, default=30.0,
                       metavar="SECONDS",
                       help="beacon heartbeat age after which a worker counts "
                            "as stalled (default 30)")
    watch.add_argument("--trace", metavar="PATH",
                       help="after the last snapshot, stitch every worker's "
                            "journaled spans/events into one Perfetto trace "
                            "with a lane per worker and write it here")

    merge = sub.add_parser(
        "merge",
        help="validate per-host sweep journals (shard or queue mode) and "
             "reassemble the grid-ordered sweep",
    )
    merge.add_argument("journals", nargs="+",
                       help="journal JSONL files in any order -- or a queue "
                            "directory, which expands to its journals/*.jsonl")
    merge.add_argument("--out", default="merged_rows.json",
                       help="write the grid-ordered rows here (byte-identical to "
                            "the unsharded sweep's --out)")
    merge.add_argument("--journal",
                       help="write the reassembled merged journal here "
                            "(default: <out>.journal.jsonl)")
    merge.add_argument("--events",
                       help="write the merged flight record here (requires the "
                            "shards to have run with --events)")
    merge.add_argument("--allow-incomplete", action="store_true",
                       help="degrade missing shards/results into a grid-ordered "
                            "partial merge with the gaps reported (SHA mismatches, "
                            "duplicates and conflicts still fail)")
    merge.add_argument("--no-manifest", action="store_true",
                       help="skip writing <out>.manifest.json")

    report = sub.add_parser(
        "report",
        help="render a forensics report from a flight record, sweep journal "
             "or queue directory (fleet summary + scheduler decisions)",
    )
    report.add_argument("input", help="a *.events.jsonl flight record, a "
                        "sweep/merged *.journal.jsonl, or a queue directory "
                        "(renders per-worker results and, with --events "
                        "decision logs, a scheduler-decision table)")
    report.add_argument("--format", choices=["markdown", "json"], default="markdown")
    report.add_argument("--out", help="write the report here instead of stdout")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    from repro.log import configure, verbosity_to_level

    configure(args.log_level or verbosity_to_level(args.verbose))
    # Checked here rather than when the first engine builds its cache, where
    # a sweep would only report it as a failed task.
    mb = args.engine_cache_mb
    if mb is not None and (not math.isfinite(mb) or int(mb * 2**20) <= 0):
        print(f"--engine-cache-mb: must be a positive size, got {mb:g}", file=sys.stderr)
        return 2
    # Engine toggles go through the environment so sweep worker processes
    # (fork or spawn) inherit the same configuration as the parent.
    import os

    if args.no_engine:
        os.environ["REPRO_ENGINE"] = "0"
        from repro.engine import disable_engine

        disable_engine()
    if args.engine_cache_mb is not None:
        os.environ["REPRO_ENGINE_CACHE_MB"] = str(args.engine_cache_mb)
    if args.no_engine_batch:
        os.environ["REPRO_ENGINE_BATCH"] = "0"
        from repro.engine import disable_batch

        disable_batch()
    handlers = {
        "devices": _cmd_devices,
        "probability": _cmd_probability,
        "attack": _cmd_attack,
        "table2": _cmd_table2,
        "bench": _cmd_bench,
        "bench-check": _cmd_bench_check,
        "bench-trend": _cmd_bench_trend,
        "sweep": _cmd_sweep,
        "queue-status": _cmd_queue_status,
        "watch": _cmd_watch,
        "merge": _cmd_merge,
        "report": _cmd_report,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
