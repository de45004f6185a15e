"""``repro bench``: a telemetry-instrumented end-to-end attack benchmark.

Runs one seeded CFT+BR attack end to end -- victim training, offline
optimization, page-cache massaging and n-sided hammering -- at a
deliberately small scale, with telemetry enabled, and writes the aggregated
report as ``BENCH_pipeline.json``.  The victim is trained in-process, so the
run never reads the model cache.  The committed copy under ``benchmarks/``
is the CI determinism gate: ``repro bench-check`` (see
:mod:`repro.telemetry.regression`) fails the build when any counter, gauge,
histogram field or event count differs from it.

Everything the gate compares is seeded.  Span wall-times are recorded for
reading but never compared; wall-clock is ``perfbench/``'s job.
"""

from __future__ import annotations

import platform
from typing import Dict, Optional

from repro import telemetry
from repro.attacks import AttackConfig, CFTAttack
from repro.core.config import MemoryConfig, PipelineConfig
from repro.core.pipeline import BackdoorPipeline
from repro.core.training import TrainingConfig, train_model
from repro.data.synthetic import SyntheticImageClassification, SyntheticSpec
from repro.nn import Conv2d, GlobalAvgPool2d, Linear, Module
from repro.quant.qmodel import QuantizedModel
from repro.version import __version__


class BenchCNN(Module):
    """The benchmark victim: spans several 4 KB weight-file pages (~12k
    parameters) so page-level constraints and massaging are exercised,
    while training in seconds on CPU."""

    def __init__(self, num_classes: int = 4, rng: int = 0) -> None:
        super().__init__()
        self.conv1 = Conv2d(3, 8, 3, padding=1, rng=rng)
        self.conv2 = Conv2d(8, 16, 3, stride=2, padding=1, rng=rng)
        self.conv3 = Conv2d(16, 24, 3, padding=1, rng=rng)
        self.pool = GlobalAvgPool2d()
        self.hidden = Linear(24, 256, rng=rng)
        self.fc = Linear(256, num_classes, rng=rng)

    def forward(self, x):
        out = self.conv1(x).relu()
        out = self.conv2(out).relu()
        out = self.conv3(out).relu()
        return self.fc(self.hidden(self.pool(out)).relu())

    def forward_stages(self):
        """Stage decomposition for the evaluation engine (mirrors ``forward``)."""
        return [
            ("conv1", lambda x: self.conv1(x).relu(), (self.conv1,)),
            ("conv2", lambda x: self.conv2(x).relu(), (self.conv2,)),
            ("conv3", lambda x: self.conv3(x).relu(), (self.conv3,)),
            ("pool", self.pool, (self.pool,)),
            ("hidden", lambda x: self.hidden(x).relu(), (self.hidden,)),
            ("fc", self.fc, (self.fc,)),
        ]


def run_bench(
    out: Optional[str] = "BENCH_pipeline.json",
    jsonl: Optional[str] = None,
    seed: int = 0,
    epochs: int = 3,
    iterations: int = 10,
    n_flip_budget: int = 2,
    target_class: int = 1,
    events: Optional[str] = None,
    trace: Optional[str] = None,
    manifest: bool = True,
) -> Dict[str, object]:
    """Run the benchmark attack end-to-end and return the telemetry report.

    The flight recorder always runs, so the report's per-kind event counts
    (part of the gate) do not depend on the flags.  ``events`` / ``trace``
    optionally write the flight record (JSONL) and the Chrome-trace/Perfetto
    view of the run; ``manifest`` (default on) writes
    ``<out>.manifest.json`` identifying what produced the artifacts.
    """
    telemetry.enable()
    telemetry.enable_events()
    telemetry.reset()

    spec = SyntheticSpec(num_classes=4, image_size=16, prototypes_per_class=2)
    task = SyntheticImageClassification(spec, seed=seed)
    train_data = task.generate(96, "train")
    test_data = task.generate(48, "test")
    attacker_data = task.generate(64, "train")

    with telemetry.span("bench", seed=seed):
        model = BenchCNN(num_classes=spec.num_classes, rng=seed)
        with telemetry.span("bench.train", epochs=epochs):
            train_model(model, train_data, TrainingConfig(epochs=epochs, seed=seed), test_data)

        qmodel = QuantizedModel(model)
        pipeline = BackdoorPipeline(
            PipelineConfig(
                memory=MemoryConfig(
                    device="K1",
                    num_banks=8,
                    rows_per_bank=2048,
                    attacker_buffer_pages=2048,
                    seed=seed,
                )
            )
        )
        attack = CFTAttack(
            AttackConfig(
                target_class=target_class,
                iterations=iterations,
                n_flip_budget=n_flip_budget,
                batch_size=16,
                trigger_size=4,
                seed=seed,
            ),
            bit_reduction=True,
        )
        with telemetry.span("bench.attack", method=attack.name):
            result = pipeline.run(attack, qmodel, attacker_data, test_data, target_class)

    meta = {
        "benchmark": "repro-bench",
        "version": __version__,
        "python": platform.python_version(),
        "seed": seed,
        "epochs": epochs,
        "iterations": iterations,
        "n_flip_budget": n_flip_budget,
        "method": result.method,
        "online_n_flip": result.online_n_flip,
    }
    report = telemetry.dump(out, meta=meta)
    if jsonl is not None:
        telemetry.dump_jsonl(jsonl)
    record_meta = {"benchmark": "repro-bench", "seed": seed}
    if events is not None:
        telemetry.dump_events(events, meta=record_meta)
    if trace is not None:
        from repro.telemetry.trace import write_trace

        write_trace(
            trace, telemetry.get_tracer(), telemetry.get_recorder(), meta=record_meta
        )
    if manifest and out is not None:
        from repro.telemetry.manifest import (
            build_manifest,
            manifest_path_for,
            write_manifest,
        )

        artifacts = {"report": out}
        if jsonl is not None:
            artifacts["jsonl"] = jsonl
        if events is not None:
            artifacts["events"] = events
        if trace is not None:
            artifacts["trace"] = trace
        engine_counters = {
            name: value
            for name, value in (report.get("counters") or {}).items()
            if name.startswith("engine.")
        }
        write_manifest(
            build_manifest(
                "bench",
                config={
                    "epochs": epochs,
                    "iterations": iterations,
                    "n_flip_budget": n_flip_budget,
                    "target_class": target_class,
                },
                seeds=[seed],
                device="K1",
                artifacts=artifacts,
                counters=engine_counters,
            ),
            manifest_path_for(out),
        )
    return report
