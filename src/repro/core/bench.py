"""``repro bench``: a telemetry-instrumented end-to-end attack benchmark.

Runs the full pipeline -- victim training, CFT+BR offline optimization,
page-cache massaging and n-sided hammering -- at a deliberately small scale,
with telemetry enabled, and writes the aggregated report as
``BENCH_pipeline.json``.  The committed copy under ``benchmarks/`` is the
CI regression baseline: ``repro bench-check`` (see
:mod:`repro.telemetry.regression`) fails the build when stage wall-times or
flip counters drift beyond tolerance.

Everything is seeded, so the flip counters are deterministic; wall-times
vary with the host, which is why the regression gate takes a tolerance.
"""

from __future__ import annotations

import dataclasses
import platform
import time
from typing import Dict, Optional, Sequence

import numpy as np

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


def _bench_sweep_durations(
    seed: int, workers_list: Sequence[int] = (1, 2)
) -> Dict[int, float]:
    """Wall-clock one micro sweep per pool size (same grid, warm model cache).

    Records gauges ``sweep.workersN_seconds`` plus ``sweep.speedup`` so the
    committed benchmark baseline makes the fan-out win (or regression)
    visible.  Worker telemetry capture is off: the timing, not the merged
    per-task metrics, is what this section benchmarks.
    """
    from repro.core.experiment import SCALE_PRESETS
    from repro.core.training import pretrained_quantized_model
    from repro.parallel import SweepGrid, run_sweep

    scale = SCALE_PRESETS["micro"]
    grid = SweepGrid(
        methods=("CFT", "CFT+BR"),
        models=("tinycnn",),
        devices=("K1",),
        seeds=(seed,),
        target_class=1,
        scale=dataclasses.asdict(scale),
    )
    with telemetry.span("bench_sweep"):
        with telemetry.span("bench_sweep.warm_cache"):
            # Train-and-cache once so every timed sweep loads the same
            # checkpoint and the 1-vs-N comparison is training-free.
            pretrained_quantized_model(
                "tinycnn", width=scale.width, epochs=scale.epochs, seed=seed
            )
        durations: Dict[int, float] = {}
        for workers in workers_list:
            with telemetry.span("bench_sweep.run", workers=workers):
                start = time.perf_counter()
                # Both captures off: the timing is the benchmark here, and
                # the flight record should describe the main attack run, not
                # the pool-scaling micro sweeps.
                result = run_sweep(
                    grid, workers=workers, capture_telemetry=False, capture_events=False
                )
                durations[workers] = time.perf_counter() - start
            if result.failures:
                raise RuntimeError(
                    f"bench sweep failed with workers={workers}: {result.failures[0].error}"
                )
            telemetry.gauge_set(f"sweep.workers{workers}_seconds", durations[workers])
        baseline_workers = workers_list[0]
        for workers in workers_list[1:]:
            telemetry.gauge_set(
                f"sweep.speedup_x{workers}", durations[baseline_workers] / durations[workers]
            )
    return durations


def _bench_engine_section(seed: int, candidates: int = 24) -> Dict[str, float]:
    """Time the CFT+BR inner-loop evaluation with and without the engine.

    Replays the hot pattern of the progressive solver at the ``micro``
    preset: commit one single-bit flip in the tinycnn head, evaluate clean
    and trigger-stamped logits over the fixed 64-image subset, revert -- the
    head is where the model's parameter mass (and therefore most candidate
    page groups) sits.  Both passes digest every logits array; a mismatch
    means the determinism contract broke and the bench fails hard.

    A third pass scores the identical candidate set through the round-level
    batched scorer (:func:`repro.engine.batch.score_candidates`) -- one
    stacked suffix forward per perturbed stage instead of one scalar forward
    per candidate -- and must reproduce the same digest byte-for-byte.

    Records gauges ``engine.uncached_seconds`` / ``engine.cached_seconds`` /
    ``engine.batched_seconds`` / ``engine.speedup`` /
    ``engine.batched_speedup`` / ``engine.hit_rate`` and spans
    ``bench_engine.uncached`` / ``bench_engine.cached`` /
    ``bench_engine.batched``.
    """
    import hashlib

    from repro.autodiff import no_grad
    from repro.autodiff.tensor import Tensor
    from repro.core.experiment import SCALE_PRESETS
    from repro.core.training import pretrained_quantized_model
    from repro.data.trigger import TriggerPattern
    from repro.engine import EvalEngine
    from repro.quant.bits import flip_bit

    scale = SCALE_PRESETS["micro"]
    with telemetry.span("bench_engine"):
        with telemetry.span("bench_engine.warm_cache"):
            qmodel, _, _, attacker_data = pretrained_quantized_model(
                "tinycnn", width=scale.width, epochs=scale.epochs, seed=seed
            )
        model = qmodel.module
        model.eval()
        eval_images = attacker_data.images[:64]
        trigger = TriggerPattern.square(eval_images.shape[1:], 4)
        stamped = trigger.apply(eval_images)

        head = ["hidden.weight", "fc.weight"]
        flips = [
            (qmodel.offset_of(head[i % len(head)]) + 17 * i, 6)
            for i in range(candidates)
        ]

        def candidate_loop(engine: Optional[EvalEngine]) -> str:
            digest = hashlib.sha256()
            for index, bit in flips:
                qmodel.apply_bit_flip(index, bit)
                for images in (eval_images, stamped):
                    if engine is not None:
                        logits = engine.forward(images)
                    else:
                        with no_grad():
                            logits = model(Tensor(images)).data
                    digest.update(logits.tobytes())
                qmodel.apply_bit_flip(index, bit)  # revert
            return digest.hexdigest()

        candidate_loop(None)  # warm NumPy and the checkpoint before timing
        with telemetry.span("bench_engine.uncached"):
            start = time.perf_counter()
            uncached_digest = candidate_loop(None)
            uncached_seconds = time.perf_counter() - start

        engine = EvalEngine(model)
        with telemetry.span("bench_engine.cached"):
            start = time.perf_counter()
            cached_digest = candidate_loop(engine)
            cached_seconds = time.perf_counter() - start

        if cached_digest != uncached_digest:
            raise RuntimeError(
                "engine determinism contract broken: cached logits differ "
                "from the plain forward"
            )

        # Same candidates as proposals for the batched scorer: the new byte
        # value of each flip, computed against the (restored) baseline file.
        proposals = []
        for index, bit in flips:
            name, local = qmodel.locate(index)
            current = qmodel.quantized(name).reshape(-1)[local]
            proposals.append(
                (index, int(flip_bit(np.array([current], dtype=np.int8), bit)[0]))
            )

        def batched_loop() -> str:
            clean_stack, trig_stack = engine.score_candidates(
                qmodel, proposals, (eval_images, stamped)
            )
            digest = hashlib.sha256()
            for k in range(len(proposals)):
                digest.update(clean_stack[k].tobytes())
                digest.update(trig_stack[k].tobytes())
            return digest.hexdigest()

        batched_loop()  # warm the prefix cache under the batched key pattern
        with telemetry.span("bench_engine.batched"):
            start = time.perf_counter()
            batched_digest = batched_loop()
            batched_seconds = time.perf_counter() - start

        if batched_digest != uncached_digest:
            raise RuntimeError(
                "batched scoring determinism contract broken: stacked-suffix "
                "logits differ from the sequential candidate loop"
            )

        stats = engine.cache.stats
        section = {
            "uncached_seconds": uncached_seconds,
            "cached_seconds": cached_seconds,
            "batched_seconds": batched_seconds,
            "speedup": uncached_seconds / cached_seconds,
            "batched_speedup": cached_seconds / batched_seconds,
            "hit_rate": stats.hit_rate(),
        }
        telemetry.gauge_set("engine.uncached_seconds", uncached_seconds)
        telemetry.gauge_set("engine.cached_seconds", cached_seconds)
        telemetry.gauge_set("engine.batched_seconds", batched_seconds)
        telemetry.gauge_set("engine.speedup", section["speedup"])
        telemetry.gauge_set("engine.batched_speedup", section["batched_speedup"])
        telemetry.gauge_set("engine.hit_rate", section["hit_rate"])
    return section


def run_bench(
    out: Optional[str] = "BENCH_pipeline.json",
    jsonl: Optional[str] = None,
    seed: int = 0,
    epochs: int = 3,
    iterations: int = 10,
    n_flip_budget: int = 2,
    target_class: int = 1,
    include_sweep: bool = True,
    include_engine: bool = True,
    events: Optional[str] = None,
    trace: Optional[str] = None,
    manifest: bool = True,
) -> Dict[str, object]:
    """Run the benchmark attack end-to-end and return the telemetry report.

    ``events`` / ``trace`` optionally write the flight record (JSONL) and the
    Chrome-trace/Perfetto view of the run; ``manifest`` (default on) writes
    ``<out>.manifest.json`` identifying what produced the artifacts.
    """
    telemetry.enable()
    if events is not None or trace is not None:
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

    # Outside the "bench" span so the single-run baseline timing is not
    # distorted by the (parallelism-dependent) sweep comparison.
    sweep_durations = _bench_sweep_durations(seed) if include_sweep else {}
    engine_section = _bench_engine_section(seed) if include_engine else {}

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
        "sweep_workers_seconds": {str(k): v for k, v in sweep_durations.items()},
        "engine": engine_section,
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
                    "include_sweep": include_sweep,
                    "include_engine": include_engine,
                },
                seeds=[seed],
                device="K1",
                artifacts=artifacts,
                counters=engine_counters,
            ),
            manifest_path_for(out),
        )
    return report
