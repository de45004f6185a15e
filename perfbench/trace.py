"""Outside-in tracing: wrap the public entry points of each ``repro`` layer.

:func:`install` replaces functions and methods at runtime with wrappers
that record one span per call (name, parent, start, end) into a
:class:`Tracer`; the program's source is not edited.  Wrappers nest, so a
span's self time is its duration minus the time its child spans cover.
Counts are taken at the same boundaries.  Spans stay in memory until
:func:`layer_metrics` aggregates them and :meth:`Tracer.write` saves them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

BODY_SPAN = "workload.body"

GEMM_KERNELS = ("conv_cols_matmul", "conv_grads", "linear", "linear_grads")
KERNELS = GEMM_KERNELS[:2] + ("im2col_backward",) + GEMM_KERNELS[2:] + (
    "batchnorm_stats", "batchnorm_apply",
)


class Tracer:
    """In-memory span recorder with nested self-time accounting."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        # (span id, parent id or -1, name, start, end, self seconds)
        self.spans: List[Tuple[int, int, str, float, float, float]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.engines: list = []  # EvalEngine instances, read at the end
        self.drawn_rows = weakref.WeakKeyDictionary()  # DRAMArray -> rows drawn
        self._stack: List[List[float]] = []  # [span id, child seconds]
        self._next_id = 0

    def add(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] += amount

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``.

        ``count(tracer, args, kwargs, result)`` runs after the span closes.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                tracer.spans.append((
                    frame[0], -1 if parent is None else parent[0], name,
                    start, end, duration - frame[1],
                ))
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return wrapper

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for _, _, name, start, end, self_s in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += self_s
        return {name: (int(c), t, s) for name, (c, t, s) in out.items()}

    def write(self, path: Path) -> None:
        """Save every span as one JSON line (times relative to the first span)."""
        origin = min((s[3] for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for sid, parent, name, start, end, self_s in sorted(self.spans):
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": start - origin, "end": end - origin, "self": self_s,
                }) + "\n")


# -- counters taken at the wrapped boundaries --------------------------------
def _nbytes(values) -> int:
    total = 0
    for value in values:
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, tuple):
            total += _nbytes(value)
    return total


def _kernel_counter(kernel: str) -> Callable:
    def count(tracer, args, kwargs, result):
        tracer.add(f"backend.{kernel}.bytes", _nbytes(args[1:]) + _nbytes((result,)))
        if kernel == "conv_cols_matmul":  # cols (..., K) @ w_mat.T (K, O)
            cols, w_mat = args[1], args[2]
            flops = 2 * cols.size * w_mat.shape[0]
        elif kernel == "conv_grads":  # two (N*L, O) x (O|L, K) products
            grad_mat, cols = args[1], args[2]
            flops = 4 * cols.size * grad_mat.shape[-1]
        elif kernel == "linear":  # x (..., I) @ w_t (I, O)
            x, w_t = args[1], args[2]
            flops = 2 * x.size * w_t.shape[-1]
        elif kernel == "linear_grads":  # grad_x and grad_w products
            x, w_t = args[2], args[3]
            flops = 4 * x.size * w_t.shape[-1]
        else:
            return
        tracer.add(f"backend.{kernel}.flops", flops)

    return count


def _count_profile(tracer, args, kwargs, result):
    profiler, frames = args[0], args[1]
    geometry = profiler.os.dram.geometry
    rows = set()
    for frame in frames:
        address = geometry.frame_address(frame)
        rows.add((address.bank, address.row))
    tracer.add("rowhammer.rows_profiled", len(rows))
    tracer.add("rowhammer.flips_found", result.num_flips)


def _count_cells(tracer, args, kwargs, result):
    dram, key = args[0], (args[1], args[2])
    drawn = tracer.drawn_rows.setdefault(dram, set())
    if key not in drawn:  # the fault map is drawn once per row, then cached
        drawn.add(key)
        tracer.add("memory.cells_drawn", len(result))


def _count_read(tracer, args, kwargs, result):
    tracer.add("memory.rw_bytes", args[2])


def _count_write(tracer, args, kwargs, result):
    tracer.add("memory.rw_bytes", np.asarray(args[2]).size)


def _count_candidates(tracer, args, kwargs, result):
    tracer.add("attacks.candidates_scored", len(args[2]))


def _count_commit(tracer, args, kwargs, result):
    tracer.add("attacks.flips_committed")


def _register_engine(tracer, args, kwargs, result):
    tracer.engines.append(args[0])


# (module, attribute path, span name, counter): each layer's public entry
# points.  A function is also replaced in every module that imported it by
# name, the benchmark's own workloads included.
TARGETS = [
    ("repro.core.pipeline", "BackdoorPipeline.run", "pipeline.run", None),
    ("repro.core.pipeline", "BackdoorPipeline.profile_memory", "pipeline.profile", None),
    ("repro.core.training", "pretrained_quantized_model", "training.load", None),
    ("repro.attacks.cft", "CFTAttack.run", "attacks.offline", None),
    ("repro.attacks.objective", "attack_loss_and_grads", "attacks.grads", None),
    ("repro.attacks.online", "OnlineInjector.inject", "attacks.online", None),
    ("repro.analysis.metrics", "evaluate_attack", "analysis.evaluate", None),
    ("repro.engine.engine", "EvalEngine.__init__", "engine.init", _register_engine),
    ("repro.engine.engine", "EvalEngine.forward", "engine.forward", None),
    ("repro.engine.engine", "EvalEngine.score_candidates", "engine.score", _count_candidates),
    ("repro.engine.engine", "EvalEngine.promote_speculation", "engine.promote", _count_commit),
    ("repro.autodiff.conv", "Conv2dFunction.forward", "autodiff.conv_fwd", None),
    ("repro.autodiff.tensor", "Tensor.backward", "autodiff.backward", None),
    ("repro.rowhammer.profiler", "MemoryProfiler.profile_frames", "rowhammer.profile",
     _count_profile),
    ("repro.rowhammer.hammer", "HammerEngine.hammer_victim", "rowhammer.hammer", None),
    ("repro.rowhammer.templating", "PageTemplater.match", "rowhammer.templating", None),
    ("repro.memory.dram", "DRAMArray.__init__", "memory.os_setup", None),
    ("repro.memory.dram", "DRAMArray.vulnerable_cells", "memory.cell_draw", _count_cells),
    ("repro.memory.dram", "DRAMArray.read_bytes", "memory.rw", _count_read),
    ("repro.memory.dram", "DRAMArray.write_bytes", "memory.rw", _count_write),
    ("repro.memory.mmap", "OSMemoryModel.__init__", "memory.os_setup", None),
    ("repro.memory.mmap", "OSMemoryModel.mmap_anonymous", "memory.os_setup", None),
    ("repro.parallel.runner", "run_sweep", "parallel.sweep", None),
    ("repro.parallel.worker", "execute_task", "parallel.task", None),
    ("repro.parallel.journal", "SweepJournal.append", "parallel.journal_append", None),
]


_ABSENT = object()


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target (and the active backend's kernels); return an undo."""
    from repro.backend import current_backend

    undo: List[Tuple[object, str, object]] = []

    def patch(owner, attr: str, replacement) -> None:
        undo.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, replacement)

    for module_name, path, span, count in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            original = getattr(cls, attr)
            wrapped = tracer.wrap(span, original, count)
            # Aliases such as ``__call__ = forward`` share the function object.
            for alias, value in list(vars(cls).items()):
                if value is original and alias != attr:
                    patch(cls, alias, wrapped)
            patch(cls, attr, wrapped)
        else:
            original = getattr(module, path)
            wrapped = tracer.wrap(span, original, count)
            for other in list(sys.modules.values()):
                for alias, value in list(getattr(other, "__dict__", {}).items()):
                    if value is original:
                        patch(other, alias, wrapped)

    backend_cls = type(current_backend())
    for kernel in KERNELS:
        original = getattr(backend_cls, kernel)
        patch(backend_cls, kernel, tracer.wrap(f"backend.{kernel}", original,
                                                _kernel_counter(kernel)))

    def restore() -> None:
        for owner, attr, previous in reversed(undo):
            if previous is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    return restore


# -- per-layer metrics --------------------------------------------------------
# name -> unit; every traced run reports each of these (zero when unused).
LAYER_METRICS: Dict[str, str] = {
    "pipeline.profile_s": "s",
    "pipeline.offline_s": "s",
    "pipeline.evaluate_s": "s",
    "pipeline.online_s": "s",
    "training.load_calls": "count",
    "training.load_s": "s",
    "rowhammer.profile_self_s": "s",
    "rowhammer.rows_profiled": "count",
    "rowhammer.hammer_calls": "count",
    "rowhammer.hammer_self_s": "s",
    "rowhammer.flips_found": "count",
    "rowhammer.templating_s": "s",
    "memory.cell_draw_s": "s",
    "memory.cells_drawn": "count",
    "memory.usable_ratio": "ratio",
    "memory.rw_calls": "count",
    "memory.rw_s": "s",
    "memory.rw_bytes": "bytes",
    "memory.os_setup_s": "s",
    "autodiff.conv_fwd_calls": "count",
    "autodiff.conv_fwd_self_s": "s",
    "autodiff.backward_self_s": "s",
    **{f"backend.{k}.{field}": unit for k in KERNELS
       for field, unit in (("calls", "count"), ("s", "s"), ("bytes", "bytes"))},
    **{f"backend.{k}.flops": "flop" for k in GEMM_KERNELS},
    "attacks.grads_calls": "count",
    "attacks.grads_s": "s",
    "attacks.candidates_scored": "count",
    "attacks.commit_rate": "ratio",
    "attacks.online_s": "s",
    "engine.score_s": "s",
    "engine.forward_calls": "count",
    "engine.forward_s": "s",
    "engine.cache_hit_rate": "ratio",
    "engine.spec_hit_rate": "ratio",
    "analysis.evaluate_s": "s",
    "parallel.task_s": "s",
    "parallel.overhead_s": "s",
    "parallel.retries": "count",
    "parallel.journal_bytes": "bytes",
    "parallel.journal_append_s": "s",
    "telemetry.events_recorded": "count",
    "telemetry.trace_overhead_s": "s",
    "trace.self_coverage_pct": "%",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, facts: Dict[str, float]) -> Dict[str, float]:
    """Aggregate the recorded spans into :data:`LAYER_METRICS` values.

    ``facts`` carries values the workload measured itself (sweep events,
    journal size, retries).  ``telemetry.trace_overhead_s`` needs the
    untraced run time and is filled in by the caller.
    """
    totals = tracer.totals()
    counts = tracer.counts

    def calls(span: str) -> float:
        return float(totals.get(span, (0, 0.0, 0.0))[0])

    def total(span: str) -> float:
        return totals.get(span, (0, 0.0, 0.0))[1]

    def self_s(span: str) -> float:
        return totals.get(span, (0, 0.0, 0.0))[2]

    engine = defaultdict(int)
    for instance in tracer.engines:
        for key, value in instance.counters().items():
            engine[key] += value

    body = total(BODY_SPAN)
    out = {
        "pipeline.profile_s": total("pipeline.profile"),
        "pipeline.offline_s": total("attacks.offline"),
        "pipeline.evaluate_s": total("analysis.evaluate"),
        "pipeline.online_s": total("attacks.online"),
        "training.load_calls": calls("training.load"),
        "training.load_s": total("training.load"),
        "rowhammer.profile_self_s": self_s("rowhammer.profile"),
        "rowhammer.rows_profiled": counts["rowhammer.rows_profiled"],
        "rowhammer.hammer_calls": calls("rowhammer.hammer"),
        "rowhammer.hammer_self_s": self_s("rowhammer.hammer"),
        "rowhammer.flips_found": counts["rowhammer.flips_found"],
        "rowhammer.templating_s": total("rowhammer.templating"),
        "memory.cell_draw_s": total("memory.cell_draw"),
        "memory.cells_drawn": counts["memory.cells_drawn"],
        "memory.usable_ratio": _ratio(counts["rowhammer.flips_found"],
                                      counts["memory.cells_drawn"]),
        "memory.rw_calls": calls("memory.rw"),
        "memory.rw_s": total("memory.rw"),
        "memory.rw_bytes": counts["memory.rw_bytes"],
        "memory.os_setup_s": total("memory.os_setup"),
        "autodiff.conv_fwd_calls": calls("autodiff.conv_fwd"),
        "autodiff.conv_fwd_self_s": self_s("autodiff.conv_fwd"),
        "autodiff.backward_self_s": self_s("autodiff.backward"),
        "attacks.grads_calls": calls("attacks.grads"),
        "attacks.grads_s": total("attacks.grads"),
        "attacks.candidates_scored": counts["attacks.candidates_scored"],
        "attacks.commit_rate": _ratio(counts["attacks.flips_committed"],
                                      counts["attacks.candidates_scored"]),
        # The pipeline phases above are inclusive; these two are the layer's
        # own code inside the same calls.
        "attacks.online_s": self_s("attacks.online"),
        "analysis.evaluate_s": self_s("analysis.evaluate"),
        "engine.score_s": total("engine.score"),
        "engine.forward_calls": calls("engine.forward"),
        "engine.forward_s": total("engine.forward"),
        "engine.cache_hit_rate": _ratio(
            engine["engine.cache.hit"], engine["engine.cache.hit"] + engine["engine.cache.miss"]
        ),
        "engine.spec_hit_rate": _ratio(
            engine["engine.batch.spec_hit"],
            engine["engine.batch.spec_hit"] + engine["engine.batch.spec_discard"],
        ),
        "parallel.task_s": total("parallel.task"),
        "parallel.overhead_s": total("parallel.sweep") - total("parallel.task")
        if calls("parallel.sweep") else 0.0,
        "parallel.retries": facts.get("retries", 0.0),
        "parallel.journal_bytes": facts.get("journal_bytes", 0.0),
        "parallel.journal_append_s": total("parallel.journal_append"),
        "telemetry.events_recorded": facts.get("events_recorded", 0.0),
        "telemetry.trace_overhead_s": 0.0,
        # Share of the body that some layer span below it accounts for.
        "trace.self_coverage_pct": 100.0 * _ratio(body - self_s(BODY_SPAN), body),
    }
    for kernel in KERNELS:
        out[f"backend.{kernel}.calls"] = calls(f"backend.{kernel}")
        out[f"backend.{kernel}.s"] = total(f"backend.{kernel}")
        out[f"backend.{kernel}.bytes"] = counts[f"backend.{kernel}.bytes"]
    for kernel in GEMM_KERNELS:
        out[f"backend.{kernel}.flops"] = counts[f"backend.{kernel}.flops"]
    return out
