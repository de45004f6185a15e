"""The benchmark's workloads: set-up, timed body, output checks and digest.

Each workload calls the public ``repro`` API in-process and never starts a
process pool.  ``setup()`` builds everything a user pays for before the
first real call (victim load, dataset synthesis, device and OS-model
construction); ``body(state)`` is the timed work.  The body returns one
:class:`Op` per operation (a Table II row, or a profiled device), the
SHA-256 digest of its outputs, and the behaviour values it measured.

Two seeds reach a workload.  ``victim_seed`` picks the victim checkpoint
and the DRAM fault map, so it fixes every output.  ``seed`` (the driver's
``--seed``) only reorders independent operations, so outputs and their
digest are the same for every ``seed``.  ``setup_repeats`` is how many
times a measured round sets up; it reports the median.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.parallel.worker
from repro import telemetry
from repro.attacks import AttackConfig, CFTAttack
from repro.core.config import MemoryConfig, PipelineConfig
from repro.core.experiment import SCALE_PRESETS
from repro.core.pipeline import BackdoorPipeline
from repro.core.training import pretrained_quantized_model
from repro.memory.dram import DRAMArray
from repro.memory.geometry import DRAMGeometry
from repro.memory.mmap import OSMemoryModel
from repro.parallel import SweepGrid, run_sweep
from repro.rowhammer import DEVICE_PROFILES, HammerEngine, MemoryProfiler

# A victim checkpoint: (model, width, epochs); the seed comes separately.
Victim = Tuple[str, float, int]


@dataclasses.dataclass(frozen=True)
class Op:
    """Outcome of one operation of a workload body."""

    name: str
    ok: bool
    detail: str = ""


@dataclasses.dataclass
class Outcome:
    ops: List[Op]
    digest: str
    facts: Dict[str, float]


def digest_of(payload: object) -> str:
    """SHA-256 of a JSON-serializable payload (keys sorted)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _failed(name: str, exc: Exception) -> Op:
    return Op(name, False, f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class AttackSize:
    epochs: int = 8
    test_images: int = 300
    buffer_pages: int = 2048
    n_flip_budget: int = 4
    batch_size: int = 32


class AttackResnet20:
    """One CFT+BR Table II row through ``BackdoorPipeline.run`` on device K1.

    The paper's headline result, and the only workload whose victim is
    trained (about 96 % clean accuracy), so its TA/ASR/r_match mean
    something.  Most of its time is autodiff and backend work reached
    through trigger gradients, engine scoring and evaluation.
    """

    name = "attack-resnet20"
    setup_repeats = 3
    target_class = 2
    device = "K1"
    width = 0.25
    iterations = 12

    def __init__(self, size: AttackSize, victim_seed: int, seed: int, work_dir: Path) -> None:
        self.size = size
        self.victim_seed = victim_seed

    def victims(self) -> List[Victim]:
        return [("resnet20", self.width, self.size.epochs)]

    def setup(self) -> dict:
        size = self.size
        qmodel, _, test_data, attacker_data = pretrained_quantized_model(
            "resnet20", width=self.width, epochs=size.epochs, seed=self.victim_seed
        )
        test_data = test_data.subset(np.arange(min(size.test_images, len(test_data))))
        pipeline = BackdoorPipeline(
            PipelineConfig(
                memory=MemoryConfig(
                    device=self.device,
                    attacker_buffer_pages=size.buffer_pages,
                    seed=self.victim_seed,
                )
            )
        )
        attack = CFTAttack(
            AttackConfig(
                target_class=self.target_class,
                iterations=self.iterations,
                n_flip_budget=size.n_flip_budget,
                batch_size=size.batch_size,
                epsilon=0.01,
                seed=self.victim_seed,
            ),
            bit_reduction=True,
        )
        return {
            "pipeline": pipeline,
            "attack": attack,
            "qmodel": qmodel,
            "attacker_data": attacker_data,
            "test_data": test_data,
        }

    def body(self, state: dict) -> Outcome:
        op = f"CFT+BR|resnet20|{self.device}"
        try:
            result = state["pipeline"].run(
                state["attack"], state["qmodel"], state["attacker_data"],
                state["test_data"], self.target_class,
            )
        except Exception as exc:  # a failed row is a failed operation, not a crash
            return Outcome([_failed(op, exc)], digest_of(None), {})
        row = result.as_row()
        problems = []
        if row["offline_n_flip"] > self.size.n_flip_budget:
            problems.append(f"offline_n_flip {row['offline_n_flip']} > budget")
        if row["online_n_flip"] > row["offline_n_flip"]:
            problems.append(f"online_n_flip {row['online_n_flip']} > offline_n_flip")
        facts = {
            "online_asr_pct": row["online_asr"],
            "online_ta_pct": row["online_ta"],
            "r_match_pct": row["r_match"],
            "offline_n_flip": float(row["offline_n_flip"]),
        }
        return Outcome([Op(op, not problems, "; ".join(problems))], digest_of(row), facts)


# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Table1Size:
    pages: int = 1024
    devices: Optional[Tuple[str, ...]] = None  # None: all 20 Table I devices


class ProfileTable1:
    """Profile one anonymous buffer on every Table I device.

    Each device uses its saturating pattern (2-sided on DDR3, 15-sided on
    DDR4), as ``benchmarks/test_table1_device_profiles.py`` does.  Only
    ``repro.memory`` and ``repro.rowhammer`` run: dense DDR4 parts stress
    cell drawing, sparse DDR3 parts the per-row fill, read and restore.
    No model runs, so this is the no-change workload for autodiff, backend
    and engine work.  Each device is profiled once per run.
    """

    name = "profile-table1"
    setup_repeats = 5
    # The Table I benchmark's tolerance (pytest.approx(paper, rel, abs)).
    rel_tolerance = 0.35
    abs_tolerance = 1.0

    def __init__(self, size: Table1Size, victim_seed: int, seed: int, work_dir: Path) -> None:
        self.size = size
        self.victim_seed = victim_seed
        self.names = list(size.devices or sorted(DEVICE_PROFILES))
        random.Random(seed).shuffle(self.names)

    def victims(self) -> List[Victim]:
        return []

    def setup(self) -> dict:
        pages = self.size.pages
        geometry = DRAMGeometry(num_banks=8, rows_per_bank=max(256, pages), row_size_bytes=8192)
        devices = {}
        for name in self.names:
            profile = DEVICE_PROFILES[name]
            dram = DRAMArray(
                geometry, flips_per_page_mean=profile.flips_per_page, seed=self.victim_seed
            )
            os_model = OSMemoryModel(dram, rng=self.victim_seed + 1)
            engine = HammerEngine(dram, profile)
            devices[name] = (profile, os_model, engine, os_model.mmap_anonymous(pages))
        return devices

    def body(self, state: dict) -> Outcome:
        ops: List[Op] = []
        counts: Dict[str, list] = {}
        errors: Dict[str, float] = {}
        for name in self.names:
            device, os_model, engine, mapping = state[name]
            n_sides = 2 if device.ddr_version == 3 else 15
            try:
                profile = MemoryProfiler(os_model, engine).profile_mapping(mapping, n_sides)
            except Exception as exc:
                ops.append(_failed(name, exc))
                continue
            measured = profile.avg_flips_per_page
            paper = device.flips_per_page
            allowed = max(self.rel_tolerance * paper, self.abs_tolerance)
            ok = abs(measured - paper) <= allowed
            ops.append(Op(name, ok, "" if ok else f"{measured:.2f} flips/page vs {paper}"))
            counts[name] = profile.flips_per_page().tolist()
            errors[name] = abs(measured - paper) / paper
        # Summed in device-name order, so the value does not depend on --seed.
        mean_error = float(np.mean([errors[name] for name in sorted(errors)])) if errors else 0.0
        facts = {"table1_err_pct": 100.0 * mean_error}
        return Outcome(ops, digest_of(counts), facts)


# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SweepSize:
    methods: Tuple[str, ...] = ("CFT", "CFT+BR")
    devices: Tuple[str, ...] = ("K1", "A1", "L2", "F1")


class SweepMicro:
    """A journaled inline sweep (``run_sweep(workers=1)``, no pool).

    Widens the CI smoke grid to tinycnn at the ``micro`` preset x
    {CFT, CFT+BR} x {K1, A1, L2, F1}: 8 rows, with the flight recorder on.
    It is the throughput workload: per-task victim reload, 7-sided
    profiling of a 16-bank device, offline search, online placement, and
    the journal.  Two rows share each (device, seed).  The micro victim is
    untrained, so its rows gate determinism, not attack quality.
    """

    name = "sweep-micro"
    setup_repeats = 200  # set-up is a grid expansion of about 0.1 ms
    model = "tinycnn"
    scale = SCALE_PRESETS["micro"]
    target_class = 1  # as in the CI sweep smoke grid

    def __init__(self, size: SweepSize, victim_seed: int, seed: int, work_dir: Path) -> None:
        self.size = size
        self.victim_seed = victim_seed
        self.seed = seed
        # A fresh journal per round; cleared here so set-up times only the
        # grid, not file-system calls.
        self.journal = work_dir / "out" / f"{self.name}.journal.jsonl"
        self.journal.parent.mkdir(parents=True, exist_ok=True)
        self.journal.unlink(missing_ok=True)

    def victims(self) -> List[Victim]:
        return [(self.model, self.scale.width, self.scale.epochs)]

    def setup(self) -> dict:
        size = self.size
        grid = SweepGrid(
            methods=size.methods,
            models=(self.model,),
            devices=size.devices,
            seeds=(self.victim_seed,),
            target_class=self.target_class,
            scale=dataclasses.asdict(self.scale),
        )
        tasks = grid.expand()
        random.Random(self.seed).shuffle(tasks)
        return {"tasks": tasks}

    def body(self, state: dict) -> Outcome:
        telemetry.enable_events()
        try:
            # Looked up at call time so a traced run sees the wrapped runner.
            result = run_sweep(
                state["tasks"], workers=1, journal_path=str(self.journal),
                task_runner=repro.parallel.worker.execute_task,
            )
        finally:
            telemetry.disable_events()
        ops = []
        for outcome in result.outcomes:
            error = outcome.error or {}
            detail = f"{error.get('type')}: {error.get('message')}" if outcome.error else ""
            ops.append(Op(outcome.task.task_id, outcome.status == "ok", detail))
        rows = sorted(json.dumps(row, sort_keys=True) for row in result.rows)
        facts = {
            "events_recorded": float(sum(len(o.events or ()) for o in result.outcomes)),
            "journal_bytes": float(self.journal.stat().st_size),
            "retries": float(sum(max(0, o.attempts - 1) for o in result.outcomes)),
        }
        return Outcome(ops, digest_of(rows), facts)


# ---------------------------------------------------------------------------
WORKLOADS = {w.name: w for w in (AttackResnet20, ProfileTable1, SweepMicro)}

SIZES: Dict[str, Dict[str, object]] = {
    # The sizes the benchmark measures.
    "full": {
        "attack-resnet20": AttackSize(),
        "profile-table1": Table1Size(),
        "sweep-micro": SweepSize(),
    },
    # Reduced sizes for the benchmark's own tests (seconds each).
    "smoke": {
        "attack-resnet20": AttackSize(epochs=1, test_images=32, buffer_pages=512,
                                      n_flip_budget=2, batch_size=16),
        "profile-table1": Table1Size(pages=128, devices=("A1", "F1", "K1", "L2")),
        "sweep-micro": SweepSize(methods=("CFT+BR",), devices=("K1", "A1")),
    },
}


def make(name: str, size: str, victim_seed: int, seed: int, work_dir: Path):
    """Instantiate workload ``name`` at a named size."""
    return WORKLOADS[name](SIZES[size][name], victim_seed, seed, work_dir)


def prepare(names: Sequence[str], size: str, victim_seed: int, work_dir: Path) -> List[Victim]:
    """Train (or load) every victim the named workloads use into the cache."""
    victims = sorted({
        victim
        for name in names
        for victim in make(name, size, victim_seed, 0, work_dir).victims()
    })
    for model, width, epochs in victims:
        pretrained_quantized_model(model, width=width, epochs=epochs, seed=victim_seed)
    return victims
