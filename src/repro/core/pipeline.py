"""End-to-end backdoor pipeline: offline optimization + online Rowhammer.

Wires together every substrate exactly as the paper's attack flow does:

1. Build the simulated DRAM device from a Table I profile and boot the OS
   memory model.
2. The attacker maps a large anonymous buffer and profiles it for flips
   with the online hammer pattern (offline phase, memory part).
3. An offline attack (CFT+BR or a baseline) computes the backdoored weight
   file and trigger (offline phase, optimization part).
4. The online injector places the weight file onto the flippy frames via
   the FILO frame cache and hammers the planned rows.
5. The corrupted file is loaded back into the model for TA/ASR evaluation.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional


from repro import telemetry
from repro.analysis.metrics import AttackEvaluation, evaluate_attack
from repro.attacks.base import OfflineAttackResult
from repro.attacks.online import OnlineInjectionResult, OnlineInjector
from repro.core.config import PipelineConfig
from repro.data.dataset import ArrayDataset
from repro.log import get_logger
from repro.memory.dram import DRAMArray
from repro.memory.geometry import DRAMGeometry
from repro.memory.mmap import MappedFile, OSMemoryModel
from repro.quant.qmodel import QuantizedModel
from repro.quant.weightfile import WeightFile
from repro.rowhammer.device_profiles import get_profile
from repro.rowhammer.hammer import HammerEngine
from repro.rowhammer.profiler import FlipProfile, MemoryProfiler

log = get_logger(__name__)


@dataclasses.dataclass
class PipelineResult:
    """Everything one end-to-end run produces (one Table II row)."""

    method: str
    offline: OfflineAttackResult
    online: OnlineInjectionResult
    offline_eval: AttackEvaluation
    online_eval: AttackEvaluation
    online_n_flip: int

    def as_row(self) -> Dict[str, float]:
        """Flatten to the paper's Table II columns."""
        return {
            "offline_n_flip": self.offline.n_flip,
            "offline_ta": 100.0 * self.offline_eval.test_accuracy,
            "offline_asr": 100.0 * self.offline_eval.attack_success_rate,
            "online_n_flip": self.online_n_flip,
            "online_ta": 100.0 * self.online_eval.test_accuracy,
            "online_asr": 100.0 * self.online_eval.attack_success_rate,
            "r_match": self.online.r_match,
        }


class BackdoorPipeline:
    """Orchestrates the full offline + online attack against one victim."""

    def __init__(self, config: PipelineConfig = PipelineConfig()) -> None:
        self.config = config
        memory = config.memory
        self.profile_spec = get_profile(memory.device)
        geometry = DRAMGeometry(
            num_banks=memory.num_banks,
            rows_per_bank=memory.rows_per_bank,
            row_size_bytes=memory.row_size_bytes,
        )
        self.dram = DRAMArray(
            geometry, flips_per_page_mean=self.profile_spec.flips_per_page, seed=memory.seed
        )
        self.os = OSMemoryModel(self.dram, rng=memory.seed + 1)
        self.engine = HammerEngine(self.dram, self.profile_spec)
        self.attacker_buffer: Optional[MappedFile] = None
        self.flip_profile: Optional[FlipProfile] = None
        self._file_counter = 0

    # ------------------------------------------------------------------
    def profile_memory(self) -> FlipProfile:
        """Map the attacker buffer and profile it for flips (cached)."""
        if self.flip_profile is None:
            with telemetry.span("pipeline.profile_memory"):
                self.attacker_buffer = self.os.mmap_anonymous(
                    self.config.memory.attacker_buffer_pages
                )
                profiler = MemoryProfiler(self.os, self.engine)
                self.flip_profile = profiler.profile_mapping(
                    self.attacker_buffer, n_sides=self.config.memory.n_sides_profile
                )
            log.info(
                "profiled %d frames with %d-sided pattern: %d usable flips",
                self.flip_profile.num_frames,
                self.config.memory.n_sides_profile,
                self.flip_profile.num_flips,
            )
        return self.flip_profile

    # ------------------------------------------------------------------
    def run(
        self,
        attack,
        qmodel: QuantizedModel,
        attacker_data: ArrayDataset,
        test_data: ArrayDataset,
        target_class: int,
    ) -> PipelineResult:
        """Run offline + online and evaluate both phases on ``test_data``."""
        file_pages = WeightFile(qmodel.flat_int8()).num_pages
        self.config.validate_for_file_pages(file_pages)
        profile = self.profile_memory()

        with telemetry.span("pipeline.offline_attack", method=getattr(attack, "name", "?")):
            if telemetry.events_enabled():
                telemetry.event(
                    "attack.offline_start",
                    method=getattr(attack, "name", "?"),
                    n_flip_budget=getattr(
                        getattr(attack, "config", None), "n_flip_budget", None
                    ),
                    seed=getattr(getattr(attack, "config", None), "seed", None),
                )
            offline = attack.run(qmodel, attacker_data)
            if telemetry.events_enabled():
                telemetry.event(
                    "attack.offline_complete",
                    method=offline.method,
                    n_flip=offline.n_flip,
                )
        # One engine serves both evaluation phases: layers the online flips
        # leave untouched replay the offline pass's cached activations.
        from repro.engine import EvalEngine

        eval_engine = EvalEngine(qmodel.module)
        with telemetry.span("pipeline.evaluate", phase="offline"):
            offline_eval = evaluate_attack(
                qmodel.module, test_data, offline.trigger, target_class,
                engine=eval_engine,
            )
            if telemetry.events_enabled():
                telemetry.event(
                    "pipeline.evaluate",
                    phase="offline",
                    ta=offline_eval.test_accuracy,
                    asr=offline_eval.attack_success_rate,
                )

        injector = OnlineInjector(
            self.os,
            self.engine,
            profile,
            self.attacker_buffer,
            n_sides=self.config.memory.n_sides_online,
        )
        self._file_counter += 1
        with telemetry.span("pipeline.online_inject"):
            online = injector.inject(
                offline, file_id=f"{self.config.weight_file_id}.{self._file_counter}"
            )

        log.info(
            "%s offline: N_flip=%d; online: %d/%d achieved (r_match %.2f%%)",
            offline.method,
            offline.n_flip,
            online.n_flip_achieved,
            online.n_flip_required,
            online.r_match,
        )
        qmodel.load_flat_int8(online.corrupted_weights)
        with telemetry.span("pipeline.evaluate", phase="online"):
            online_eval = evaluate_attack(
                qmodel.module, test_data, offline.trigger, target_class,
                engine=eval_engine,
            )
            if telemetry.events_enabled():
                telemetry.event(
                    "pipeline.evaluate",
                    phase="online",
                    ta=online_eval.test_accuracy,
                    asr=online_eval.attack_success_rate,
                )
        if telemetry.enabled():
            telemetry.counter_add("pipeline.runs")
            telemetry.counter_add("online.bits_flipped", online.n_flip_achieved)
            telemetry.counter_add("online.bits_required", online.n_flip_required)
            telemetry.gauge_set("online.r_match", online.r_match)
            telemetry.gauge_set("attack.offline_asr", offline_eval.attack_success_rate)
            telemetry.gauge_set("attack.online_asr", online_eval.attack_success_rate)
            telemetry.gauge_set("attack.offline_ta", offline_eval.test_accuracy)
            telemetry.gauge_set("attack.online_ta", online_eval.test_accuracy)
        return PipelineResult(
            method=offline.method,
            offline=offline,
            online=online,
            offline_eval=offline_eval,
            online_eval=online_eval,
            online_n_flip=online.n_flip_achieved,
        )
