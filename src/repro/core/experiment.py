"""Experiment drivers: one function per paper table/figure.

Each driver returns plain data structures (lists of dict rows) so the
benchmark harness can both print paper-style tables and assert the
qualitative "shape" of the results (who wins, by roughly what factor).
Scale is controlled by :class:`ExperimentScale` so the same code runs as a
quick benchmark or a full reproduction.

Every Table II / Table III grid is embarrassingly parallel -- one
:func:`run_single_experiment` per (method, model, device, seed) cell -- so
the drivers here delegate fan-out to :mod:`repro.parallel`: the same cell
function runs inline for ``workers=1`` and in local worker processes
otherwise, with byte-identical rows either way.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.attacks import (
    AttackConfig,
    BadNetAttack,
    CFTAttack,
    LastLayerFTAttack,
    TBTAttack,
)
from repro.core.config import MemoryConfig, PipelineConfig
from repro.core.pipeline import BackdoorPipeline
from repro.core.training import pretrained_quantized_model
from repro.errors import AttackError, SweepError


@dataclasses.dataclass(frozen=True)
class ExperimentScale:
    """Resource knobs for the experiment drivers."""

    width: float = 0.25
    epochs: int = 12
    attack_iterations: int = 60
    n_flip_budget: int = 4
    attacker_buffer_pages: int = 4096
    test_subset: Optional[int] = 400

    @classmethod
    def from_env(cls) -> "ExperimentScale":
        """Scale selected by the ``REPRO_BENCH_SCALE`` environment variable.

        - ``micro``: sweep-smoke scale (seconds per task; CI sweep job).
        - ``tiny``: smoke-test scale (CI-friendly, minutes).
        - ``small`` (default): laptop scale; qualitative shapes hold.
        - ``full``: the largest CPU-feasible configuration.
        """
        name = os.environ.get("REPRO_BENCH_SCALE", "small")
        try:
            return SCALE_PRESETS[name]
        except KeyError:
            raise ValueError(
                f"REPRO_BENCH_SCALE must be one of {sorted(SCALE_PRESETS)}, got {name!r}"
            ) from None


SCALE_PRESETS: Dict[str, ExperimentScale] = {
    # width 1.0 so even the ~14k-parameter tinycnn spans several 4 KB pages
    # (constraint C2 needs at least n_flip_budget pages to pick from).
    "micro": ExperimentScale(width=1.0, epochs=2, attack_iterations=8, n_flip_budget=2,
                             attacker_buffer_pages=512, test_subset=48),
    "tiny": ExperimentScale(width=0.25, epochs=8, attack_iterations=60, n_flip_budget=4,
                            attacker_buffer_pages=2048, test_subset=300),
    "small": ExperimentScale(),
    "full": ExperimentScale(width=0.5, epochs=12, attack_iterations=240, n_flip_budget=12,
                            attacker_buffer_pages=8192, test_subset=None),
}


def _method_registry(config: AttackConfig) -> Dict[str, Callable[[], object]]:
    return {
        "BadNet": lambda: BadNetAttack(config),
        "FT": lambda: LastLayerFTAttack(config),
        "TBT": lambda: TBTAttack(config),
        "CFT": lambda: CFTAttack(config, bit_reduction=False),
        "CFT+BR": lambda: CFTAttack(config, bit_reduction=True),
    }


KNOWN_METHODS = ("BadNet", "FT", "TBT", "CFT", "CFT+BR")


def run_single_experiment(
    method: str,
    model_name: str,
    dataset: str = "cifar10",
    scale: ExperimentScale = ExperimentScale(),
    target_class: int = 2,
    device: str = "K1",
    seed: int = 0,
) -> Dict[str, object]:
    """One grid cell: one method against one victim on one memory system.

    This is the unit the parallel sweep runner distributes; it is a pure
    function of its arguments (given a warm or absent model cache), which
    is what makes sweep output independent of worker count.
    """
    if method not in KNOWN_METHODS:
        raise AttackError(
            f"unknown attack method {method!r}; available: {sorted(KNOWN_METHODS)}"
        )
    qmodel, _, test_data, attacker_data = pretrained_quantized_model(
        model_name, dataset=dataset, width=scale.width, epochs=scale.epochs, seed=seed
    )
    if scale.test_subset is not None and scale.test_subset < len(test_data):
        test_data = test_data.subset(np.arange(scale.test_subset))
    config = AttackConfig(
        target_class=target_class,
        iterations=scale.attack_iterations,
        n_flip_budget=scale.n_flip_budget,
        epsilon=0.01,
        seed=seed,
    )
    attack = _method_registry(config)[method]()
    pipeline = BackdoorPipeline(
        PipelineConfig(
            memory=MemoryConfig(
                device=device,
                attacker_buffer_pages=scale.attacker_buffer_pages,
                seed=seed,
            )
        )
    )
    result = pipeline.run(attack, qmodel, attacker_data, test_data, target_class)
    return {
        "method": method,
        "model": model_name,
        "device": device,
        "seed": seed,
        **result.as_row(),
    }


def run_method_comparison(
    model_name: str,
    dataset: str = "cifar10",
    methods: Sequence[str] = ("BadNet", "FT", "TBT", "CFT", "CFT+BR"),
    scale: ExperimentScale = ExperimentScale(),
    target_class: int = 2,
    device: str = "K1",
    seed: int = 0,
    workers: int = 1,
    journal: Optional[str] = None,
    resume: bool = False,
) -> List[Dict[str, float]]:
    """One Table II block: every method on one victim model.

    Returns one row dict per method with the offline/online N_flip, TA, ASR
    and r_match columns.  Each method runs against a fresh copy of the same
    deployed victim and a fresh memory system; with ``workers > 1`` the
    methods fan out over local worker processes (rows are identical either
    way).
    A permanently failed cell raises :class:`~repro.errors.SweepError`.
    """
    from repro.parallel import SweepGrid, run_sweep

    grid = SweepGrid(
        methods=tuple(methods),
        models=(model_name,),
        devices=(device,),
        seeds=(seed,),
        dataset=dataset,
        target_class=target_class,
        scale=dataclasses.asdict(scale),
    )
    result = run_sweep(
        grid, workers=workers, journal_path=journal, resume=resume
    )
    if result.failures:
        first = result.failures[0]
        error = first.error or {}
        raise SweepError(
            f"{len(result.failures)} task(s) failed; first: {first.task.task_id} -> "
            f"{error.get('type')}: {error.get('message')}\n{error.get('traceback', '')}"
        )
    return result.rows


def format_table2(rows: List[Dict[str, float]]) -> str:
    """Render method-comparison rows in the paper's Table II layout."""
    header = (
        f"{'Method':<8} | {'Nflip':>7} {'TA%':>6} {'ASR%':>6} | "
        f"{'Nflip':>6} {'TA%':>6} {'ASR%':>6} {'rmatch%':>8}"
    )
    lines = [
        f"{'':8} | {'--- Offline ---':^21} | {'--- Online ---':^29}",
        header,
        "-" * len(header),
    ]
    for row in rows:
        lines.append(
            f"{row['method']:<8} | {row['offline_n_flip']:>7.0f} {row['offline_ta']:>6.2f} "
            f"{row['offline_asr']:>6.2f} | {row['online_n_flip']:>6.0f} {row['online_ta']:>6.2f} "
            f"{row['online_asr']:>6.2f} {row['r_match']:>8.2f}"
        )
    return "\n".join(lines)


def format_sweep(rows: List[Dict[str, object]]) -> str:
    """Render sweep rows: Table II columns plus the grid axes."""
    header = (
        f"{'Model':<10} {'Dev':<4} {'Seed':>10} {'Method':<8} | "
        f"{'Nflip':>6} {'TA%':>6} {'ASR%':>6} | "
        f"{'Nflip':>6} {'TA%':>6} {'ASR%':>6} {'rmatch%':>8}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['model']:<10} {row['device']:<4} {row['seed']:>10} {row['method']:<8} | "
            f"{row['offline_n_flip']:>6.0f} {row['offline_ta']:>6.2f} {row['offline_asr']:>6.2f} | "
            f"{row['online_n_flip']:>6.0f} {row['online_ta']:>6.2f} "
            f"{row['online_asr']:>6.2f} {row['r_match']:>8.2f}"
        )
    return "\n".join(lines)
