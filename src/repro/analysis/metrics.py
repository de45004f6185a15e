"""Evaluation metrics (Section V-B): N_flip, r_match, TA and ASR."""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.autodiff import no_grad
from repro.autodiff.tensor import Tensor
from repro.data.dataset import ArrayDataset
from repro.data.trigger import TriggerPattern
from repro.nn.module import Module
from repro.quant.bits import hamming_distance
from repro.quant.weightfile import PAGE_SIZE_BITS


def _logits(model: Module, batch: np.ndarray, engine=None) -> np.ndarray:
    """Eval-mode logits of one batch, served by ``engine`` when given.

    ``engine`` is an optional :class:`repro.engine.EvalEngine` over the same
    model; its logits are byte-identical to the plain forward, so
    predictions never change.
    """
    if engine is not None:
        return engine.forward(batch)
    with no_grad():
        return model(Tensor(batch)).data


def _predict(model: Module, images: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Class predictions for a batch of images, in eval mode."""
    was_training = model.training
    model.eval()
    predictions = [
        _logits(model, images[start : start + batch_size]).argmax(axis=1)
        for start in range(0, len(images), batch_size)
    ]
    if was_training:
        model.train()
    return np.concatenate(predictions) if predictions else np.empty(0, dtype=np.int64)


def test_accuracy(model: Module, dataset: ArrayDataset, batch_size: int = 256) -> float:
    """TA: fraction of clean test samples classified correctly."""
    predictions = _predict(model, dataset.images, batch_size)
    return float((predictions == dataset.labels).mean()) if len(dataset) else 0.0


def attack_success_rate(
    model: Module,
    dataset: ArrayDataset,
    trigger: TriggerPattern,
    target_class: int,
    batch_size: int = 256,
) -> float:
    """ASR: fraction of trigger-stamped test samples classified as the target.

    Matches the paper's definition: the trigger is added to every test
    sample and success means predicting the attacker's target class.
    """
    if not len(dataset):
        return 0.0
    stamped = trigger.apply(dataset.images)
    predictions = _predict(model, stamped, batch_size)
    return float((predictions == target_class).mean())


def n_flip(original_weights: np.ndarray, modified_weights: np.ndarray) -> int:
    """N_flip: Hamming distance in bits between two quantized weight states."""
    return hamming_distance(original_weights, modified_weights)


def dram_match_rate(
    n_match: int,
    total_flips: int,
    accidental_flips_in_pages: int = 0,
    page_bits: int = PAGE_SIZE_BITS,
) -> float:
    """r_match (percent): how realistic a bit-flip plan is on real DRAM.

    ``r_match = n_match / N_flip * (1 - delta / S) * 100`` where ``delta``
    is the number of accidental flips within the targeted pages.
    """
    if total_flips <= 0:
        return 0.0
    penalty = max(0.0, 1.0 - accidental_flips_in_pages / page_bits)
    return 100.0 * (n_match / total_flips) * penalty


@dataclasses.dataclass
class AttackEvaluation:
    """TA/ASR snapshot of one model state."""

    test_accuracy: float
    attack_success_rate: float


def evaluate_attack(
    model: Module,
    dataset: ArrayDataset,
    trigger: TriggerPattern,
    target_class: int,
    batch_size: int = 256,
    engine=None,
) -> AttackEvaluation:
    """Evaluate TA and ASR of a (possibly backdoored) model in one pass.

    Each test batch runs clean, then trigger-stamped.  With an ``engine``
    the stamped batch is the clean one's stamped twin
    (:meth:`repro.engine.EvalEngine.stamp`), so it recomputes only the
    trigger's cone over the clean batch's stage outputs, cached a moment
    before.  The values equal :func:`test_accuracy` and
    :func:`attack_success_rate`.
    """
    if not len(dataset):
        return AttackEvaluation(test_accuracy=0.0, attack_success_rate=0.0)
    was_training = model.training
    model.eval()
    correct = hits = 0
    for start in range(0, len(dataset), batch_size):
        clean = dataset.images[start : start + batch_size]
        labels = dataset.labels[start : start + batch_size]
        stamped = trigger.apply(clean) if engine is None else engine.stamp(trigger, clean)
        correct += int((_logits(model, clean, engine).argmax(axis=1) == labels).sum())
        hits += int((_logits(model, stamped, engine).argmax(axis=1) == target_class).sum())
    if was_training:
        model.train()
    return AttackEvaluation(
        test_accuracy=correct / len(dataset), attack_success_rate=hits / len(dataset)
    )
