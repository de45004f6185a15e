"""Victim-model training and a cached "model zoo" for experiments.

The paper downloads pretrained CIFAR-10/ImageNet checkpoints; offline we
train victims once on the synthetic tasks and cache the resulting state
dicts on disk so tests and benchmarks do not retrain.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.autodiff import cross_entropy, no_grad
from repro.autodiff.tensor import Tensor
from repro.data.dataset import ArrayDataset, DataLoader
from repro.data.synthetic import CIFAR10_LIKE, IMAGENET_LIKE, TaskPreset
from repro.models import build_model
from repro.nn.module import Module
from repro.optim import SGD, CosineSchedule
from repro.quant.qmodel import QuantizedModel

def default_cache_dir() -> Path:
    """Model-zoo cache location, resolved at call time.

    Reading ``REPRO_CACHE_DIR`` per call (not at import) lets tests and
    parallel sweep workers redirect the cache with an environment variable
    even after :mod:`repro` has been imported.
    """
    return Path(os.environ.get("REPRO_CACHE_DIR", str(Path.home() / ".cache" / "repro-models")))


@dataclasses.dataclass
class TrainingConfig:
    """Victim training hyperparameters."""

    epochs: int = 12
    batch_size: int = 64
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    seed: int = 0


def train_model(
    model: Module,
    train_data: ArrayDataset,
    config: TrainingConfig = TrainingConfig(),
    test_data: Optional[ArrayDataset] = None,
) -> List[float]:
    """Train a model in place; returns per-epoch mean losses."""
    optimizer = SGD(
        model.parameters(),
        lr=config.learning_rate,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
    )
    schedule = CosineSchedule(optimizer, total_epochs=config.epochs)
    loader = DataLoader(train_data, batch_size=config.batch_size, shuffle=True, rng=config.seed)
    history: List[float] = []
    for epoch in range(config.epochs):
        with telemetry.span("train.epoch", epoch=epoch):
            model.train()
            total = 0.0
            for images, labels in loader:
                optimizer.zero_grad()
                loss = cross_entropy(model(Tensor(images)), labels)
                loss.backward()
                optimizer.step()
                total += loss.item()
            schedule.step()
            history.append(total / max(1, len(loader)))
        if telemetry.enabled():
            telemetry.counter_add("train.epochs")
            telemetry.gauge_set("train.loss", history[-1])
            telemetry.histogram_observe("train.epoch_loss", history[-1])
            if test_data is not None:
                telemetry.gauge_set(
                    "train.test_accuracy", evaluate_accuracy(model, test_data)
                )
    model.eval()
    return history


def evaluate_accuracy(model: Module, dataset: ArrayDataset, batch_size: int = 256) -> float:
    """Clean accuracy of a model on a dataset."""
    model.eval()
    correct = 0
    with no_grad():
        for start in range(0, len(dataset), batch_size):
            images = dataset.images[start : start + batch_size]
            labels = dataset.labels[start : start + batch_size]
            predictions = model(Tensor(images)).numpy().argmax(axis=1)
            correct += int((predictions == labels).sum())
    return correct / len(dataset) if len(dataset) else 0.0


_TASKS = {"cifar10": CIFAR10_LIKE, "imagenet": IMAGENET_LIKE}


def _task_preset(dataset: str) -> TaskPreset:
    try:
        return _TASKS[dataset]
    except KeyError:
        raise ValueError(
            f"unknown dataset {dataset!r}; expected 'cifar10' or 'imagenet'"
        ) from None


@functools.lru_cache(maxsize=4)
def _evaluation_splits(dataset: str, seed: int) -> Tuple[ArrayDataset, ArrayDataset]:
    """The (test, attacker) splits of a victim task, memoized per process.

    Every sweep task against one victim reads the same two splits, so they
    are rendered once.  Their arrays are read-only: an in-place write raises
    ``ValueError`` instead of leaking into the next caller's data.
    """
    preset = _task_preset(dataset)
    task = preset.task(seed)
    splits = (
        task.generate(preset.test_count, "test"),
        task.generate(preset.attacker_count, "attacker"),
    )
    for split in splits:
        split.images.setflags(write=False)
        split.labels.setflags(write=False)
    return splits


class _RenderOnRead(ArrayDataset):
    """An :class:`ArrayDataset` whose arrays are rendered on first access.

    The train split (the largest) is needed only to train a victim; a
    cached checkpoint never reads it.  Each split has its own seeded stream,
    so rendering it late gives the same bytes as rendering it eagerly.
    """

    def __init__(self, render: Callable[[], ArrayDataset]) -> None:
        self._render = render
        self._rendered: Optional[ArrayDataset] = None

    def _data(self) -> ArrayDataset:
        if self._rendered is None:
            self._rendered = self._render()
        return self._rendered

    @property
    def images(self) -> np.ndarray:
        return self._data().images

    @property
    def labels(self) -> np.ndarray:
        return self._data().labels


def _dataset_splits(dataset: str, seed: int) -> Tuple[ArrayDataset, ArrayDataset, ArrayDataset]:
    """(train, test, attacker): the train split renders on first read."""
    preset = _task_preset(dataset)
    test_data, attacker_data = _evaluation_splits(dataset, seed)
    train_data = _RenderOnRead(lambda: preset.task(seed).generate(preset.train_count, "train"))
    return train_data, test_data, attacker_data


def pretrained_quantized_model(
    model_name: str,
    dataset: str = "cifar10",
    width: float = 0.25,
    seed: int = 0,
    epochs: int = 12,
    cache_dir: Optional[Path] = None,
    force_retrain: bool = False,
) -> Tuple[QuantizedModel, ArrayDataset, ArrayDataset, ArrayDataset]:
    """Return a trained, quantized victim and its (train, test, attacker) data.

    Models are cached as ``.npz`` state dicts keyed by every hyperparameter
    that affects the weights, so repeated benchmark runs skip training.
    The test and attacker splits are shared, read-only arrays (see
    :func:`_evaluation_splits`); the train split renders on first read.
    """
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    cache_dir.mkdir(parents=True, exist_ok=True)
    train_data, test_data, attacker_data = _dataset_splits(dataset, seed)
    num_classes = _task_preset(dataset).spec.num_classes

    model = build_model(model_name, num_classes=num_classes, width=width, rng=seed)
    # v2: bump when the synthetic task definition changes, invalidating
    # checkpoints trained on older data.
    cache_key = f"{model_name}-{dataset}-v2-w{width}-s{seed}-e{epochs}.npz"
    cache_path = cache_dir / cache_key
    if cache_path.exists() and not force_retrain:
        with np.load(cache_path) as payload:
            model.load_state_dict({name: payload[name] for name in payload.files})
        model.eval()
    else:
        train_model(model, train_data, TrainingConfig(epochs=epochs, seed=seed), test_data)
        # Write-to-temp + atomic rename: concurrent sweep workers training
        # the same victim must never observe a torn checkpoint.  Identical
        # seeds produce identical bytes, so last-writer-wins is harmless.
        tmp_path = cache_path.with_name(f"{cache_path.name}.tmp.{os.getpid()}")
        try:
            with open(tmp_path, "wb") as handle:
                np.savez(handle, **model.state_dict())
            os.replace(tmp_path, cache_path)
        finally:
            if tmp_path.exists():
                tmp_path.unlink()
    return QuantizedModel(model), train_data, test_data, attacker_data
