"""Synthetic image-classification datasets replacing CIFAR-10 / ImageNet.

The reproduction has no network access to download the original datasets, so
we generate a deterministic synthetic substitute that preserves the property
the attack depends on: a CNN trained on it reaches high clean accuracy, and a
small trigger patch can be optimized to hijack its predictions.

Each class is defined by a bank of smooth "prototype" textures (low-pass
filtered class-seeded noise plus class-specific oriented sinusoids).  Every
sample is a random convex combination of its class prototypes, randomly
shifted, with additive pixel noise — so the class signal is distributed over
the full image (as in natural images) rather than in any single pixel.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.utils.rng import SeedLike, new_rng, spawn_rngs


def _gaussian_blur(x: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian low-pass over the last two axes of a float64 ``(C, H, W)`` array.

    The bytes of ``scipy.ndimage.gaussian_filter(x, sigma=(0, sigma, sigma))``:
    a separable correlation, rows then columns, with symmetric padding
    (scipy's ``reflect``), weights ``exp(-x**2 / (2 sigma**2))`` normalized
    over radius ``int(4 sigma + 0.5)``, and each output summed in scipy's
    order -- the centre tap first, then the pairs ``(x[-j] + x[+j]) * w[j]``
    from the outermost inward.
    """
    radius = int(4.0 * sigma + 0.5)
    taps = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * taps ** 2)
    weights = weights / weights.sum()
    for axis in (1, 2):
        size = x.shape[axis]
        pad = [(0, 0)] * x.ndim
        pad[axis] = (radius, radius)
        padded = np.moveaxis(np.pad(x, pad, mode="symmetric"), axis, 0)
        out = padded[radius : radius + size] * weights[radius]
        for j in range(radius, 0, -1):
            out += (padded[radius - j : radius - j + size]
                    + padded[radius + j : radius + j + size]) * weights[radius - j]
        x = np.moveaxis(out, 0, axis)
    return x


@dataclasses.dataclass(frozen=True)
class SyntheticSpec:
    """Shape and difficulty knobs of a synthetic classification task.

    Defaults are calibrated so a width-scaled ResNet-20 lands at roughly the
    paper's CIFAR-10 test accuracy (~91 %): matching the accuracy regime also
    matches the logit-margin regime the backdoor optimization operates in
    (a saturated 100 %-accuracy model is unrealistically hard to backdoor).
    """

    num_classes: int = 10
    image_size: int = 32
    channels: int = 3
    prototypes_per_class: int = 4
    noise_std: float = 0.45
    max_shift: int = 6
    smoothing_sigma: float = 2.0


class SyntheticImageClassification:
    """Deterministic generator of a synthetic image classification task.

    The same ``seed`` always produces identical prototypes, so train and
    test splits drawn from one instance share a single ground-truth concept.
    """

    def __init__(self, spec: SyntheticSpec = SyntheticSpec(), seed: SeedLike = 0) -> None:
        self.spec = spec
        proto_rng, sample_seed_rng = spawn_rngs(seed, 2)
        self._prototypes = self._build_prototypes(proto_rng)
        # Draw a fixed seed per split so splits are disjoint and reproducible
        # no matter how many samples are requested from each.
        self._split_seeds = {
            split: int(sample_seed_rng.integers(0, 2**63))
            for split in ("train", "test", "attacker")
        }

    def _build_prototypes(self, rng: np.random.Generator) -> np.ndarray:
        """Class prototype bank of shape (classes, protos, C, H, W) in [0, 1]."""
        spec = self.spec
        size = spec.image_size
        yy, xx = np.mgrid[0:size, 0:size].astype(np.float64) / size
        protos = np.empty(
            (spec.num_classes, spec.prototypes_per_class, spec.channels, size, size),
            dtype=np.float32,
        )
        for cls in range(spec.num_classes):
            for p in range(spec.prototypes_per_class):
                base = rng.normal(size=(spec.channels, size, size))
                base = _gaussian_blur(base, spec.smoothing_sigma)
                # Class-specific oriented sinusoid gives a stable global cue.
                freq = 1.5 + cls * 0.7 + p * 0.23
                angle = (cls * np.pi / spec.num_classes) + p * 0.3
                wave = np.sin(2 * np.pi * freq * (np.cos(angle) * xx + np.sin(angle) * yy))
                pattern = base + 0.9 * wave[None, :, :]
                pattern -= pattern.min()
                peak = pattern.max()
                if peak > 0:
                    pattern /= peak
                protos[cls, p] = pattern.astype(np.float32)
        return protos

    def generate(self, count: int, split: str = "train") -> ArrayDataset:
        """Generate ``count`` samples for the given ``split``.

        Splits differ only in their sampling RNG stream: "train", "test" and
        "attacker" draw disjoint deterministic streams from the task seed, so
        the attacker's "small unseen test set" from the threat model never
        overlaps the training data.
        """
        if split not in self._split_seeds:
            raise ValueError(
                f"unknown split {split!r}; expected one of {sorted(self._split_seeds)}"
            )
        rng = new_rng(self._split_seeds[split])

        spec = self.spec
        images = np.empty((count, spec.channels, spec.image_size, spec.image_size), dtype=np.float32)
        labels = rng.integers(0, spec.num_classes, size=count).astype(np.int64)
        for i in range(count):
            images[i] = self._render_sample(int(labels[i]), rng)
        return ArrayDataset(images, labels)

    def _render_sample(self, cls: int, rng: np.random.Generator) -> np.ndarray:
        spec = self.spec
        weights = rng.dirichlet(np.ones(spec.prototypes_per_class))
        image = np.tensordot(weights, self._prototypes[cls], axes=(0, 0))
        if spec.max_shift > 0:
            shift_y = int(rng.integers(-spec.max_shift, spec.max_shift + 1))
            shift_x = int(rng.integers(-spec.max_shift, spec.max_shift + 1))
            image = np.roll(image, (shift_y, shift_x), axis=(1, 2))
        image = image + rng.normal(0.0, spec.noise_std, size=image.shape)
        return np.clip(image, 0.0, 1.0).astype(np.float32)


@dataclasses.dataclass(frozen=True)
class TaskPreset:
    """A named synthetic task: its spec and the default size of each split."""

    spec: SyntheticSpec
    train_count: int
    test_count: int
    attacker_count: int

    def task(self, seed: SeedLike) -> SyntheticImageClassification:
        return SyntheticImageClassification(self.spec, seed=seed)


CIFAR10_LIKE = TaskPreset(SyntheticSpec(num_classes=10, image_size=32), 2000, 1000, 128)
IMAGENET_LIKE = TaskPreset(SyntheticSpec(num_classes=40, image_size=32), 3000, 1000, 256)


def _splits(
    task: SyntheticImageClassification, train_count: int, test_count: int, attacker_count: int
) -> Tuple[ArrayDataset, ArrayDataset, ArrayDataset]:
    return (
        task.generate(train_count, "train"),
        task.generate(test_count, "test"),
        task.generate(attacker_count, "attacker"),
    )


def make_cifar10_like(
    train_count: int = CIFAR10_LIKE.train_count,
    test_count: int = CIFAR10_LIKE.test_count,
    attacker_count: int = CIFAR10_LIKE.attacker_count,
    seed: SeedLike = 0,
) -> Tuple[ArrayDataset, ArrayDataset, ArrayDataset]:
    """Build train/test/attacker splits of a CIFAR-10-like task.

    Matches the paper's setup: the attacker holds 128 unseen test images
    (Section V-A); TA/ASR are evaluated on the larger held-out test split.
    """
    return _splits(CIFAR10_LIKE.task(seed), train_count, test_count, attacker_count)


def make_imagenet_like(
    train_count: int = IMAGENET_LIKE.train_count,
    test_count: int = IMAGENET_LIKE.test_count,
    attacker_count: int = IMAGENET_LIKE.attacker_count,
    num_classes: int = IMAGENET_LIKE.spec.num_classes,
    image_size: int = IMAGENET_LIKE.spec.image_size,
    seed: SeedLike = 1,
) -> Tuple[ArrayDataset, ArrayDataset, ArrayDataset]:
    """Build a scaled-down ImageNet-like task (more classes than CIFAR).

    The paper uses 1000-class ImageNet with 1024 attacker images; we scale the
    class count down so CPU training stays feasible while preserving the
    harder many-class regime that drives the larger N_flip the paper reports.
    """
    spec = SyntheticSpec(num_classes=num_classes, image_size=image_size)
    return _splits(SyntheticImageClassification(spec, seed=seed),
                   train_count, test_count, attacker_count)
