"""Backdoor trigger patterns.

The paper initializes the trigger as a black square in the bottom-right
corner of the image (10x10 on 32x32 CIFAR inputs) and then learns the pixel
values inside the masked region with FGSM steps (Eq. 4).  A trigger is thus a
(mask, pattern) pair: applying it replaces the masked pixels with the learned
pattern, leaving the rest of the image untouched.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np


@dataclasses.dataclass
class TriggerPattern:
    """A spatial trigger: boolean mask plus per-pixel pattern values.

    Attributes
    ----------
    mask:
        Boolean array of shape (C, H, W); True marks trigger pixels.
    pattern:
        Float array of shape (C, H, W); only masked entries are used.
    clip_range:
        Valid pixel range; applied after every update and application.
    """

    mask: np.ndarray
    pattern: np.ndarray
    clip_range: Tuple[float, float] = (0.0, 1.0)

    def __post_init__(self) -> None:
        self.mask = np.asarray(self.mask, dtype=bool)
        self.pattern = np.asarray(self.pattern, dtype=np.float32)
        if self.mask.shape != self.pattern.shape:
            raise ValueError(
                f"mask shape {self.mask.shape} != pattern shape {self.pattern.shape}"
            )
        low, high = self.clip_range
        if low >= high:
            raise ValueError(f"invalid clip range {self.clip_range}")
        self.pattern = np.clip(self.pattern, low, high)

    @classmethod
    def black_square(
        cls,
        image_shape: Tuple[int, int, int],
        size: int,
        corner: str = "bottom_right",
        clip_range: Tuple[float, float] = (0.0, 1.0),
    ) -> "TriggerPattern":
        """Build the paper's initial trigger: a black square patch.

        ``image_shape`` is (C, H, W); ``size`` is the square side in pixels
        (10 for CIFAR in the paper, scaled proportionally otherwise).
        """
        channels, height, width = image_shape
        if size <= 0 or size > min(height, width):
            raise ValueError(f"trigger size {size} invalid for image {image_shape}")
        mask = np.zeros(image_shape, dtype=bool)
        if corner == "bottom_right":
            mask[:, height - size :, width - size :] = True
        elif corner == "top_left":
            mask[:, :size, :size] = True
        elif corner == "top_right":
            mask[:, :size, width - size :] = True
        elif corner == "bottom_left":
            mask[:, height - size :, :size] = True
        else:
            raise ValueError(f"unknown corner {corner!r}")
        pattern = np.full(image_shape, clip_range[0], dtype=np.float32)
        return cls(mask=mask, pattern=pattern, clip_range=clip_range)

    @classmethod
    def square(
        cls,
        image_shape: Tuple[int, int, int],
        size: int,
        value: float = 0.5,
        corner: str = "bottom_right",
        clip_range: Tuple[float, float] = (0.0, 1.0),
    ) -> "TriggerPattern":
        """A square patch initialized to a constant ``value``.

        The paper initializes triggers black; on narrow CPU-scale models an
        all-black patch can land in a fully dead-ReLU region and mask the
        FGSM gradient, so the attacks here start from mid-gray by default
        (the optimized pattern, not the initialization, is what matters).
        """
        trigger = cls.black_square(image_shape, size, corner=corner, clip_range=clip_range)
        trigger.pattern = np.where(
            trigger.mask, np.float32(value), np.float32(clip_range[0])
        ).astype(np.float32)
        return trigger

    def apply(self, images: np.ndarray) -> np.ndarray:
        """Stamp the trigger onto a batch (N, C, H, W) or single image (C, H, W)."""
        images = np.asarray(images, dtype=np.float32)
        single = images.ndim == 3
        batch = images[None] if single else images
        if batch.shape[1:] != self.mask.shape:
            raise ValueError(
                f"image shape {batch.shape[1:]} does not match trigger {self.mask.shape}"
            )
        out = batch.copy()
        out[:, self.mask] = self.pattern[self.mask]
        low, high = self.clip_range
        np.clip(out, low, high, out=out)
        return out[0] if single else out

    def fgsm_update(self, gradient: np.ndarray, epsilon: float) -> None:
        """Apply an FGSM step (Eq. 4) to the masked pattern values.

        ``gradient`` is a batch *sum* of dF/d(input) -- negated by CFT to
        descend its loss, as is by TBT to ascend an activation.  Only its
        sign is used: pattern += eps * sign(gradient), masked.
        """
        gradient = np.asarray(gradient)
        if gradient.shape != self.pattern.shape:
            raise ValueError(
                f"gradient shape {gradient.shape} != pattern shape {self.pattern.shape}"
            )
        step = epsilon * np.sign(gradient)
        self.pattern = self.pattern + np.where(self.mask, step, 0.0).astype(np.float32)
        low, high = self.clip_range
        self.pattern = np.clip(self.pattern, low, high)

    def copy(self) -> "TriggerPattern":
        return TriggerPattern(
            mask=self.mask.copy(), pattern=self.pattern.copy(), clip_range=self.clip_range
        )
