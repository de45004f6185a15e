"""Parameter initialization schemes."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedLike, new_rng


def kaiming_normal(shape, fan_in: int, rng: SeedLike = None) -> np.ndarray:
    """He-normal initialization for ReLU networks."""
    rng = new_rng(rng)
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def uniform_bias(shape, fan_in: int, rng: SeedLike = None) -> np.ndarray:
    """PyTorch-style bias init: U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    rng = new_rng(rng)
    bound = 1.0 / np.sqrt(fan_in) if fan_in > 0 else 0.0
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)
