"""Weight initializers for the NumPy DNN framework."""

from __future__ import annotations

import numpy as np


def he_normal(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    """He (Kaiming) initialization — the right scale for ReLU stacks."""
    if fan_in <= 0:
        raise ValueError("fan_in must be positive")
    draw = rng.standard_normal(shape)
    draw *= np.sqrt(2.0 / fan_in)
    return draw.astype(np.float32)

