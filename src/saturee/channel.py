"""I.i.d. Rayleigh channel generation with counter-based seeding.

Each (seed, trial_index) pair maps to its own Philox key, so trials can be
drawn in any order, on any number of workers, and still come out
bit-identical.
"""
from __future__ import annotations

import math

import numpy as np

from .sysmodel import SystemConfig

_SQRT_HALF = math.sqrt(0.5)


def generate(cfg: SystemConfig, seed: int, trial_index: int) -> np.ndarray:
    """Draw the channel h for one Monte Carlo trial.

    h has shape (N, M); row k is user k's channel vector, entries are
    circularly-symmetric complex Gaussian with unit variance.
    """
    if trial_index < 0:
        raise ValueError(f"trial_index must be >= 0, got {trial_index}")
    key = np.array([seed % 2**64, trial_index % 2**64], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    re = rng.standard_normal((cfg.N, cfg.M))
    im = rng.standard_normal((cfg.N, cfg.M))
    return (re + 1j * im) * _SQRT_HALF
