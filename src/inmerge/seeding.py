"""Deterministic RNG stream derivation.

Every stochastic component draws from its own generator keyed by
``(seed, purpose[, epoch])``, so experiments can vary one factor at a
time: reshuffling the data never perturbs weight init, and merge
decisions never perturb augmentation. Streams keyed by epoch restart at
every epoch boundary, which is what makes checkpoint resume bit-exact.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# Purpose tags. Values are part of the reproducibility contract: changing
# them changes every derived stream.
INIT = 1
SHUFFLE = 2
MERGE = 3
AUGMENT = 4
SYNTH = 5
LABEL_NOISE = 6


def stream(seed: int, purpose: int, epoch: int | None = None) -> np.random.Generator:
    """Generator for the (seed, purpose[, epoch]) stream."""
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    entropy = [seed, purpose] if epoch is None else [seed, purpose, epoch]
    return np.random.default_rng(np.random.SeedSequence(entropy))
