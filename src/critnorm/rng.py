"""Deterministic seed derivation shared by every randomized component.

All randomness in the package flows through child streams of one root seed.
A child is addressed by an integer path, e.g. (trial, restart), and is
realized as ``SeedSequence(root, spawn_key=path)`` feeding a PCG64 generator;
the same (root, path) pair produces the same stream on every platform, which
is what makes reports reproducible byte for byte.
"""

from __future__ import annotations

import numpy as np

__all__ = ["child_rng", "child_seed"]


def _sequence(seed: int, path) -> np.random.SeedSequence:
    """The SeedSequence of child ``path`` under ``seed``; a negative seed is refused."""
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.SeedSequence(seed, spawn_key=tuple(int(i) for i in path))


def child_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for the child stream addressed by ``path`` under ``seed``."""
    return np.random.default_rng(_sequence(seed, path))


def child_seed(seed: int, *path: int) -> int:
    """Integer seed derived from the same child stream (for APIs taking ints)."""
    return int(_sequence(seed, path).generate_state(1, dtype=np.uint64)[0])
