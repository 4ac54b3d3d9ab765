"""Deterministic seed derivation shared by every randomized component.

All randomness in the package flows through child streams of one root seed.
A child is addressed by an integer path, e.g. (trial, restart), and its
state is NumPy's ``SeedSequence(root, spawn_key=path)`` state, bit for bit,
feeding a PCG64 generator; the same (root, path) pair produces the same
stream on every platform, which is what makes reports reproducible byte
for byte.

The state is derived without building a ``SeedSequence`` per child.
``SeedSequence`` mixes the root's own words into its 4-word pool first and
folds the path's words in after them, and its hash constant advances the
same way whatever the data, so the pool and constant after the root are a
function of the root alone.  They are taken once per root from
``SeedSequence(root).pool`` and kept in a small cache; each child folds its
path words into a copy of that pool and hashes out its state words with
NumPy's constants, in Python ints.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["child_rng", "child_seed"]

# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx); the pool
# holds 4 uint32 words.
_MASK = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
# State word i (uint32) is the pool word i mod 4, xor-ed with
# INIT_B * MULT_B^i, multiplied by INIT_B * MULT_B^(i+1) and xor-shifted by
# 16; PCG64 takes 8.
_HASH_B = tuple((_INIT_B * pow(_MULT_B, i, 1 << 32) & _MASK,
                 _INIT_B * pow(_MULT_B, i + 1, 1 << 32) & _MASK) for i in range(8))


def _words(n: int) -> list:
    """The uint32 words of the integer ``n >= 0``, low word first; 0 is one word."""
    words = [n & _MASK]
    n >>= 32
    while n:
        words.append(n & _MASK)
        n >>= 32
    return words


@lru_cache(maxsize=8)
def _seed_mix(seed: int) -> tuple:
    """(pool, hash constant) after ``SeedSequence`` has mixed in ``seed``'s
    words: the first four (zero-padded) are hashed and cross-mixed, 16
    steps of the constant, and each later word is folded into every pool
    word, 4 steps more."""
    pool = tuple(np.random.SeedSequence(seed).pool.tolist())
    steps = 16 + 4 * max(0, len(_words(seed)) - 4)
    return pool, _INIT_A * pow(_MULT_A, steps, 1 << 32) & _MASK


def _state(seed, path, n: int) -> list:
    """The first ``n`` (at most 4) uint64 state words of
    ``SeedSequence(seed, spawn_key=path)``; a negative seed or path entry is
    refused."""
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    path = list(map(int, path))
    if path and min(path) < 0:
        raise ValueError(f"path entries must be >= 0, got {tuple(path)}")
    pool, h = _seed_mix(seed)
    pool = list(pool)
    for entry in path:
        for word in _words(entry):
            for i in range(4):   # hash the word, then mix it into pool word i
                value = word ^ h
                h = h * _MULT_A & _MASK
                value = value * h & _MASK
                value = (_MIX_MULT_L * pool[i] - _MIX_MULT_R * (value ^ value >> 16)) & _MASK
                pool[i] = value ^ value >> 16
    out = []
    for i in range(0, 2 * n, 2):
        (x_lo, m_lo), (x_hi, m_hi) = _HASH_B[i], _HASH_B[i + 1]
        lo = (pool[i & 3] ^ x_lo) * m_lo & _MASK
        hi = (pool[i + 1 & 3] ^ x_hi) * m_hi & _MASK
        out.append(lo ^ lo >> 16 | (hi ^ hi >> 16) << 32)
    return out


@lru_cache(maxsize=1)
def _state_sequence():
    """The class of seed sequences that hand PCG64 given state words,
    through NumPy's ``ISeedSequence`` hook; defined at the first stream, so
    importing the package does not load ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != len(self.words) or dtype is not np.uint64:
                raise ValueError("holds exactly PCG64's 4 uint64 state words")
            return np.array(self.words, dtype=np.uint64)

    return StateWords


def child_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for the child stream addressed by ``path`` under ``seed``."""
    return np.random.Generator(np.random.PCG64(_state_sequence()(_state(seed, path, 4))))


def child_seed(seed: int, *path: int) -> int:
    """Integer seed derived from the same child stream (for APIs taking ints):
    its first uint64 state word."""
    return _state(seed, path, 1)[0]
