"""Deterministic randomness helpers.

Simulations must be reproducible run-to-run, so every stochastic choice
derives from an explicit seed. :class:`SplitMix` is a tiny SplitMix64
generator used to derive independent child seeds from string labels
(`derive_seed("placement", bag_id)`), and the heavier distribution needs go
through :class:`random.Random` seeded from it.
"""

from __future__ import annotations

import random
from typing import Iterator, List

_MASK = (1 << 64) - 1


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class SplitMix:
    """SplitMix64: fast, seedable, and stable across Python versions."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        return _mix(self._state)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return (self.next_u64() >> 11) / float(1 << 53)

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange() arg must be positive")
        return self.next_u64() % n

    def permutation(self, n: int) -> List[int]:
        """A Fisher-Yates shuffled permutation of range(n).

        ``next_u64`` and ``_mix`` are inlined (the sim draws one permutation
        per work-bag probe cycle); the output stream is unchanged.
        """
        items = list(range(n))
        state = self._state
        for i in range(n - 1, 0, -1):
            state = (state + 0x9E3779B97F4A7C15) & _MASK
            z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
            j = (z ^ (z >> 31)) % (i + 1)
            items[i], items[j] = items[j], items[i]
        self._state = state
        return items


def derive_seed(*parts: object) -> int:
    """Derive a 64-bit seed deterministically from any hashable labels.

    Uses FNV-1a over the repr of each part, then one SplitMix finalizer, so
    the result does not depend on Python's per-process hash randomization.
    """
    acc = 0xCBF29CE484222325
    for part in parts:
        for byte in repr(part).encode():
            acc = ((acc ^ byte) * 0x100000001B3) & _MASK
    return _mix(acc)


def rng_from(*parts: object) -> random.Random:
    """A ``random.Random`` seeded deterministically from labels."""
    return random.Random(derive_seed(*parts))


def cyclic_permutations(n: int, seed: int) -> Iterator[List[int]]:
    """Yield endless pseudorandom permutations of ``range(n)``.

    This is the access order used for Hurricane's pseudorandom *cyclic*
    chunk placement: each full cycle touches every storage node exactly
    once, and successive cycles use fresh permutations.
    """
    gen = SplitMix(seed)
    while True:
        yield gen.permutation(n)
