"""Deterministic, portable pseudo-random generator.

Seed stability is part of the decoding contract: the same session must
produce the same tokens across processes, machines, and local-vs-remote
backend placement. Platform RNGs make no such promise, so sampling,
shuffling, and parameter initialization all run on splitmix64. The exact
output sequence is pinned in docs/rng.md.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class Splitmix64:
    """splitmix64 stream; the seed fully determines the output sequence."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform double in [0, 1) built from the top 53 bits:
        ``(next_u64() >> 11) * 2**-53``, with the step written out here,
        since the sampler draws one per emitted token."""
        z = self._state = (self._state + _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return ((z ^ (z >> 31)) >> 11) * 2.0**-53

    def next_below(self, n: int) -> int:
        """Integer in [0, n). Modulo bias is negligible for n << 2**64."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this stream: for ``i``
        from ``len(items) - 1`` down to 1, swap ``items[i]`` with
        ``items[next_below(i + 1)]``.

        The ``len(items) - 1`` draws are computed as one block (see
        ``_block``) and reduced ``mod (i + 1)`` in uint64, so the
        permutation and the stream's state afterwards are those of the
        scalar loop.
        """
        n = len(items)
        if n < 2:
            return
        bounds = np.arange(n, 1, -1, dtype=np.uint64)
        for i, j in zip(range(n - 1, 0, -1), (self._block(n - 1) % bounds).tolist()):
            items[i], items[j] = items[j], items[i]

    def uniforms(self, low: float, high: float, n: int) -> np.ndarray:
        """The next ``n`` draws of ``low + (high - low) * next_float()`` as
        one float64 array, computed as one block (see ``_block``)."""
        z = self._block(n)
        return low + (high - low) * ((z >> np.uint64(11)).astype(np.float64) * 2.0**-53)

    def _block(self, n: int) -> np.ndarray:
        """The next ``n`` outputs of ``next_u64`` as one uint64 array.

        The stream is counter-based (the i-th state is seed + i*gamma), so
        the whole block is computed at once in wrapping uint64 arithmetic
        and matches n scalar calls bit for bit.
        """
        z = np.uint64(self._state) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        self._state = (self._state + n * _GAMMA) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return z
