"""Small deterministic random generator.

SplitMix64 is used instead of the stdlib Mersenne twister so that generated
scenarios and fold shuffles reproduce bit-for-bit on any platform or language
that implements the same 64-bit mixing function.
"""

from __future__ import annotations

import struct
from functools import lru_cache

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_UNIT = 1.0 / (1 << 53)  # a 53-bit draw times this is a float in [0, 1)


@lru_cache(maxsize=16)
def _lanes(n: int) -> tuple[int, int, int, struct.Struct]:
    """Constants for n draws packed into one integer, one 128-bit lane per draw.

    A lane's value never exceeds 128 bits (a 64-bit value times a 64-bit
    constant), so arithmetic on the packed integer works lane by lane as
    long as each shift is followed by the 64-bit lane mask. Returns the
    replicator (1 in each lane), k * GOLDEN in lane k - 1, the lane mask and
    the layout that unpacks each lane's low 64 bits as a little-endian word.
    """
    replicate = sum(1 << (128 * k) for k in range(n))
    steps = sum(((k + 1) * _GOLDEN & _MASK64) << (128 * k) for k in range(n))
    return replicate, steps, _MASK64 * replicate, struct.Struct("<" + "Q8x" * n)


class SplitMix64:
    """Sequential SplitMix64 stream."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def next_float(self) -> float:
        """Uniform draw in [0, 1) with 53 bits of precision: (next_u64() >> 11) / 2**53."""
        return (self.next_u64() >> 11) * _UNIT

    def next_floats(self, n: int) -> list[float]:
        """The next n draws of next_float, in one call.

        The n states are packed into one integer, a 128-bit lane each (see
        _lanes), and mixed together: the mix of next_u64, each step applied
        to all lanes at once, with the same values as n separate mixes.
        """
        replicate, steps, mask, words = _lanes(n)
        s = self._state
        self._state = (s + n * _GOLDEN) & _MASK64
        z = (s * replicate + steps) & mask
        z = ((z ^ (z >> 30 & mask)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27 & mask)) * 0x94D049BB133111EB) & mask
        z = (z ^ (z >> 31 & mask)) >> 11 & mask
        return [w * _UNIT for w in words.unpack(z.to_bytes(words.size, "little"))]

    def next_below(self, n: int) -> int:
        """Unbiased uniform integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]
