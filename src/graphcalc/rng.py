"""Deterministic 64-bit linear congruential generator.

Every randomized suite in the package draws from this generator so that runs
are reproducible bit-for-bit from the seed alone, and so that implementations
in other languages can replay the same streams.  Constants are Knuth's MMIX
multiplier/increment:

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64

Doubles are produced from the top 53 bits of the state, uniform in [0, 1).
"""

from __future__ import annotations

import math
import operator

from . import _numpy as np
from .errors import ValidationError

MASK64 = (1 << 64) - 1
LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407


class Lcg64:
    """Seeded 64-bit LCG with convenience draws used across the package."""

    def __init__(self, seed: int):
        try:
            self.state = operator.index(seed) & MASK64
        except TypeError:
            raise ValidationError(f"seed must be an integer, got {seed!r}") from None
        if self.state != seed:  # reduced mod 2^64, two seeds would share a stream
            raise ValidationError(f"seed must be in [0, 2**64), got {seed!r}")

    def next_u64(self) -> int:
        self.state = (LCG_MULT * self.state + LCG_INC) & MASK64
        return self.state

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) / float(1 << 53)
        return lo + (hi - lo) * u

    def randint(self, n: int) -> int:
        """Integer in [0, n), by rejection to avoid modulo bias."""
        if n <= 0:
            raise ValueError("randint needs n >= 1")
        if n > MASK64 + 1:  # no 64-bit draw could be accepted
            raise ValueError("randint needs n <= 2**64")
        limit = (MASK64 + 1) - (MASK64 + 1) % n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def normal(self) -> float:
        """Standard normal via Box-Muller on two uniform draws."""
        u1 = self.uniform()
        u2 = self.uniform()
        while u1 <= 1e-300:
            u1 = self.uniform()
            u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def _units(self, k: int) -> tuple[np.ndarray, int]:
        """The next k >= 1 draws of uniform() as one array, with the state
        after them; self.state is left as it is.

        The k states come as one uint64 array, filled by jumps that double
        (s[i + m] = A_m s[i] + C_m mod 2^64, with A_m and C_m the map of m
        steps), so k states take about log2(k) array operations."""
        states = np.empty(k, dtype=np.uint64)
        states[0] = (LCG_MULT * self.state + LCG_INC) & MASK64
        a, c, m = LCG_MULT, LCG_INC, 1
        while m < k:
            n = min(m, k - m)
            states[m : m + n] = states[:n] * np.uint64(a) + np.uint64(c)  # wraps mod 2^64
            a, c, m = (a * a) & MASK64, (a * c + c) & MASK64, 2 * m
        return (states >> np.uint64(11)).astype(float) / float(1 << 53), int(states[-1])

    def uniforms(self, k: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """k draws of uniform(lo, hi) as one array, bit for bit, leaving the
        same state."""
        if k < 1:
            return np.empty(0)
        u, self.state = self._units(k)
        return lo + (hi - lo) * u

    def normals(self, k: int) -> list[float]:
        """k draws of normal(), bit for bit, leaving the same state.

        The 2k uniforms come from _units; Box-Muller stays on math.  A first
        uniform of zero (the only uniform at most 1e-300, which normal()
        redraws) sends the whole batch through normal()."""
        if k < 1:
            return []
        u, last = self._units(2 * k)
        first, second = u[0::2].tolist(), u[1::2].tolist()
        if 0.0 in first:
            return [self.normal() for _ in range(k)]
        self.state = last
        two_pi = 2.0 * math.pi  # normal() multiplies 2.0 * pi first, too
        return [math.sqrt(-2.0 * math.log(u1)) * math.cos(two_pi * u2) for u1, u2 in zip(first, second)]
