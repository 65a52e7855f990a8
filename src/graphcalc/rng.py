"""Deterministic 64-bit linear congruential generator.

Every randomized suite in the package draws from this generator so that runs
are reproducible bit-for-bit from the seed alone, and so that implementations
in other languages can replay the same streams.  Constants are Knuth's MMIX
multiplier/increment:

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64

Doubles are produced from the top 53 bits of the state, uniform in [0, 1).
"""

MASK64 = (1 << 64) - 1
LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407


class Lcg64:
    """Seeded 64-bit LCG with convenience draws used across the package."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

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
        import math

        u1 = self.uniform()
        u2 = self.uniform()
        while u1 <= 1e-300:
            u1 = self.uniform()
            u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
