"""Deterministic PRNG for instance generators and verification suites.

SplitMix64 (Steele-Lea-Flood 2014) is used instead of the stdlib random
module because its output is fixed by ten lines of integer arithmetic:
the same seed gives the same stream on every platform and Python version,
so verification reports can be replayed byte for byte.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """64-bit SplitMix64 generator; state advances by the golden-gamma."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive; rejection-sampled, no modulo bias."""
        span = hi - lo + 1
        if span <= 0:
            raise ValueError(f"empty range [{lo}, {hi}]")
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + u % span

    def choice(self, seq):
        if not seq:
            raise ValueError("choice from empty sequence")
        return seq[self.randint(0, len(seq) - 1)]
