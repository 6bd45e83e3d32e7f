"""Deterministic random number generation.

The generator is PCG32 (PCG-XSH-RR 64/32, M.E. O'Neill, pcg-random.org):
a 64-bit LCG state with an xorshift-rotate output stage. It is fully
specified by integer arithmetic, so identical seeds produce bit-identical
streams on every platform. Gaussian deviates are produced by the
Box-Muller transform over this generator, again platform-independent up
to libm rounding of log/sin/cos.
"""

from __future__ import annotations

import math

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

_PCG_MULT = 6364136223846793005
_DEFAULT_STREAM = 54  # increment 109 after "2*stream | 1"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _splitmix64(x: int) -> int:
    """One step of splitmix64; used only to derive child seeds."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _fnv1a64(text: str) -> int:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


class Rng:
    """PCG32 stream with uniform and Gaussian draws.

    Single-owner mutable state: do not share one instance between
    threads. For parallel work, derive() independent child streams.
    """

    __slots__ = ("seed", "stream", "_state", "_inc", "_cached_normal")

    def __init__(self, seed: int, stream: int = _DEFAULT_STREAM):
        self.seed = seed & _MASK64
        self.stream = stream & _MASK64
        self._inc = ((self.stream << 1) | 1) & _MASK64
        # Reference pcg32_srandom seeding sequence.
        self._state = 0
        self._step()
        self._state = (self._state + self.seed) & _MASK64
        self._step()
        self._cached_normal: float | None = None

    def _step(self) -> None:
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK64

    def next_u32(self) -> int:
        old = self._state
        self._step()
        xorshifted = (((old >> 18) ^ old) >> 27) & _MASK32
        rot = old >> 59
        return ((xorshifted >> rot) | (xorshifted << ((-rot) & 31))) & _MASK32

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 random mantissa bits: two
        next_u32() outputs, their steps inlined to save the calls."""
        old = self._state
        mid = (old * _PCG_MULT + self._inc) & _MASK64
        self._state = (mid * _PCG_MULT + self._inc) & _MASK64
        x, rot = (((old >> 18) ^ old) >> 27) & _MASK32, old >> 59
        hi = (((x >> rot) | (x << ((-rot) & 31))) & _MASK32) >> 5   # 27 bits
        x, rot = (((mid >> 18) ^ mid) >> 27) & _MASK32, mid >> 59
        lo = (((x >> rot) | (x << ((-rot) & 31))) & _MASK32) >> 6   # 26 bits
        return (hi * 67108864.0 + lo) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def normal(self) -> float:
        """Standard normal deviate via Box-Muller (second value cached)."""
        if self._cached_normal is not None:
            value = self._cached_normal
            self._cached_normal = None
            return value
        u1 = self.random()
        while u1 <= 0.0:
            u1 = self.random()
        u2 = self.random()
        radius = math.sqrt(-2.0 * math.log(u1))
        angle = 2.0 * math.pi * u2
        self._cached_normal = radius * math.sin(angle)
        return radius * math.cos(angle)

    def normals(self, n: int) -> list[float]:
        return [self.normal() for _ in range(n)]

    def derive(self, label: str) -> "Rng":
        """Independent child stream; deterministic in (seed, label)."""
        child_seed = _splitmix64(self.seed ^ _fnv1a64(label))
        child_stream = _splitmix64(child_seed ^ 0xDA3E39CB94B95BDB)
        return Rng(child_seed, stream=child_stream)
