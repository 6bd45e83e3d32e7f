"""Deterministic random number generation.

The generator is PCG32 (PCG-XSH-RR 64/32, M.E. O'Neill, pcg-random.org):
a 64-bit LCG state with an xorshift-rotate output stage. It is fully
specified by integer arithmetic, so identical seeds produce bit-identical
streams on every platform. Gaussian deviates are produced by the
Box-Muller transform over this generator, again platform-independent up
to libm rounding of log/sin/cos.

Outputs are generated in blocks: by LCG jump-ahead (Brown 1994, "Random
number generation with arbitrary strides") the state k steps on is
A[k] s + S[k] inc mod 2^64, so a refill steps a whole block on numpy
uint64 arrays, bit-identical to stepping once per output. numpy is
imported on the first draw, not with this module.
"""

from __future__ import annotations

import math

_MASK64 = (1 << 64) - 1

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


_BLOCK = 2048  # outputs per refill
_JUMP = []  # [A, S]: A[k] = M^k and S[k] = sum of M^j over j < k, mod 2^64


class Rng:
    """PCG32 stream with uniform and Gaussian draws.

    Single-owner mutable state: do not share one instance between
    threads. For parallel work, derive() independent child streams.
    copy.copy() gives a generator that continues the same stream
    independently.
    """

    __slots__ = ("seed", "stream", "_state", "_inc", "_cached_normal",
                 "_buf", "_pos")

    def __init__(self, seed: int, stream: int = _DEFAULT_STREAM):
        self.seed = seed & _MASK64
        self.stream = stream & _MASK64
        self._inc = inc = ((self.stream << 1) | 1) & _MASK64
        # pcg32_srandom: step from 0, add the seed, step again
        self._state = ((inc + self.seed) * _PCG_MULT + inc) & _MASK64
        self._cached_normal: float | None = None
        self._buf, self._pos = [], 0

    def _refill(self) -> list[int]:
        """Buffer the next block of outputs after the unread ones."""
        import numpy as np
        if not _JUMP:
            mults = np.cumprod(np.array([1] + [_PCG_MULT] * _BLOCK, dtype=np.uint64))
            _JUMP[:] = mults, np.cumsum(mults) - mults
        mults, sums = _JUMP
        states = mults * np.uint64(self._state) + sums * np.uint64(self._inc)
        self._state = int(states[_BLOCK])
        old = states[:_BLOCK]
        x = (((old >> 18) ^ old) >> 27).astype(np.uint32)
        rot = (old >> 59).astype(np.uint32)
        out = (x >> rot) | (x << ((32 - rot) & 31))
        buf = self._buf[self._pos:] + out.tolist()
        self._buf, self._pos = buf, 0
        return buf

    def next_u32(self) -> int:
        i = self._pos
        try:
            out = self._buf[i]
        except IndexError:
            out, i = self._refill()[0], 0
        self._pos = i + 1
        return out

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 random mantissa bits from
        two outputs: 27 from the first, 26 from the second."""
        buf, i = self._buf, self._pos
        try:
            hi, lo = buf[i], buf[i + 1]
        except IndexError:
            buf, i = self._refill(), 0
            hi, lo = buf[0], buf[1]
        self._pos = i + 2
        return ((hi >> 5) * 67108864.0 + (lo >> 6)) * (1.0 / 9007199254740992.0)

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
