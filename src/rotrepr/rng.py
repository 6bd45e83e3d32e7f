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
uint64 arrays, bit-identical to stepping once per output. The refill
also makes, on numpy and exactly, the double that random() takes from
each output and the next; random(), normal() and normals() read those.
numpy is imported on the first draw, not with this module.
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
                 "_block", "_dbl", "_pos")

    def __init__(self, seed: int, stream: int = _DEFAULT_STREAM):
        self.seed = seed & _MASK64
        self.stream = stream & _MASK64
        self._inc = inc = ((self.stream << 1) | 1) & _MASK64
        # pcg32_srandom: step from 0, add the seed, step again
        self._state = ((inc + self.seed) * _PCG_MULT + inc) & _MASK64
        self._cached_normal: float | None = None
        # _block: buffered outputs (numpy uint32), unread from _pos on;
        # _dbl[j]: the double random() makes from outputs j and j + 1
        self._block = self._dbl = []
        self._pos = 0

    def _refill(self) -> None:
        """Buffer the next block of outputs after the unread ones. Every
        buffer is replaced, never mutated, so copies stay independent."""
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
        rest = self._block[self._pos:]
        block = np.concatenate((rest, out)) if len(rest) else out
        # every step is exact: 27 + 26 bits fit the 53-bit mantissa
        dbl = ((block[:-1] >> 5) * 67108864.0 + (block[1:] >> 6)) \
            * (1.0 / 9007199254740992.0)
        self._block, self._dbl, self._pos = block, dbl.tolist(), 0

    def next_u32(self) -> int:
        i = self._pos
        if i >= len(self._block):
            self._refill()
            i = 0
        self._pos = i + 1
        return int(self._block[i])

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 random mantissa bits from
        two outputs: 27 from the first, 26 from the second."""
        i = self._pos
        try:
            value = self._dbl[i]
        except IndexError:
            self._refill()
            i, value = 0, self._dbl[0]
        self._pos = i + 2
        return value

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def _pair(self) -> tuple[float, float]:
        """Both deviates of the next Box-Muller pair. The fast path reads
        the two buffered doubles; near a block's end, or for u1 = 0, the
        uniforms come through random()."""
        i = self._pos
        try:
            u1, u2 = self._dbl[i], self._dbl[i + 2]
        except IndexError:
            u1 = 0.0
        if u1 > 0.0:
            self._pos = i + 4
        else:
            u1 = self.random()
            while u1 <= 0.0:
                u1 = self.random()
            u2 = self.random()
        radius = math.sqrt(-2.0 * math.log(u1))
        angle = 2.0 * math.pi * u2
        return radius * math.cos(angle), radius * math.sin(angle)

    def normal(self) -> float:
        """Standard normal deviate via Box-Muller (second value cached)."""
        value = self._cached_normal
        if value is None:
            value, self._cached_normal = self._pair()
        else:
            self._cached_normal = None
        return value

    def normals(self, n: int) -> list[float]:
        """n standard normal deviates in one call: the values, and the
        stream consumed, of n calls to normal(): none for n <= 0."""
        if n <= 0:
            return []
        out = [] if self._cached_normal is None else [self._cached_normal]
        if out:
            self._cached_normal = None
        while len(out) < n:
            out += self._pair()
        if len(out) > n:
            self._cached_normal = out.pop()
        return out

    def derive(self, label: str) -> "Rng":
        """Independent child stream; deterministic in (seed, label)."""
        child_seed = _splitmix64(self.seed ^ _fnv1a64(label))
        child_stream = _splitmix64(child_seed ^ 0xDA3E39CB94B95BDB)
        return Rng(child_seed, stream=child_stream)
