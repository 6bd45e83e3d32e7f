import copy
import math
import random
import statistics

import pytest

import rotrepr.rng
from rotrepr import Rng

# Round-1 output of the reference pcg32-demo program for
# pcg32_srandom(42, 54); any deviation means the generator is not PCG32.
PCG32_REFERENCE = [0xA15C02B7, 0x7B47F409, 0xBA1D3330,
                   0x83D2F293, 0xBFA4784B, 0xCBED606E]


def test_matches_reference_stream():
    rng = Rng(42, stream=54)
    assert [rng.next_u32() for _ in range(6)] == PCG32_REFERENCE


def test_equal_seeds_bit_identical():
    a = Rng(987654321)
    b = Rng(987654321)
    assert [a.next_u32() for _ in range(100)] == [b.next_u32() for _ in range(100)]
    assert [a.normal() for _ in range(100)] == [b.normal() for _ in range(100)]


def test_different_seeds_differ():
    assert [Rng(1).next_u32() for _ in range(8)] != [Rng(2).next_u32() for _ in range(8)]


def test_random_unit_interval():
    rng = Rng(7)
    xs = [rng.random() for _ in range(10000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert abs(statistics.fmean(xs) - 0.5) < 0.02


def test_normal_moments():
    rng = Rng(1234)
    xs = [rng.normal() for _ in range(20000)]
    assert abs(statistics.fmean(xs)) < 0.03
    assert abs(statistics.pstdev(xs) - 1.0) < 0.03


def test_derive_is_deterministic_and_independent():
    a = Rng(42).derive("stability/quaternion")
    b = Rng(42).derive("stability/quaternion")
    c = Rng(42).derive("stability/matrix")
    sa = [a.next_u32() for _ in range(16)]
    assert sa == [b.next_u32() for _ in range(16)]
    assert sa != [c.next_u32() for _ in range(16)]


def test_uniform_bounds():
    rng = Rng(5)
    xs = [rng.uniform(-2.0, 3.0) for _ in range(1000)]
    assert all(-2.0 <= x < 3.0 for x in xs)


# ---------------------------------------------------------------------------
# Block generation against a scalar PCG32 that steps the LCG once per output

_MASK64 = (1 << 64) - 1
_MULT = 6364136223846793005
_EDGES = [0, 1, 42, _MASK64]


class ScalarPcg32:
    """pcg32_srandom_r / pcg32_random_r of the reference C code, plus the
    same float and Box-Muller expressions as Rng."""

    def __init__(self, seed: int, stream: int):
        self.inc = ((stream << 1) | 1) & _MASK64
        self.state = 0
        self.next_u32()
        self.state = (self.state + seed) & _MASK64
        self.next_u32()
        self.cached = None

    def next_u32(self) -> int:
        old = self.state
        self.state = (old * _MULT + self.inc) & _MASK64
        x = (((old >> 18) ^ old) >> 27) & 0xFFFFFFFF
        rot = old >> 59
        return ((x >> rot) | (x << ((-rot) & 31))) & 0xFFFFFFFF

    def random(self) -> float:
        hi = self.next_u32() >> 5
        lo = self.next_u32() >> 6
        return (hi * 67108864.0 + lo) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def normal(self) -> float:
        if self.cached is not None:
            value, self.cached = self.cached, None
            return value
        u1 = self.random()
        while u1 <= 0.0:
            u1 = self.random()
        u2 = self.random()
        radius = math.sqrt(-2.0 * math.log(u1))
        angle = 2.0 * math.pi * u2
        self.cached = radius * math.sin(angle)
        return radius * math.cos(angle)

    def normals(self, n: int) -> list[float]:
        return [self.normal() for _ in range(n)]


def _interleaved(gen, ops):
    out = []
    for op in ops:
        if op == "uniform":
            out.append(gen.uniform(-2.5, 7.0))
        elif isinstance(op, int):
            out.append(gen.normals(op))
        else:
            out.append(getattr(gen, op)())
    return out


@pytest.mark.parametrize("seed", _EDGES)
@pytest.mark.parametrize("stream", _EDGES)
def test_block_stream_matches_scalar_reference(seed, stream):
    # 5000 outputs cross two refills of 2048
    rng, ref = Rng(seed, stream), ScalarPcg32(seed, stream)
    assert [rng.next_u32() for _ in range(5000)] == [ref.next_u32() for _ in range(5000)]


@pytest.mark.parametrize("case", range(12))
def test_interleaved_draws_match_scalar_reference(case):
    pick = random.Random(case)
    seed, stream = pick.getrandbits(64), pick.choice([54, pick.getrandbits(64)])
    ops = [pick.choice(["next_u32", "random", "normal", "uniform"])
           for _ in range(pick.randint(1, 6000))]
    assert _interleaved(Rng(seed, stream), ops) == \
        _interleaved(ScalarPcg32(seed, stream), ops)


@pytest.mark.parametrize("case", range(12))
def test_normals_interleaved_match_scalar_reference(case):
    # an int op is normals(op): up to 1400 deviates (2800 outputs) cross
    # refills at every offset the other draws leave
    pick = random.Random(1000 + case)
    seed, stream = pick.getrandbits(64), pick.choice([54, pick.getrandbits(64)])
    ops = [pick.choice(["next_u32", "random", "normal", "uniform",
                        pick.randint(0, 9), pick.randint(0, 1400)])
           for _ in range(pick.randint(1, 400))]
    assert _interleaved(Rng(seed, stream), ops) == \
        _interleaved(ScalarPcg32(seed, stream), ops)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 511, 512, 513, 1023, 1024, 3001])
@pytest.mark.parametrize("lead", [(), ("next_u32",), ("normal",),
                                  ("next_u32", "normal"), ("random", "next_u32") * 1023])
def test_normals_matches_calls_to_normal(n, lead):
    # odd offsets, a cached value pending, and a block boundary a few
    # outputs ahead; then copy.copy continues independently
    rng, ref = Rng(77, 3), ScalarPcg32(77, 3)
    _interleaved(rng, lead)
    _interleaved(ref, lead)
    twin = copy.copy(rng)
    expected = ref.normals(n)
    assert rng.normals(n) == expected
    after = ["normal", "next_u32", "random", "normal", 5]
    assert _interleaved(rng, after) == _interleaved(ref, after)
    assert [twin.normal() for _ in range(n)] == expected


def test_derived_streams_match_scalar_reference():
    parent = Rng(42)
    parent.normals(777)  # a child depends on the parent's seed only
    for label in ("stability/quaternion", "interp/matrix", ""):
        child = parent.derive(label)
        assert (child.seed, child.stream) == \
            (Rng(42).derive(label).seed, Rng(42).derive(label).stream)
        ops = ["random", "normal", "next_u32"] * 900
        assert _interleaved(child, ops) == \
            _interleaved(ScalarPcg32(child.seed, child.stream), ops)


def test_copy_draws_independently():
    rng = Rng(2024)
    rng.random()
    rng.next_u32()  # odd offset: a random() straddles each refill
    twin = copy.copy(rng)
    ahead = [twin.random() for _ in range(3000)]
    assert [rng.random() for _ in range(3000)] == ahead
    ref = ScalarPcg32(2024, 54)
    ref.random()
    ref.next_u32()
    assert [ref.random() for _ in range(3000)] == ahead


def test_rng_module_does_not_hold_numpy():
    import numpy
    Rng(3).random()  # the first draw imports numpy inside the refill
    names = vars(rotrepr.rng)
    assert "numpy" not in names and "np" not in names
    assert all(value is not numpy for value in names.values())
