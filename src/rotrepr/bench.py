"""Empirical evaluation framework for rotation representations.

Implements the full metric set: round-trip stability, singularity
susceptibility (gimbal and double-cover), interpolation path length /
geodesic deviation / derivative continuity, the 200-case robustness
taxonomy, composition / interpolation / batch timing, and the heuristic
score tables. Every non-timing metric is a pure function of (seed,
config): each (suite, representation) pair draws from its own derived
RNG stream, so partial suites reproduce the numbers of a full run
bit-for-bit. Float sums run left to right from 0.0, as sum() did until
Python 3.12 compensated it, so the numbers do not depend on the Python.
A square keeps the form it is written in: `x ** 2` goes through libm
pow, which on glibc 2.36 differed from `x * x` in 2,563 of 3,000,000
random doubles. So _tuple_dist, _quat_param_dist, _renormalized_axis
and derivative_continuity keep `** 2`, and trading one form for the
other is not a bit-identical rewrite.

Representation tags: euler, axis-angle, quaternion, matrix, exp-map,
sixd, fisher. The fisher row carries storage and heuristic fields only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from functools import partial, reduce
from itertools import starmap
from operator import add
from typing import Callable, NamedTuple

from .core import (
    AxisAngle,
    EulerAngles,
    RotationMatrix,
    RotationVector,
    SixD,
    UnitQuaternion,
    _project_stack,
    canonicalize,
    relative_angle,
    sample_uniform,
    wrap_angle,
)
from .compose import compose_in
from .convert import (
    _BY_TAG,
    _REGISTRY,
    QUAT,
    ROTVEC,
    _chain,
    _checked_matrix,
    axis_angle_to_matrix,
    euler_to_matrix,
    exp_map,
    matrix_to_sixd,
    quat_to_matrix,
)
from .errors import RotationError
from .interp import (
    _METHODS,
    INTERPOLATION_METHODS,
    Interpolator,
    make_interpolator,
)
from .rng import Rng

EULER = "euler"
AXIS_ANGLE = "axis-angle"
QUATERNION = "quaternion"
MATRIX = "matrix"
EXP_MAP = "exp-map"
SIXD = "sixd"
FISHER = "fisher"

REPRESENTATIONS = (EULER, AXIS_ANGLE, QUATERNION, MATRIX, EXP_MAP, SIXD, FISHER)
ROTATION_REPRESENTATIONS = REPRESENTATIONS[:-1]

# report row -> registry entry of the representation behind it
_ROWS = {rep.row: rep for rep in _REGISTRY if rep.row is not None}

STORAGE_BYTES = {**{row: _ROWS[row].storage_bytes for row in ROTATION_REPRESENTATIONS},
                 FISHER: 72}
# Memory-alignment score by storage footprint.
A_MEM_CASES = {32: 1.0, 24: 0.9, 48: 0.7, 72: 0.3}
H_OPT = {EULER: 0.6, AXIS_ANGLE: 0.8, QUATERNION: 0.9, MATRIX: 0.7,
         EXP_MAP: 0.6, SIXD: 0.5}
C_ML = {EULER: 0.3, AXIS_ANGLE: 0.7, QUATERNION: 0.8, MATRIX: 0.6,
        EXP_MAP: 0.7, SIXD: 0.9}

# the paper's fixed protocol
DOUBLE_COVER_TOL = 1e-10
EULER_BETA_EXCLUSION = math.pi / 2 - 0.05  # stability sampler stays below this
GIMBAL_BAND_HALFWIDTH = 0.01
PERTURBATION_NORM = 1e-6  # gimbal step
K_PATH = 100  # path-length samples
K_DERIV = 50  # central-difference parameters
DT = 0.001  # central-difference step
DELTA_REG = 1e-8  # keeps the relative metrics finite at zero length
FAILURE_THRESHOLD = 0.1  # rad: a robustness round trip past this fails


@dataclass(frozen=True)
class BenchConfig:
    """Sample sizes, seed and tau for every suite; defaults reproduce
    the reference protocol."""

    seed: int = 42
    n_stability: int = 1000
    m_singularity: int = 5000
    n_edge: int = 200
    n_pairs: int = 100
    tau: float = 1e-3
    warmup: int = 100
    trials: int = 1000
    batch: int = 100

    def __post_init__(self):
        for name in ("n_stability", "m_singularity", "n_edge", "n_pairs",
                     "warmup", "trials", "batch"):
            if not isinstance(size := getattr(self, name), int) or size < 1:
                raise RotationError(f"BenchConfig.{name} must be an int >= 1")
        if not 0.0 < self.tau < math.inf:
            raise RotationError("BenchConfig.tau must be finite and > 0")


@dataclass
class BenchReport:
    """One benchmark table row; None marks a metric that was not
    measured (fisher row, or a suite that was not requested)."""

    representation: str
    storage_bytes: int
    eps_stab: float | None = None
    s_gimbal: float | None = None
    s_double: float | None = None
    path_length: float | None = None
    eps_geo: float | None = None
    sigma_deriv: float | None = None
    f_rate: float | None = None
    eps_avg: float | None = None
    eps_max: float | None = None
    t_comp: float | None = None
    t_interp: float | None = None
    t_batch: float | None = None
    a_mem: float | None = None
    h_opt: float | None = None
    c_ml: float | None = None


REPORT_FIELDS = tuple(f.name for f in fields(BenchReport))


# ---------------------------------------------------------------------------
# shared samplers


def _suite_rng(cfg: BenchConfig, label: str) -> Rng:
    return Rng(cfg.seed).derive(label)


def haar_matrix(rng: Rng) -> RotationMatrix:
    return quat_to_matrix(sample_uniform(rng))


def _direction(rng: Rng, dim: int, norm: float) -> tuple[float, ...]:
    """A uniformly directed dim-vector of the given norm, for dim >= 3:
    three normals hold a whole Box-Muller pair, which is never (0, 0),
    so the norm is never zero and no draw is repeated."""
    d = rng.normals(dim)
    n2 = 0.0
    for v in d:
        n2 += v * v
    n = math.sqrt(n2)
    # a list, not a generator: tuple(generator) over-allocates and shrinks
    # its result, which raised the paper table's peak RSS by about 0.5 MB
    return tuple([v * norm / n for v in d])


def _row_rep(tag: str):
    rep = _ROWS.get(tag)
    if rep is None:
        raise RotationError(f"representation {tag!r} has no rotation value type")
    return rep


def round_trip(tag: str, r: RotationMatrix) -> RotationMatrix:
    """matrix -> representation -> matrix for one representation."""
    rep = _row_rep(tag)
    return rep.to_matrix(rep.from_matrix(r))


# ---------------------------------------------------------------------------
# stability


class StabilityResult(NamedTuple):
    eps_stab: float
    failures: int


def stability_suite(tag: str, cfg: BenchConfig) -> StabilityResult:
    """Mean angular reconstruction error over Haar round trips.

    A conversion that raises counts as the maximal distance pi and is
    tallied as a failure. The Euler row redraws until the angles it
    extracted keep clear of the gimbal band.
    """
    rng = _suite_rng(cfg, f"stability/{tag}")
    rep = _row_rep(tag)
    total = 0.0
    failures = 0
    for _ in range(cfg.n_stability):
        r = haar_matrix(rng)
        try:
            value = rep.from_matrix(r)
            while tag == EULER and abs(value.beta) > EULER_BETA_EXCLUSION:
                r = haar_matrix(rng)
                value = rep.from_matrix(r)
            total += relative_angle(rep.to_matrix(value), r)
        except RotationError:
            total += math.pi
            failures += 1
    return StabilityResult(total / cfg.n_stability, failures)


# ---------------------------------------------------------------------------
# singularity susceptibility


def _euler_param_dist(a, b) -> float:
    da = wrap_angle(a[0] - b[0])
    db = wrap_angle(a[1] - b[1])
    dg = wrap_angle(a[2] - b[2])
    return math.sqrt(da * da + db * db + dg * dg)


def _quat_param_dist(a, b) -> float:
    plus = minus = 0.0
    for x, y in zip(a, b):
        plus += (x - y) ** 2
        minus += (x + y) ** 2
    return math.sqrt(min(plus, minus))


def _tuple_dist(a, b) -> float:
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) ** 2
    return math.sqrt(total)


def _renormalized_axis(p) -> AxisAngle:
    n = math.sqrt(p[0] ** 2 + p[1] ** 2 + p[2] ** 2)
    return AxisAngle((p[0] / n, p[1] / n, p[2] / n), p[3])


def _euler_near_gimbal(rng: Rng) -> tuple[float, float, float]:
    return (rng.uniform(-math.pi, math.pi),
            math.pi / 2 + rng.uniform(-GIMBAL_BAND_HALFWIDTH, GIMBAL_BAND_HALFWIDTH),
            rng.uniform(-math.pi, math.pi))


def _exp_map_near_pi(rng: Rng) -> tuple[float, float, float]:
    axis = _direction(rng, 3, 1.0)
    theta = rng.uniform(math.pi - GIMBAL_BAND_HALFWIDTH, math.pi)
    return (axis[0] * theta, axis[1] * theta, axis[2] * theta)


# row -> (problem-region sampler: rng -> unperturbed parameters;
# constraint map: a chunk of perturbed parameter tuples -> values;
# parameter distance)
_GIMBAL = {
    EULER: (_euler_near_gimbal, partial(starmap, EulerAngles), _euler_param_dist),
    AXIS_ANGLE: (lambda rng: _direction(rng, 3, 1.0)
                 + (rng.uniform(0.0, GIMBAL_BAND_HALFWIDTH),),
                 partial(map, _renormalized_axis), _tuple_dist),
    QUATERNION: (lambda rng: canonicalize(sample_uniform(rng)),
                 partial(map, UnitQuaternion.normalized), _quat_param_dist),
    # the matrix row has no chart to re-extract: it projects the perturbed
    # entries back onto SO(3), one SVD stack per chunk of draws
    MATRIX: (lambda rng: haar_matrix(rng).as_flat(),
             lambda chunk: _project_stack([(p[0:3], p[3:6], p[6:9]) for p in chunk]),
             _tuple_dist),
    EXP_MAP: (_exp_map_near_pi, partial(map, RotationVector), _tuple_dist),
    SIXD: (lambda rng: matrix_to_sixd(haar_matrix(rng)).as_tuple(),
           partial(map, lambda p: SixD(p[:3], p[3:])), _tuple_dist),
}

_PROJECT_CHUNK = 256  # draws per chunk: bounds the matrix row's SVD stack


def gimbal_susceptibility(tag: str, cfg: BenchConfig) -> float:
    """Fraction of near-singular parameter points whose canonical
    re-extraction jumps by more than tau under a norm-1e-6 perturbation.

    Each representation is sampled in its documented problem region
    (Euler: beta within 0.01 of pi/2; axis-angle: angles in [0, 0.01];
    exp-map: angles within 0.01 of pi; quaternion/matrix/sixd: Haar, as
    they have no singular region). The sampled parameters are perturbed
    by a uniformly-directed step of norm PERTURBATION_NORM (re-projected
    onto the representation's constraint set where one exists), the
    perturbed rotation is re-extracted canonically, and the parameter
    distance back to the original point is compared against tau. Stable
    charts reproduce the perturbed parameters, so the distance stays at
    the perturbation scale; near a singularity the extraction jumps
    branch and the distance is O(1).
    """
    rng = _suite_rng(cfg, f"gimbal/{tag}")
    rep = _row_rep(tag)
    to_matrix, from_matrix, components = rep.to_matrix, rep.from_matrix, rep.components
    sample, constrain, dist = _GIMBAL[tag]
    eta, tau, sqrt = PERTURBATION_NORM, cfg.tau, math.sqrt
    hits = 0
    for start in range(0, cfg.m_singularity, _PROJECT_CHUNK):
        refs, perts = [], []
        for _ in range(min(_PROJECT_CHUNK, cfg.m_singularity - start)):
            ref = sample(rng)
            refs.append(ref)
            # ref + _direction(rng, len(ref), eta), in one pass
            d = rng.normals(len(ref))
            n2 = 0.0
            for v in d:
                n2 += v * v
            n = sqrt(n2)
            perts.append(tuple([r + v * eta / n for r, v in zip(ref, d)]))
        for ref, value in zip(refs, constrain(perts)):
            hits += dist(components(from_matrix(to_matrix(value))), ref) > tau
    return hits / cfg.m_singularity


def double_cover_check(cfg: BenchConfig,
                       to_matrix_fn: Callable[[UnitQuaternion], RotationMatrix]
                       = quat_to_matrix) -> float:
    """Fraction of Haar quaternions where ||R(q) - R(-q)||_F > 1e-10.

    Zero for any conversion that is exactly even in q; the tests'
    broken_quat_to_matrix fixture drives it to 1.0.
    """
    rng = _suite_rng(cfg, "double-cover")
    hits = 0
    for _ in range(cfg.m_singularity):
        q = sample_uniform(rng)
        hits += _tuple_dist(to_matrix_fn(q).as_flat(),
                            to_matrix_fn(-q).as_flat()) > DOUBLE_COVER_TOL
    return hits / cfg.m_singularity


# ---------------------------------------------------------------------------
# interpolation quality


def path_metrics(interpolator: Interpolator, r1: RotationMatrix,
                 r2: RotationMatrix) -> tuple[float, float]:
    """Polygonal path length over K_PATH uniform samples and relative
    deviation from the geodesic length."""
    k = K_PATH
    prev = interpolator.eval(0.0)
    length = 0.0
    for i in range(1, k):
        cur = interpolator.eval(i / (k - 1))
        length += relative_angle(prev, cur)
        prev = cur
    geo = relative_angle(r1, r2)
    return length, abs(length - geo) / (geo + DELTA_REG)


def derivative_continuity(interpolator: Interpolator, r1: RotationMatrix,
                          r2: RotationMatrix) -> float:
    """Normalized std of central-difference angular speeds at K_DERIV
    interior parameters in [0.01, 0.99]."""
    k = K_DERIV
    speeds = []
    for i in range(k):
        t = 0.01 + (0.99 - 0.01) * i / (k - 1)
        a = interpolator.eval(t - DT / 2.0)
        b = interpolator.eval(t + DT / 2.0)
        speeds.append(relative_angle(a, b) / DT)
    mean = reduce(add, speeds, 0.0) / k
    var = reduce(add, [(s - mean) ** 2 for s in speeds], 0.0) / k
    return math.sqrt(var) / (mean + DELTA_REG)


def _interp_method(tag: str) -> str:
    """The row's native interpolation family: the first method whose
    endpoints are the row's representation; axis-angle blends in
    rotation-vector coordinates."""
    endpoint = ROTVEC if tag == AXIS_ANGLE else _row_rep(tag).tag
    return next(m for m in INTERPOLATION_METHODS if _METHODS[m][0] == endpoint)


class InterpMetrics(NamedTuple):
    path_length: float
    eps_geo: float
    sigma_deriv: float


INTERP_START_JITTER = 0.1  # rad scale of the start-rotation jitter


def interpolation_pairs(cfg: BenchConfig) -> list[tuple[RotationMatrix,
                                                        RotationMatrix]]:
    """Endpoint pairs for the interpolation suite: a small random start
    rotation (gaussian rotation vector, 0.1 rad scale) to a Haar end.

    Anchoring the start near the identity is what makes the chart-based
    interpolators comparable: with both endpoints Haar, rotation-vector
    blends routinely detour through the identity (mean path 1.28x the
    geodesic, heavy tail) and overtake the 6D blend, inverting the
    expected ordering. The anchored protocol keeps rotation-vector paths
    near-geodesic while 6D and Euler blends still show their distortion.
    """
    rng = _suite_rng(cfg, "interp/pairs")
    pairs = []
    for _ in range(cfg.n_pairs):
        jitter = RotationVector(tuple([v * INTERP_START_JITTER
                                       for v in rng.normals(3)]))
        pairs.append((exp_map(jitter), haar_matrix(rng)))
    return pairs


def interpolation_metrics(cfg: BenchConfig) -> dict[str, InterpMetrics]:
    """Mean interpolation metrics per method over shared endpoint pairs
    (shared so the cross-method orderings are paired comparisons)."""
    pairs = interpolation_pairs(cfg)
    out: dict[str, InterpMetrics] = {}
    used = {_interp_method(tag) for tag in ROTATION_REPRESENTATIONS}
    for method in (m for m in INTERPOLATION_METHODS if m in used):
        total_len = total_geo = total_sigma = 0.0
        for r1, r2 in pairs:
            interp = make_interpolator(method, r1, r2)
            length, eps_geo = path_metrics(interp, r1, r2)
            total_len += length
            total_geo += eps_geo
            total_sigma += derivative_continuity(interp, r1, r2)
        n = cfg.n_pairs
        out[method] = InterpMetrics(total_len / n, total_geo / n, total_sigma / n)
    return out


# ---------------------------------------------------------------------------
# robustness


def edge_cases(cfg: BenchConfig) -> list[tuple[str, RotationMatrix]]:
    """The six-family edge-case taxonomy, n_edge cases total.

    Family sizes split the total as evenly as possible, earlier families
    taking the remainder (34/34/33/33/33/33 at the default 200).
    """
    rng = _suite_rng(cfg, "edge-cases")
    base, rem = divmod(cfg.n_edge, 6)
    counts = [base + (1 if i < rem else 0) for i in range(6)]
    cases: list[tuple[str, RotationMatrix]] = []
    for _ in range(counts[0]):
        cases.append(("identity", RotationMatrix.identity()))
    for _ in range(counts[1]):
        theta = math.exp(rng.uniform(math.log(1e-6), math.log(1e-3)))
        axis = _direction(rng, 3, 1.0)
        cases.append(("small-angle", axis_angle_to_matrix(AxisAngle(axis, theta))))
    for i in range(counts[2]):
        # the closed interval's far end (theta = pi exactly) goes in first
        theta = math.pi if i == 0 else rng.uniform(math.pi - 1e-3, math.pi)
        axis = _direction(rng, 3, 1.0)
        cases.append(("near-pi", axis_angle_to_matrix(AxisAngle(axis, theta))))
    for _ in range(counts[3]):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        e = EulerAngles(rng.uniform(-math.pi, math.pi),
                        sign * (math.pi / 2 + rng.uniform(-1e-3, 1e-3)),
                        rng.uniform(-math.pi, math.pi))
        cases.append(("near-gimbal", euler_to_matrix(e)))
    for _ in range(counts[4]):
        q = sample_uniform(rng)
        if q.w > 0.0:
            q = -q  # feed the non-canonical hemisphere on purpose
        cases.append(("antipodal", quat_to_matrix(q)))
    for _ in range(counts[5]):
        cases.append(("haar", haar_matrix(rng)))
    return cases


class RobustnessResult(NamedTuple):
    f_rate: float
    eps_avg: float
    eps_max: float


def robustness_suite(tag: str, cfg: BenchConfig) -> RobustnessResult:
    """Failure rate and error statistics over the edge-case taxonomy.

    A case fails when the round-trip error exceeds FAILURE_THRESHOLD
    or any conversion raises; error statistics cover non-failing cases.
    """
    cases = edge_cases(cfg)
    failures = 0
    errors = []
    for _family, r in cases:
        try:
            err = relative_angle(round_trip(tag, r), r)
        except RotationError:
            failures += 1
            continue
        if err > FAILURE_THRESHOLD:
            failures += 1
        else:
            errors.append(err)
    if errors:
        eps_avg = reduce(add, errors, 0.0) / len(errors)
        eps_max = max(errors)
    else:
        eps_avg = eps_max = math.nan
    return RobustnessResult(failures / len(cases), eps_avg, eps_max)


# ---------------------------------------------------------------------------
# timing


class TimingResult(NamedTuple):
    micros: float
    low_confidence: bool


_CLOCK_RESOLUTION = time.get_clock_info("perf_counter").resolution
_TIMING_REPEATS = 9


def _measure_loops(loops: dict) -> dict:
    """Minimum wall time of each loop over interleaved repeat rounds.

    Scheduler preemption and frequency scaling only ever add time, so
    the minimum of repeated identical loops is the cleanest estimate of
    the undisturbed cost (the timeit.repeat convention). Rounds are
    interleaved across the measured loops so a slow window degrades one
    round of every loop rather than every round of one loop, keeping
    cross-representation comparisons fair.
    """
    best = {key: math.inf for key in loops}
    for _ in range(_TIMING_REPEATS):
        for key, loop in loops.items():
            start = time.perf_counter()
            loop()
            elapsed = time.perf_counter() - start
            if elapsed < best[key]:
                best[key] = elapsed
    return best


def _prepared_loop(op: Callable, items: list, warmup: int, reps: int = 1):
    """Apply op to the items `warmup` times (cycling, unmeasured), then
    return a loop that applies it to every item `reps` times."""
    n = len(items)
    for i in range(warmup):
        op(*items[i % n])

    def loop():
        for _ in range(reps):
            for args in items:
                op(*args)

    return loop


def _native_pairs(tag: str, rng: Rng, n: int) -> list:
    conv = _row_rep(tag).from_matrix
    return [(conv(haar_matrix(rng)), conv(haar_matrix(rng))) for _ in range(n)]


def _ingest(tag: str) -> Callable:
    """Checked batch conversion: validate the incoming matrix once, then
    convert to the row's representation. A quaternion-hub row counts the
    check in matrix_to_quat as its own, a matrix-hub row chains
    _checked_matrix in front: no row composes unchecked data."""
    rep = _row_rep(tag)
    if rep.hub == QUAT:
        return rep.from_matrix
    return _chain(_checked_matrix, rep.from_matrix)


def _micros(loops: dict, ops: int, sample: int) -> dict[str, TimingResult]:
    """Microseconds per operation for each tag: the sum of the best
    times of its (tag, part) loops, each run performing `ops`
    operations. A coarse clock or a sample below 10 is low confidence."""
    low_confidence = _CLOCK_RESOLUTION > 1e-8 or sample < 10
    totals = {}
    for (tag, _), seconds in _measure_loops(loops).items():
        totals[tag] = totals.get(tag, 0.0) + seconds
    return {tag: TimingResult(seconds / ops * 1e6, low_confidence)
            for tag, seconds in totals.items()}


def composition_times(cfg: BenchConfig, tags=ROTATION_REPRESENTATIONS
                      ) -> dict[str, TimingResult]:
    """Mean wall-clock time of one native composition per representation,
    microseconds.

    Operands are pre-generated, the warmup iterations are unmeasured,
    and one monotonic-clock reading brackets each measured loop of
    `trials` compositions (best of several repeats, interleaved across
    the representations for a fair comparison) so clock overhead and
    scheduler spikes stay out of the per-call figure. Single-threaded.
    """
    loops = {}
    for tag in tags:
        rng = _suite_rng(cfg, f"timing/compose/{tag}")
        # compose_in bound to the row's representation: every row pays
        # the same dispatch overhead, so the comparison stays fair
        op = partial(compose_in, _row_rep(tag).tag)
        pairs = _native_pairs(tag, rng, cfg.trials)
        loops[tag, "compose"] = _prepared_loop(op, pairs, cfg.warmup)
    return _micros(loops, cfg.trials, cfg.trials)


def interpolation_times(cfg: BenchConfig, tags=ROTATION_REPRESENTATIONS
                        ) -> dict[str, TimingResult]:
    """Mean time of one native interpolation evaluation per
    representation, microseconds, rounds interleaved."""
    loops = {}
    for tag in tags:
        rng = _suite_rng(cfg, f"timing/interp/{tag}")
        endpoint, op, _ = _METHODS[_interp_method(tag)]
        conv = _BY_TAG[endpoint].from_matrix
        items = [(conv(haar_matrix(rng)), conv(haar_matrix(rng)), rng.random())
                 for _ in range(cfg.trials)]
        loops[tag, "interp"] = _prepared_loop(op, items, cfg.warmup)
    return _micros(loops, cfg.trials, cfg.trials)


def batch_times(cfg: BenchConfig, tags=ROTATION_REPRESENTATIONS
                ) -> dict[str, TimingResult]:
    """(batch conversion time + batch composition time) / B per
    representation, microseconds, rounds interleaved.

    Converts (with input checking) a pre-generated batch of matrices to
    the representation and composes a pre-generated batch of native
    pairs, through compose_in as composition_times does.
    """
    b = cfg.batch
    warmup = max(1, cfg.warmup // b + 1) * b
    # measure several batches per round so rounds are long enough for a
    # stable clock reading; the per-batch figure divides back out
    reps = max(1, cfg.trials // b)
    loops = {}
    for tag in tags:
        rng = _suite_rng(cfg, f"timing/batch/{tag}")
        matrices = [(haar_matrix(rng),) for _ in range(b)]
        pairs = _native_pairs(tag, rng, b)
        loops[tag, "convert"] = _prepared_loop(_ingest(tag), matrices, warmup, reps)
        loops[tag, "compose"] = _prepared_loop(partial(compose_in, _row_rep(tag).tag),
                                               pairs, warmup, reps)
    return _micros(loops, reps * b, b)


# ---------------------------------------------------------------------------
# heuristic scores


class HeuristicScores(NamedTuple):
    a_mem: float
    h_opt: float | None
    c_ml: float | None


def heuristic_scores(tag: str) -> HeuristicScores:
    """Memory-alignment, hardware-optimization, and ML-compatibility
    scores; pure lookups. The fisher row has no assigned h_opt/c_ml."""
    if tag not in STORAGE_BYTES:
        raise RotationError(f"unknown representation tag {tag!r}")
    return HeuristicScores(A_MEM_CASES[STORAGE_BYTES[tag]], H_OPT.get(tag),
                           C_ML.get(tag))


# ---------------------------------------------------------------------------
# full table


ALL_SUITES = ("stability", "singularity", "interp", "robustness", "timing")


class BenchSuiteError(RotationError):
    """One or more rows failed; the rest of the table was completed."""

    def __init__(self, failures, reports):
        self.failures = failures
        self.reports = reports
        detail = "; ".join(f"{tag}/{suite}: {exc}" for tag, suite, exc in failures)
        super().__init__(f"benchmark rows failed: {detail}")


def full_table(cfg: BenchConfig,
               suites: tuple[str, ...] = ALL_SUITES) -> list[BenchReport]:
    """One BenchReport per representation.

    The fisher row carries only storage and heuristic fields (timing and
    interpolation are not applicable). A failing suite does not abort the
    other rows: remaining rows are completed first, then the collected
    failures propagate as BenchSuiteError.
    """
    unknown = set(suites) - set(ALL_SUITES)
    if unknown:
        raise RotationError(f"unknown suites: {sorted(unknown)}")
    failures = []
    interp_by_method = None
    if "interp" in suites:
        try:
            interp_by_method = interpolation_metrics(cfg)
        except RotationError as exc:
            failures.append(("*", "interp", exc))
    timing = None
    if "timing" in suites:
        try:
            timing = {"t_comp": composition_times(cfg),
                      "t_interp": interpolation_times(cfg),
                      "t_batch": batch_times(cfg)}
        except RotationError as exc:
            failures.append(("*", "timing", exc))
    reports = []
    for tag in REPRESENTATIONS:
        cells = {"storage_bytes": STORAGE_BYTES[tag], **heuristic_scores(tag)._asdict()}
        for suite in (suites if tag != FISHER else ()):
            try:
                if suite == "stability":
                    cells["eps_stab"] = stability_suite(tag, cfg).eps_stab
                elif suite == "singularity":
                    cells["s_gimbal"] = gimbal_susceptibility(tag, cfg)
                    if tag == QUATERNION:
                        cells["s_double"] = double_cover_check(cfg)
                elif suite == "interp" and interp_by_method is not None:
                    cells.update(interp_by_method[_interp_method(tag)]._asdict())
                elif suite == "robustness":
                    cells.update(robustness_suite(tag, cfg)._asdict())
                elif suite == "timing" and timing is not None:
                    cells.update({name: times[tag].micros
                                  for name, times in timing.items()})
            except RotationError as exc:
                failures.append((tag, suite, exc))
        reports.append(BenchReport(tag, **cells))
    if failures:
        raise BenchSuiteError(failures, reports)
    return reports
