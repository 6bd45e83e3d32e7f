"""Rotation value types and core SO(3) operations.

Conventions used across the package:

* quaternions are scalar-first (w, x, y, z) and unit norm;
* rotation matrices are 3x3, row-major, orthonormal with det +1, and act
  on column vectors (p' = R p);
* all angles are radians.

The value types are immutable named tuples of plain floats, safe to
share between threads. Each compares equal to and hashes like the plain
tuple of its fields (RotationMatrix(rows) == (rows,)); use _replace and
_asdict, not dataclasses.replace/asdict. numpy enters only where a
matrix factorization is genuinely needed (SVD projection).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInputError
from .rng import Rng

Vec3 = tuple[float, float, float]

ORTHONORMALITY_TOL = 1e-9
DETERMINANT_TOL = 1e-9
TINY_ANGLE = 1e-12
DEFAULT_AXIS: Vec3 = (0.0, 0.0, 1.0)

# ---------------------------------------------------------------------------
# small vector helpers


def cross3(a: Vec3, b: Vec3) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def wrap_angle(a: float) -> float:
    """Wrap to the canonical interval (-pi, pi]."""
    a = math.fmod(a, 2.0 * math.pi)
    if a <= -math.pi:
        a += 2.0 * math.pi
    elif a > math.pi:
        a -= 2.0 * math.pi
    return a


# ---------------------------------------------------------------------------
# value types


class UnitQuaternion(NamedTuple):
    """Scalar-first unit quaternion w + xi + yj + zk.

    A named 4-tuple: it unpacks as, compares equal to and hashes like the
    tuple (w, x, y, z), and its fields cannot be assigned or deleted.
    """

    w: float
    x: float
    y: float
    z: float

    def norm(self) -> float:
        w, x, y, z = self
        return math.sqrt(w * w + x * x + y * y + z * z)

    def normalized(self) -> "UnitQuaternion":
        """self / |self|, rescaled first by its largest component where
        the squared norm would overflow or underflow; a zero or
        non-finite quaternion raises DegenerateInputError."""
        w, x, y, z = self
        n2 = w * w + x * x + y * y + z * z
        if not 1e-300 <= n2 < math.inf:
            w, x, y, z = _rescaled(self, "zero quaternion cannot be normalized")
            n2 = w * w + x * x + y * y + z * z
        n = math.sqrt(n2)
        return _tuple_new(UnitQuaternion, (w / n, x / n, y / n, z / n))

    def dot(self, other: "UnitQuaternion") -> float:
        w1, x1, y1, z1 = self
        w2, x2, y2, z2 = other
        return w1 * w2 + x1 * x2 + y1 * y2 + z1 * z2

    def __neg__(self) -> "UnitQuaternion":
        w, x, y, z = self
        return _tuple_new(UnitQuaternion, (-w, -x, -y, -z))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return tuple(self)

    def vector(self) -> Vec3:
        return (self.x, self.y, self.z)

    @staticmethod
    def identity() -> "UnitQuaternion":
        return UnitQuaternion(1.0, 0.0, 0.0, 0.0)


# tuple.__new__(UnitQuaternion, (w, x, y, z)) builds the same value as
# the class call without the Python frame of the generated __new__,
# which costs more than the tuple itself. Every kernel constructs the
# value types through it.
_tuple_new = tuple.__new__


def _rescaled(q, zero_message: str) -> tuple[float, float, float, float]:
    """The (w, x, y, z) sequence q divided by its largest |component|:
    the rare branch of a renormalization whose squared norm left
    [1e-300, inf). Raises DegenerateInputError for a non-finite
    component, or with zero_message for the zero quaternion."""
    if not all(map(math.isfinite, q)):
        raise DegenerateInputError(f"quaternion {tuple(q)!r} is not finite")
    m = max(map(abs, q))
    if m == 0.0:
        raise DegenerateInputError(zero_message)
    w, x, y, z = q
    return (w / m, x / m, y / m, z / m)


Row3 = tuple[float, float, float]


class RotationMatrix(NamedTuple):
    """3x3 rotation matrix stored as a tuple of row tuples."""

    rows: tuple[Row3, Row3, Row3]

    @staticmethod
    def from_rows(rows) -> "RotationMatrix":
        r = tuple(tuple(float(v) for v in row) for row in rows)
        if len(r) != 3 or any(len(row) != 3 for row in r):
            raise DegenerateInputError("a rotation matrix needs 3x3 entries")
        return RotationMatrix(r)  # type: ignore[arg-type]

    @staticmethod
    def from_array(arr) -> "RotationMatrix":
        a = np.asarray(arr, dtype=float)
        if a.shape != (3, 3):
            raise DegenerateInputError(f"expected shape (3, 3), got {a.shape}")
        return RotationMatrix.from_rows(a.tolist())

    @staticmethod
    def identity() -> "RotationMatrix":
        return RotationMatrix(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))

    def trace(self) -> float:
        return self.rows[0][0] + self.rows[1][1] + self.rows[2][2]

    def transpose(self) -> "RotationMatrix":
        r = self.rows
        return _tuple_new(RotationMatrix, ((
            (r[0][0], r[1][0], r[2][0]),
            (r[0][1], r[1][1], r[2][1]),
            (r[0][2], r[1][2], r[2][2]),
        ),))

    def apply(self, p: Vec3) -> Vec3:
        r = self.rows
        return (
            r[0][0] * p[0] + r[0][1] * p[1] + r[0][2] * p[2],
            r[1][0] * p[0] + r[1][1] * p[1] + r[1][2] * p[2],
            r[2][0] * p[0] + r[2][1] * p[1] + r[2][2] * p[2],
        )

    def column(self, j: int) -> Vec3:
        r = self.rows
        return (r[0][j], r[1][j], r[2][j])

    def as_array(self) -> np.ndarray:
        return np.array(self.rows, dtype=float)

    def as_flat(self) -> tuple[float, ...]:
        return self.rows[0] + self.rows[1] + self.rows[2]


def mat_mul_rows(a: tuple[Row3, Row3, Row3], b: tuple[Row3, Row3, Row3]):
    """Plain 3x3 product on row tuples (27 mult / 18 add)."""
    out = []
    for i in range(3):
        ai = a[i]
        out.append((
            ai[0] * b[0][0] + ai[1] * b[1][0] + ai[2] * b[2][0],
            ai[0] * b[0][1] + ai[1] * b[1][1] + ai[2] * b[2][1],
            ai[0] * b[0][2] + ai[1] * b[1][2] + ai[2] * b[2][2],
        ))
    return (out[0], out[1], out[2])


class _EulerConventionFields(NamedTuple):
    axes: str
    intrinsic: bool = True


class EulerConvention(_EulerConventionFields):
    """Ordered axis triple plus intrinsic flag (True or False): one of 24
    shared objects, one per (axes, intrinsic), compared by identity.

    Intrinsic conventions compose in name order: axes "ZYX" with angles
    (alpha, beta, gamma) build Rz(alpha) Ry(beta) Rx(gamma). Extrinsic is
    the reversed product.
    """

    __slots__ = ()

    def __new__(cls, axes: str, intrinsic: bool = True):
        conv = _CONVENTIONS.get((axes, intrinsic))
        if conv is None:
            raise DegenerateInputError(
                f"unknown Euler convention {(axes, intrinsic)!r}; expected axes "
                f"one of {sorted({a for a, _ in _CONVENTIONS})} and intrinsic "
                "True or False")
        return conv

    @classmethod
    def _make(cls, iterable):  # so that _replace looks the convention up too
        return cls(*iterable)

    def __reduce__(self):  # so that pickle (every protocol) and copy do too
        return EulerConvention, tuple(self)

    @property
    def tag(self) -> str:
        return f"{self.axes.lower()}-{'intrinsic' if self.intrinsic else 'extrinsic'}"


# the 24 conventions, built once: EulerConvention()'s check and cache
_CONVENTIONS = {(axes, intrinsic): _tuple_new(EulerConvention, (axes, intrinsic))
                for axes in ("XYZ", "XZY", "YXZ", "YZX", "ZXY", "ZYX",
                             "XYX", "XZX", "YXY", "YZY", "ZXZ", "ZYZ")
                for intrinsic in (True, False)}

ZYX = EulerConvention("ZYX")
XYZ = EulerConvention("XYZ")


class EulerAngles(NamedTuple):
    """Angle triple in radians under a named convention."""

    alpha: float
    beta: float
    gamma: float
    convention: EulerConvention = ZYX

    def as_tuple(self) -> Vec3:
        return (self.alpha, self.beta, self.gamma)


class AxisAngle(NamedTuple):
    """Unit rotation axis and angle in [0, pi].

    Kernels take the unit axis as given (from_components checks it);
    extractions keep it at every angle and fall back to (0, 0, 1) only
    for the zero rotation. A named 2-tuple (axis, angle), like UnitQuaternion.
    """

    axis: Vec3
    angle: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.axis[0], self.axis[1], self.axis[2], self.angle)


class RotationVector(NamedTuple):
    """Exponential-map coordinates v = theta * axis; a named 1-tuple
    (v,), like UnitQuaternion."""

    v: Vec3

    def norm(self) -> float:
        x, y, z = self.v
        return math.sqrt(x * x + y * y + z * z)

    def as_tuple(self) -> Vec3:
        return self.v


class SixD(NamedTuple):
    """Continuous 6D representation: two (unconstrained) 3-vectors that
    Gram-Schmidt into the first two columns of a rotation."""

    a1: Vec3
    a2: Vec3

    def as_tuple(self) -> tuple[float, ...]:
        return self.a1 + self.a2


# ---------------------------------------------------------------------------
# operations


class ValidationResult(NamedTuple):
    """Outcome of the rotation-matrix check with both residuals."""

    ok: bool
    orthogonality_residual: float
    determinant_residual: float

    def __bool__(self) -> bool:
        return self.ok


def orthogonality_residual(r) -> float:
    """||R^T R - I||_F computed from column dot products."""
    (a, b, c), (d, e, f), (g, h, i) = r
    g00 = a * a + d * d + g * g - 1.0
    g11 = b * b + e * e + h * h - 1.0
    g22 = c * c + f * f + i * i - 1.0
    g01 = a * b + d * e + g * h
    g02 = a * c + d * f + g * i
    g12 = b * c + e * f + h * i
    return math.sqrt(g00 * g00 + g11 * g11 + g22 * g22
                     + 2.0 * (g01 * g01 + g02 * g02 + g12 * g12))


def validity_residuals(r) -> tuple[float, float]:
    """(orthogonality residual, determinant residual) of row tuples.

    The allocation-free core of validate(), for hot paths that only
    need the numbers.
    """
    orth = orthogonality_residual(r)
    det = (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
           - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
           + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))
    return orth, abs(det - 1.0)


def validate(m) -> ValidationResult:
    """Check ||R^T R - I||_F <= 1e-9 and |det R - 1| <= 1e-9.

    Pure predicate on any 3x3 array; returns both residuals.
    """
    rows = m.rows if isinstance(m, RotationMatrix) else RotationMatrix.from_array(m).rows
    orth, det_res = validity_residuals(rows)
    return ValidationResult(
        orth <= ORTHONORMALITY_TOL and det_res <= DETERMINANT_TOL, orth, det_res)


def project_to_so3(m) -> RotationMatrix:
    """Closest rotation in the Frobenius sense via SVD.

    Returns U diag(1, 1, det(UV^T)) V^T; the determinant correction keeps
    the result in SO(3) rather than O(3). Raises DegenerateInputError for
    a non-finite entry and for rank-deficient input (smallest singular
    value below 1e-12).
    """
    a = np.asarray(m.rows if isinstance(m, RotationMatrix) else m, dtype=float)
    if a.shape != (3, 3):
        raise DegenerateInputError(f"expected shape (3, 3), got {a.shape}")
    return _project_stack(a[None])[0]


def _project_stack(a) -> list[RotationMatrix]:
    """project_to_so3 of each matrix of a (k, 3, 3) array, through one
    SVD and one stacked U V^T; each result is bit-identical to its own
    projection. The first non-finite member raises (numpy's SVD can hang
    on an infinite entry and fails on a NaN), else the first
    rank-deficient one."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        bad = a[np.isfinite(a).all(axis=(1, 2)).argmin()]
        raise DegenerateInputError(f"matrix is not finite (entries {bad.tolist()})")
    u, sigma, vt = np.linalg.svd(a)
    low = sigma[:, 2] < 1e-12
    if low.any():
        raise DegenerateInputError(f"matrix is rank-deficient "
                                   f"(singular values {sigma[low.argmax()].tolist()})")
    return _so3_factors(u, vt)


def _so3_factors(u, vt) -> list[RotationMatrix]:
    """U diag(1, 1, det(UV^T)) V^T of each SVD in a stack; UV^T is
    orthogonal, so the sign of its plain cofactor determinant (+-1) is
    exact."""
    out = []
    for j, rows in enumerate((u @ vt).tolist()):
        (a, b, c), (d, e, f), (g, h, i) = rows
        if not a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) >= 0.0:
            rows = ((u[j] * np.array([1.0, 1.0, -1.0])) @ vt[j]).tolist()
        out.append(_tuple_new(RotationMatrix, (tuple(map(tuple, rows)),)))
    return out


def geodesic_distance(r1: RotationMatrix, r2: RotationMatrix) -> float:
    """Rotation angle of R1^T R2: arccos((tr(R1^T R2) - 1) / 2), clamped.

    Symmetric, and exactly zero iff the operands are equal (the trace of
    R^T R rounds below 3 for about half of all rotations, which the
    arccos would otherwise report as ~2e-8). The arccos form loses
    precision below ~1e-8 rad in general; use relative_angle() when
    resolving tiny distances.
    """
    a, b = r1.rows, r2.rows
    if a == b:
        return 0.0
    tr = 0.0
    for i in range(3):
        tr += a[0][i] * b[0][i] + a[1][i] * b[1][i] + a[2][i] * b[2][i]
    c = (tr - 1.0) * 0.5
    return math.acos(-1.0 if c < -1.0 else 1.0 if c > 1.0 else c)


def relative_angle(r1: RotationMatrix, r2: RotationMatrix) -> float:
    """Angle of R1^T R2 computed as atan2(sin, cos).

    sin comes from the skew part and cos from the trace, so the result
    keeps full precision at both ends of [0, pi], unlike the plain arccos
    form. This is the measuring stick for all reconstruction-error
    metrics.
    """
    # entry ij of R1^T R2 is a0i b0j + a1i b1j + a2i b2j, as in mat_mul_rows
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = r1.rows
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = r2.rows
    c = ((a00 * b00 + a10 * b10 + a20 * b20)
         + (a01 * b01 + a11 * b11 + a21 * b21)
         + (a02 * b02 + a12 * b12 + a22 * b22) - 1.0) * 0.5
    sx = ((a02 * b01 + a12 * b11 + a22 * b21)
          - (a01 * b02 + a11 * b12 + a21 * b22)) * 0.5
    sy = ((a00 * b02 + a10 * b12 + a20 * b22)
          - (a02 * b00 + a12 * b10 + a22 * b20)) * 0.5
    sz = ((a01 * b00 + a11 * b10 + a21 * b20)
          - (a00 * b01 + a10 * b11 + a20 * b21)) * 0.5
    s = math.sqrt(sx * sx + sy * sy + sz * sz)
    return math.atan2(s, c)


def sample_uniform(rng: Rng) -> UnitQuaternion:
    """Haar-uniform rotation as a normalized 4-normal quaternion. One
    draw suffices: four consecutive normals hold a whole Box-Muller pair,
    which is never (0, 0) (its radius is at least 1.5e-8), so their norm
    is positive."""
    w, x, y, z = rng.normals(4)
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return _tuple_new(UnitQuaternion, (w / n, x / n, y / n, z / n))


def rotate_vector(q: UnitQuaternion, p: Vec3) -> Vec3:
    """Apply the rotation carried by q to p (sandwich product q p q*)."""
    w, x, y, z = q
    v = (x, y, z)
    t = cross3(v, p)
    t = (2.0 * t[0], 2.0 * t[1], 2.0 * t[2])
    u = cross3(v, t)
    return (
        p[0] + w * t[0] + u[0],
        p[1] + w * t[1] + u[1],
        p[2] + w * t[2] + u[2],
    )


def canonicalize(q: UnitQuaternion) -> UnitQuaternion:
    """Canonical sign: w > 0; ties (w == 0) broken by the first nonzero
    vector component being positive. Any (w, x, y, z) sequence is
    accepted; a canonical one is returned as is."""
    w, x, y, z = q
    if w > 0.0:
        return q
    if w < 0.0:
        return _tuple_new(UnitQuaternion, (-w, -x, -y, -z))
    for c in (x, y, z):
        if c > 0.0:
            return q
        if c < 0.0:
            return _tuple_new(UnitQuaternion, (-w, -x, -y, -z))
    return q
