"""Interpolation between rotations (and Fisher parameter blending).

Six rotation-path families share one Interpolator front-end used by the
benchmark: slerp, nlerp, the matrix geodesic, linear blending of rotation
vectors, linear blending of 6D coordinates, and component-wise linear
Euler angles. fisher-blend interpolates the natural-parameter matrix of a
matrix Fisher distribution and exposes the mode path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Any

import numpy as np

from .core import (
    EulerAngles,
    RotationMatrix,
    RotationVector,
    SixD,
    UnitQuaternion,
    _rescaled,
    _tuple_new,
    wrap_angle,
)
from .compose import matrix_mul
from .convert import (
    _BY_TAG,
    EULER_ZYX,
    MATRIX,
    QUAT,
    ROTVEC,
    SIXD,
    euler_to_matrix,
    exp_map,
    log_map,
    quat_to_matrix,
    sixd_to_matrix,
)
from .errors import DegenerateInputError
from .probdist import MatrixFisher, fisher_mode

NLERP_FALLBACK = 0.001  # quaternion-sphere angle below which slerp -> nlerp


def _nlerp_pair(q1: UnitQuaternion, q2: UnitQuaternion, t: float,
                unit: bool = False) -> UnitQuaternion:
    """nlerp of q1 and q2 negated onto q1's hemisphere; unit marks the
    second pass, between the normalized endpoints."""
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    if w1 * w2 + x1 * x2 + y1 * y2 + z1 * z2 < 0.0:
        q2 = _tuple_new(UnitQuaternion, (-w2, -x2, -y2, -z2))
        w2, x2, y2, z2 = q2
    if q1 == q2 and math.isfinite(t):  # keep constant paths exactly constant, and unit
        return q1 if abs(q1.dot(q1) - 1.0) <= 1e-15 else q1.normalized()
    w = (1.0 - t) * w1 + t * w2
    x = (1.0 - t) * x1 + t * x2
    y = (1.0 - t) * y1 + t * y2
    z = (1.0 - t) * z1 + t * z2
    n2 = w * w + x * x + y * y + z * z
    if not 1e-300 <= n2 < math.inf:
        if not unit:  # huge, tiny or zero endpoints: blend the normalized pair
            return _nlerp_pair(q1.normalized(), q2.normalized(), t, True)
        # unit endpoints, one hemisphere: n2 >= 1/2, so a huge t overflowed
        # the squares; a finite blend is divided by its largest component
        try:
            w, x, y, z = _rescaled((w, x, y, z), "")
        except DegenerateInputError:
            raise DegenerateInputError(f"nlerp blend is not finite at t={t!r}") from None
        n2 = w * w + x * x + y * y + z * z
    n = math.sqrt(n2)
    return _tuple_new(UnitQuaternion, (w / n, x / n, y / n, z / n))


def slerp(q1: UnitQuaternion, q2: UnitQuaternion, t: float) -> UnitQuaternion:
    """Constant-speed geodesic between unit quaternions.

    q2 is negated first when q1.q2 < 0 so the short arc is taken; below
    an arc of 0.001 rad on the quaternion sphere the sin weights are
    ill-conditioned and nlerp is returned instead (identical to slerp at
    that separation to well below 1e-12). Huge or tiny endpoints, whose
    blend's squared norm leaves [1e-300, inf), are normalized first.
    Written out on the unpacked endpoints, with no helper calls.
    """
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    d = w1 * w2 + x1 * x2 + y1 * y2 + z1 * z2
    if d < 0.0:
        d = -d
        w2, x2, y2, z2 = -w2, -x2, -y2, -z2
    upsilon = math.acos(1.0 if d > 1.0 else d)  # a NaN d stays NaN
    if upsilon < NLERP_FALLBACK:
        return _nlerp_pair(q1, q2, t)
    s = math.sin(upsilon)
    try:
        k1 = math.sin((1.0 - t) * upsilon) / s
        k2 = math.sin(t * upsilon) / s
    except ValueError:  # sin of an infinite t * upsilon
        k1 = k2 = math.nan
    w = k1 * w1 + k2 * w2
    x = k1 * x1 + k2 * x2
    y = k1 * y1 + k2 * y2
    z = k1 * z1 + k2 * z2
    n2 = w * w + x * x + y * y + z * z
    if not 1e-300 <= n2 < math.inf:
        if not math.isfinite(t):
            raise DegenerateInputError(f"slerp blend is not finite at t={t!r}")
        return slerp(q1.normalized(), q2.normalized(), t)
    n = math.sqrt(n2)
    return _tuple_new(UnitQuaternion, (w / n, x / n, y / n, z / n))


def nlerp(q1: UnitQuaternion, q2: UnitQuaternion, t: float) -> UnitQuaternion:
    """Normalized linear blend on the hemisphere-corrected pair.

    Agrees with slerp to O(upsilon^3) (max deviation ~0.032 upsilon^3 rad
    in rotation space), hence indistinguishable at small separations.
    A blend whose squared norm leaves [1e-300, inf) is taken again
    between the normalized endpoints, where a zero endpoint raises.
    """
    return _nlerp_pair(q1, q2, t)


def matrix_geodesic(r1: RotationMatrix, r2: RotationMatrix, t: float) -> RotationMatrix:
    """R(t) = R1 exp(t log(R1^T R2)): the shortest path on SO(3)."""
    return _geodesic_at(r1, log_map(matrix_mul(r1.transpose(), r2)).v, t)


def _geodesic_at(r1: RotationMatrix, v, t: float) -> RotationMatrix:
    """R1 exp(t v), with v = log(R1^T R2) computed by the caller."""
    return matrix_mul(r1, exp_map(_tuple_new(RotationVector,
                                             ((v[0] * t, v[1] * t, v[2] * t),))))


def linear_rotation_vector(v1: RotationVector, v2: RotationVector,
                           t: float) -> RotationMatrix:
    """exp of the affine blend (1-t) v1 + t v2; geodesic only when the
    endpoints' rotation vectors are parallel."""
    # equal endpoints: a constant path, exactly constant at every finite t
    blend = v1 if v1 == v2 and math.isfinite(t) else _tuple_new(RotationVector, ((
        (1.0 - t) * v1.v[0] + t * v2.v[0],
        (1.0 - t) * v1.v[1] + t * v2.v[1],
        (1.0 - t) * v1.v[2] + t * v2.v[2],
    ),))
    return exp_map(blend)


def linear_sixd(s1: SixD, s2: SixD, t: float) -> RotationMatrix:
    """Affine blend of both 6D columns followed by Gram-Schmidt."""
    # equal endpoints: a constant path, exactly constant at every finite t
    blend = s1 if s1 == s2 and math.isfinite(t) else _tuple_new(SixD, (
        ((1.0 - t) * s1.a1[0] + t * s2.a1[0],
         (1.0 - t) * s1.a1[1] + t * s2.a1[1],
         (1.0 - t) * s1.a1[2] + t * s2.a1[2]),
        ((1.0 - t) * s1.a2[0] + t * s2.a2[0],
         (1.0 - t) * s1.a2[1] + t * s2.a2[1],
         (1.0 - t) * s1.a2[2] + t * s2.a2[2]),
    ))
    try:
        return sixd_to_matrix(blend)
    except DegenerateInputError as exc:
        raise DegenerateInputError(f"6D blend degenerate at t={t!r}: {exc}") from exc


def linear_euler(e1: EulerAngles, e2: EulerAngles, t: float) -> EulerAngles:
    """Component-wise linear Euler angles of one convention, each
    travelling its shorter arc. Not a geodesic; behaves badly near the
    gimbal band by design. A blend or an angle difference that leaves
    the float range raises DegenerateInputError."""
    if e1.convention is not e2.convention:
        raise DegenerateInputError("euler endpoints use different conventions")
    try:
        a = e1.alpha + t * wrap_angle(e2.alpha - e1.alpha)
        b = e1.beta + t * wrap_angle(e2.beta - e1.beta)
        g = e1.gamma + t * wrap_angle(e2.gamma - e1.gamma)
    except ValueError:  # fmod of an angle difference beyond the float range
        a = b = g = math.nan
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(g)):
        raise DegenerateInputError(f"linear-euler blend is not finite at t={t!r}")
    return _tuple_new(EulerAngles, (a, b, g, e1.convention))


def fisher_blend(f1: MatrixFisher, f2: MatrixFisher, t: float) -> MatrixFisher:
    """Affine blend of the natural-parameter matrices; a blend that
    leaves the float range raises DegenerateInputError."""
    if np.array_equal(f1.f, f2.f) and math.isfinite(t):  # a constant path
        return f1
    with np.errstate(over="ignore", invalid="ignore"):
        f = (1.0 - t) * f1.f + t * f2.f
    if not np.isfinite(f).all():
        raise DegenerateInputError(f"fisher blend is not finite at t={t!r}")
    return MatrixFisher(f)


SLERP = "slerp"
NLERP = "nlerp"
MATRIX_GEODESIC = "matrix-geodesic"
LINEAR_ROTATION_VECTOR = "linear-rotation-vector"
LINEAR_SIXD = "linear-sixd"
LINEAR_EULER = "linear-euler"
FISHER_BLEND = "fisher-blend"

# method -> (tag of the endpoints, native function, map of the native
# value to a rotation matrix or None when it already is one); the
# fisher-blend endpoints are MatrixFisher parameters, not a tag
_METHODS = {
    SLERP: (QUAT, slerp, quat_to_matrix),
    NLERP: (QUAT, nlerp, quat_to_matrix),
    MATRIX_GEODESIC: (MATRIX, matrix_geodesic, None),
    LINEAR_ROTATION_VECTOR: (ROTVEC, linear_rotation_vector, None),
    LINEAR_SIXD: (SIXD, linear_sixd, None),
    LINEAR_EULER: (EULER_ZYX, linear_euler, euler_to_matrix),
    FISHER_BLEND: (None, fisher_blend, fisher_mode),
}
INTERPOLATION_METHODS = tuple(_METHODS)


def _method(name: str):
    spec = _METHODS.get(name)
    if spec is None:
        raise DegenerateInputError(f"unknown interpolation method {name!r}")
    return spec


@dataclass(frozen=True)
class Interpolator:
    """Uniform front-end over one interpolation family.

    eval(t) always yields a rotation matrix (for fisher-blend, the mode
    of the blended distribution); eval_native(t) yields the method's own
    representation. Endpoint evaluation is exact. Construction resolves
    the method (an unknown one raises DegenerateInputError) and computes
    the geodesic's log(R1^T R2) once.
    """

    method: str
    start: Any = field(repr=False)
    end: Any = field(repr=False)
    # t -> native value, and its map to a matrix (None if it is one)
    _path: Any = field(init=False, repr=False, compare=False)
    _to_matrix: Any = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _, native, to_matrix = _method(self.method)
        if self.method == MATRIX_GEODESIC:
            rel = log_map(matrix_mul(self.start.transpose(), self.end)).v
            path = partial(_geodesic_at, self.start, rel)
        else:
            path = partial(native, self.start, self.end)
        object.__setattr__(self, "_path", path)
        object.__setattr__(self, "_to_matrix", to_matrix)

    def eval_native(self, t: float):
        return self._path(t)

    def eval(self, t: float) -> RotationMatrix:
        value = self._path(t)
        to_matrix = self._to_matrix
        return value if to_matrix is None else to_matrix(value)


def make_interpolator(method: str, start, end) -> Interpolator:
    """Build an Interpolator from rotation-matrix endpoints (or
    MatrixFisher endpoints for fisher-blend), converting to the method's
    native representation once up front."""
    tag = _method(method)[0]
    if tag is None:
        if not (isinstance(start, MatrixFisher) and isinstance(end, MatrixFisher)):
            raise DegenerateInputError(
                f"{method} endpoints must be MatrixFisher parameters")
        return Interpolator(method, start, end)
    if not (isinstance(start, RotationMatrix) and isinstance(end, RotationMatrix)):
        raise DegenerateInputError(
            f"{method} endpoints must be RotationMatrix values")
    from_matrix = _BY_TAG[tag].from_matrix
    return Interpolator(method, from_matrix(start), from_matrix(end))
