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
    return _geodesic_path(r1, r2)(t)


def _geodesic_path(r1: RotationMatrix, r2: RotationMatrix):
    """t -> matrix_geodesic(r1, r2, t), log(R1^T R2) taken once."""
    x, y, z = log_map(matrix_mul(r1.transpose(), r2)).v
    return lambda t: matrix_mul(r1, exp_map(_tuple_new(RotationVector,
                                                       ((x * t, y * t, z * t),))))


def linear_rotation_vector(v1: RotationVector, v2: RotationVector,
                           t: float) -> RotationMatrix:
    """exp of the affine blend (1-t) v1 + t v2; geodesic only when the
    endpoints' rotation vectors are parallel."""
    return _rotvec_path(v1, v2)(t)


def _rotvec_path(v1: RotationVector, v2: RotationVector):
    """t -> linear_rotation_vector(v1, v2, t)."""
    x1, y1, z1 = v1.v
    x2, y2, z2 = v2.v
    same = v1 == v2  # a constant path, exactly constant at every finite t

    def path(t):
        v = (x1, y1, z1) if same and math.isfinite(t) else (
            (1.0 - t) * x1 + t * x2, (1.0 - t) * y1 + t * y2, (1.0 - t) * z1 + t * z2)
        return exp_map(_tuple_new(RotationVector, (v,)))
    return path


def linear_sixd(s1: SixD, s2: SixD, t: float) -> RotationMatrix:
    """Affine blend of both 6D columns followed by Gram-Schmidt."""
    return _sixd_path(s1, s2)(t)


def _sixd_path(s1: SixD, s2: SixD):
    """t -> linear_sixd(s1, s2, t)."""
    (x1, y1, z1), (u1, v1, w1) = s1
    (x2, y2, z2), (u2, v2, w2) = s2
    same = s1 == s2  # a constant path, exactly constant at every finite t

    def path(t):
        blend = ((x1, y1, z1), (u1, v1, w1)) if same and math.isfinite(t) else (
            ((1.0 - t) * x1 + t * x2, (1.0 - t) * y1 + t * y2, (1.0 - t) * z1 + t * z2),
            ((1.0 - t) * u1 + t * u2, (1.0 - t) * v1 + t * v2, (1.0 - t) * w1 + t * w2))
        try:
            return sixd_to_matrix(_tuple_new(SixD, blend))
        except DegenerateInputError as exc:
            raise DegenerateInputError(f"6D blend degenerate at t={t!r}: {exc}") from exc
    return path


def linear_euler(e1: EulerAngles, e2: EulerAngles, t: float) -> EulerAngles:
    """Component-wise linear Euler angles of one convention, each
    travelling its shorter arc. Not a geodesic; behaves badly near the
    gimbal band by design. A blend or an angle difference that leaves
    the float range raises DegenerateInputError."""
    return _euler_path(e1, e2)(t)


def _euler_path(e1: EulerAngles, e2: EulerAngles):
    """t -> linear_euler(e1, e2, t)."""
    alpha, beta, gamma, convention = e1
    a2, b2, g2, other = e2
    if convention is not other:
        raise DegenerateInputError("euler endpoints use different conventions")
    try:
        da, db, dg = wrap_angle(a2 - alpha), wrap_angle(b2 - beta), wrap_angle(g2 - gamma)
    except ValueError:  # fmod of an angle difference beyond the float range
        da = db = dg = math.nan

    def path(t):
        a = alpha + t * da
        b = beta + t * db
        g = gamma + t * dg
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(g)):
            raise DegenerateInputError(f"linear-euler blend is not finite at t={t!r}")
        return _tuple_new(EulerAngles, (a, b, g, convention))
    return path


def fisher_blend(f1: MatrixFisher, f2: MatrixFisher, t: float) -> MatrixFisher:
    """Affine blend of the natural-parameter matrices; a blend that
    leaves the float range raises DegenerateInputError. numpy and
    probdist are imported here and in _fisher_mode, so the rotation
    paths never load them."""
    import numpy as np
    from .probdist import MatrixFisher
    if np.array_equal(f1.f, f2.f) and math.isfinite(t):  # a constant path
        return f1
    with np.errstate(over="ignore", invalid="ignore"):
        f = (1.0 - t) * f1.f + t * f2.f
    if not np.isfinite(f).all():
        raise DegenerateInputError(f"fisher blend is not finite at t={t!r}")
    return MatrixFisher(f)


def _fisher_mode(f: MatrixFisher) -> RotationMatrix:
    from .probdist import fisher_mode
    return fisher_mode(f)


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
    FISHER_BLEND: (None, fisher_blend, _fisher_mode),
}
INTERPOLATION_METHODS = tuple(_METHODS)


# method -> builder of the per-pair path t -> native value, which takes
# the pair's constants once; the others bind the native function
_PAIR_PATHS = {
    MATRIX_GEODESIC: _geodesic_path,
    LINEAR_ROTATION_VECTOR: _rotvec_path,
    LINEAR_SIXD: _sixd_path,
    LINEAR_EULER: _euler_path,
}


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
    the method (an unknown one raises DegenerateInputError) and the
    pair's path, so each eval is one call: _PAIR_PATHS takes the pair's
    constants once, and Euler endpoints of two conventions raise here.
    """

    method: str
    start: Any = field(repr=False)
    end: Any = field(repr=False)
    # t -> native value, and t -> rotation matrix
    _path: Any = field(init=False, repr=False, compare=False)
    _matrix_path: Any = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _, native, to_matrix = _method(self.method)
        pair_path = _PAIR_PATHS.get(self.method)
        path = partial(native, self.start, self.end) if pair_path is None \
            else pair_path(self.start, self.end)
        object.__setattr__(self, "_path", path)
        object.__setattr__(self, "_matrix_path", path if to_matrix is None
                           else lambda t: to_matrix(path(t)))

    def eval_native(self, t: float):
        return self._path(t)

    def eval(self, t: float) -> RotationMatrix:
        return self._matrix_path(t)


def make_interpolator(method: str, start, end) -> Interpolator:
    """Build an Interpolator from rotation-matrix endpoints (or
    MatrixFisher endpoints for fisher-blend), converting to the method's
    native representation once up front."""
    tag = _method(method)[0]
    if tag is None:
        from .probdist import MatrixFisher
        if not (isinstance(start, MatrixFisher) and isinstance(end, MatrixFisher)):
            raise DegenerateInputError(
                f"{method} endpoints must be MatrixFisher parameters")
        return Interpolator(method, start, end)
    if not (isinstance(start, RotationMatrix) and isinstance(end, RotationMatrix)):
        raise DegenerateInputError(
            f"{method} endpoints must be RotationMatrix values")
    from_matrix = _BY_TAG[tag].from_matrix
    return Interpolator(method, from_matrix(start), from_matrix(end))
