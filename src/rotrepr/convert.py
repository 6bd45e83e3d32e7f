"""Conversions between all rotation representations.

Layout is hub-and-spoke: the unit quaternion is the primary hub and the
rotation matrix the secondary one. Every representation has direct
spokes to and from the matrix; axis-angle, the rotation vector and
Euler angles also have direct spokes to and from the quaternion.
One registry entry per representation tag holds its value type, report
row name, arity, storage size, spokes, hub, component order and the
checked inverse of that order; every tag dispatch in the package
(convert, compose_in, interpolation, the benchmark rows and the CLI)
is derived from it, convert's routes once at import.

Every extraction from a matrix (quaternion, axis-angle, rotation
vector, Euler angles) goes through Shoemake's matrix_to_quat once, so
the validity check and the branch on the largest diagonal entry live in
one place. The forward maps (exp_map, Rodrigues, Euler) stay direct.
Their small-angle Taylor branches switch at 1e-4 rad and agree with the
unbranched formula to better than 1e-12 relative at the seam.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .core import (
    DEFAULT_AXIS,
    DETERMINANT_TOL,
    ORTHONORMALITY_TOL,
    TINY_ANGLE,
    XYZ,
    ZYX,
    _CONVENTIONS,
    AxisAngle,
    EulerAngles,
    EulerConvention,
    RotationMatrix,
    RotationVector,
    SixD,
    UnitQuaternion,
    _rescaled,
    _tuple_new,
    canonicalize,
    validity_residuals,
)
from .errors import DegenerateInputError, InvalidRotationError

SMALL_ANGLE = 1e-4        # forward-map Taylor branches
GIMBAL_COS_BETA = 1e-7    # Euler extraction fold band
GRAM_SCHMIDT_TOL = 1e-12
UNIT_NORM_TOL = 1e-6      # quaternion and axis norms accepted from components
_ZERO_QUAT = "zero quaternion does not define a rotation"


# ---------------------------------------------------------------------------
# axis-angle / rotation vector <-> quaternion


# On the quaternion hub a rotation travels as its (w, x, y, z)
# components: a UnitQuaternion, or the plain 4-tuple a spoke returns
# before normalization. compose_in multiplies the plain tuples with the
# raw Hamilton product and reads the result back through a spoke that
# is scale invariant, so the quaternion family composes without
# building intermediate UnitQuaternion objects.


def _hamilton(p, q) -> tuple[float, float, float, float]:
    """Hamilton product pq of two (w, x, y, z) sequences, not normalized."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw)


def _axis_angle_quat(aa: AxisAngle) -> tuple[float, float, float, float]:
    (ux, uy, uz), theta = aa
    half = 0.5 * theta
    if -SMALL_ANGLE < theta < SMALL_ANGLE:
        s = half - theta * theta * theta / 48.0
    else:
        s = math.sin(half)
    return (math.cos(half), ux * s, uy * s, uz * s)


def axis_angle_to_quat(aa: AxisAngle) -> UnitQuaternion:
    """q = (cos(theta/2), u sin(theta/2)), renormalized, with a Taylor
    branch for tiny angles: sin(theta/2) ~ theta/2 - theta^3/48."""
    return UnitQuaternion.normalized(_axis_angle_quat(aa))


def quat_to_axis_angle(q: UnitQuaternion) -> AxisAngle:
    """theta = 2 atan2(|v|, w) after canonicalization, accurate at every
    angle (2 arccos(w) loses all digits of a 1e-9 rad rotation); axis is
    v/|v|, +z for v = 0. At or below 1e-12 rad the squares may underflow,
    so the axis and |v| come from math.hypot. Scale invariant: unless v =
    0 < w < inf, q is divided by its largest |component| where |v|^2
    leaves [1e-300, inf), so a zero or non-finite q there raises DegenerateInputError."""
    w, x, y, z = q
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    elif w == 0.0:
        w, x, y, z = canonicalize(q)
    vn2 = x * x + y * y + z * z
    if not 1e-300 <= vn2 < math.inf and (x or y or z or not 0.0 < w < math.inf):
        w, x, y, z = _rescaled((w, x, y, z), _ZERO_QUAT)
        vn2 = x * x + y * y + z * z
    vn = math.sqrt(vn2)
    theta = 2.0 * math.atan2(vn, w)
    if theta <= TINY_ANGLE:  # hypot: vn2 may be subnormal when w dominates
        theta = 2.0 * math.atan2(math.hypot(x, y, z), w)
        return _tuple_new(AxisAngle, (_tiny_axis(x, y, z), theta))
    return _tuple_new(AxisAngle, ((x / vn, y / vn, z / vn), theta))


def _non_finite_norm(theta: float) -> DegenerateInputError:
    return DegenerateInputError(
        f"rotation vector norm is {theta!r} (finite-norm invariant)")


def _rotation_vector_quat(v: RotationVector) -> tuple[float, float, float, float]:
    vx, vy, vz = v.v
    theta = math.sqrt(vx * vx + vy * vy + vz * vz)
    half = 0.5 * theta
    if theta < SMALL_ANGLE:
        scale = 0.5 - theta * theta / 48.0
    else:
        if not math.isfinite(theta):
            raise _non_finite_norm(theta)
        scale = math.sin(half) / theta
    return (math.cos(half), vx * scale, vy * scale, vz * scale)


def rotation_vector_to_quat(v: RotationVector) -> UnitQuaternion:
    """q = (cos(theta/2), v sin(theta/2)/theta), renormalized; the scale
    folds in the axis normalization, and its Taylor branch 1/2 -
    theta^2/48 below 1e-4 rad maps v = 0 to the identity exactly. A NaN
    or overflowing norm raises DegenerateInputError."""
    return UnitQuaternion.normalized(_rotation_vector_quat(v))


def quat_to_rotation_vector(q: UnitQuaternion) -> RotationVector:
    """Canonical rotation vector (norm <= pi) of q: v/|v| times
    2 atan2(|v|, w) after canonicalization. Scale invariant and
    rejecting as quat_to_axis_angle."""
    w, x, y, z = q
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    elif w == 0.0:
        w, x, y, z = canonicalize(q)
    vn2 = x * x + y * y + z * z
    if not 1e-300 <= vn2 < math.inf and (x or y or z or not 0.0 < w < math.inf):
        w, x, y, z = _rescaled((w, x, y, z), _ZERO_QUAT)
        vn2 = x * x + y * y + z * z
    vn = math.sqrt(vn2)
    if vn == 0.0:
        return _tuple_new(RotationVector, ((0.0, 0.0, 0.0),))
    k = 2.0 * math.atan2(vn, w) / vn
    return _tuple_new(RotationVector, ((x * k, y * k, z * k),))


# ---------------------------------------------------------------------------
# axis-angle / rotation vector <-> matrix


def axis_angle_to_matrix(aa: AxisAngle) -> RotationMatrix:
    """Rodrigues: R = I + sin(theta) [u]x + (1 - cos(theta)) [u]x^2."""
    ux, uy, uz = aa.axis
    c = math.cos(aa.angle)
    s = math.sin(aa.angle)
    omc = 1.0 - c
    return _tuple_new(RotationMatrix, ((
        (c + ux * ux * omc, ux * uy * omc - uz * s, ux * uz * omc + uy * s),
        (uy * ux * omc + uz * s, c + uy * uy * omc, uy * uz * omc - ux * s),
        (uz * ux * omc - uy * s, uz * uy * omc + ux * s, c + uz * uz * omc),
    ),))


def exp_map(v: RotationVector) -> RotationMatrix:
    """Matrix exponential of [v]x via Rodrigues coefficients.

    For theta < 1e-4 the coefficients sin(theta)/theta and
    (1 - cos(theta))/theta^2 are replaced by 2-term Taylor series, so the
    map is exact at v = 0 and smooth through the seam. A NaN or
    overflowing norm raises DegenerateInputError.
    """
    vx, vy, vz = v.v
    theta2 = vx * vx + vy * vy + vz * vz
    theta = math.sqrt(theta2)
    if theta < SMALL_ANGLE:
        a = 1.0 - theta2 / 6.0
        b = 0.5 - theta2 / 24.0
    else:
        if not math.isfinite(theta):
            raise _non_finite_norm(theta)
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / theta2
    # I + a [v]x + b [v]x^2 expanded entry-wise
    return _tuple_new(RotationMatrix, ((
        (1.0 - b * (vy * vy + vz * vz), b * vx * vy - a * vz, b * vx * vz + a * vy),
        (b * vx * vy + a * vz, 1.0 - b * (vx * vx + vz * vz), b * vy * vz - a * vx),
        (b * vx * vz - a * vy, b * vy * vz + a * vx, 1.0 - b * (vx * vx + vy * vy)),
    ),))


def log_map(r: RotationMatrix) -> RotationVector:
    """Rotation vector of r, canonical chart (norm <= pi): Shoemake's
    matrix_to_quat, then quat_to_rotation_vector's 2 atan2(|v|, w). No
    branch on the angle: for a matrix rounded once from an exact
    rotation the result is within 4 eps theta of theta u from 1e-14 rad
    up to and including pi. Raises InvalidRotationError where
    matrix_to_quat does."""
    return quat_to_rotation_vector(matrix_to_quat(r))


def canonicalize_rotation_vector(v: RotationVector) -> RotationVector:
    """Wrap into the canonical chart ||v|| <= pi.

    A vector whose norm is not finite (NaN, or overflowing to inf) has no
    angle to wrap and raises DegenerateInputError.
    """
    theta = v.norm()
    if theta <= math.pi:
        return v
    if not math.isfinite(theta):
        raise _non_finite_norm(theta)
    wrapped = math.fmod(theta, 2.0 * math.pi)
    if wrapped > math.pi:
        wrapped -= 2.0 * math.pi
    scale = wrapped / theta
    return _tuple_new(RotationVector,
                      ((v.v[0] * scale, v.v[1] * scale, v.v[2] * scale),))


def axis_angle_to_rotation_vector(aa: AxisAngle) -> RotationVector:
    return _tuple_new(RotationVector, ((aa.axis[0] * aa.angle, aa.axis[1] * aa.angle,
                                        aa.axis[2] * aa.angle),))


def _tiny_axis(x: float, y: float, z: float) -> tuple[float, float, float]:
    """Unit axis of a tiny vector part, scaled by its largest |component|
    first so subnormal parts keep it unit; +z for the zero vector."""
    m = max(abs(x), abs(y), abs(z))
    if m == 0.0:
        return DEFAULT_AXIS
    x, y, z = x / m, y / m, z / m
    n = math.hypot(x, y, z)
    return (x / n, y / n, z / n)


def rotation_vector_to_axis_angle(v: RotationVector) -> AxisAngle:
    """theta = |v| and axis v/theta; at or below 1e-12 rad the axis goes
    through math.hypot (+z for v = 0), so a tiny rotation keeps it."""
    theta = v.norm()
    if theta <= TINY_ANGLE:
        return _tuple_new(AxisAngle, (_tiny_axis(*v.v), theta))
    if not math.isfinite(theta):
        raise _non_finite_norm(theta)
    return _tuple_new(AxisAngle,
                      ((v.v[0] / theta, v.v[1] / theta, v.v[2] / theta), theta))


# ---------------------------------------------------------------------------
# quaternion <-> matrix


def quat_to_matrix(q: UnitQuaternion) -> RotationMatrix:
    """R = (w^2 - |v|^2) I + 2 v v^T + 2 w [v]x.

    Every entry is a sum of two-component products, so R(q) and R(-q) are
    bit-for-bit identical. The quaternion is renormalized internally,
    rescaled first by its largest component where n2 would overflow or
    underflow; a zero or non-finite quaternion is degenerate input.
    """
    w, x, y, z = q
    n2 = w * w + x * x + y * y + z * z
    if not 1e-300 <= n2 < math.inf:
        w, x, y, z = _rescaled((w, x, y, z), _ZERO_QUAT)
        n2 = w * w + x * x + y * y + z * z
    n = math.sqrt(n2)
    w, x, y, z = w / n, x / n, y / n, z / n
    a = w * w - (x * x + y * y + z * z)
    return _tuple_new(RotationMatrix, ((
        (a + 2.0 * x * x, 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)),
        (2.0 * (x * y + w * z), a + 2.0 * y * y, 2.0 * (y * z - w * x)),
        (2.0 * (x * z - w * y), 2.0 * (y * z + w * x), a + 2.0 * z * z),
    ),))


def matrix_to_quat(r: RotationMatrix) -> UnitQuaternion:
    """Shoemake extraction: the trace branch when tr(R) > 0, otherwise
    the branch of the largest diagonal entry. Output is canonicalized.

    Rejects with InvalidRotationError every matrix that validate()
    rejects, including any with a NaN or infinite entry.
    """
    (a, b, c), (d, e, f), (g, h, i) = r.rows
    # the residuals of core.validity_residuals, written out on the
    # unpacked entries so the check and the extraction read them once
    g00 = a * a + d * d + g * g - 1.0
    g11 = b * b + e * e + h * h - 1.0
    g22 = c * c + f * f + i * i - 1.0
    g01 = a * b + d * e + g * h
    g02 = a * c + d * f + g * i
    g12 = b * c + e * f + h * i
    orth = math.sqrt(g00 * g00 + g11 * g11 + g22 * g22
                     + 2.0 * (g01 * g01 + g02 * g02 + g12 * g12))
    det_res = abs(a * (e * i - f * h) - b * (d * i - f * g)
                  + c * (d * h - e * g) - 1.0)
    if not (orth <= ORTHONORMALITY_TOL and det_res <= DETERMINANT_TOL):
        raise InvalidRotationError(
            "matrix_to_quat input is not a rotation "
            f"(orthogonality residual {orth:.3e}, "
            f"determinant residual {det_res:.3e})")
    tr = a + e + i
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0  # 4 w
        w = 0.25 * s
        x = (h - f) / s
        y = (c - g) / s
        z = (d - b) / s
    elif a > e and a > i:
        s = math.sqrt(1.0 + a - e - i) * 2.0  # 4 x
        w = (h - f) / s
        x = 0.25 * s
        y = (b + d) / s
        z = (c + g) / s
    elif e > i:
        s = math.sqrt(1.0 + e - a - i) * 2.0  # 4 y
        w = (c - g) / s
        x = (b + d) / s
        y = 0.25 * s
        z = (f + h) / s
    else:
        s = math.sqrt(1.0 + i - a - e) * 2.0  # 4 z
        w = (d - b) / s
        x = (c + g) / s
        y = (f + h) / s
        z = 0.25 * s
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if w < 0.0:
        n = -n
    q = _tuple_new(UnitQuaternion, (w / n, x / n, y / n, z / n))
    return canonicalize(q) if w == 0.0 else q


# ---------------------------------------------------------------------------
# Euler <-> quaternion and matrix


def _euler_quat(e: EulerAngles) -> tuple[float, float, float, float]:
    # the half-angle quaternion product, written out for ZYX and XYZ
    alpha, beta, gamma, conv = e
    if conv is not ZYX and conv is not XYZ:
        if type(conv) is not EulerConvention:
            raise DegenerateInputError(f"not an EulerConvention: {conv!r}")
        axes, intrinsic = conv
        angles = (alpha, beta, gamma)
        q = (1.0, 0.0, 0.0, 0.0)
        for k in ((0, 1, 2) if intrinsic else (2, 1, 0)):
            factor = [math.cos(0.5 * angles[k]), 0.0, 0.0, 0.0]
            factor["XYZ".index(axes[k]) + 1] = math.sin(0.5 * angles[k])
            q = _hamilton(q, factor)
        return q
    h = 0.5 * alpha
    ca, sa = math.cos(h), math.sin(h)
    h = 0.5 * beta
    cb, sb = math.cos(h), math.sin(h)
    h = 0.5 * gamma
    cg, sg = math.cos(h), math.sin(h)
    if conv is ZYX:
        return (ca * cb * cg + sa * sb * sg, ca * cb * sg - sa * sb * cg,
                ca * sb * cg + sa * cb * sg, sa * cb * cg - ca * sb * sg)
    return (ca * cb * cg - sa * sb * sg, sa * cb * cg + ca * sb * sg,
            ca * sb * cg - sa * cb * sg, ca * cb * sg + sa * sb * cg)


def euler_to_quat(e: EulerAngles) -> UnitQuaternion:
    """q_a(alpha) q_b(beta) q_c(gamma) for intrinsic axes "abc", the
    name-order product as in euler_to_matrix, renormalized."""
    return UnitQuaternion.normalized(_euler_quat(e))


def euler_to_matrix(e: EulerAngles) -> RotationMatrix:
    """Compose elementary rotations per the convention.

    Intrinsic conventions multiply in name order (ZYX with (a, b, g) is
    Rz(a) Ry(b) Rx(g)), extrinsic ones in reverse. ZYX and XYZ use the
    symbolically expanded product, the rest the quaternion product.
    """
    alpha, beta, gamma, conv = e
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    cg, sg = math.cos(gamma), math.sin(gamma)
    if conv is ZYX:
        return _tuple_new(RotationMatrix, ((
            (ca * cb, ca * sb * sg - sa * cg, ca * sb * cg + sa * sg),
            (sa * cb, sa * sb * sg + ca * cg, sa * sb * cg - ca * sg),
            (-sb, cb * sg, cb * cg),
        ),))
    if conv is XYZ:
        return _tuple_new(RotationMatrix, ((
            (cb * cg, -cb * sg, sb),
            (ca * sg + sa * sb * cg, ca * cg - sa * sb * sg, -sa * cb),
            (sa * sg - ca * sb * cg, sa * cg + ca * sb * sg, ca * cb),
        ),))
    return quat_to_matrix(_euler_quat(e))


def _euler_spoke(convention: EulerConvention) -> Callable:
    """quat_to_euler bound once to a convention: a spoke from a (w, x, y,
    z) sequence to EulerAngles. It reads the convention extrinsically, as
    intrinsic "abc" with (a, b, g) is extrinsic "cba" with (g, b, a): (i,
    j, k) index in q its first and middle axes and the remaining one, and
    parity is +1 when j follows i cyclically. Proper sequences (i = third
    axis) skip the Tait-Bryan component shift, the -pi/2 offset and the
    parity sign on the last angle."""
    axes, intrinsic = convention
    i, j, k = ("XYZ".index(axis) + 1 for axis in (axes[::-1] if intrinsic else axes))
    proper, k = i == k, 6 - i - j
    parity = 1.0 if (j - i) % 3 == 1 else -1.0
    sign, offset = (1.0, 0.0) if proper else (parity, 0.5 * math.pi)

    def spoke(q) -> EulerAngles:
        w, qi, qj, qk = q[0], q[i], q[j], q[k] * parity
        if proper:
            a, b, c, d = w, qi, qj, qk
        else:
            a, b, c, d = w - qj, qi + qk, qj + w, qk - qi
        hab, hcd = math.hypot(a, b), math.hypot(c, d)
        h = math.hypot(hab, hcd)
        if not 1e-300 <= h < math.inf:  # huge, tiny, zero or not finite
            return spoke(_rescaled(q, _ZERO_QUAT))
        half_sum = math.atan2(b, a)
        half_diff = math.atan2(d, c)
        if 2.0 * (hab / h) * (hcd / h) < GIMBAL_COS_BETA:  # |cos beta|, |sin beta| if proper
            first = 0.0  # the rotation applied first
            last = 2.0 * (half_sum if hab > hcd else half_diff)
        else:
            first = half_sum - half_diff
            last = half_sum + half_diff
        # both lie in [-2 pi, 2 pi]; the IEEE remainder wraps them exactly
        last = sign * math.remainder(last, math.tau)
        first = math.remainder(first, math.tau)
        beta = 2.0 * math.atan2(hcd, hab) - offset
        return _tuple_new(EulerAngles, (last, beta, first, convention) if intrinsic
                          else (first, beta, last, convention))
    return spoke


# one spoke per interned convention, keyed by identity; None means ZYX
_EULER_SPOKES = {id(conv): _euler_spoke(conv) for conv in _CONVENTIONS.values()}
_EULER_SPOKES[id(None)] = _EULER_SPOKES[id(ZYX)]


def quat_to_euler(q, convention: EulerConvention | None = None) -> EulerAngles:
    """Angles in any of the 24 conventions (default intrinsic ZYX) of the
    (w, x, y, z) sequence q, after Bernardes & Viollet (2022, PLoS ONE
    17(11)): from component pairs (a, b) and (c, d), beta = 2 atan2(|(c,
    d)|, |(a, b)|), less pi/2 for Tait-Bryan sequences, and atan2(b, a)
    and atan2(d, c) are the half sum and half difference of the outer
    angles, so their sum or difference, all a rotation near the fold pins
    down, comes from the well-conditioned pair. Scale invariant: where
    |(a, b, c, d)| leaves [1e-300, inf), q is divided by its largest
    |component|, so a zero or non-finite q raises DegenerateInputError.
    alpha and gamma in [-pi, pi]. In the gimbal band, |cos beta| < 1e-7
    (|sin beta| for proper sequences), the angle applied first (gamma if
    intrinsic, alpha if extrinsic) is zero and the other absorbs the free
    rotation, exact at the fold and O(|cos beta|) (|sin beta|) in the band."""
    spoke = _EULER_SPOKES.get(id(convention))
    if spoke is None:
        raise DegenerateInputError(f"not an EulerConvention: {convention!r}")
    return spoke(q)


def matrix_to_euler(r: RotationMatrix,
                    convention: EulerConvention | None = None) -> EulerAngles:
    """Angles of r in any convention (default intrinsic ZYX): Shoemake's
    matrix_to_quat, then quat_to_euler. Raises InvalidRotationError where
    matrix_to_quat does."""
    return quat_to_euler(matrix_to_quat(r), convention)


# ---------------------------------------------------------------------------
# 6D <-> matrix


def sixd_to_matrix(s: SixD) -> RotationMatrix:
    """Gram-Schmidt recovery: b1 = a1/|a1|, b2 = normalized rejection of
    a2 from b1, b3 = b1 x b2, assembled as columns. Plain floats (on
    3-vectors numpy's call overhead outweighs the arithmetic). hypot
    keeps the norms of huge columns from overflowing; where a norm still
    does, or is at most GRAM_SCHMIDT_TOL, both columns are rescaled
    first (see _sixd_rescaled). Columns whose rejection is at most
    GRAM_SCHMIDT_TOL times their projection are parallel at any scale
    and raise DegenerateInputError."""
    x1, y1, z1 = s.a1
    x2, y2, z2 = s.a2
    n1 = math.hypot(x1, y1, z1)
    if not GRAM_SCHMIDT_TOL < n1 < math.inf:
        return _sixd_rescaled(s)
    x1, y1, z1 = x1 / n1, y1 / n1, z1 / n1
    p = x1 * x2 + y1 * y2 + z1 * z2
    x2, y2, z2 = x2 - p * x1, y2 - p * y1, z2 - p * z1
    n2 = math.hypot(x2, y2, z2)
    if n2 < 1e-3 * abs(p):
        # nearly parallel columns: one pass leaves the rejection off
        # orthogonal by eps/angle, a second pass restores it; a rejection
        # at most GRAM_SCHMIDT_TOL |p| is rounding noise at any scale
        q = x1 * x2 + y1 * y2 + z1 * z2
        x2, y2, z2 = x2 - q * x1, y2 - q * y1, z2 - q * z1
        n2 = math.hypot(x2, y2, z2)
        if n2 <= GRAM_SCHMIDT_TOL * abs(p):
            raise DegenerateInputError(
                "6D columns are parallel; Gram-Schmidt is ill-posed")
    if not GRAM_SCHMIDT_TOL < n2 < math.inf:
        return _sixd_rescaled(s)
    x2, y2, z2 = x2 / n2, y2 / n2, z2 / n2
    return _tuple_new(RotationMatrix, ((
        (x1, x2, y1 * z2 - z1 * y2),
        (y1, y2, z1 * x2 - x1 * z2),
        (z1, z2, x1 * y2 - y1 * x2),
    ),))


def _sixd_rescaled(s: SixD) -> RotationMatrix:
    """sixd_to_matrix with each column divided by its largest |component|
    (Gram-Schmidt is invariant to a positive scale of either column), so
    no norm or projection overflows or falls to GRAM_SCHMIDT_TOL by
    scale alone. Raises DegenerateInputError for a non-finite component
    or a zero column. Rescaled columns have norms in [1, sqrt(3)], so
    they come back here only when parallel, which sixd_to_matrix has
    already raised on."""
    if not all(map(math.isfinite, s.a1 + s.a2)):
        raise DegenerateInputError(f"6D columns {s.a1 + s.a2!r} are not finite")
    m1, m2 = max(map(abs, s.a1)), max(map(abs, s.a2))
    if m1 == 0.0:
        raise DegenerateInputError("6D first column is numerically zero")
    if m2 == 0.0:
        raise DegenerateInputError("6D columns are parallel; Gram-Schmidt is ill-posed")
    return sixd_to_matrix(_tuple_new(SixD, (tuple(c / m1 for c in s.a1),
                                            tuple(c / m2 for c in s.a2))))


def matrix_to_sixd(r: RotationMatrix) -> SixD:
    """First two columns of the rotation, unchecked: convert(m, "sixd")
    validates m first."""
    (a, b, _), (d, e, _), (g, h, _) = r.rows
    return _tuple_new(SixD, ((a, d, g), (b, e, h)))


# ---------------------------------------------------------------------------
# from_components: each tag's constraint set, checked on `arity` finite
# scalars in components() order: a value of the entry's type, or RotationError


def _checked_quat(c) -> UnitQuaternion:
    q = UnitQuaternion(*c)
    n = q.norm()
    if n == 0.0:
        raise DegenerateInputError("zero quaternion violates the unit-norm invariant")
    if not abs(n - 1.0) <= UNIT_NORM_TOL:
        raise InvalidRotationError(f"quaternion norm {n!r} deviates from 1 beyond "
                                   "1e-6 (unit-norm invariant)")
    return q


def _checked_matrix(m: RotationMatrix) -> RotationMatrix:
    """m itself if both validity_residuals are within 1e-9, else
    InvalidRotationError: the one matrix check outside matrix_to_quat."""
    orth, det_res = validity_residuals(m.rows)
    if not (orth <= ORTHONORMALITY_TOL and det_res <= DETERMINANT_TOL):
        raise InvalidRotationError(
            "matrix violates the rotation invariants (orthogonality "
            f"residual {orth:.3e}, determinant residual {det_res:.3e})")
    return m


def _checked_axis_angle(c) -> AxisAngle:
    """Angle in [0, pi]; above 1e-12 rad an axis within 1e-6 of unit,
    normalized, at or below it any axis through _tiny_axis. The kernels
    take the unit axis as a precondition and do not check it again."""
    x, y, z, theta = c
    if not 0.0 <= theta <= math.pi:
        raise InvalidRotationError(
            f"axis-angle angle {theta!r} violates the [0, pi] invariant")
    if theta <= TINY_ANGLE:
        return _tuple_new(AxisAngle, (_tiny_axis(x, y, z), theta))
    n = math.sqrt(x * x + y * y + z * z)
    if not abs(n - 1.0) <= UNIT_NORM_TOL:
        raise InvalidRotationError(
            f"axis norm {n!r} deviates from 1 beyond 1e-6 (unit-axis invariant)")
    return _tuple_new(AxisAngle, ((x / n, y / n, z / n), theta))


def _checked_rotvec(c) -> RotationVector:
    try:
        return canonicalize_rotation_vector(_tuple_new(RotationVector, (tuple(c),)))
    except DegenerateInputError as exc:
        raise DegenerateInputError(f"rotvec value: {exc}") from exc


def _checked_sixd(c) -> SixD:
    s = _tuple_new(SixD, (tuple(c[0:3]), tuple(c[3:6])))
    try:
        sixd_to_matrix(s)
    except DegenerateInputError as exc:
        raise DegenerateInputError(f"sixd value is degenerate: {exc}") from exc
    return s


# ---------------------------------------------------------------------------
# the representation registry and generic dispatch

QUAT = "quat"
MATRIX = "matrix"
EULER_ZYX = "euler-zyx"
EULER_XYZ = "euler-xyz"
AXIS_ANGLE = "axis-angle"
ROTVEC = "rotvec"
SIXD = "sixd"

Representation = (UnitQuaternion | RotationMatrix | EulerAngles | AxisAngle
                  | RotationVector | SixD)


class _Rep(NamedTuple):
    """One representation: the single source of every tag dispatch."""

    tag: str
    row: str | None           # benchmark report row; euler-xyz has none
    type: type
    convention: EulerConvention | None
    arity: int                # scalars in components() order
    storage_bytes: int
    components: Callable      # value -> flat scalar tuple (CLI order)
    from_components: Callable  # its checked inverse, or RotationError
    to_matrix: Callable
    from_matrix: Callable
    hub: str                  # QUAT or MATRIX: where compose_in multiplies
    to_hub: Callable
    from_hub: Callable


def _same(value):
    return value


def _chain(f, *rest) -> Callable:
    """f, then each of rest, as one callable; _same hops dropped."""
    if not rest:
        return f
    g = _chain(*rest)
    return g if f is _same else f if g is _same else lambda value: g(f(value))


def _entry(tag, row, value_type, arity, storage_bytes, components, from_components,
           to_matrix, from_matrix, quat_spokes=None, convention=None) -> _Rep:
    """quat_spokes (to_quat, from_quat) put the entry on the quaternion
    hub; the others compose through the matrix. from_components checks
    the component count before the entry's own check."""
    hub, (to_hub, from_hub) = ((QUAT, quat_spokes) if quat_spokes
                               else (MATRIX, (to_matrix, from_matrix)))

    def counted(c):
        if len(c) != arity:
            raise DegenerateInputError(f"{tag} takes {arity} components, got {len(c)}")
        return from_components(c)
    return _Rep(tag, row, value_type, convention, arity, storage_bytes, components,
                counted, to_matrix, from_matrix, hub, to_hub, from_hub)


def _euler_entry(tag, row, convention) -> _Rep:
    """Euler angles have no constraint to check: an entry binds a convention."""
    spoke = _EULER_SPOKES[id(convention)]
    return _entry(tag, row, EulerAngles, 3, 24, EulerAngles.as_tuple,
                  lambda c: EulerAngles(*c, convention=convention), euler_to_matrix,
                  _chain(matrix_to_quat, spoke), quat_spokes=(_euler_quat, spoke),
                  convention=convention)


_REGISTRY = (
    _entry(QUAT, "quaternion", UnitQuaternion, 4, 32, UnitQuaternion.as_tuple,
           _checked_quat, quat_to_matrix, matrix_to_quat,
           quat_spokes=(_same, UnitQuaternion.normalized)),
    _entry(MATRIX, "matrix", RotationMatrix, 9, 72, RotationMatrix.as_flat,
           lambda c: _checked_matrix(RotationMatrix.from_rows((c[:3], c[3:6], c[6:]))),
           _same, _same),
    _euler_entry(EULER_ZYX, "euler", ZYX),
    _euler_entry(EULER_XYZ, None, XYZ),
    _entry(AXIS_ANGLE, "axis-angle", AxisAngle, 4, 24, AxisAngle.as_tuple,
           _checked_axis_angle, axis_angle_to_matrix,
           lambda r: quat_to_axis_angle(matrix_to_quat(r)),
           quat_spokes=(_axis_angle_quat, quat_to_axis_angle)),
    _entry(ROTVEC, "exp-map", RotationVector, 3, 24, RotationVector.as_tuple,
           _checked_rotvec, exp_map, log_map,
           quat_spokes=(_rotation_vector_quat, quat_to_rotation_vector)),
    _entry(SIXD, "sixd", SixD, 6, 48, SixD.as_tuple, _checked_sixd, sixd_to_matrix,
           matrix_to_sixd),
)

REPRESENTATION_TAGS = tuple(rep.tag for rep in _REGISTRY)
_BY_TAG = {rep.tag: rep for rep in _REGISTRY}
# an EulerAngles value of any convention maps to the euler-zyx entry,
# whose to_matrix spoke serves every convention
_BY_TYPE = {rep.type: rep for rep in reversed(_REGISTRY)}
_BY_CONVENTION = {rep.convention: rep for rep in _REGISTRY
                  if rep.convention is not None}


def tag_of(value: Representation) -> str:
    rep = _BY_TYPE.get(type(value))
    if rep is None:
        raise DegenerateInputError(f"not a rotation representation: {value!r}")
    if rep.convention is None:
        return rep.tag
    if type(value.convention) is not EulerConvention:
        raise DegenerateInputError(f"not an EulerConvention: {value.convention!r}")
    euler = _BY_CONVENTION.get(value.convention)
    return euler.tag if euler is not None else f"euler-{value.convention.tag}"


def _route(rep: _Rep, out: _Rep) -> Callable:
    """What convert applies to a value of rep's type bound for out's tag.

    _DIRECT holds the routes that skip the hubs (axis-angle <-> rotation
    vector, and matrix -> 6D through _checked_matrix); a route from a
    quaternion-hub tag starts on the quaternion, every other one goes
    through the matrix. An Euler value comes back as itself when its
    convention is the destination's, the same interned object.
    """
    if rep is out and out.convention is None:
        return _same
    route = _DIRECT.get((rep.tag, out.tag)) or (
        _chain(rep.to_matrix, out.from_matrix) if rep.hub == MATRIX
        else _chain(rep.to_hub, out.from_hub) if out.hub == QUAT
        else _chain(rep.to_hub, quat_to_matrix, out.from_matrix))
    if rep.type is not out.type:
        return route
    return lambda e: e if e.convention is out.convention else route(e)


_DIRECT = {(AXIS_ANGLE, ROTVEC): axis_angle_to_rotation_vector,
           (ROTVEC, AXIS_ANGLE): rotation_vector_to_axis_angle,
           (MATRIX, SIXD): _chain(_checked_matrix, matrix_to_sixd)}
# (value type, destination tag) -> route, resolved once from the registry
_ROUTES = {(rep.type, out.tag): _route(rep, out)
           for rep in _BY_TYPE.values() for out in _REGISTRY}


def convert(value: Representation, dst: str) -> Representation:
    """Convert between representations via the nearest hub, along the
    route _route resolved for the value's type and dst at import."""
    route = _ROUTES.get((type(value), dst))
    if route is None:
        if dst not in _BY_TAG:
            raise DegenerateInputError(f"unknown destination representation {dst!r}")
        tag_of(value)  # raises: every registered type has a route to every tag
    return route(value)
