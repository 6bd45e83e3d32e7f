"""Composition, inversion, and identity for every representation.

compose_in multiplies on the representation's hub, as its registry
entry in convert names it: quaternions and matrices compose natively;
axis-angle, rotation vectors and Euler angles go to the quaternion and
back along their direct spokes, 6D to the matrix and back.
Quaternion products are renormalized unconditionally (the other
quaternion-hub tags skip it: reading angles with atan2 is scale
invariant);
matrix products are re-orthogonalized only when the orthogonality
residual actually exceeds the validity tolerance, so long composition
chains remain a meaningful drift experiment.
"""

from __future__ import annotations

import math

from .core import (
    ORTHONORMALITY_TOL,
    RotationMatrix,
    UnitQuaternion,
    _rescaled,
    _tuple_new,
    mat_mul_rows,
    orthogonality_residual,
    project_to_so3,
)
from .convert import MATRIX, QUAT, _REGISTRY, _ZERO_QUAT, Representation, _hamilton, tag_of
from .errors import DegenerateInputError, InvalidRotationError


def quat_mul(p: UnitQuaternion, q: UnitQuaternion) -> UnitQuaternion:
    """Hamilton product pq, renormalized.

    pq = p0 q0 - p.q + p0 q + q0 p + p x q; composing rotations so that
    quat_to_matrix(pq) = quat_to_matrix(p) quat_to_matrix(q). Where
    the product's squared norm would overflow or underflow, both
    operands are rescaled by their largest component first; a zero or
    non-finite operand raises DegenerateInputError.
    """
    w, x, y, z = _hamilton(p, q)
    n2 = w * w + x * x + y * y + z * z
    if not 1e-300 <= n2 < math.inf:
        w, x, y, z = _hamilton(_rescaled(p, _ZERO_QUAT), _rescaled(q, _ZERO_QUAT))
        n2 = w * w + x * x + y * y + z * z
    n = math.sqrt(n2)
    return _tuple_new(UnitQuaternion, (w / n, x / n, y / n, z / n))


def quat_conjugate(q: UnitQuaternion) -> UnitQuaternion:
    """q* negates the vector part; for unit q this is also the inverse."""
    w, x, y, z = q
    return _tuple_new(UnitQuaternion, (w, -x, -y, -z))


quat_inverse = quat_conjugate


def matrix_mul(r1: RotationMatrix, r2: RotationMatrix) -> RotationMatrix:
    """3x3 product, re-orthogonalized only on drift past the tolerance.

    A product with a NaN or infinite entry has a non-finite residual and
    raises InvalidRotationError instead of reaching the projection.
    """
    rows = mat_mul_rows(r1.rows, r2.rows)
    orth = orthogonality_residual(rows)
    if not orth <= ORTHONORMALITY_TOL:
        if not math.isfinite(orth):
            raise InvalidRotationError(
                f"matrix product is not finite (orthogonality residual {orth})")
        return project_to_so3(rows)
    return _tuple_new(RotationMatrix, (rows,))


def _hub_product(rep):
    if rep.hub == MATRIX:
        return matrix_mul
    # the axis-angle, rotation-vector and Euler from_hub spokes are
    # scale invariant, so their products skip the renormalization
    return quat_mul if rep.tag == QUAT else _hamilton


# tag -> (value type, Euler convention or None, hub product, to_hub,
# from_hub), unpacked from the registry once; to_hub is None where the
# representation is its own hub and composes natively
_COMPOSE = {rep.tag: (rep.type, rep.convention, _hub_product(rep),
                      None if rep.hub == rep.tag else rep.to_hub, rep.from_hub)
            for rep in _REGISTRY}


def compose_in(tag: str, x1: Representation, x2: Representation) -> Representation:
    """Compose two rotations on the representation's hub, returning the
    same representation. Both operands must have the tag's exact value
    type and, for Euler angles, its (interned) convention object."""
    spec = _COMPOSE.get(tag)
    if spec is None:
        raise DegenerateInputError(f"unknown representation tag {tag!r}")
    value_type, convention, mul, to_hub, from_hub = spec
    if type(x1) is not value_type or type(x2) is not value_type or (
            convention is not None
            and not (x1.convention is convention is x2.convention)):
        raise DegenerateInputError(
            f"compose_in({tag!r}) got operands tagged {(tag_of(x1), tag_of(x2))}")
    if to_hub is None:
        return mul(x1, x2)
    return from_hub(mul(to_hub(x1), to_hub(x2)))
