"""Matrix Fisher and Bingham orientation distributions.

Only the unnormalized log densities are provided: the normalizing
constants have no simple closed form and are deliberately out of scope.
Modes, concentration diagnostics, and the structural symmetries are fully
testable without them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import RotationMatrix, UnitQuaternion, _so3_factors, canonicalize
from .errors import DegeneracyError, DegenerateInputError, NonUniqueModeError

RANK_TOL = 1e-12
BINGHAM_ORTHOGONALITY_TOL = 1e-9


def _frozen_array(a, shape) -> np.ndarray:
    arr = np.array(a, dtype=float)
    if arr.shape != shape:
        raise DegenerateInputError(f"expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DegenerateInputError("parameters must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MatrixFisher:
    """Natural-parameter matrix F of the density exp(tr(F^T R))."""

    f: np.ndarray = field()

    def __post_init__(self):
        object.__setattr__(self, "f", _frozen_array(self.f, (3, 3)))


@dataclass(frozen=True, eq=False)
class Bingham:
    """Bingham parameters: orthogonal axes M (4x4) and concentrations Z.

    Z is (z0, z1, z2, z3) with z0 = 0 fixed for identifiability and
    z0 >= z1 >= z2 >= z3, the trailing entries nonpositive.
    """

    m: np.ndarray = field()
    z: tuple[float, float, float, float] = field()

    def __post_init__(self):
        m = _frozen_array(self.m, (4, 4))
        residual = float(np.linalg.norm(m.T @ m - np.eye(4)))
        if residual > BINGHAM_ORTHOGONALITY_TOL:
            raise DegenerateInputError(
                f"Bingham axis matrix is not orthogonal (residual {residual:.3e})")
        z = tuple(float(v) for v in self.z)
        if len(z) != 4:
            raise DegenerateInputError("Z must have four entries")
        if z[0] != 0.0:
            raise DegenerateInputError("z0 must be fixed at 0")
        if not (z[0] >= z[1] >= z[2] >= z[3]):
            raise DegenerateInputError("Z must be non-increasing")
        if any(v > 0.0 for v in z[1:]):
            raise DegenerateInputError("z1..z3 must be nonpositive")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "z", z)


def fisher_log_density_unnorm(d: MatrixFisher, r: RotationMatrix) -> float:
    """tr(F^T R); the log density up to the normalizing constant."""
    return float(np.sum(d.f * r.as_array()))


def fisher_mode(d: MatrixFisher) -> RotationMatrix:
    """Mode U diag(1, 1, det(UV^T)) V^T from the SVD F = U S V^T.

    The determinant correction keeps the argmax inside SO(3); omitting it
    would return a reflection whenever det(UV^T) = -1.
    """
    u, sigma, vt = np.linalg.svd(d.f)
    rank = int(np.sum(sigma >= RANK_TOL))
    if rank < 3:
        raise DegeneracyError(
            f"Fisher parameter is rank-deficient (rank {rank}); mode undefined")
    return _so3_factors(u[None], vt[None])[0]


def fisher_concentration(d: MatrixFisher) -> tuple[float, float, float]:
    """Singular values of F, descending; larger means more concentrated."""
    sigma = np.linalg.svd(d.f, compute_uv=False)
    return (float(sigma[0]), float(sigma[1]), float(sigma[2]))


def bingham_log_density_unnorm(b: Bingham, q: UnitQuaternion) -> float:
    """q^T M diag(Z) M^T q, evaluated as sum z_i (m_i . q)^2.

    Every term is an even power, so f(q) == f(-q) holds exactly.
    """
    qv = np.array(q.as_tuple())
    proj = b.m.T @ qv
    return float(np.dot(b.z, proj * proj))


def bingham_mode(b: Bingham) -> UnitQuaternion:
    """The axis column paired with z0 (the largest concentration),
    canonicalized; raises NonUniqueModeError on a z0 = z1 tie."""
    if b.z[0] == b.z[1]:
        raise NonUniqueModeError(
            "z0 == z1: the Bingham mode direction is not unique")
    col = b.m[:, 0]
    q = UnitQuaternion(float(col[0]), float(col[1]), float(col[2]), float(col[3]))
    return canonicalize(q.normalized())
