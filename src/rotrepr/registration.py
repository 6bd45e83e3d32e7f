"""Rigid point-set registration: Horn's closed form and point-to-point ICP.

Horn's method recovers the globally optimal rotation for corresponded
clouds from the dominant eigenvector of a symmetric 4x4 matrix built from
the cross-covariance; that eigenproblem goes to LAPACK's symmetric
eigensolver (``np.linalg.eigh``). ICP alternates exact brute-force
nearest neighbours with Horn alignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import RotationMatrix, UnitQuaternion, Vec3
from .convert import quat_to_matrix
from .errors import ContractViolationError, DegeneracyError, DegenerateInputError

SCATTER_RANK_TOL = 1e-12
NN_CHUNK = 256


@dataclass(frozen=True, eq=False)
class PointSet:
    """Ordered 3D point list stored as an (N, 3) float array."""

    points: np.ndarray = field()

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise DegenerateInputError(
                f"points must be (N, 3), got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise DegenerateInputError("points must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class RigidTransform:
    """Rotation followed by translation: p -> R p + t."""

    rotation: RotationMatrix
    translation: Vec3

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(RotationMatrix.identity(), (0.0, 0.0, 0.0))

    def apply(self, points: np.ndarray) -> np.ndarray:
        r = self.rotation.as_array()
        return points @ r.T + np.asarray(self.translation)


def eig_sym4(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric 4x4 matrix by LAPACK's symmetric solver.

    Returns (eigenvalues descending, eigenvectors as matching columns),
    via ``np.linalg.eigh`` on the symmetrized input with its ascending
    order reversed. Input more asymmetric than 1e-9 is a contract
    violation. Eigenvector signs, and the basis chosen within a repeated
    eigenvalue, are LAPACK's.
    """
    a = np.array(m, dtype=float)
    if a.shape != (4, 4):
        raise ContractViolationError(f"expected shape (4, 4), got {a.shape}")
    if float(np.max(np.abs(a - a.T))) > 1e-9:
        raise ContractViolationError("eig_sym4 requires a symmetric matrix")
    vals, vecs = np.linalg.eigh(0.5 * (a + a.T))
    return vals[::-1], vecs[:, ::-1]


def _check_cloud(points: np.ndarray, name: str) -> None:
    if points.shape[0] < 3:
        raise DegeneracyError(f"{name} needs at least 3 points, "
                              f"got {points.shape[0]}")


def horn_align(source: PointSet, target: PointSet) -> tuple[RigidTransform, float]:
    """Closed-form least-squares alignment of corresponded clouds.

    Centroids are removed, the cross-covariance H = sum p'_i q'_i^T is
    assembled into the symmetric 4x4 M, and the unit eigenvector of M's
    largest eigenvalue is the optimal quaternion; t = q_bar - R p_bar.
    Returns the transform and the RMS of the per-point residual norms.
    """
    p = source.points
    q = target.points
    if p.shape[0] != q.shape[0]:
        raise DegeneracyError(
            f"corresponded clouds differ in size: {p.shape[0]} vs {q.shape[0]}")
    _check_cloud(p, "source")
    p_bar = p.mean(axis=0)
    q_bar = q.mean(axis=0)
    pc = p - p_bar
    qc = q - q_bar
    scatter = pc.T @ pc
    eigvals = np.linalg.eigvalsh(scatter)
    if eigvals[0] < SCATTER_RANK_TOL and eigvals[1] < SCATTER_RANK_TOL:
        raise DegeneracyError(
            "source cloud is collinear; rotation about its axis is unobservable")
    h = pc.T @ qc
    delta = (h[1, 2] - h[2, 1], h[2, 0] - h[0, 2], h[0, 1] - h[1, 0])
    m = np.empty((4, 4))
    m[0, 0] = h[0, 0] + h[1, 1] + h[2, 2]
    m[0, 1:] = delta
    m[1:, 0] = delta
    m[1:, 1:] = h + h.T - np.trace(h) * np.eye(3)
    _, vecs = eig_sym4(m)
    top = vecs[:, 0]
    quat = UnitQuaternion(float(top[0]), float(top[1]),
                          float(top[2]), float(top[3])).normalized()
    rot = quat_to_matrix(quat)
    r = rot.as_array()
    t = q_bar - r @ p_bar
    residuals = p @ r.T + t - q
    rms = float(np.sqrt(np.mean(np.sum(residuals * residuals, axis=1))))
    return RigidTransform(rot, (float(t[0]), float(t[1]), float(t[2]))), rms


def _nearest_neighbors(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Index of each src point's nearest dst point, exact brute force.

    Chunked so the (n, m) distance block never exceeds NN_CHUNK rows.
    """
    out = np.empty(src.shape[0], dtype=np.intp)
    dst_sq = np.sum(dst * dst, axis=1)
    for start in range(0, src.shape[0], NN_CHUNK):
        block = src[start:start + NN_CHUNK]
        d2 = block @ dst.T
        d2 *= -2.0
        d2 += dst_sq
        d2 += np.sum(block * block, axis=1)[:, None]
        out[start:start + NN_CHUNK] = np.argmin(d2, axis=1)
    return out


@dataclass(frozen=True)
class IcpResult:
    transform: RigidTransform
    iterations: int
    rms: float


def icp(source: PointSet, target: PointSet, max_iter: int = 100,
        tol: float = 1e-10) -> IcpResult:
    """Point-to-point ICP with exact nearest-neighbour matching.

    Each iteration matches the currently transformed source against the
    target, re-solves Horn on the matches, and stops when the RMS
    improvement drops below tol or max_iter is reached. The RMS sequence
    is non-increasing because every Horn step is optimal for its own
    correspondences.
    """
    _check_cloud(source.points, "source")
    _check_cloud(target.points, "target")
    transform = RigidTransform.identity()
    moved = source.points
    matches = _nearest_neighbors(moved, target.points)
    rms = float(np.sqrt(np.mean(
        np.sum((moved - target.points[matches]) ** 2, axis=1))))
    if max_iter == 0:
        return IcpResult(transform, 0, rms)
    iterations = 0
    for iteration in range(1, max_iter + 1):
        try:
            transform, step_rms = horn_align(
                source, PointSet(target.points[matches]))
        except DegeneracyError as exc:
            raise DegeneracyError(
                f"degenerate correspondences at ICP iteration {iteration}: {exc}"
            ) from exc
        iterations = iteration
        improvement = rms - step_rms
        rms = step_rms
        if improvement < tol:
            break
        moved = transform.apply(source.points)
        matches = _nearest_neighbors(moved, target.points)
    return IcpResult(transform, iterations, rms)
