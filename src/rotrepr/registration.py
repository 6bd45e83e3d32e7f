"""Rigid point-set registration: Horn's closed form and point-to-point ICP.

Horn's method takes the optimal rotation of corresponded clouds from the
top eigenvector of a symmetric 4x4 matrix built from their cross-covariance
H, calling LAPACK's ``np.linalg.eigh`` on it directly (``eig_sym4`` stays
the public helper that checks and symmetrizes its input). ICP alternates
the same solver with exact brute-force nearest neighbours, found from
p.(-2q) + |q|^2 + |p|^2 in blocks of NN_CHUNK = 64 source rows, so one
block of distances to 2000 targets (1 MB) stays in cache. A collinear
source raises DegeneracyError; a scatter, M or distance that overflows
(coordinates of about 1e154 and up) DegenerateInputError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import RotationMatrix, UnitQuaternion, Vec3, _tuple_new
from .convert import quat_to_matrix
from .errors import ContractViolationError, DegeneracyError, DegenerateInputError

SCATTER_RANK_TOL = 1e-12  # middle over largest scatter eigenvalue
NN_CHUNK = 64  # source rows per distance block


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


class RigidTransform(NamedTuple):
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
    a = np.asarray(m, dtype=float)
    if a.shape != (4, 4):
        raise ContractViolationError(f"expected shape (4, 4), got {a.shape}")
    at = a.T
    if abs(a - at).max() > 1e-9:
        raise ContractViolationError("eig_sym4 requires a symmetric matrix")
    vals, vecs = np.linalg.eigh(0.5 * (a + at))
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
    return _horn(source.points, target.points)


def _horn(p: np.ndarray, q: np.ndarray) -> tuple[RigidTransform, float]:
    """horn_align on finite (n, 3) float arrays. One reduction over the
    (n, 6) pair gives both centroids (numpy sums axis 0 row by row). M is
    symmetric by construction, so below the guard's 2^1023 eig_sym4's
    check and 0.5 * (M + M^T) are exact identities on it, and eigh on M
    itself gives eig_sym4's top eigenvector (eigh's last column)."""
    n = p.shape[0]
    if n != q.shape[0]:
        raise DegeneracyError(
            f"corresponded clouds differ in size: {n} vs {q.shape[0]}")
    _check_cloud(p, "source")
    bar = np.add.reduce(np.concatenate((p, q), axis=1)) / n
    p_bar, q_bar = bar[:3], bar[3:]
    pc, qc = p - p_bar, q - q_bar
    try:
        _, e1, e2 = np.linalg.eigvalsh(pc.T @ pc).tolist()
    except np.linalg.LinAlgError:
        e1 = e2 = math.nan
    (h00, h01, h02), (h10, h11, h12), (h20, h21, h22) = (pc.T @ qc).tolist()
    tr = h00 + h11 + h22
    d0, d1, d2 = h12 - h21, h20 - h02, h01 - h10
    m11, m22, m33 = (h00 + h00) - tr, (h11 + h11) - tr, (h22 + h22) - tr
    s01, s02, s12 = h01 + h10, h02 + h20, h12 + h21
    # every entry below 2^1023 keeps M + M^T finite; a NaN fails too
    big = 2.0 ** 1023
    if not (abs(e1) < big and abs(e2) < big and abs(tr) < big and abs(d0) < big
            and abs(d1) < big and abs(d2) < big and abs(m11) < big
            and abs(m22) < big and abs(m33) < big and abs(s01) < big
            and abs(s02) < big and abs(s12) < big):
        raise DegenerateInputError("scatter or M overflows: coordinates too large")
    if e1 <= SCATTER_RANK_TOL * e2:
        raise DegeneracyError(
            "source cloud is collinear; rotation about its axis is unobservable")
    _, vecs = np.linalg.eigh(np.array(((tr, d0, d1, d2), (d0, m11, s01, s02),
                                       (d1, s01, m22, s12), (d2, s02, s12, m33))))
    rot = quat_to_matrix(_tuple_new(UnitQuaternion, vecs[:, 3].tolist()).normalized())
    r = rot.as_array()
    t = q_bar - r @ p_bar
    res = p @ r.T
    res += t
    res -= q
    return RigidTransform(rot, tuple(t.tolist())), _rms(res)


def _rms(residuals: np.ndarray) -> float:
    """RMS of the residual norms, rescaled by max |r| only if the squares overflow."""
    total = np.add.reduce(np.add.reduce(residuals * residuals, axis=1))
    if math.isfinite(total):
        return math.sqrt(total / residuals.shape[0])
    scale = np.abs(residuals).max()
    return float(scale * _rms(residuals / scale))


def _nearest_neighbors(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Index of each src point's nearest dst point (exact brute force; the
    first index wins a tie), one block of NN_CHUNK source rows at a time.

    p.(-2q) equals (p.q) * -2 bit for bit, since a power of two scales
    exactly, and (-2 dst).T keeps dst.T's layout, so BLAS runs the same
    kernel. A one-row tail joins the block before it: numpy sends a
    one-row product to gemv, which rounds differently. Raises
    DegenerateInputError if a distance could overflow; every partial sum
    is at most 2 (max |p|^2 + max |q|^2).
    """
    n = src.shape[0]
    out = np.empty(n, dtype=np.intp)
    dst_sq = np.add.reduce(dst * dst, axis=1)
    src_sq = np.add.reduce(src * src, axis=1)[:, None]
    if not math.isfinite(2.0 * (src_sq.max() + dst_sq.max())):
        raise DegenerateInputError("point distances overflow: coordinates too large")
    m2dt = (-2.0 * dst).T
    starts = range(0, max(n - 1, 1), NN_CHUNK)
    for start, stop in zip(starts, [*starts[1:], n]):
        d2 = src[start:stop] @ m2dt
        d2 += dst_sq
        d2 += src_sq[start:stop]
        out[start:stop] = np.argmin(d2, axis=1)
    return out


class IcpResult(NamedTuple):
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
    rms = _rms(moved - target.points[matches])
    if max_iter == 0:
        return IcpResult(transform, 0, rms)
    iterations = 0
    for iteration in range(1, max_iter + 1):
        try:
            transform, step_rms = _horn(source.points, target.points[matches])
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
