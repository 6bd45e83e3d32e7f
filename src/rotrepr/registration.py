"""Rigid point-set registration: Horn's closed form and point-to-point ICP.

Horn's method takes the optimal rotation of corresponded clouds from the
top eigenvector of a symmetric 4x4 matrix built from their cross-covariance
H, calling LAPACK's ``np.linalg.eigh`` on it directly (``eig_sym4`` stays
the public helper that checks and symmetrizes its input). ICP alternates
the same solver with exact brute-force nearest neighbours, found from
p.(-2q) + |q|^2 + |p|^2 in blocks of NN_CHUNK = 64 source rows, so one
block of distances to 2000 targets (1 MB) stays in cache. One scale rule,
``_as_given``, solves a pair as given or in a power-of-two frame (exact,
and Horn's rotation is scale invariant), so any finite clouds align: a
collinear or coincident source raises DegeneracyError, and a translation
or rms beyond the float range DegenerateInputError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import RotationMatrix, UnitQuaternion, Vec3
from .convert import quat_to_matrix
from .errors import ContractViolationError, DegeneracyError, DegenerateInputError

SCATTER_RANK_TOL = 1e-12  # middle over largest scatter eigenvalue
NN_CHUNK = 64  # source rows per distance block
PRODUCT_MIN = 2.0 ** -1010  # the largest coordinate products solved as given reach it


@dataclass(frozen=True, eq=False)
class PointSet:
    """Ordered 3D point list stored as an (N, 3) float array, with its
    largest |coordinate| (from the finiteness check) for the scale rule."""

    points: np.ndarray = field()

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise DegenerateInputError(
                f"points must be (N, 3), got shape {pts.shape}")
        extent = float(np.abs(pts).max(initial=0.0))  # NaN propagates
        if not math.isfinite(extent):
            raise DegenerateInputError("points must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_extent", extent)


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
    return _horn(source.points, target.points, source._extent, target._extent)


def _as_given(n: int, ap: float, aq: float) -> bool:
    """The scale rule for n source points with largest |coordinates| ap
    and aq (target): no subnormal product corrupts S or H, and 48 n a^2
    bounds every sum Horn and ICP form, the residual squares the largest."""
    a = max(ap, aq)
    return ap * min(ap, aq) >= PRODUCT_MIN and 48.0 * n * a * a < 2.0 ** 1023


def _horn(p: np.ndarray, q: np.ndarray, ap: float, aq: float,
          rotation: RotationMatrix | None = None) -> tuple[RigidTransform, float]:
    """horn_align on arrays with largest |coordinates| ap and aq, for a
    given rotation if passed. Outside ``_as_given``, R from each cloud
    over its own 2^k and t, rms from both over the larger (extents < 2).
    Inside, one reduction gives the centroids, one product S and H; M is
    symmetric and finite, so eigh gives eig_sym4's top eigenvector."""
    n = p.shape[0]
    if n != q.shape[0]:
        raise DegeneracyError(f"corresponded clouds differ in size: {n} vs {q.shape[0]}")
    _check_cloud(p, "source")
    if rotation is None and not _as_given(n, ap, aq):
        kp, kq = math.frexp(ap)[1] - 1, math.frexp(aq)[1] - 1
        k = max(kp, kq)
        rotation = _horn(np.ldexp(p, -kp), np.ldexp(q, -kq), 2.0, 2.0)[0].rotation
        return _in_units(*_horn(np.ldexp(p, -k), np.ldexp(q, -k), 2.0, 2.0, rotation),
                         2.0 ** k)
    pq = np.concatenate((p, q), axis=1)
    bar = np.add.reduce(pq) / n
    if rotation is None:
        pqc = pq - bar
        m = pqc[:, :3].T @ pqc  # m[:, :3] is the scatter S, m[:, 3:] is H
        _, e1, e2 = np.linalg.eigvalsh(m[:, :3]).tolist()
        if e1 <= SCATTER_RANK_TOL * e2:
            raise DegeneracyError(
                "source cloud is collinear; rotation about its axis is unobservable")
        (h00, h01, h02), (h10, h11, h12), (h20, h21, h22) = m[:, 3:].tolist()
        tr = h00 + h11 + h22
        d0, d1, d2 = h12 - h21, h20 - h02, h01 - h10
        m11, m22, m33 = (h00 + h00) - tr, (h11 + h11) - tr, (h22 + h22) - tr
        s01, s02, s12 = h01 + h10, h02 + h20, h12 + h21
        _, vecs = np.linalg.eigh(np.array(((tr, d0, d1, d2), (d0, m11, s01, s02),
                                           (d1, s01, m22, s12), (d2, s02, s12, m33))))
        rotation = quat_to_matrix(UnitQuaternion.normalized(vecs[:, 3].tolist()))
    r = rotation.as_array()
    t = bar[3:] - r @ bar[:3]
    return RigidTransform(rotation, tuple(t.tolist())), _rms(p @ r.T + t - q)


def _in_units(tf: RigidTransform, rms: float, unit: float) -> tuple[RigidTransform, float]:
    """A frame's transform and rms in the caller's units, unit = 2^k."""
    t, rms = tuple(v * unit for v in tf.translation), rms * unit
    if not all(map(math.isfinite, (*t, rms))):
        raise DegenerateInputError("translation or rms overflows: coordinates too large")
    return RigidTransform(tf.rotation, t), rms


def _rms(residuals: np.ndarray) -> float:
    """RMS of the residual norms; ``_as_given`` keeps the squares finite."""
    return math.sqrt(np.add.reduce(np.add.reduce(residuals * residuals, axis=1))
                     / residuals.shape[0])


def _nearest_neighbors(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Index of each src point's nearest dst point (exact brute force; the
    first index wins a tie), one block of NN_CHUNK source rows at a time.

    p.(-2q) equals (p.q) * -2 bit for bit, since a power of two scales
    exactly, and (-2 dst).T keeps dst.T's layout, so BLAS runs the same
    kernel. A one-row tail joins the block before it: numpy sends a
    one-row product to gemv, which rounds differently.
    """
    n = src.shape[0]
    out = np.empty(n, dtype=np.intp)
    dst_sq = np.add.reduce(dst * dst, axis=1)
    src_sq = np.add.reduce(src * src, axis=1)[:, None]
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
    improvement, in the caller's units, drops below tol or max_iter is
    reached. The RMS sequence is non-increasing because every Horn step
    is optimal for its own correspondences. Outside ``_as_given`` both
    clouds are divided by one 2^k, as neighbours need a common frame.
    """
    _check_cloud(source.points, "source")
    _check_cloud(target.points, "target")
    ap, aq = source._extent, target._extent
    k = 0 if _as_given(len(source.points), ap, aq) else math.frexp(max(ap, aq))[1] - 1
    src, dst = np.ldexp(source.points, -k), np.ldexp(target.points, -k)
    ap, aq = math.ldexp(ap, -k), math.ldexp(aq, -k)
    transform = RigidTransform.identity()
    matches = _nearest_neighbors(src, dst)
    rms = _rms(src - dst[matches])
    iterations = 0
    for iterations in range(1, max_iter + 1):
        try:
            transform, step_rms = _horn(src, dst[matches], ap, aq)
        except DegeneracyError as exc:
            raise DegeneracyError(
                f"degenerate correspondences at ICP iteration {iterations}: {exc}"
            ) from exc
        improvement, rms = (rms - step_rms) * 2.0 ** k, step_rms
        if improvement < tol:
            break
        matches = _nearest_neighbors(transform.apply(src), dst)
    transform, rms = _in_units(transform, rms, 2.0 ** k)
    return IcpResult(transform, iterations, rms)
