import math

import numpy as np
import pytest

from rotrepr import (
    AxisAngle,
    ContractViolationError,
    DegeneracyError,
    PointSet,
    RigidTransform,
    UnitQuaternion,
    eig_sym4,
    horn_align,
    icp,
    relative_angle,
)
from rotrepr.convert import axis_angle_to_matrix, quat_to_matrix

from conftest import haar_matrix


def _cloud(rng, n):
    return np.array([[rng.normal(), rng.normal(), rng.normal()]
                     for _ in range(n)])


def _shuffled(rng, n):
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


# ---------------------------------------------------------------------------
# eig_sym4


def test_eig_sym4_diagonal():
    vals, vecs = eig_sym4(np.diag([4.0, 3.0, 2.0, 1.0]))
    assert vals == pytest.approx([4.0, 3.0, 2.0, 1.0])
    assert np.allclose(np.abs(vecs), np.eye(4), atol=1e-12)


def test_eig_sym4_spectral_reconstruction(rng):
    a = np.array([[rng.normal() for _ in range(4)] for _ in range(4)])
    m = a + a.T
    vals, vecs = eig_sym4(m)
    assert list(vals) == sorted(vals, reverse=True)
    assert np.linalg.norm(vecs.T @ vecs - np.eye(4)) < 1e-9
    recon = sum(vals[i] * np.outer(vecs[:, i], vecs[:, i]) for i in range(4))
    assert np.linalg.norm(recon - m) < 1e-9
    for i in range(4):
        assert np.linalg.norm(m @ vecs[:, i] - vals[i] * vecs[:, i]) < 1e-9


def test_eig_sym4_identity_alignment_case(rng):
    pts = _cloud(rng, 30)
    pc = pts - pts.mean(axis=0)
    h = pc.T @ pc
    m = np.empty((4, 4))
    m[0, 0] = np.trace(h)
    delta = (h[1, 2] - h[2, 1], h[2, 0] - h[0, 2], h[0, 1] - h[1, 0])
    m[0, 1:] = delta
    m[1:, 0] = delta
    m[1:, 1:] = h + h.T - np.trace(h) * np.eye(3)
    _, vecs = eig_sym4(m)
    top = vecs[:, 0] * np.sign(vecs[0, 0])
    assert np.allclose(top, [1.0, 0.0, 0.0, 0.0], atol=1e-9)


def test_eig_sym4_rejects_asymmetric():
    bad = np.eye(4)
    bad[0, 1] = 1e-3
    with pytest.raises(ContractViolationError):
        eig_sym4(bad)


def _assert_eigendecomposition(m, vals, vecs):
    assert vals.shape == (4,) and vecs.shape == (4, 4)
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert np.linalg.norm(vecs.T @ vecs - np.eye(4)) < 1e-12
    recon = vecs @ np.diag(vals) @ vecs.T
    assert np.linalg.norm(recon - m) < 1e-12


@pytest.mark.parametrize("m", [np.eye(4), np.diag([2.0, 2.0, 1.0, 1.0]),
                               np.diag([1.0, 2.0, 1.0, 2.0]), np.zeros((4, 4))],
                         ids=["identity", "two-pairs", "two-pairs-shuffled", "zero"])
def test_eig_sym4_repeated_spectrum(m):
    vals, vecs = eig_sym4(m)
    _assert_eigendecomposition(m, vals, vecs)
    assert vals == pytest.approx(sorted(np.diag(m), reverse=True), abs=1e-12)


@pytest.mark.parametrize("shape", [(3, 3), (4,), (4, 3), (5, 5), (1, 4, 4)])
def test_eig_sym4_rejects_other_shapes(shape):
    with pytest.raises(ContractViolationError, match="expected shape"):
        eig_sym4(np.zeros(shape))


def test_eig_sym4_does_not_modify_input(rng):
    a = np.array([[rng.normal() for _ in range(4)] for _ in range(4)])
    m = a + a.T
    before = m.copy()
    _assert_eigendecomposition(m, *eig_sym4(m))
    assert np.array_equal(m, before)


# ---------------------------------------------------------------------------
# horn_align


def test_horn_identity_case(rng):
    pts = PointSet(_cloud(rng, 25))
    transform, rms = horn_align(pts, pts)
    assert relative_angle(transform.rotation,
                          quat_to_matrix(UnitQuaternion.identity())) < 1e-9
    assert np.linalg.norm(transform.translation) < 1e-12
    assert rms < 1e-12


def test_horn_recovers_constructed_transform(rng):
    for _ in range(25):
        src = _cloud(rng, 50)
        r0 = haar_matrix(rng)
        t0 = np.array([rng.normal(), rng.normal(), rng.normal()])
        tgt = src @ r0.as_array().T + t0
        transform, rms = horn_align(PointSet(src), PointSet(tgt))
        assert relative_angle(transform.rotation, r0) < 1e-9
        assert np.linalg.norm(np.array(transform.translation) - t0) < 1e-9
        assert rms < 1e-12


def test_horn_noise_band(rng):
    # Calibrated oracle: residual norms carry three noise coordinates,
    # so the per-point RMS concentrates at sigma * sqrt(3) ~ 1.73 sigma.
    sigma = 0.01
    src = _cloud(rng, 500)
    r0 = haar_matrix(rng)
    t0 = np.array([0.2, -0.1, 0.4])
    noise = np.array([[rng.normal() * sigma for _ in range(3)]
                      for _ in range(500)])
    tgt = src @ r0.as_array().T + t0 + noise
    transform, rms = horn_align(PointSet(src), PointSet(tgt))
    assert 1.55 * sigma < rms < 1.90 * sigma
    assert relative_angle(transform.rotation, r0) < 0.01


def _assert_exact_recovery(src, rng):
    r0 = haar_matrix(rng)
    t0 = np.array([rng.normal(), rng.normal(), rng.normal()])
    tgt = src @ r0.as_array().T + t0
    transform, rms = horn_align(PointSet(src), PointSet(tgt))
    assert relative_angle(transform.rotation, r0) < 1e-9
    assert np.linalg.norm(np.array(transform.translation) - t0) < 1e-9
    assert rms < 1e-9


def test_horn_coplanar_cloud(rng):
    # scatter of rank 2 still determines the rotation
    for _ in range(10):
        src = _cloud(rng, 40)
        src[:, 2] = 0.0
        _assert_exact_recovery(src, rng)


def test_horn_three_points(rng):
    for _ in range(10):
        _assert_exact_recovery(_cloud(rng, 3), rng)


@pytest.mark.parametrize("n", [50, 200])
def test_horn_matches_scipy_align_vectors(rng, n):
    from scipy.spatial.transform import Rotation
    for _ in range(10):
        src = _cloud(rng, n)
        r0 = haar_matrix(rng).as_array()
        noise = np.array([[rng.normal() * 0.05 for _ in range(3)]
                          for _ in range(n)])
        tgt = src @ r0.T + noise
        src -= src.mean(axis=0)
        tgt -= tgt.mean(axis=0)
        transform, _ = horn_align(PointSet(src), PointSet(tgt))
        ref, _ = Rotation.align_vectors(tgt, src)
        diff = Rotation.from_matrix(transform.rotation.as_array()) * ref.inv()
        assert diff.magnitude() < 1e-9


def test_horn_size_mismatch(rng):
    with pytest.raises(DegeneracyError):
        horn_align(PointSet(_cloud(rng, 10)), PointSet(_cloud(rng, 11)))


def test_horn_too_few_points(rng):
    two = PointSet(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(DegeneracyError):
        horn_align(two, two)


def test_horn_collinear_degenerate():
    line = PointSet(np.array([[float(i), 0.0, 0.0] for i in range(10)]))
    with pytest.raises(DegeneracyError):
        horn_align(line, line)


def test_horn_invariant_under_common_rigid_motion(rng):
    src = _cloud(rng, 40)
    r0 = haar_matrix(rng)
    t0 = np.array([0.4, 0.1, -0.3])
    tgt = src @ r0.as_array().T + t0 + np.array(
        [[rng.normal() * 0.02 for _ in range(3)] for _ in range(40)])
    plain, rms_plain = horn_align(PointSet(src), PointSet(tgt))
    g = haar_matrix(rng).as_array()
    gt = np.array([1.0, -2.0, 0.5])
    moved, rms_moved = horn_align(PointSet(src @ g.T + gt),
                                  PointSet(tgt @ g.T + gt))
    assert rms_moved == pytest.approx(rms_plain, abs=1e-9)
    # parameters conjugate: R' = G R G^T, t' = G t + gt - R' gt
    from rotrepr import RotationMatrix
    conj = RotationMatrix.from_array(g @ plain.rotation.as_array() @ g.T)
    assert relative_angle(moved.rotation, conj) < 1e-9
    t_conj = g @ np.array(plain.translation) + gt - conj.as_array() @ gt
    assert np.array(moved.translation) == pytest.approx(t_conj, abs=1e-9)


def test_horn_residual_is_global_minimum(rng):
    from rotrepr.compose import matrix_mul
    from rotrepr.convert import exp_map
    from rotrepr.core import RotationVector
    src = _cloud(rng, 60)
    r0 = haar_matrix(rng)
    tgt = src @ r0.as_array().T + np.array(
        [[rng.normal() * 0.05 for _ in range(3)] for _ in range(60)])
    transform, rms = horn_align(PointSet(src), PointSet(tgt))
    q_bar = tgt.mean(axis=0)
    p_bar = src.mean(axis=0)
    for _ in range(100):
        d = np.array([rng.normal() for _ in range(3)])
        d = d / np.linalg.norm(d) * 0.01
        r_pert = matrix_mul(transform.rotation, exp_map(RotationVector(tuple(d))))
        t_pert = q_bar - r_pert.as_array() @ p_bar
        res = src @ r_pert.as_array().T + t_pert - tgt
        rms_pert = math.sqrt(np.mean(np.sum(res * res, axis=1)))
        assert rms <= rms_pert + 1e-12


# ---------------------------------------------------------------------------
# icp


def test_icp_identical_clouds(rng):
    pts = PointSet(_cloud(rng, 30))
    result = icp(pts, pts)
    assert result.iterations == 1
    assert result.rms < 1e-12
    assert relative_angle(result.transform.rotation,
                          quat_to_matrix(UnitQuaternion.identity())) < 1e-9


def test_icp_small_offset_shuffled(rng):
    src = _cloud(rng, 200)
    axis = np.array([rng.normal() for _ in range(3)])
    axis /= np.linalg.norm(axis)
    r0 = axis_angle_to_matrix(AxisAngle(tuple(axis), math.radians(5.0)))
    t0 = np.array([0.05, -0.02, 0.04])
    tgt = src @ r0.as_array().T + t0
    perm = _shuffled(rng, 200)
    result = icp(PointSet(src), PointSet(tgt[perm]), max_iter=100, tol=1e-10)
    assert result.iterations <= 20
    assert relative_angle(result.transform.rotation, r0) < 1e-6
    assert np.linalg.norm(np.array(result.transform.translation) - t0) < 1e-6


def test_icp_zero_iterations_reports_initial_rms(rng):
    src = _cloud(rng, 20)
    tgt = src + np.array([0.5, 0.0, 0.0])
    result = icp(PointSet(src), PointSet(tgt), max_iter=0)
    assert result.iterations == 0
    assert result.transform.rotation == RigidTransform.identity().rotation
    assert result.rms > 0.0


def test_icp_rms_monotone(rng):
    # re-run the loop manually to observe the per-iteration RMS sequence
    from rotrepr.registration import _nearest_neighbors
    src = _cloud(rng, 150)
    axis = np.array([rng.normal() for _ in range(3)])
    axis /= np.linalg.norm(axis)
    r0 = axis_angle_to_matrix(AxisAngle(tuple(axis), 0.15))
    tgt = src @ r0.as_array().T + np.array([0.1, 0.0, -0.05])
    rms_seq = []
    transform = RigidTransform.identity()
    moved = src
    for _ in range(12):
        matches = _nearest_neighbors(moved, tgt)
        transform, rms = horn_align(PointSet(src), PointSet(tgt[matches]))
        rms_seq.append(rms)
        moved = transform.apply(src)
    for a, b in zip(rms_seq, rms_seq[1:]):
        assert b <= a + 1e-12


def test_icp_needs_three_points(rng):
    small = PointSet(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
    with pytest.raises(DegeneracyError):
        icp(small, small)


def test_pointset_validation():
    from rotrepr import DegenerateInputError
    with pytest.raises(DegenerateInputError):
        PointSet(np.zeros((4, 2)))
    with pytest.raises(DegenerateInputError):
        PointSet(np.array([[np.inf, 0.0, 0.0]]))
