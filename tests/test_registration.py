import math

import numpy as np
import pytest

from rotrepr import (
    AxisAngle,
    ContractViolationError,
    DegeneracyError,
    DegenerateInputError,
    PointSet,
    RigidTransform,
    RotationMatrix,
    UnitQuaternion,
    eig_sym4,
    horn_align,
    icp,
    relative_angle,
)
from rotrepr.convert import axis_angle_to_matrix, quat_to_matrix
from rotrepr.registration import _nearest_neighbors

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


def _old_eig_sym4(m):
    # reference: the copying form, with numpy's wrappers
    a = np.array(m, dtype=float)
    if a.shape != (4, 4):
        raise ContractViolationError(f"expected shape (4, 4), got {a.shape}")
    if float(np.max(np.abs(a - a.T))) > 1e-9:
        raise ContractViolationError("eig_sym4 requires a symmetric matrix")
    vals, vecs = np.linalg.eigh(0.5 * (a + a.T))
    return vals[::-1], vecs[:, ::-1]


def _outcome(f, m):
    try:
        return f(m)
    except Exception as exc:  # the exception type is the outcome compared
        return type(exc)


@pytest.mark.parametrize("asym, raises", [(2e-9, True), (1e-3, True),
                                          (1e-9, False), (5e-10, False)])
def test_eig_sym4_asymmetry_threshold(asym, raises):
    m = np.diag([4.0, 3.0, 2.0, 1.0])
    m[1, 2] = asym
    if raises:
        with pytest.raises(ContractViolationError, match="symmetric"):
            eig_sym4(m)
    else:
        _assert_eigendecomposition(0.5 * (m + m.T), *eig_sym4(m))


def test_eig_sym4_accepts_any_array_like(rng):
    a = np.array([[rng.normal() for _ in range(4)] for _ in range(4)])
    m = a + a.T
    ints = np.array([[4, 1, 0, 0], [1, 3, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]])
    for like in (m, m.tolist(), np.asfortranarray(m), m.T, ints):
        before = np.array(like, dtype=float)
        got_vals, got_vecs = eig_sym4(like)
        ref_vals, ref_vecs = _old_eig_sym4(before)
        assert np.array_equal(got_vals, ref_vals)
        assert np.array_equal(got_vecs, ref_vecs)
        assert np.array_equal(np.array(like, dtype=float), before)


def _nan_at(*cells):
    m = np.diag([4.0, 3.0, 2.0, 1.0])
    for i, j in cells:
        m[i, j] = np.nan
    return m


@pytest.mark.parametrize("m", [np.full((4, 4), np.nan), _nan_at((0, 0)),
                               _nan_at((1, 2), (2, 1)), _nan_at((0, 3))],
                         ids=["all", "diagonal", "symmetric-pair", "one-entry"])
def test_eig_sym4_nan_as_reference(m):
    # NaN passes the asymmetry check; LAPACK's answer or error is kept
    got, ref = _outcome(eig_sym4, m), _outcome(_old_eig_sym4, m)
    assert got is not ContractViolationError
    if isinstance(ref, type):
        assert got is ref
    else:
        for g, r in zip(got, ref):
            assert np.array_equal(g, r, equal_nan=True)


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


def _old_horn_align(p, q):
    # reference: centroids by mean, M assembled by slices, copying eig_sym4
    p_bar = p.mean(axis=0)
    q_bar = q.mean(axis=0)
    pc = p - p_bar
    qc = q - q_bar
    h = pc.T @ qc
    delta = (h[1, 2] - h[2, 1], h[2, 0] - h[0, 2], h[0, 1] - h[1, 0])
    m = np.empty((4, 4))
    m[0, 0] = h[0, 0] + h[1, 1] + h[2, 2]
    m[0, 1:] = delta
    m[1:, 0] = delta
    m[1:, 1:] = h + h.T - np.trace(h) * np.eye(3)
    _, vecs = _old_eig_sym4(m)
    top = vecs[:, 0]
    quat = UnitQuaternion(float(top[0]), float(top[1]),
                          float(top[2]), float(top[3])).normalized()
    rot = quat_to_matrix(quat)
    r = rot.as_array()
    t = q_bar - r @ p_bar
    residuals = p @ r.T + t - q
    rms = float(np.sqrt(np.mean(np.sum(residuals * residuals, axis=1))))
    return rot.rows, (float(t[0]), float(t[1]), float(t[2])), rms


@pytest.mark.parametrize("n", [3, 4, 50, 200, 2000])
def test_horn_bit_identical_to_reference(n):
    # 48 clouds per size, 240 in all
    gen = np.random.default_rng(n)
    for offset in (0.0, 1.0, 1e3, 1e6):
        for kind in ("exact", "noisy", "coplanar"):
            for _ in range(4):
                p = (gen.normal(size=(n, 3)) * 10.0 ** gen.uniform(-2, 2)
                     + gen.normal(size=3) * offset)
                if kind == "coplanar":
                    p[:, 2] = offset
                r0 = np.linalg.qr(gen.normal(size=(3, 3)))[0]
                q = p @ r0.T + gen.normal(size=3) * (offset + 1.0)
                if kind == "noisy":
                    q += gen.normal(size=q.shape) * 0.05
                transform, rms = horn_align(PointSet(p), PointSet(q))
                got = (transform.rotation.rows, transform.translation, rms)
                assert got == _old_horn_align(p, q)
                assert all(type(v) is float for v in transform.translation + (rms,))


def _old_rms(residuals):
    # reference: the rms that rescaled by max |r| when the squares overflowed
    total = np.add.reduce(np.add.reduce(residuals * residuals, axis=1))
    if math.isfinite(total):
        return math.sqrt(total / residuals.shape[0])
    scale = np.abs(residuals).max()
    return float(scale * _old_rms(residuals / scale))


def _horn_align_through_eig_sym4(source, target):
    # reference: horn_align as it was before it called eigh directly, with
    # two centroid reductions, the checked eig_sym4, a class-call quaternion
    # and the overflow guard; numpy's overflow warnings are its own
    with np.errstate(over="ignore", invalid="ignore"):
        return _guarded_horn(source, target)


def _guarded_horn(source, target):
    from rotrepr.registration import _check_cloud
    p = source.points
    q = target.points
    n = p.shape[0]
    if n != q.shape[0]:
        raise DegeneracyError(
            f"corresponded clouds differ in size: {n} vs {q.shape[0]}")
    _check_cloud(p, "source")
    p_bar = np.add.reduce(p) / n
    q_bar = np.add.reduce(q) / n
    pc = p - p_bar
    qc = q - q_bar
    try:
        _, e1, e2 = np.linalg.eigvalsh(pc.T @ pc).tolist()
    except np.linalg.LinAlgError:
        e1 = e2 = math.nan
    (h00, h01, h02), (h10, h11, h12), (h20, h21, h22) = (pc.T @ qc).tolist()
    tr = h00 + h11 + h22
    d0, d1, d2 = h12 - h21, h20 - h02, h01 - h10
    m11, m22, m33 = (h00 + h00) - tr, (h11 + h11) - tr, (h22 + h22) - tr
    s01, s02, s12 = h01 + h10, h02 + h20, h12 + h21
    m = (tr, d0, d1, d2, m11, m22, m33, s01, s02, s12)
    if not all(abs(x) < 2.0 ** 1023 for x in (e1, e2) + m):
        raise DegenerateInputError("scatter or M overflows: coordinates too large")
    if e1 <= 1e-12 * e2:
        raise DegeneracyError(
            "source cloud is collinear; rotation about its axis is unobservable")
    _, vecs = eig_sym4(np.array(((tr, d0, d1, d2), (d0, m11, s01, s02),
                                 (d1, s01, m22, s12), (d2, s02, s12, m33))))
    rot = quat_to_matrix(UnitQuaternion(*vecs[:, 0].tolist()).normalized())
    r = rot.as_array()
    t = q_bar - r @ p_bar
    return RigidTransform(rot, tuple(t.tolist())), _old_rms(p @ r.T + t - q)


def _bits(f, *args):
    """The outcome of f(*args) as exact bits: the transform and rms as
    float.hex strings, or the exception's type and message."""
    try:
        transform, rms = f(*args)
    except Exception as exc:  # the exception type and message are the outcome
        return type(exc), str(exc)
    values = [v for row in transform.rotation.rows for v in row]
    values += [*transform.translation, rms]
    assert all(type(v) is float for v in values)
    return [float.hex(v) for v in values]


def _shaped_cloud(gen, n, shape, scale):
    p = gen.normal(size=(n, 3))
    if shape == "collinear":
        p = np.outer(gen.normal(size=n), gen.normal(size=3))
    elif shape == "coplanar":
        p[:, 2] = 0.0
    elif shape == "coincident":
        p = np.tile(gen.normal(size=3), (n, 1))
    return p * scale + gen.normal(size=3) * scale


def _assert_aligns_as_at_unit_scale(p, q, scale):
    # as the pair divided by its scale does on the reference path: the
    # same exception, or R, t / scale and rms / scale within 1e-11
    try:
        ref, ref_rms = _horn_align_through_eig_sym4(PointSet(p / scale), PointSet(q / scale))
    except Exception as exc:  # the exception type and message are the outcome
        assert _bits(horn_align, PointSet(p), PointSet(q)) == (type(exc), str(exc))
        return
    transform, rms = horn_align(PointSet(p), PointSet(q))
    assert relative_angle(transform.rotation, ref.rotation) < 1e-11
    t_unit = max(1.0, *map(abs, ref.translation))
    assert all(abs(a / scale - b) < 1e-11 * t_unit
               for a, b in zip(transform.translation, ref.translation))
    assert abs(rms / scale - ref_rms) < 1e-11 * max(1.0, ref_rms)


@pytest.mark.parametrize("n", [3, 4, 5, 17, 64, 499, 500, 1000, 4096])
def test_horn_outcome_identical_to_eig_sym4_path(n):
    # 10 scales x 6 shapes per size. Every row the reference path solves
    # without overflow keeps its bits. The rest now align as the pair
    # divided by its scale does: from about 1e154 the reference's scatter
    # or M overflows (for a target 1e150 times larger from about 1e100),
    # at 1e-170 its subnormal scatter reads as collinear, and at 1e8 the
    # mismatched pair's residual squares overflow in its rms
    gen = np.random.default_rng(4000 + n)
    outcomes, changed = set(), set()
    for scale in (1e-170, 1e-150, 1e-100, 1e-8, 1.0, 1e8, 1e100, 1e150, 1e154, 1e160):
        for shape in ("gaussian", "noisy", "collinear", "coplanar", "coincident",
                      "mismatched"):
            p = _shaped_cloud(gen, n, shape, scale)
            r0 = np.linalg.qr(gen.normal(size=(3, 3)))[0]
            q = p @ r0.T + gen.normal(size=3) * scale
            if shape == "noisy":
                q += gen.normal(size=q.shape) * 0.05 * scale
            elif shape == "mismatched":
                q *= 1e150 if scale <= 1e100 else 1e-150
            source, target = PointSet(p), PointSet(q)
            got = _bits(horn_align, source, target)
            outcomes.add(got[0] if isinstance(got, tuple) else float)
            if got != _bits(_horn_align_through_eig_sym4, source, target):
                changed.add((scale, shape))
                _assert_aligns_as_at_unit_scale(p, q, scale)
    assert float in outcomes and DegeneracyError in outcomes
    assert all(scale in (1e-170, 1e154, 1e160) or (scale, shape) in (
        (1e8, "mismatched"), (1e100, "mismatched")) for scale, shape in changed)


def _axis_cloud(c, a):
    # (+-c, 0, 0), (0, +-a, 0), (0, 0, +-a): centroid 0, scatter rank 3
    return np.array([[c, 0, 0], [-c, 0, 0], [0, a, 0], [0, -a, 0], [0, 0, a], [0, 0, -a]])


@pytest.mark.parametrize("case, match", [
    ("sizes", "differ in size"), ("two points", "at least 3"),
])
def test_horn_outcome_identical_on_rejected_clouds(rng, case, match):
    if case == "sizes":
        p, q = _cloud(rng, 10), _cloud(rng, 11)
    else:
        p = q = _cloud(rng, 2)
    source, target = PointSet(p), PointSet(q)
    got = _bits(horn_align, source, target)
    assert isinstance(got, tuple) and match in got[1]
    assert got == _bits(_horn_align_through_eig_sym4, source, target)


@pytest.mark.parametrize("case", ["huge", "nan only", "s12 only"])
def test_horn_aligns_pairs_the_overflow_guard_rejected(rng, case):
    # the old guard's three ways to reject: a scatter beyond 2^1023, M's
    # diagonal NaN from h00 = inf and h11 = -inf, and s12 alone in
    # [2^1023, 2^1024); each pair now aligns as at unit scale
    p = _axis_cloud(1e5, 1e5)
    if case == "huge":
        p, q, scale = _cloud(rng, 20) * 1e300, _cloud(rng, 20) * 1e300, 1e300
    elif case == "nan only":
        q, scale = p * [1e300, -1e300, 1.0], 1e5
    else:
        p = _axis_cloud(1e150, 1e150)
        q, scale = p[:, [0, 2, 1]] * [1.0, 2.7e7, 2.7e7], 1e150
    _assert_aligns_as_at_unit_scale(p, q, scale)


def _icp_through_eig_sym4(source, target, max_iter=100, tol=1e-10):
    # reference: the ICP loop before it stepped the solver directly, one
    # PointSet and one eig_sym4-path Horn per iteration
    from rotrepr.registration import _check_cloud, _rms
    _check_cloud(source.points, "source")
    _check_cloud(target.points, "target")
    transform = RigidTransform.identity()
    moved = source.points
    matches = _nearest_neighbors(moved, target.points)
    rms = _rms(moved - target.points[matches])
    if max_iter == 0:
        return transform, 0, rms
    iterations = 0
    for iteration in range(1, max_iter + 1):
        try:
            transform, step_rms = _horn_align_through_eig_sym4(
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
    return transform, iterations, rms


def _icp_bits(f, source, target, **kwargs):
    try:
        transform, iterations, rms = f(source, target, **kwargs)
    except Exception as exc:  # the exception type and message are the outcome
        return type(exc), str(exc)
    return _bits(lambda: (transform, rms)), iterations


def _fixture_clouds():
    from pathlib import Path
    fixtures = Path(__file__).parent / "fixtures"
    return (np.loadtxt(fixtures / "register_source.xyz"),
            np.loadtxt(fixtures / "register_target.xyz"))


def test_icp_identical_to_eig_sym4_path_on_fixture():
    src, tgt = _fixture_clouds()
    perm = np.random.default_rng(3).permutation(len(tgt))
    for target in (tgt, tgt[perm], tgt[::-1]):
        for max_iter in (0, 1, 2, 100):
            args = PointSet(src), PointSet(target)
            got = _icp_bits(icp, *args, max_iter=max_iter)
            assert got == _icp_bits(_icp_through_eig_sym4, *args, max_iter=max_iter)
            assert got[1] <= max_iter


@pytest.mark.parametrize("n", [3, 50, 400])
def test_icp_identical_to_eig_sym4_path_on_shuffled_clouds(n):
    gen = np.random.default_rng(77 + n)
    iterations = []
    for degrees in (0.5, 5.0, 30.0):
        for shape in ("gaussian", "coplanar", "collinear"):
            src = _shaped_cloud(gen, n, shape, 1.0)
            axis = gen.normal(size=3)
            r0 = axis_angle_to_matrix(AxisAngle(tuple(axis / np.linalg.norm(axis)),
                                                math.radians(degrees)))
            tgt = (src @ r0.as_array().T + gen.uniform(-0.1, 0.1, size=3)
                   + gen.normal(size=src.shape) * 1e-3)[gen.permutation(n)]
            args = PointSet(src), PointSet(tgt)
            got = _icp_bits(icp, *args)
            assert got == _icp_bits(_icp_through_eig_sym4, *args)
            iterations.append(got[1] if isinstance(got[1], int) else 0)
    assert max(iterations) > 1


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


@pytest.mark.parametrize("direction", [(1.0, 0.0, 0.0), (1.0, 2.0, 3.0)])
@pytest.mark.parametrize("scale", [1e-7, 1.0, 1e3, 1e6])
def test_horn_collinear_degenerate_at_any_scale(direction, scale):
    line = PointSet(np.array([[i * scale * d for d in direction]
                              for i in range(10)]))
    with pytest.raises(DegeneracyError, match="collinear"):
        horn_align(line, line)


def test_horn_coincident_points_degenerate():
    same = PointSet(np.full((5, 3), 2.5))
    with pytest.raises(DegeneracyError, match="collinear"):
        horn_align(same, same)


_EXTREME_SCALES = (1e-300, 1e-250, 1e-200, 1e-165, 1e-162, 1e-160, 1e-158, 1e-156,
                   1e154, 1e200, 1e250, 1e300)


@pytest.mark.parametrize("scale", [1e-7, 1e-3, 1e6, *_EXTREME_SCALES])
def test_horn_accepts_small_and_large_clouds(rng, scale):
    src = _cloud(rng, 200) * scale
    r0 = haar_matrix(rng)
    t0 = np.array([rng.normal(), rng.normal(), rng.normal()])
    t0 *= 0.5 / np.linalg.norm(t0)
    transform, rms = horn_align(PointSet(src), PointSet(src @ r0.as_array().T + t0 * scale))
    assert relative_angle(transform.rotation, r0) < 1e-12
    assert np.linalg.norm(np.array(transform.translation) / scale - t0) < 1e-12 * 0.5
    assert rms < 1e-12 * scale


@pytest.mark.parametrize("spread", [1e-150, 1e-154, 1e-156, 1e-158, 1e-160, 1e-162,
                                    1e-165, 1e-170, 1e-200, 1e-250, 1e-300])
def test_horn_accepts_tiny_spread_far_from_origin(rng, spread):
    # A cloud of spread s centred at x = 1 (its x column rounds to 1),
    # turned 0.3 rad about x: the raw coordinates are of order 1, so the
    # pair is solved as given, but the centred scatter products are of
    # order s^2 and go subnormal. R comes from the centred clouds in their
    # own frames; t and the rms stay in the clouds' units.
    src = _cloud(rng, 200) * spread + [1.0, 0.0, 0.0]
    r0 = axis_angle_to_matrix(AxisAngle((1.0, 0.0, 0.0), 0.3))
    transform, rms = horn_align(PointSet(src), PointSet(src @ r0.as_array().T))
    assert relative_angle(transform.rotation, r0) < 1e-12
    assert np.abs(np.array(transform.translation)).max() < 1e-12
    assert rms < 1e-12


@pytest.mark.parametrize("source_scale, target_scale", [
    (1e160, 1e160), (1e200, 1e200), (1e300, 1e300),
    (1e160, 1e-160),  # the scatter overflowed, H did not
    (1e100, 1e207),  # H was finite, M's doubled entries were not
    (1e150, 1e157),  # the point distances overflowed
])
def test_horn_and_icp_align_clouds_the_overflow_guards_rejected(rng, source_scale,
                                                                target_scale):
    # Horn's rotation does not change under a positive scaling of either
    # cloud; t = q_bar - R p_bar and the rms stay in the clouds' units
    base = _cloud(rng, 20)
    r0 = haar_matrix(rng).as_array()
    src, tgt = base * source_scale, (base @ r0.T + [0.5, -0.25, 1.0]) * target_scale
    transform, rms = horn_align(PointSet(src), PointSet(tgt))
    assert relative_angle(transform.rotation, RotationMatrix.from_array(r0)) < 1e-12
    big = max(source_scale, target_scale)
    t = np.add.reduce(tgt / big) / 20 - r0 @ (np.add.reduce(src / big) / 20)
    assert np.abs(np.array(transform.translation) / big - t).max() < 1e-12
    res = (src / big) @ r0.T + t - tgt / big
    assert rms / big == pytest.approx(math.sqrt(np.mean(np.sum(res * res, axis=1))),
                                      rel=1e-12)
    for cloud, scale in ((src, source_scale), (tgt, target_scale)):
        result = icp(PointSet(cloud), PointSet(cloud[::-1]))
        assert result.iterations == 1
        assert relative_angle(result.transform.rotation, RotationMatrix.identity()) < 1e-12
        assert np.abs(np.array(result.transform.translation)).max() < 1e-12 * scale
        assert result.rms < 1e-12 * scale


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


def _old_nearest_neighbors(src, dst):
    # reference: one product per 256 rows, scaled by -2 afterwards
    out = np.empty(src.shape[0], dtype=np.intp)
    dst_sq = np.sum(dst * dst, axis=1)
    for start in range(0, src.shape[0], 256):
        block = src[start:start + 256]
        d2 = block @ dst.T
        d2 *= -2.0
        d2 += dst_sq
        d2 += np.sum(block * block, axis=1)[:, None]
        out[start:start + 256] = np.argmin(d2, axis=1)
    return out


@pytest.mark.parametrize("n", [1, 3, 63, 64, 65, 129, 2000])
@pytest.mark.parametrize("m", [5, 2000])  # fewer and more targets than a block's rows
def test_nearest_neighbors_match_reference(n, m):
    gen = np.random.default_rng(1000 * n + m)
    for scale in (1e-3, 1.0, 1e3, 1e6):
        src = gen.normal(size=(n, 3)) * scale
        dst = gen.normal(size=(m, 3)) * scale + gen.normal(size=3) * scale
        got = _nearest_neighbors(src, dst)
        assert got.dtype == np.intp
        assert np.array_equal(got, _old_nearest_neighbors(src, dst))


@pytest.mark.parametrize("n", [1, 2, 65, 129, 2000])
def test_nearest_neighbors_match_reference_on_near_ties(n):
    # each source point has three targets 1e-6 away along the three axes;
    # rounding alone picks among them, so equal indices mean the search
    # rounds as the reference does (a one-row product through gemv, or
    # -2 folded into a copy of dst in another layout, flips some)
    gen = np.random.default_rng(n)
    for _ in range(max(3, 2000 // n)):
        src = gen.normal(size=(n, 3)) * 10.0
        dst = np.concatenate([src + [1e-6, 0, 0], src + [0, 1e-6, 0], src + [0, 0, 1e-6]])
        assert np.array_equal(_nearest_neighbors(src, dst), _old_nearest_neighbors(src, dst))


def test_nearest_neighbors_first_duplicate_wins():
    gen = np.random.default_rng(5)
    base = gen.normal(size=(40, 3))
    dst = np.concatenate([base, base[::-1], base])  # each point three times
    first = {tuple(p): i for i, p in reversed(list(enumerate(dst.tolist())))}
    src = np.concatenate([base, base + gen.normal(size=base.shape) * 1e-3])
    got = _nearest_neighbors(src, dst)
    assert np.array_equal(got, _old_nearest_neighbors(src, dst))
    assert got[:40].tolist() == [first[tuple(p)] for p in base.tolist()]
    assert all(first[tuple(dst[i])] == i for i in got.tolist())


def _old_icp(source, target, max_iter=100, tol=1e-10):
    # reference: the ICP loop on the 256-row search and the mean-based rms
    transform = RigidTransform.identity()
    moved = source.points
    matches = _old_nearest_neighbors(moved, target.points)
    rms = float(np.sqrt(np.mean(
        np.sum((moved - target.points[matches]) ** 2, axis=1))))
    iterations = 0
    for iteration in range(1, max_iter + 1):
        transform, step_rms = horn_align(source, PointSet(target.points[matches]))
        iterations = iteration
        improvement = rms - step_rms
        rms = step_rms
        if improvement < tol:
            break
        moved = transform.apply(source.points)
        matches = _old_nearest_neighbors(moved, target.points)
    return transform.rotation.rows, transform.translation, rms, iterations


@pytest.mark.parametrize("degrees", [1.0, 3.0, 8.0])
def test_icp_bit_identical_to_reference(degrees):
    gen = np.random.default_rng(int(degrees * 10))
    src = gen.normal(size=(2000, 3))
    axis = gen.normal(size=3)
    r0 = axis_angle_to_matrix(AxisAngle(tuple(axis / np.linalg.norm(axis)),
                                        math.radians(degrees)))
    tgt = (src @ r0.as_array().T + gen.uniform(-0.05, 0.05, size=3)
           + gen.normal(size=src.shape) * 1e-3)[gen.permutation(2000)]
    source, target = PointSet(src), PointSet(tgt)
    for max_iter in (0, 100):
        result = icp(source, target, max_iter=max_iter)
        got = (result.transform.rotation.rows, result.transform.translation,
               result.rms, result.iterations)
        assert got == _old_icp(source, target, max_iter=max_iter)
        assert type(result.rms) is float


@pytest.mark.parametrize("source_scale, target_scale", [(1e150, 1e157), (1e100, 1e207)])
def test_icp_matches_clouds_the_distance_guard_rejected(rng, source_scale, target_scale):
    # the point distances overflow as given; ICP runs on both clouds over
    # one 2^k and must equal, bit for bit, ICP on the clouds so divided
    # with tol divided too
    src = _cloud(rng, 20) * source_scale
    tgt = (_cloud(rng, 20) @ haar_matrix(rng).as_array().T + 0.5) * target_scale
    k = math.frexp(max(np.abs(src).max(), np.abs(tgt).max()))[1] - 1
    result = icp(PointSet(src), PointSet(tgt))
    unit = icp(PointSet(np.ldexp(src, -k)), PointSet(np.ldexp(tgt, -k)),
               tol=math.ldexp(1e-10, -k))
    assert math.isfinite(result.rms)
    assert result.iterations == unit.iterations
    assert np.array_equal(result.transform.rotation.as_array(),
                          unit.transform.rotation.as_array())
    assert result.transform.translation == tuple(
        math.ldexp(v, k) for v in unit.transform.translation)
    assert result.rms == math.ldexp(unit.rms, k)


def test_icp_accepts_large_clouds_below_overflow(rng):
    pts = PointSet(_cloud(rng, 20) * 1e150)
    result = icp(pts, pts)
    assert result.iterations == 1
    assert result.rms < 1e-12 * 1e150
    # perfbench register's problem (2000 points, shuffled, a 1-4.5 degree
    # perturbation, a translation up to 0.05), with tol, scaled by s
    gen = np.random.default_rng(11)
    src = gen.normal(size=(2000, 3))
    for s in _EXTREME_SCALES:
        axis = gen.normal(size=3)
        r0 = axis_angle_to_matrix(AxisAngle(tuple(axis / np.linalg.norm(axis)),
                                            math.radians(gen.uniform(1.0, 4.5))))
        t0 = gen.uniform(-0.05, 0.05, size=3)
        tgt = (src @ r0.as_array().T + t0)[gen.permutation(2000)]
        result = icp(PointSet(src * s), PointSet(tgt * s), tol=1e-10 * s)
        assert relative_angle(result.transform.rotation, r0) < 1e-9
        assert np.abs(np.array(result.transform.translation) / s - t0).max() < 1e-9
        assert result.rms < 1e-9 * s


def test_horn_rms_rescales_when_squares_overflow(rng):
    src = _cloud(rng, 20)
    tgt = _cloud(rng, 20) * 1e306
    transform, rms = horn_align(PointSet(src), PointSet(tgt))
    assert math.isfinite(rms)
    scaled = (transform.apply(src) - tgt) / 1e306
    expected = 1e306 * math.sqrt(np.mean(np.sum(scaled * scaled, axis=1)))
    assert rms == pytest.approx(expected, rel=1e-14)


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
