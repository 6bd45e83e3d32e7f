import math

import pytest

from rotrepr import (
    AxisAngle,
    DegenerateInputError,
    EulerAngles,
    EulerConvention,
    InvalidRotationError,
    RotationMatrix,
    RotationVector,
    SixD,
    UnitQuaternion,
    UnsupportedConventionError,
    compose_in,
    relative_angle,
    validate,
)
from rotrepr.convert import (
    GIMBAL_COS_BETA,
    axis_angle_to_matrix,
    axis_angle_to_quat,
    canonicalize_rotation_vector,
    convert,
    euler_to_matrix,
    euler_to_quat,
    exp_map,
    log_map,
    matrix_to_euler,
    matrix_to_quat,
    matrix_to_sixd,
    quat_to_axis_angle,
    quat_to_euler,
    quat_to_matrix,
    quat_to_rotation_vector,
    rotation_vector_to_quat,
    sixd_to_matrix,
    AXIS_ANGLE,
    MATRIX,
    QUAT,
    REPRESENTATION_TAGS,
    ROTVEC,
    SIXD,
    _BY_TAG,
    _BY_TYPE,
    _REGISTRY,
    _ROUTES,
    _axis_angle_quat,
    _euler_quat,
    _hamilton,
    _rotation_vector_quat,
    axis_angle_to_rotation_vector,
    rotation_vector_to_axis_angle,
    tag_of,
)
from rotrepr.core import DEFAULT_AXIS, TINY_ANGLE, XYZ, ZYX

from conftest import (SMALL_ANGLES, exact_euler_quat, exact_quat_matrix,
                      exact_rotation_vector, frobenius, haar_matrix, haar_quat,
                      max_entry_error)

SQ2 = math.sqrt(0.5)
EPS = 2.0 ** -52
RZ90_ROWS = ((0.0, -1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))


# ---------------------------------------------------------------------------
# axis-angle <-> quaternion


def test_axis_angle_to_quat_quarter_turn_about_z():
    q = axis_angle_to_quat(AxisAngle((0.0, 0.0, 1.0), math.pi / 2))
    assert q.as_tuple() == pytest.approx((SQ2, 0.0, 0.0, SQ2), abs=1e-15)


def test_axis_angle_to_quat_zero_angle_is_identity():
    q = axis_angle_to_quat(AxisAngle((0.3, 0.4, 0.5), 0.0))
    assert q == UnitQuaternion.identity()


def test_axis_angle_to_quat_tiny_angle_high_precision_oracle():
    # Oracle: exact formula under 50-digit arithmetic.
    import mpmath as mp
    mp.mp.dps = 50
    theta = 1e-7
    q = axis_angle_to_quat(AxisAngle((1.0, 0.0, 0.0), theta))
    w_exact = mp.cos(mp.mpf(theta) / 2)
    x_exact = mp.sin(mp.mpf(theta) / 2)
    assert abs(q.w - float(w_exact)) <= 1e-15 * float(w_exact)
    assert abs(q.x - float(x_exact)) <= 1e-15 * float(x_exact)
    assert abs(q.norm() - 1.0) < 1e-15


def test_axis_angle_quat_round_trip(rng):
    for _ in range(200):
        q = haar_quat(rng)
        aa = quat_to_axis_angle(q)
        assert 0.0 <= aa.angle <= math.pi
        back = axis_angle_to_quat(aa)
        assert relative_angle(quat_to_matrix(back), quat_to_matrix(q)) < 1e-12


def test_tiny_angle_axis_is_the_true_axis():
    # at or below TINY_ANGLE the axis was +z, off by about twice the angle
    c, s = math.cos(2.7e-13), math.sin(2.7e-13)
    aa = quat_to_axis_angle(UnitQuaternion(c, s, 0.0, 0.0))
    assert aa.axis == (1.0, 0.0, 0.0)
    assert aa.angle == pytest.approx(5.4e-13, rel=1e-15)
    assert quat_to_axis_angle(UnitQuaternion(-c, 0.0, -s, 0.0)).axis == (0.0, 1.0, 0.0)
    aa = rotation_vector_to_axis_angle(RotationVector((1e-13, 0.0, 0.0)))
    assert aa == ((1.0, 0.0, 0.0), 1e-13)
    aa = rotation_vector_to_axis_angle(RotationVector((0.0, -3e-13, 4e-13)))
    assert aa.axis == pytest.approx((0.0, -0.6, 0.8), abs=2e-16)
    assert aa.angle <= TINY_ANGLE
    for v in ((5e-324, 5e-324, 0.0), (1e-170, -2e-170, 2e-170), (1e-310, 0.0, 3e-310)):
        for aa in (rotation_vector_to_axis_angle(RotationVector(v)),
                   quat_to_axis_angle(UnitQuaternion(1.0, *v))):
            assert math.hypot(*aa.axis) == pytest.approx(1.0, abs=1e-15)
            assert all(a * b >= 0.0 and (a != 0.0) == (b != 0.0)
                       for a, b in zip(aa.axis, v))


@pytest.mark.parametrize("x", [3e-162, 1e-160, 1e-300, 5e-324])
@pytest.mark.parametrize("w, y", [(1.0, 0.0), (2.5, 0.0), (1.0, -4.0 / 3.0)])
def test_sub_1e150_angle_against_mpmath(x, w, y):
    # |v|^2 is subnormal or zero here: the angle reads |v| from hypot,
    # not from the squares (6.287e-162 for the true 6e-162 before)
    import mpmath as mp
    v = (x, x * y, 0.0)
    aa = quat_to_axis_angle(UnitQuaternion(w, *v))
    with mp.workdps(40):
        exact = float(2 * mp.atan2(mp.sqrt(sum(mp.mpf(c) ** 2 for c in v)), w))
    # two ulps, and two subnormal steps where the angle is subnormal
    assert exact > 0.0 and abs(aa.angle - exact) <= 2.0 * EPS * exact + 1e-323, \
        (aa.angle, exact)
    assert math.hypot(*aa.axis) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("v", [(0.0, 0.0, 0.0), (-0.0, 0.0, -0.0)])
def test_zero_rotation_keeps_default_axis(v):
    assert rotation_vector_to_axis_angle(RotationVector(v)) == (DEFAULT_AXIS, 0.0)
    assert quat_to_axis_angle(UnitQuaternion(1.0, *v)) == (DEFAULT_AXIS, 0.0)
    assert quat_to_axis_angle(UnitQuaternion(-2.5, *v)) == (DEFAULT_AXIS, 0.0)


@pytest.mark.parametrize("q", [(1e300, 1e290, 0.0, 0.0), (1e-300, 1e-310, 0.0, 0.0),
                               (1e-170, 3e-171, 0.0, 0.0), (-1e300, 0.0, -1e300, 0.0),
                               (5e-324, 0.0, 0.0, 5e-324), (0.0, 1e-200, -1e-200, 0.0),
                               (1.7e308, 1.7e308, -1.7e308, 1.7e308)])
def test_quat_angle_extraction_is_scale_invariant(q):
    # |v|^2 overflows or underflows: both extractions rescale q by its
    # largest |component| first, and read the rotation of q's direction
    q = UnitQuaternion(*q)
    want = quat_to_axis_angle(q.normalized())
    aa = quat_to_axis_angle(q)
    assert aa.angle == pytest.approx(want.angle, rel=1e-15)
    assert aa.axis == pytest.approx(want.axis, abs=1e-15)
    v = quat_to_rotation_vector(q)
    assert v.v == pytest.approx([want.angle * u for u in want.axis], rel=1e-15, abs=1e-300)
    assert convert(q, "rotvec") == v and convert(q, "axis-angle") == aa


def test_quat_angle_extraction_scale_repro_values():
    aa = quat_to_axis_angle(UnitQuaternion(1e300, 1e290, 0.0, 0.0))
    assert aa == ((1.0, 0.0, 0.0), 2e-10)
    aa = quat_to_axis_angle(UnitQuaternion(1e-300, 1e-310, 0.0, 0.0))
    assert aa.axis == (1.0, 0.0, 0.0)  # 1e-310 is subnormal, 1e-13 relative
    assert aa.angle == pytest.approx(2e-10, rel=1e-12)
    assert quat_to_rotation_vector(UnitQuaternion(1e300, 1e290, 0.0, 0.0)).v == (2e-10, 0.0, 0.0)
    aa = quat_to_axis_angle(UnitQuaternion(1e-170, 3e-171, 0.0, 0.0))
    assert aa.angle == pytest.approx(0.5829135889557342, rel=1e-15)


@pytest.mark.parametrize("q", [(1.0, math.nan, 0.0, 0.0), (0.5, 0.0, math.inf, 0.0),
                               (0.0, 0.0, -math.inf, 1.0), (0.0, 0.0, 0.0, 0.0),
                               (-0.0, 0.0, -0.0, 0.0)])
def test_quat_angle_extraction_rejects_non_finite_vector_and_zero(q):
    for extract in (quat_to_axis_angle, quat_to_rotation_vector):
        with pytest.raises(DegenerateInputError):
            extract(UnitQuaternion(*q))


def test_quat_to_axis_angle_examples():
    aa = quat_to_axis_angle(UnitQuaternion(SQ2, 0.0, 0.0, SQ2))
    assert aa.axis == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)
    assert aa.angle == pytest.approx(math.pi / 2, abs=1e-15)

    ident = quat_to_axis_angle(UnitQuaternion.identity())
    assert ident.axis == (0.0, 0.0, 1.0)
    assert ident.angle == 0.0

    negated = quat_to_axis_angle(UnitQuaternion(-SQ2, 0.0, 0.0, -SQ2))
    assert negated.axis == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)
    assert negated.angle == pytest.approx(math.pi / 2, abs=1e-15)


@pytest.mark.parametrize("theta", SMALL_ANGLES)
def test_small_angle_extraction_oracle(theta, rng):
    # quaternion -> axis-angle / rotvec against a 40-digit oracle on the
    # same quaternion; 2 arccos(w) read 0 at 1e-9 rad and was 1.2% off
    # at 1e-7
    for _ in range(10):
        q = axis_angle_to_quat(AxisAngle(_haar_axis(rng), theta))
        exact = exact_rotation_vector(q)
        angle = math.sqrt(sum(c * c for c in exact))
        rv = convert(q, "rotvec")
        for got, ref in zip(rv.v, exact):
            assert abs(got - ref) <= 1e-15 * angle
        aa = convert(q, "axis-angle")
        assert abs(aa.angle - angle) <= 1e-15 * angle
        for got, ref in zip(aa.axis, exact):
            assert abs(got - ref / angle) <= 1e-15


# ---------------------------------------------------------------------------
# Rodrigues / quat <-> matrix


def test_rodrigues_quarter_turn():
    r = axis_angle_to_matrix(AxisAngle((0.0, 0.0, 1.0), math.pi / 2))
    assert frobenius(r, RotationMatrix(RZ90_ROWS)) < 1e-15


def test_rodrigues_zero_angle_identity():
    r = axis_angle_to_matrix(AxisAngle((0.6, 0.0, 0.8), 0.0))
    assert r == RotationMatrix.identity()


def test_rodrigues_body_diagonal_cycles_axes():
    u = 1.0 / math.sqrt(3.0)
    r = axis_angle_to_matrix(AxisAngle((u, u, u), 2.0 * math.pi / 3.0))
    # 120 degrees about the body diagonal permutes the basis vectors
    assert r.apply((1.0, 0.0, 0.0)) == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)
    assert r.apply((0.0, 1.0, 0.0)) == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)
    assert r.apply((0.0, 0.0, 1.0)) == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)


def _explicit_quat_matrix(q):
    # Oracle: the explicit 9-entry quaternion-to-matrix form.
    q0, q1, q2, q3 = q.as_tuple()
    return (
        (q0 * q0 + q1 * q1 - q2 * q2 - q3 * q3,
         2 * (q1 * q2 - q0 * q3), 2 * (q1 * q3 + q0 * q2)),
        (2 * (q1 * q2 + q0 * q3),
         q0 * q0 - q1 * q1 + q2 * q2 - q3 * q3, 2 * (q2 * q3 - q0 * q1)),
        (2 * (q1 * q3 - q0 * q2), 2 * (q2 * q3 + q0 * q1),
         q0 * q0 - q1 * q1 - q2 * q2 + q3 * q3),
    )


def test_quat_to_matrix_examples(rng):
    assert quat_to_matrix(UnitQuaternion.identity()) == RotationMatrix.identity()
    r = quat_to_matrix(UnitQuaternion(SQ2, 0.0, 0.0, SQ2))
    assert frobenius(r, RotationMatrix(RZ90_ROWS)) < 1e-15
    for _ in range(100):
        q = haar_quat(rng)
        explicit = _explicit_quat_matrix(q)
        got = quat_to_matrix(q).rows
        for i in range(3):
            assert got[i] == pytest.approx(explicit[i], abs=1e-14)


def test_quat_to_matrix_even_in_q_bit_for_bit(rng):
    for _ in range(200):
        q = haar_quat(rng)
        assert quat_to_matrix(q).rows == quat_to_matrix(-q).rows


def test_quat_to_matrix_zero_quaternion_raises():
    with pytest.raises(DegenerateInputError):
        quat_to_matrix(UnitQuaternion(0.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("q", [(1e200, 0.0, 0.0, 0.0), (1e-170, 0.0, 0.0, 1e-170),
                               (1e308, -1e308, 1e308, 1e308), (5e-324, 0.0, 0.0, 0.0)])
def test_quat_to_matrix_huge_and_tiny_quaternions(q):
    # n2 overflows to inf or underflows below 1e-300; the direction is valid
    q = UnitQuaternion(*q)
    exact = quat_to_matrix(UnitQuaternion(*(math.copysign(1.0, c) if c else 0.0
                                            for c in q)))
    for r in (quat_to_matrix(q), convert(q, "matrix")):
        assert validate(r)
        assert frobenius(r, exact) < 1e-15


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_quat_to_matrix_non_finite_raises(bad):
    for q in ((bad, 0.0, 0.0, 0.0), (0.0, 0.0, bad, 0.0)):
        with pytest.raises(DegenerateInputError):
            quat_to_matrix(UnitQuaternion(*q))


def test_matrix_to_quat_examples():
    assert matrix_to_quat(RotationMatrix.identity()) == UnitQuaternion.identity()
    flip_x = RotationMatrix(((1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0)))
    assert matrix_to_quat(flip_x).as_tuple() == pytest.approx(
        (0.0, 1.0, 0.0, 0.0), abs=1e-15)


def test_matrix_to_quat_round_trip_suite(rng):
    worst = 0.0
    for _ in range(1000):
        r = haar_matrix(rng)
        worst = max(worst, relative_angle(quat_to_matrix(matrix_to_quat(r)), r))
    assert worst < 1e-12


def test_matrix_to_quat_rejects_invalid():
    with pytest.raises(InvalidRotationError):
        matrix_to_quat(RotationMatrix(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                       (0.0, 0.0, -1.0))))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", [(0, 0), (1, 2), (2, 2)])
def test_matrix_to_quat_rejects_non_finite(bad, entry):
    rows = [list(row) for row in RZ90_ROWS]
    rows[entry[0]][entry[1]] = bad
    with pytest.raises(InvalidRotationError):
        matrix_to_quat(RotationMatrix(tuple(tuple(row) for row in rows)))


def test_matrix_to_quat_check_matches_validate(rng):
    # entries nudged across the 1e-9 tolerance: matrix_to_quat accepts
    # exactly what validate() accepts and reports the same residuals
    from rotrepr import validate
    outcomes = set()
    for k in range(300):
        rows = [list(row) for row in haar_matrix(rng).rows]
        rows[k % 3][(k // 3) % 3] += (rng.random() - 0.5) * 4e-9
        m = RotationMatrix(tuple(tuple(row) for row in rows))
        res = validate(m)
        outcomes.add(res.ok)
        if res.ok:
            assert relative_angle(quat_to_matrix(matrix_to_quat(m)), m) < 1e-8
            continue
        with pytest.raises(InvalidRotationError) as info:
            matrix_to_quat(m)
        message = str(info.value)
        assert f"orthogonality residual {res.orthogonality_residual:.3e}" in message
        assert f"determinant residual {res.determinant_residual:.3e}" in message
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# Euler


def _elem(axis, angle):
    c, s = math.cos(angle), math.sin(angle)
    if axis == "X":
        return ((1, 0, 0), (0, c, -s), (0, s, c))
    if axis == "Y":
        return ((c, 0, s), (0, 1, 0), (-s, 0, c))
    return ((c, -s, 0), (s, c, 0), (0, 0, 1))


def _mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3))
                       for j in range(3)) for i in range(3))


def test_euler_identity_any_convention():
    for axes in ("ZYX", "XYZ", "ZXZ", "YZY"):
        for intrinsic in (True, False):
            e = EulerAngles(0.0, 0.0, 0.0, EulerConvention(axes, intrinsic))
            assert euler_to_matrix(e) == RotationMatrix.identity()


def test_euler_pure_yaw():
    r = euler_to_matrix(EulerAngles(math.pi / 2, 0.0, 0.0))
    assert frobenius(r, RotationMatrix(RZ90_ROWS)) < 1e-15


def test_euler_zyx_brute_force_product_oracle():
    expected = _mul(_mul(_elem("Z", 0.1), _elem("Y", 0.2)), _elem("X", 0.3))
    got = euler_to_matrix(EulerAngles(0.1, 0.2, 0.3)).rows
    for i in range(3):
        assert got[i] == pytest.approx(expected[i], abs=1e-15)


def test_euler_all_conventions_match_elementary_products(rng):
    # Name-order product for intrinsic, reversed for extrinsic.
    for axes in ("XYZ", "XZY", "YXZ", "YZX", "ZXY", "ZYX", "ZXZ", "XYX"):
        a, b, g = rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3)
        seq = list(zip(axes, (a, b, g)))
        intrinsic = _mul(_mul(_elem(*seq[0]), _elem(*seq[1])), _elem(*seq[2]))
        extrinsic = _mul(_mul(_elem(*seq[2]), _elem(*seq[1])), _elem(*seq[0]))
        got_i = euler_to_matrix(EulerAngles(a, b, g, EulerConvention(axes))).rows
        got_e = euler_to_matrix(
            EulerAngles(a, b, g, EulerConvention(axes, intrinsic=False))).rows
        for i in range(3):
            assert got_i[i] == pytest.approx(intrinsic[i], abs=1e-14)
            assert got_e[i] == pytest.approx(extrinsic[i], abs=1e-14)


def test_matrix_to_euler_identity():
    e = matrix_to_euler(RotationMatrix.identity())
    assert e.as_tuple() == (0.0, 0.0, 0.0)


def test_matrix_to_euler_round_trip_away_from_gimbal():
    e0 = EulerAngles(0.4, 1.0, -0.7)
    e1 = matrix_to_euler(euler_to_matrix(e0))
    assert e1.as_tuple() == pytest.approx(e0.as_tuple(), abs=1e-12)


def test_matrix_to_euler_gimbal_band_folds_gamma():
    r = euler_to_matrix(EulerAngles(0.3, math.pi / 2, 0.2))
    e = matrix_to_euler(r)
    assert e.gamma == 0.0
    assert e.beta == pytest.approx(math.pi / 2, abs=1e-12)
    assert frobenius(euler_to_matrix(e), r) < 1e-9


def test_matrix_to_euler_band_negative_beta():
    r = euler_to_matrix(EulerAngles(-0.8, -math.pi / 2, 1.1))
    e = matrix_to_euler(r)
    assert e.gamma == 0.0
    assert e.beta == pytest.approx(-math.pi / 2, abs=1e-12)
    assert frobenius(euler_to_matrix(e), r) < 1e-9


def test_matrix_to_euler_near_band_matrix_level(rng):
    # inside the fold band the matrix is reproduced to O(cos beta)
    for sign in (1.0, -1.0):
        e0 = EulerAngles(0.9, sign * (math.pi / 2 - 5e-8), -1.2)
        r = euler_to_matrix(e0)
        e1 = matrix_to_euler(r)
        assert frobenius(euler_to_matrix(e1), r) < 1e-6


def test_matrix_to_euler_xyz_gimbal_fold():
    conv = EulerConvention("XYZ")
    for sign in (1.0, -1.0):
        for gamma in (0.2, -1.4, 3.0):
            r = euler_to_matrix(EulerAngles(0.7, sign * math.pi / 2, gamma, conv))
            e = matrix_to_euler(r, conv)
            assert e.gamma == 0.0
            assert e.beta == pytest.approx(sign * math.pi / 2, abs=1e-12)
            assert frobenius(euler_to_matrix(e), r) < 1e-9


def test_matrix_to_euler_xyz_round_trip(rng):
    conv = EulerConvention("XYZ")
    for _ in range(200):
        r = haar_matrix(rng)
        e = matrix_to_euler(r, conv)
        assert abs(e.beta) <= math.pi / 2 + 1e-12
        assert frobenius(euler_to_matrix(e), r) < 1e-9


def test_matrix_to_euler_zyx_round_trip_haar(rng):
    for _ in range(500):
        r = haar_matrix(rng)
        e = matrix_to_euler(r)
        assert -math.pi <= e.alpha <= math.pi
        assert -math.pi / 2 - 1e-12 <= e.beta <= math.pi / 2 + 1e-12
        assert frobenius(euler_to_matrix(e), r) < 1e-9


def test_matrix_to_euler_unsupported_conventions():
    r = RotationMatrix.identity()
    with pytest.raises(UnsupportedConventionError):
        matrix_to_euler(r, EulerConvention("ZXZ"))
    with pytest.raises(UnsupportedConventionError):
        matrix_to_euler(r, EulerConvention("ZYX", intrinsic=False))


def test_matrix_to_euler_rejects_non_rotation():
    sheared = RotationMatrix(((1.0, 0.1, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
    with pytest.raises(InvalidRotationError):
        matrix_to_euler(sheared)
    with pytest.raises(InvalidRotationError):
        matrix_to_euler(RotationMatrix(((math.nan, 0.0, 0.0), (0.0, 1.0, 0.0),
                                        (0.0, 0.0, 1.0))))


def test_quat_to_euler_scale_invariant_and_zero(rng):
    for conv in (ZYX, XYZ):
        for _ in range(50):
            q = haar_quat(rng)
            e = quat_to_euler(q, conv)
            # the same frozen value the class call builds
            built = EulerAngles(e.alpha, e.beta, e.gamma, conv)
            assert e == built and hash(e) == hash(built) and repr(e) == repr(built)
            with pytest.raises(AttributeError):
                e.alpha = 0.0
            # power-of-two scales are exact, so the angles must be too
            for k in (2.0 ** -500, 4.0, 2.0 ** 500):
                assert quat_to_euler(tuple(k * c for c in q), conv) == e
        with pytest.raises(DegenerateInputError):
            quat_to_euler((0.0, 0.0, 0.0, 0.0), conv)
    with pytest.raises(UnsupportedConventionError):
        quat_to_euler(UnitQuaternion.identity(), EulerConvention("ZXZ"))


def test_euler_to_quat_matches_matrix_route(rng):
    # euler_to_quat(e) is matrix_to_quat(euler_to_matrix(e)) up to sign
    for conv in (ZYX, XYZ):
        for _ in range(300):
            e = EulerAngles(rng.uniform(-math.pi, math.pi),
                            rng.uniform(-math.pi / 2, math.pi / 2),
                            rng.uniform(-math.pi, math.pi), conv)
            q = euler_to_quat(e)
            p = matrix_to_quat(euler_to_matrix(e))
            sign = 1.0 if q.dot(p) > 0.0 else -1.0
            assert max(abs(a - sign * b) for a, b in zip(q, p)) <= 4 * EPS


# |cos beta| from 1e-9 to 1e-2 in half decades; the band edge 1e-7
# itself is left out, since there the input's rounding picks the branch
EULER_COS_BETAS = [10.0 ** (-k / 2) for k in range(4, 19) if k != 14]


def _wrapped_gap(a: float, b: float) -> float:
    d = math.fmod(abs(a - b), 2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


@pytest.mark.parametrize("conv", [ZYX, XYZ], ids=lambda c: c.axes)
@pytest.mark.parametrize("source", ["quat", "matrix"])
@pytest.mark.parametrize("cos_beta", EULER_COS_BETAS)
def test_euler_extraction_near_fold_oracle(conv, source, cos_beta, rng):
    # The true rotation is built in 40-digit mpmath and rounded once to a
    # quaternion; matrix input is quat_to_matrix of it, so both inputs
    # carry rounding. Outside the band the matrix round trip is within a
    # few ulp of the input's exact rotation, and alpha and gamma within
    # c eps / |cos beta| of the true angles (the matrix pins down only
    # alpha -/+ gamma at the fold). Inside the band gamma folds to zero
    # and the rotation is reproduced to O(|cos beta|).
    import mpmath as mp
    in_band = cos_beta < GIMBAL_COS_BETA
    for sign in (1.0, -1.0):
        for _ in range(4):
            alpha = rng.uniform(-math.pi, math.pi)
            gamma = rng.uniform(-math.pi, math.pi)
            with mp.workdps(40):
                beta = sign * mp.acos(mp.mpf(cos_beta))
                q = [float(c) for c in
                     exact_euler_quat(conv.axes, (alpha, beta, gamma))]
            if source == "quat":
                exact = exact_quat_matrix(q)
                e = quat_to_euler(q, conv)
            else:
                r = quat_to_matrix(q)
                exact = r.rows
                e = matrix_to_euler(r, conv)
            err = max_entry_error(euler_to_matrix(e), exact)
            assert -math.pi <= e.alpha <= math.pi
            assert -math.pi <= e.gamma <= math.pi
            if in_band:
                assert e.gamma == 0.0
                assert err <= 3.0 * cos_beta
                continue
            assert err <= 8 * EPS
            assert abs(e.beta - float(beta)) <= 8 * EPS
            assert _wrapped_gap(e.alpha, alpha) <= 8 * EPS / cos_beta
            assert _wrapped_gap(e.gamma, gamma) <= 8 * EPS / cos_beta


# ---------------------------------------------------------------------------
# exp / log


def test_exp_map_zero_is_identity_exactly():
    assert exp_map(RotationVector((0.0, 0.0, 0.0))) == RotationMatrix.identity()


def test_exp_map_elementary():
    r = exp_map(RotationVector((0.0, 0.0, math.pi / 2)))
    assert frobenius(r, RotationMatrix(RZ90_ROWS)) < 1e-15


def test_exp_map_first_order_oracle():
    # Eq-level oracle: for ||v|| = 1e-9, R = I + [v]x to O(theta^2) = 1e-18.
    r = exp_map(RotationVector((1e-9, 0.0, 0.0)))
    expected = ((1.0, 0.0, 0.0), (0.0, 1.0, -1e-9), (0.0, 1e-9, 1.0))
    for i in range(3):
        for j in range(3):
            assert abs(r.rows[i][j] - expected[i][j]) < 1e-18
    from rotrepr import validate
    assert validate(r).ok


def test_log_map_identity():
    assert log_map(RotationMatrix.identity()).v == (0.0, 0.0, 0.0)


def test_log_map_constructive_inverse():
    r = axis_angle_to_matrix(AxisAngle((0.0, 0.0, 1.0), 2.0))
    v = log_map(r)
    assert v.v == pytest.approx((0.0, 0.0, 2.0), abs=1e-12)


def test_log_map_pi_about_x():
    r = RotationMatrix(((1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0)))
    v = log_map(r)
    assert abs(abs(v.v[0]) - math.pi) < 1e-12
    assert frobenius(exp_map(v), r) < 1e-9


def test_log_map_rejects_invalid():
    for bad in (2.0, math.nan):
        with pytest.raises(InvalidRotationError):
            log_map(RotationMatrix(((bad, 0.0, 0.0), (0.0, 1.0, 0.0),
                                    (0.0, 0.0, 1.0))))


def test_exp_log_mutually_inverse_haar(rng):
    for _ in range(1000):
        r = haar_matrix(rng)
        assert frobenius(exp_map(log_map(r)), r) < 1e-9


def test_exp_log_near_pi(rng):
    # 100 samples with theta in [pi - 1e-3, pi], canonical chart norm <= pi
    for _ in range(100):
        axis = _haar_axis(rng)
        theta = math.pi - rng.random() * 1e-3
        r = axis_angle_to_matrix(AxisAngle(axis, theta))
        v = log_map(r)
        assert v.norm() <= math.pi + 1e-12
        assert frobenius(exp_map(v), r) < 1e-9


def test_exp_log_exactly_pi(rng):
    for _ in range(20):
        axis = _haar_axis(rng)
        r = axis_angle_to_matrix(AxisAngle(axis, math.pi))
        v = log_map(r)
        assert frobenius(exp_map(v), r) < 1e-9


def _haar_axis(rng):
    while True:
        v = (rng.normal(), rng.normal(), rng.normal())
        n = math.sqrt(sum(x * x for x in v))
        if n > 1e-6:
            return (v[0] / n, v[1] / n, v[2] / n)


# log_map against 40-digit mpmath: angles straddling 1e-7 and pi - 1e-6,
# where a log map with near-identity and near-pi branches switches
# formula, and pi itself
LOG_ORACLE_ANGLES = [1e-14, 1e-12, 1e-9, 1e-7 * (1 - 1e-3), 1e-7 * (1 + 1e-3),
                     1e-6, 1e-4, 0.5, 1.0, 2.0, 3.0]
LOG_ORACLE_PI_GAPS = [1e-2, 1e-4, 1.001e-6, 1e-6, 0.999e-6, 1e-8, 1e-13, 0.0]


def _log_oracle_error(axis, theta) -> float:
    """|log_map(R) - theta u| for the rotation by the mpf angle theta
    about the unit vector along axis, built in 40-digit mpmath and
    rounded once to a float matrix. At theta = pi either sign of u is
    exact."""
    import mpmath as mp
    with mp.workdps(40):
        n = mp.sqrt(sum(mp.mpf(c) ** 2 for c in axis))
        ux, uy, uz = (mp.mpf(c) / n for c in axis)
        s, omc = mp.sin(theta), 1 - mp.cos(theta)
        rows = ((1 - omc * (uy * uy + uz * uz), omc * ux * uy - s * uz,
                 omc * ux * uz + s * uy),
                (omc * ux * uy + s * uz, 1 - omc * (ux * ux + uz * uz),
                 omc * uy * uz - s * ux),
                (omc * ux * uz - s * uy, omc * uy * uz + s * ux,
                 1 - omc * (ux * ux + uy * uy)))
        v = log_map(RotationMatrix(tuple(tuple(float(c) for c in row)
                                         for row in rows))).v
        exact = (theta * ux, theta * uy, theta * uz)
        errors = [mp.sqrt(sum((got - sign * ref) ** 2
                              for got, ref in zip(v, exact)))
                  for sign in ((1, -1) if theta == mp.pi else (1,))]
        return float(min(errors))


@pytest.mark.parametrize("theta", LOG_ORACLE_ANGLES)
def test_log_map_oracle(theta, rng):
    # the skew part alone, a near-identity branch's answer, is off by
    # theta^3/6: 7.5 eps theta just below 1e-7 rad
    for _ in range(40):
        assert _log_oracle_error(_haar_axis(rng), theta) <= 4 * EPS * theta


@pytest.mark.parametrize("gap", LOG_ORACLE_PI_GAPS)
def test_log_map_near_pi_oracle(gap, rng):
    # theta / (2 sin theta) vee(R - R^T), the textbook formula, is off
    # by 2.3e5 eps theta just below pi - 1e-6, where a near-pi branch
    # would take over
    import mpmath as mp
    with mp.workdps(40):
        theta = mp.pi - mp.mpf(gap)
    for _ in range(40):
        assert _log_oracle_error(_haar_axis(rng), theta) <= 4 * EPS * float(theta)


def test_exp_log_round_trip_near_pi(rng):
    # within 4e-15 rad for theta in pi - [1e-8, 1e-3]; the textbook
    # formula loses 1.5e-10 rad just below pi - 1e-6
    gaps = [10.0 ** (-k / 4) for k in range(12, 33)] + [1.001e-6, 0.999e-6]
    for gap in gaps:
        for _ in range(20):
            r = axis_angle_to_matrix(AxisAngle(_haar_axis(rng), math.pi - gap))
            assert relative_angle(exp_map(log_map(r)), r) <= 4e-15


def test_canonicalize_rotation_vector():
    v = canonicalize_rotation_vector(RotationVector((0.0, 0.0, 4.0)))
    assert v.norm() <= math.pi
    assert v.v[2] == pytest.approx(4.0 - 2.0 * math.pi, abs=1e-12)
    small = RotationVector((0.1, 0.2, 0.3))
    assert canonicalize_rotation_vector(small) == small
    for bad in ((1e200, 0.0, 0.0), (math.nan, 0.0, 0.0)):
        with pytest.raises(DegenerateInputError, match="finite-norm invariant"):
            canonicalize_rotation_vector(RotationVector(bad))


@pytest.mark.parametrize("bad", [(1e200, 0.0, 0.0), (math.nan, 0.0, 0.0),
                                 (0.0, -math.inf, 0.0)])
def test_exp_map_rejects_non_finite_norm(bad):
    with pytest.raises(DegenerateInputError) as raised:
        exp_map(RotationVector(bad))
    with pytest.raises(DegenerateInputError) as canonical:
        canonicalize_rotation_vector(RotationVector(bad))
    assert str(raised.value) == str(canonical.value)
    assert "finite-norm invariant" in str(raised.value)


@pytest.mark.parametrize("dst", [tag for tag in REPRESENTATION_TAGS
                                 if tag != "rotvec"] + ["compose_in"])
@pytest.mark.parametrize("bad", [(1e200, 0.0, 0.0), (math.nan, 0.0, 0.0),
                                 (0.0, -math.inf, 0.0)])
def test_rotation_vector_non_finite_norm_every_route(bad, dst):
    v = RotationVector(bad)
    with pytest.raises(DegenerateInputError, match="finite-norm invariant"):
        if dst == "compose_in":
            compose_in("rotvec", v, v)
        else:
            convert(v, dst)


# ---------------------------------------------------------------------------
# small-angle branch seams agree with the unbranched formulas


def test_branch_seam_axis_angle_to_quat():
    theta = 1e-4
    seam = axis_angle_to_quat(AxisAngle((1.0, 0.0, 0.0), theta))
    unbranched = math.sin(theta / 2.0)
    assert abs(seam.x - unbranched) <= 1e-12 * abs(unbranched)


def test_branch_seam_exp_map():
    theta = 1e-4
    v = RotationVector((theta, 0.0, 0.0))
    seam = exp_map(v)
    a = math.sin(theta) / theta
    b = (1.0 - math.cos(theta)) / (theta * theta)
    unbranched = (
        (1.0, 0.0, 0.0),
        (0.0, 1.0 - b * theta * theta, -a * theta),
        (0.0, a * theta, 1.0 - b * theta * theta),
    )
    for i in range(3):
        for j in range(3):
            ref = unbranched[i][j]
            assert abs(seam.rows[i][j] - ref) <= 1e-12 * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# 6D


def test_sixd_identity():
    assert sixd_to_matrix(SixD((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))) == \
        RotationMatrix.identity()


def test_sixd_scale_and_shear_invariance():
    r = sixd_to_matrix(SixD((2.0, 0.0, 0.0), (3.0, 5.0, 0.0)))
    assert frobenius(r, RotationMatrix.identity()) < 1e-15


def test_sixd_parallel_columns_degenerate():
    with pytest.raises(DegenerateInputError):
        sixd_to_matrix(SixD((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)))


def test_sixd_positive_scaling_invariance(rng):
    for lam in (0.5, 2.0, 10.0):
        for _ in range(20):
            r = haar_matrix(rng)
            s = matrix_to_sixd(r)
            scaled_a1 = SixD(tuple(lam * v for v in s.a1), s.a2)
            scaled_a2 = SixD(s.a1, tuple(lam * v for v in s.a2))
            assert frobenius(sixd_to_matrix(scaled_a1), r) < 1e-12
            assert frobenius(sixd_to_matrix(scaled_a2), r) < 1e-12


def _exact_sixd(a1, a2):
    """Gram-Schmidt rows of the columns a1, a2 in 40-digit mpmath, and
    the sine of the angle between them."""
    import mpmath as mp
    with mp.workdps(40):
        c1 = [mp.mpf(v) for v in a1]
        c2 = [mp.mpf(v) for v in a2]
        n1 = mp.sqrt(sum(v * v for v in c1))
        b1 = [v / n1 for v in c1]
        p = sum(x * y for x, y in zip(b1, c2))
        rej = [y - p * x for x, y in zip(b1, c2)]
        n2 = mp.sqrt(sum(v * v for v in rej))
        b2 = [v / n2 for v in rej]
        b3 = [b1[1] * b2[2] - b1[2] * b2[1], b1[2] * b2[0] - b1[0] * b2[2],
              b1[0] * b2[1] - b1[1] * b2[0]]
        return ([[b1[i], b2[i], b3[i]] for i in range(3)],
                float(n2 / mp.sqrt(sum(v * v for v in c2))))


def test_sixd_to_matrix_oracle(rng):
    # Gram-Schmidt in 40-digit mpmath over column scales 1e-3..1e3; the
    # error budget is a few ulp over sin(angle between the columns), the
    # conditioning of the rejection
    for _ in range(300):
        s1, s2 = 10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-3, 3)
        a1 = (s1 * rng.normal(), s1 * rng.normal(), s1 * rng.normal())
        a2 = (s2 * rng.normal(), s2 * rng.normal(), s2 * rng.normal())
        exact, sin_angle = _exact_sixd(a1, a2)
        err = max_entry_error(sixd_to_matrix(SixD(a1, a2)), exact)
        assert err <= 4 * EPS / sin_angle


@pytest.mark.parametrize("angle", [10.0 ** -k for k in range(3, 11)])
def test_sixd_nearly_parallel_columns_give_a_rotation(angle, rng):
    # one Gram-Schmidt pass leaves the second column off orthogonal by
    # about eps/angle (3.7e-7 at 1e-9 rad, past validate's 1e-9); each
    # route must give a rotation within the oracle's conditioning budget
    import mpmath as mp
    h = haar_matrix(rng)
    for _ in range(20):
        (a, u, _), (b, v, _), (c, w, _) = haar_matrix(rng).rows
        # |a2| >= 1 keeps the rejection above the absolute GRAM_SCHMIDT_TOL
        scale = 10.0 ** rng.uniform(0, 3)
        a1 = (a, b, c)
        a2 = tuple(scale * (math.cos(angle) * x + math.sin(angle) * y)
                   for x, y in zip(a1, (u, v, w)))
        s = SixD(a1, a2)
        exact, sin_angle = _exact_sixd(a1, a2)
        with mp.workdps(40):
            composed = [[sum(exact[i][k] * h.rows[k][j] for k in range(3))
                         for j in range(3)] for i in range(3)]
        for route, value, expected in (
                ("sixd_to_matrix", sixd_to_matrix(s), exact),
                ("convert", quat_to_matrix(convert(s, "quat")), exact),
                ("compose_in", sixd_to_matrix(compose_in("sixd", s, matrix_to_sixd(h))),
                 composed)):
            assert validate(value), (route, s)
            assert max_entry_error(value, expected) <= 8 * EPS / sin_angle, (route, s)


def test_sixd_huge_columns(rng):
    for _ in range(20):
        r = haar_matrix(rng)
        s = matrix_to_sixd(r)
        huge = SixD(tuple(1e300 * v for v in s.a1), tuple(1e300 * v for v in s.a2))
        assert frobenius(sixd_to_matrix(huge), r) < 1e-14


@pytest.mark.parametrize("a1, a2", [
    ((1.0, 0.0, 0.0), (1.5e308, -1.5e308, 1e308)),   # the rejection's norm overflows
    ((1.5e308, 1.5e308, 0.0), (0.0, 1.0, 0.0)),       # the first column's norm does
])
def test_sixd_overflowing_norms(a1, a2):
    r = sixd_to_matrix(SixD(a1, a2))
    assert validate(r)
    scaled = SixD(tuple(v / max(map(abs, a1)) for v in a1),
                  tuple(v / max(map(abs, a2)) for v in a2))
    assert frobenius(r, sixd_to_matrix(scaled)) < 1e-15


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sixd_non_finite_columns_raise(bad):
    for s in (SixD((bad, 0.0, 0.0), (0.0, 1.0, 0.0)),
              SixD((1.0, 0.0, 0.0), (0.0, bad, 1.0))):
        with pytest.raises(DegenerateInputError):
            sixd_to_matrix(s)


@pytest.mark.parametrize("a1, a2, message", [
    ((1.7e308, 1.7e308, 2.35), (0.0, 0.0, 0.0), "parallel"),  # rescaled: was ZeroDivisionError
    ((1.7e308, -1.7e308, 0.0), (-0.0, 0.0, -0.0), "parallel"),
    ((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), "parallel"),  # the unscaled branch, same message
    ((0.0, 0.0, 0.0), (1.7e308, 1.7e308, 0.0), "numerically zero"),
])
def test_sixd_zero_column_raises_on_every_branch(a1, a2, message):
    with pytest.raises(DegenerateInputError, match=message):
        sixd_to_matrix(SixD(a1, a2))
    with pytest.raises(DegenerateInputError, match=message):
        convert(SixD(a1, a2), "quat")


def test_sixd_columns_at_every_power_of_two_scale(rng):
    # a positive scale of either column leaves Gram-Schmidt unchanged, so
    # tiny and huge columns rescale to the scale-1 rotation; only zero or
    # parallel columns are degenerate
    scales = [2.0 ** k for k in range(-1000, 1001, 50)]
    for _ in range(5):
        a1 = (rng.normal(), rng.normal(), rng.normal())
        a2 = (rng.normal(), rng.normal(), rng.normal())
        ref = sixd_to_matrix(SixD(a1, a2))
        for c in scales:
            for d in scales:
                r = sixd_to_matrix(SixD(tuple(c * v for v in a1),
                                        tuple(d * v for v in a2)))
                assert validate(r), (c, d)
                assert max_entry_error(r, ref.rows) <= 8 * EPS, (c, d)
            with pytest.raises(DegenerateInputError, match="numerically zero"):
                sixd_to_matrix(SixD((0.0, 0.0, 0.0), tuple(c * v for v in a2)))
            with pytest.raises(DegenerateInputError, match="parallel"):
                sixd_to_matrix(SixD(tuple(c * v for v in a1), a1))
    # 45 degrees apart, and a tiny first column
    assert sixd_to_matrix(SixD((1.0, 0.0, 0.0), (1e-13, 1e-13, 0.0))) == \
        RotationMatrix.identity()
    assert sixd_to_matrix(SixD((1e-13, 0.0, 0.0), (0.0, 1.0, 0.0))) == \
        RotationMatrix.identity()


def test_matrix_to_sixd_examples(rng):
    s = matrix_to_sixd(RotationMatrix.identity())
    assert s.a1 == (1.0, 0.0, 0.0)
    assert s.a2 == (0.0, 1.0, 0.0)
    rz = RotationMatrix(RZ90_ROWS)
    s = matrix_to_sixd(rz)
    assert s.a1 == (0.0, 1.0, 0.0)
    assert s.a2 == (-1.0, 0.0, 0.0)
    for _ in range(100):
        r = haar_matrix(rng)
        assert frobenius(sixd_to_matrix(matrix_to_sixd(r)), r) < 1e-14


# ---------------------------------------------------------------------------
# generic convert()


def test_convert_euler_axis_angle_round_trip():
    e = EulerAngles(0.1, 0.2, 0.3)
    aa = convert(e, "axis-angle")
    back = convert(aa, "euler-zyx")
    assert frobenius(euler_to_matrix(back), euler_to_matrix(e)) < 1e-12


def test_convert_identity_everywhere():
    ident = RotationMatrix.identity()
    for tag in REPRESENTATION_TAGS:
        value = convert(ident, tag)
        again = convert(value, "matrix")
        assert frobenius(again, ident) < 1e-12


def test_convert_sixd_to_rotvec(rng):
    for _ in range(50):
        r = haar_matrix(rng)
        v = convert(matrix_to_sixd(r), "rotvec")
        assert frobenius(exp_map(v), r) < 1e-9


@pytest.mark.parametrize("rep", _REGISTRY, ids=lambda rep: rep.tag)
def test_registry_entry(rep, rng):
    # every result has exactly the registry's type: compose_in dispatches
    # on exact types, so a plain tuple or a subclass would not compose
    for _ in range(20):
        r = haar_matrix(rng)
        value = rep.from_matrix(r)
        assert type(value) is rep.type
        assert tag_of(value) == rep.tag
        assert convert(r, rep.tag) == value
        assert len(rep.components(value)) == rep.arity
        assert type(rep.to_matrix(value)) is RotationMatrix
        assert relative_angle(rep.to_matrix(value), r) < 1e-9
        via_hub = rep.from_hub(rep.to_hub(value))
        assert type(via_hub) is rep.type
        assert relative_angle(rep.to_matrix(via_hub), r) < 1e-9
        assert type(compose_in(rep.tag, value, via_hub)) is rep.type
        for out in _REGISTRY:
            assert type(convert(value, out.tag)) is out.type


def _reference_convert(value, dst):
    """convert with its route worked out on every call, as before the
    routes were resolved once at import: the oracle for the route table."""
    out = _BY_TAG.get(dst)
    if out is None:
        raise DegenerateInputError(f"unknown destination representation {dst!r}")
    src = tag_of(value)
    if src == dst:
        return value
    if src == AXIS_ANGLE and dst == ROTVEC:
        return axis_angle_to_rotation_vector(value)
    if src == ROTVEC and dst == AXIS_ANGLE:
        return rotation_vector_to_axis_angle(value)
    if src == MATRIX and dst == SIXD:  # the one matrix-hub route that validates
        check = validate(value)
        if not check:
            raise InvalidRotationError(
                "matrix violates the rotation invariants (orthogonality residual "
                f"{check.orthogonality_residual:.3e}, determinant residual "
                f"{check.determinant_residual:.3e})")
        return matrix_to_sixd(value)
    rep = _BY_TYPE[type(value)]
    if rep.hub == MATRIX:
        return out.from_matrix(rep.to_matrix(value))
    q = rep.to_hub(value)
    if out.hub == QUAT:
        return out.from_hub(q)
    return out.from_matrix(quat_to_matrix(q))


def _outcome(conv, value, dst):
    """(type, repr) of conv's result, or (type, message) of the exception
    it raised; repr tells -0.0 from 0.0."""
    try:
        result = conv(value, dst)
    except Exception as exc:  # the oracle compares every exception
        return type(exc), str(exc)
    return type(result), repr(result)


# Euler conventions without a registry tag: they convert from their
# angles to every tag through the euler-zyx entry
OTHER_CONVENTIONS = [EulerConvention("ZXZ"), EulerConvention("XYX"),
                     EulerConvention("YZX"), EulerConvention("ZYZ", intrinsic=False),
                     EulerConvention("ZYX", intrinsic=False),
                     EulerConvention("XYZ", intrinsic=False), EulerConvention("YXY")]


def _route_sources(rng):
    """Haar and seam values of every tag, Euler values in conventions
    without a tag, and values some spoke rejects."""
    matrices = [haar_matrix(rng) for _ in range(12)]
    matrices += [RotationMatrix.identity(), RotationMatrix(RZ90_ROWS),
                 quat_to_matrix(UnitQuaternion(0.0, 1.0, 0.0, 0.0)),
                 quat_to_matrix(UnitQuaternion(0.0, 0.0, SQ2, -SQ2)),
                 exp_map(RotationVector((math.pi - 1e-9, 0.0, 0.0))),
                 euler_to_matrix(EulerAngles(0.3, math.pi / 2, -0.2)),
                 euler_to_matrix(EulerAngles(0.3, -math.pi / 2 + 1e-9, 0.1, XYZ))]
    matrices += [exp_map(RotationVector((t, -0.5 * t, 0.25 * t)))
                 for t in (1e-3, 1e-5, 1e-9, 1e-13)]
    values = [rep.from_matrix(r) for rep in _REGISTRY for r in matrices]
    for conv in OTHER_CONVENTIONS:
        values += [EulerAngles(rng.uniform(-3.0, 3.0), rng.uniform(-1.5, 1.5),
                               rng.uniform(-3.0, 3.0), conv) for _ in range(4)]
        values += [EulerAngles(0.0, 0.0, 0.0, conv), EulerAngles(0.4, 1e-9, -0.4, conv),
                   EulerAngles(1.0, math.pi / 2, 0.5, conv)]
    values += [
        UnitQuaternion(-0.5, 0.5, -0.5, 0.5), UnitQuaternion(3.0, -1.0, 2.0, 0.5),
        UnitQuaternion(0.0, 0.0, 0.0, 0.0), UnitQuaternion(1e200, 0.0, 0.0, 0.0),
        UnitQuaternion(math.nan, 0.0, 0.0, 1.0),
        AxisAngle(DEFAULT_AXIS, 0.0), AxisAngle((0.0, 1.0, 0.0), math.pi),
        AxisAngle((SQ2, 0.0, -SQ2), 1e-6),
        RotationVector((0.0, 0.0, 0.0)), RotationVector((4.0, -1.0, 2.0)),
        RotationVector((1e-14, 0.0, 0.0)), RotationVector((1e200, 0.0, 0.0)),
        RotationVector((math.nan, 0.0, 0.0)),
        SixD((2.0, 0.0, 0.0), (1.0, 3.0, 0.0)), SixD((1.0, 0.0, 0.0), (2.0, 0.0, 0.0)),
        SixD((0.0, 0.0, 0.0), (0.0, 1.0, 0.0)), SixD((1e300, 1e300, 0.0), (0.0, 1.0, 1.0)),
        RotationMatrix(((1.0, 0.1, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))),
        RotationMatrix(((math.nan, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))),
    ]
    return values


def test_route_table_matches_reference_convert(rng):
    # every (source, destination) pair: the same value, bit for bit, with
    # the same exact type, or the same exception with the same message
    sources = _route_sources(rng)
    assert {tag_of(v) for v in sources} >= set(REPRESENTATION_TAGS)
    assert len({v.convention for v in sources if type(v) is EulerAngles}) >= 8
    for value in sources:
        for dst in REPRESENTATION_TAGS:
            assert (_outcome(convert, value, dst)
                    == _outcome(_reference_convert, value, dst)), (value, dst)


def test_convert_same_tag_returns_the_value_itself(rng):
    for rep in _REGISTRY:
        value = rep.from_matrix(haar_matrix(rng))
        assert convert(value, rep.tag) is value
    for conv in OTHER_CONVENTIONS:
        e = EulerAngles(0.1, 0.2, 0.3, conv)
        assert convert(e, "euler-zyx") is not e
        assert tag_of(convert(e, "euler-zyx")) == "euler-zyx"
    # a convention built by the caller is the interned object itself
    e = EulerAngles(0.1, 0.2, 0.3, EulerConvention("XYZ"))
    assert e.convention is XYZ
    assert convert(e, "euler-xyz") is e
    # a raw tuple equal to XYZ is no convention
    with pytest.raises(DegenerateInputError, match="not an EulerConvention"):
        convert(e._replace(convention=("XYZ", True)), "euler-xyz")


@pytest.mark.parametrize("convention", [("ZYX", True), "ZYX", None, ("ZYX",)],
                         ids=["raw-tuple", "string", "none", "one-tuple"])
@pytest.mark.parametrize("call", ["convert", "euler_to_matrix", "compose_in", "tag_of",
                                  "quat_to_euler"])
def test_non_convention_raises_rotation_error(convention, call):
    e = EulerAngles(0.1, 0.2, 0.3, convention)
    q = UnitQuaternion(0.9, 0.1, -0.3, 0.2).normalized()
    if call == "quat_to_euler" and convention is None:  # None is the ZYX default
        assert quat_to_euler(q, None) == quat_to_euler(q, ZYX)
        return
    run = {"convert": lambda: [convert(e, tag) for tag in REPRESENTATION_TAGS],
           "euler_to_matrix": lambda: euler_to_matrix(e),
           "compose_in": lambda: compose_in("euler-zyx", e, e),
           "tag_of": lambda: tag_of(e),
           "quat_to_euler": lambda: quat_to_euler(q, convention)}[call]
    with pytest.raises(DegenerateInputError, match="not an EulerConvention"):
        run()


@pytest.mark.parametrize("value, dst", [
    (RotationMatrix.identity(), "octonion"),
    (UnitQuaternion.identity(), "euler-zxz-intrinsic"),
    (EulerAngles(0.1, 0.2, 0.3, EulerConvention("ZXZ")), "euler-zxz-intrinsic"),
    (EulerAngles(0.1, 0.2, 0.3), "euler-zyx-extrinsic"),
    ((1.0, 0.0, 0.0, 0.0), "quat"),
    (None, "matrix"),
    ("quat", "quat"),
    (((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), "matrix"),
    (None, "octonion"),
])
def test_convert_errors_match_reference(value, dst):
    # unknown destination first, then a value that is no representation;
    # an Euler tag without a registry entry is an unknown destination
    got, want = _outcome(convert, value, dst), _outcome(_reference_convert, value, dst)
    assert got == want
    assert got[0] is DegenerateInputError


def test_route_table_one_entry_per_type_and_tag():
    types = {rep.type for rep in _REGISTRY}
    assert set(_ROUTES) == {(t, rep.tag) for t in types for rep in _REGISTRY}
    assert len(_ROUTES) == len(types) * len(REPRESENTATION_TAGS) == 42


def test_registry_tags_cli_choices_and_report_rows():
    import argparse
    from rotrepr.bench import REPRESENTATIONS, ROTATION_REPRESENTATIONS, STORAGE_BYTES
    from rotrepr.cli import build_parser

    assert REPRESENTATION_TAGS == tuple(rep.tag for rep in _REGISTRY)
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    choices = {a.dest: a.choices for a in sub.choices["convert"]._actions}
    assert tuple(choices["src"]) == tuple(choices["dst"]) == REPRESENTATION_TAGS
    assert REPRESENTATIONS == ("euler", "axis-angle", "quaternion", "matrix",
                               "exp-map", "sixd", "fisher")
    rows = {rep.row: rep for rep in _REGISTRY if rep.row is not None}
    assert set(rows) == set(ROTATION_REPRESENTATIONS)
    for row, rep in rows.items():
        assert STORAGE_BYTES[row] == rep.storage_bytes


def test_convert_unknown_tag():
    with pytest.raises(DegenerateInputError):
        convert(RotationMatrix.identity(), "octonion")


def test_round_trip_every_representation_pair(rng):
    # 1000 Haar samples cycled over all ordered representation pairs;
    # gimbal-band rotations excluded by resampling, per the sampler contract
    tags = list(REPRESENTATION_TAGS)
    pairs = [(s, d) for s in tags for d in tags]
    count = 0
    while count < 1000:
        r = haar_matrix(rng)
        if abs(matrix_to_euler(r).beta) > math.pi / 2 - 0.05:
            continue
        src, dst = pairs[count % len(pairs)]
        x = convert(r, src)
        y = convert(x, dst)
        back = convert(y, "matrix")
        assert relative_angle(back, r) < 1e-9, (src, dst)
        count += 1


# ---------------------------------------------------------------------------
# from_components: the checked inverse of components()


@pytest.mark.parametrize("rep", _REGISTRY, ids=lambda rep: rep.tag)
def test_from_components_inverts_components(rep, rng):
    for _ in range(500):
        value = convert(haar_quat(rng), rep.tag)
        back = rep.from_components(list(rep.components(value)))
        assert type(back) is rep.type
        if rep.tag == AXIS_ANGLE:
            # the axis is renormalized by its computed norm, which moves a
            # unit axis's components by at most one ulp of 1
            assert back.angle == value.angle
            assert back.axis == pytest.approx(value.axis, abs=2.3e-16)
        else:
            assert back == value


@pytest.mark.parametrize("axis", [(1.0 + 2e-6, 0.0, 0.0), (0.0, 1.0 - 2e-6, 0.0),
                                  (2.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1e200, 0.0, 0.0),
                                  (0.6, 0.8, 0.1)])
@pytest.mark.parametrize("theta", [2e-12, 1e-6, 1.0, math.pi])
def test_from_components_rejects_non_unit_axes(axis, theta):
    with pytest.raises(InvalidRotationError, match="unit-axis invariant"):
        _BY_TAG[AXIS_ANGLE].from_components([*axis, theta])


@pytest.mark.parametrize("theta", [-0.1, -1e-300, 4.0, math.nextafter(math.pi, 4.0),
                                   math.nan])
def test_from_components_rejects_angles_outside_zero_pi(theta):
    with pytest.raises(InvalidRotationError, match=r"\[0, pi\] invariant"):
        _BY_TAG[AXIS_ANGLE].from_components([0.0, 0.0, 1.0, theta])


@pytest.mark.parametrize("c, want", [
    ((1.0, 0.0, 0.0, 1e-13), ((1.0, 0.0, 0.0), 1e-13)),
    ((0.0, -3.0, 4.0, 1e-12), ((0.0, -0.6, 0.8), 1e-12)),
    ((1e200, 0.0, 0.0, 0.0), ((1.0, 0.0, 0.0), 0.0)),
    ((0.0, 0.0, 0.0, 0.0), (DEFAULT_AXIS, 0.0)),
])
def test_from_components_keeps_the_axis_of_a_tiny_rotation(c, want):
    # at or below 1e-12 rad any axis is accepted and taken as its direction
    assert _BY_TAG[AXIS_ANGLE].from_components(list(c)) == want


def _accepted_axis_angles(rng, n):
    """Values from_components accepts: Haar axes up to 1e-6 off unit,
    angles uniform on [0, pi], log-uniform in 1e-12..1e-3, and that far
    below pi."""
    rep = _BY_TAG[AXIS_ANGLE]
    for i in range(n):
        a = haar_quat(rng).vector()
        s = (1.0 + rng.uniform(-0.999e-6, 0.999e-6)) / math.hypot(*a)
        tiny = 10.0 ** rng.uniform(-12.0, -3.0)
        theta = (rng.uniform(0.0, math.pi), tiny, math.pi - tiny)[i % 3]
        yield rep.from_components([a[0] * s, a[1] * s, a[2] * s, theta])


def test_axis_angle_routes_agree_on_accepted_values(rng):
    # the spokes take the unit axis as given; on every value
    # from_components accepts, the routes to the matrix agree (measured
    # at most 1.4e-15 rad over 20000 values)
    identity = AxisAngle(DEFAULT_AXIS, 0.0)
    for aa in _accepted_axis_angles(rng, 3000):
        routes = [convert(aa, "matrix"), axis_angle_to_matrix(aa),
                  quat_to_matrix(axis_angle_to_quat(aa)),
                  exp_map(axis_angle_to_rotation_vector(aa)),
                  convert(compose_in(AXIS_ANGLE, aa, identity), "matrix")]
        for i, r in enumerate(routes):
            for other in routes[i + 1:]:
                assert relative_angle(r, other) < 4e-15, aa


@pytest.mark.parametrize("rows", [((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0)),
                                  ((math.nan, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
                                  ((2.0, 0.0, 0.0), (0.0, 0.5, 0.0), (0.0, 0.0, 1.0))])
def test_convert_matrix_to_sixd_validates(rows):
    m = RotationMatrix(rows)
    with pytest.raises(InvalidRotationError, match="rotation invariants"):
        convert(m, "sixd")
    assert matrix_to_sixd(m) == (m.column(0), m.column(1))  # the spoke stays unchecked


@pytest.mark.parametrize("rep", _REGISTRY, ids=lambda rep: rep.tag)
def test_from_components_checks_the_count(rep, rng):
    c = list(rep.components(convert(haar_quat(rng), rep.tag)))
    for wrong in (c[:-1], c + [0.5]):
        with pytest.raises(DegenerateInputError) as info:
            rep.from_components(wrong)
        assert str(info.value) == (f"{rep.tag} takes {rep.arity} components, "
                                   f"got {len(wrong)}")


# ---------------------------------------------------------------------------
# _euler_quat against a copy of its lookup-first form, bit for bit


_OLD_TAIT_BRYAN = {"ZYX": (1, 2, 3, 1.0), "XYZ": (3, 2, 1, -1.0)}


def _old_euler_quat(e):
    alpha, beta, gamma, (axes, intrinsic) = e
    if intrinsic and axes in _OLD_TAIT_BRYAN:
        ca, sa = math.cos(0.5 * alpha), math.sin(0.5 * alpha)
        cb, sb = math.cos(0.5 * beta), math.sin(0.5 * beta)
        cg, sg = math.cos(0.5 * gamma), math.sin(0.5 * gamma)
        if axes == "ZYX":
            return (ca * cb * cg + sa * sb * sg, ca * cb * sg - sa * sb * cg,
                    ca * sb * cg + sa * cb * sg, sa * cb * cg - ca * sb * sg)
        return (ca * cb * cg - sa * sb * sg, sa * cb * cg + ca * sb * sg,
                ca * sb * cg - sa * cb * sg, ca * cb * sg + sa * sb * cg)
    return _generic_euler_quat(e)


def _generic_euler_quat(e):
    alpha, beta, gamma, (axes, intrinsic) = e
    angles = (alpha, beta, gamma)
    q = (1.0, 0.0, 0.0, 0.0)
    for k in ((0, 1, 2) if intrinsic else (2, 1, 0)):
        factor = [math.cos(0.5 * angles[k]), 0.0, 0.0, 0.0]
        factor["XYZ".index(axes[k]) + 1] = math.sin(0.5 * angles[k])
        q = _hamilton(q, factor)
    return q


def _quat_bits(f, value):
    try:
        out = f(value)
    except Exception as exc:  # noqa: BLE001 - the oracle compares any exception
        return type(exc), str(exc)
    return type(out), tuple(c.hex() for c in out)


def test_euler_quat_matches_lookup_first_form_bit_for_bit(rng):
    axes = ("XYZ", "XZY", "YXZ", "YZX", "ZXY", "ZYX",
            "XYX", "XZX", "YXY", "YZY", "ZXZ", "ZYZ")
    conventions = [EulerConvention(a, i) for a in axes for i in (True, False)]
    assert len(set(conventions)) == 24 and ZYX in conventions and XYZ in conventions
    odd = (0.0, -0.0, 5e-324, 1e-170, 0.5 * math.pi, -0.5 * math.pi, math.pi,
           1e300, -1.7e308, math.nan, math.inf)
    triples = [(rng.uniform(-math.pi, math.pi), rng.uniform(-0.5 * math.pi, 0.5 * math.pi),
                rng.uniform(-math.pi, math.pi)) for _ in range(100)]
    triples += [(a, b, 0.3) for a in odd for b in odd] + [(0.2, -0.7, g) for g in odd]
    for conv in conventions:
        for t in triples:
            e = EulerAngles(*t, conv)
            assert _quat_bits(_euler_quat, e) == _quat_bits(_old_euler_quat, e), e
    malformed = [EulerAngles(0.1, 0.2, 0.3, "ZYX"), EulerAngles(0.1, 0.2, 0.3, None),
                 EulerAngles(0.1, 0.2, 0.3, ("ZYX",)), EulerAngles("a", 0.2, 0.3, ZYX),
                 EulerAngles(0.1, 0.2, 0.3, ("ZYX", True, 1)), (0.1, 0.2, 0.3),
                 EulerAngles(0.1, 0.2, 0.3, (["Z", "Y", "X"], True)),
                 EulerAngles(0.1, 0.2, 0.3, ("ABC", True)),
                 EulerAngles(0.1, 0.2, 0.3, ("ZYX", 1)), EulerAngles(0.1, 0.2, 0.3, ("XYZ", 0)),
                 EulerAngles(0.1, None, 0.3, XYZ)]
    for e in malformed:
        if len(e) == 4 and type(e[3]) is not EulerConvention:
            # no interned convention: a RotationError, where the lookup-first
            # form computed raw tuples or raised ValueError/TypeError
            assert _quat_bits(_euler_quat, e) == (
                DegenerateInputError, f"not an EulerConvention: {e[3]!r}")
        else:
            assert _quat_bits(_euler_quat, e) == _quat_bits(_old_euler_quat, e), e


# ---------------------------------------------------------------------------
# the quaternion spokes normalize through UnitQuaternion.normalized


def _old_unit_quat(q):
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return UnitQuaternion(w / n, x / n, y / n, z / n)


def test_quat_spokes_normalize_as_the_plain_divider_in_band(rng):
    # |q|^2 stays in [1e-300, inf) for these values, where normalized()
    # takes no rescaling branch
    values = []
    for _ in range(200):
        q = haar_quat(rng)
        values += [quat_to_axis_angle(q), quat_to_rotation_vector(q),
                   quat_to_euler(q, ZYX), quat_to_euler(q, XYZ)]
    values += [AxisAngle((0.6 * s, 0.8 * s, 0.0), 1.0) for s in (1e-140, 1e-9, 3.0, 1e150)]
    spokes = {AxisAngle: (axis_angle_to_quat, _axis_angle_quat),
              RotationVector: (rotation_vector_to_quat, _rotation_vector_quat),
              EulerAngles: (euler_to_quat, _euler_quat)}
    for value in values:
        spoke, raw = spokes[type(value)]
        expected = _quat_bits(lambda v: _old_unit_quat(raw(v)), value)
        assert _quat_bits(spoke, value) == expected, value
        assert _quat_bits(lambda v: convert(v, "quat"), value) == expected, value


def test_quat_spokes_rescale_outside_the_band():
    # the plain divider returned the zero quaternion here (|q|^2 = inf)
    assert convert(AxisAngle((1e200, 0.0, 0.0), 1.0), "quat") == \
        UnitQuaternion(math.cos(0.5) / (1e200 * math.sin(0.5)), 1.0, 0.0, 0.0)
    with pytest.raises(DegenerateInputError, match="not finite"):
        axis_angle_to_quat(AxisAngle((math.nan, 0.0, 0.0), 1.0))
