import math

import pytest

from rotrepr import (
    AxisAngle,
    EulerAngles,
    RotationMatrix,
    RotationVector,
    UnitQuaternion,
    compose_in,
    matrix_mul,
    quat_conjugate,
    quat_inverse,
    quat_mul,
    relative_angle,
    rotate_vector,
    validate,
)
from rotrepr.convert import (
    REPRESENTATION_TAGS,
    _hamilton,
    axis_angle_to_matrix,
    convert,
    quat_to_matrix,
    tag_of,
)
from rotrepr.errors import DegenerateInputError, InvalidRotationError

from conftest import (SMALL_ANGLES, exact_hamilton, exact_quat, exact_rotation_vector,
                      frobenius, haar_matrix, haar_quat)

SQ2 = math.sqrt(0.5)


# ---------------------------------------------------------------------------
# quaternion product


def test_quat_mul_identity_element(rng):
    q = haar_quat(rng)
    out = quat_mul(q, UnitQuaternion.identity())
    assert out.as_tuple() == pytest.approx(q.as_tuple(), abs=1e-15)


def test_quat_mul_ij_equals_k():
    i = UnitQuaternion(0.0, 1.0, 0.0, 0.0)
    j = UnitQuaternion(0.0, 0.0, 1.0, 0.0)
    k = UnitQuaternion(0.0, 0.0, 0.0, 1.0)
    assert quat_mul(i, j) == k
    assert quat_mul(j, i).as_tuple() == pytest.approx((0, 0, 0, -1), abs=1e-15)


@pytest.mark.parametrize("p, q, product", [
    ((1e200, 0.0, 0.0, 0.0), (1e200, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
    ((1e-170, 0.0, 0.0, 0.0), (1e-170, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
    ((1e160, 1e160, 0.0, 0.0), (1e160, 1e160, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)),
    ((0.0, 1e-200, 0.0, 0.0), (0.0, 0.0, 3e-150, 0.0), (0.0, 0.0, 0.0, 1.0)),
    ((1e300, 0.0, 0.0, 0.0), (0.0, 0.0, 1e-300, 0.0), (0.0, 0.0, 1.0, 0.0)),
])
def test_quat_mul_huge_and_tiny_operands(p, q, product):
    # the product's squared norm overflows to inf (or inf - inf = nan)
    # or underflows below 1e-300; both operands are rescaled first
    p, q = UnitQuaternion(*p), UnitQuaternion(*q)
    for out in (quat_mul(p, q), compose_in("quat", p, q)):
        assert type(out) is UnitQuaternion
        assert out == pytest.approx(product, abs=1e-16)
        assert out.norm() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("bad", [(0.0, 0.0, 0.0, 0.0), (math.nan, 0.0, 0.0, 0.0),
                                 (0.0, math.inf, 0.0, 0.0)])
def test_quat_mul_zero_or_non_finite_operand_raises(bad, rng):
    q = haar_quat(rng)
    for p1, p2 in ((UnitQuaternion(*bad), q), (q, UnitQuaternion(*bad))):
        with pytest.raises(DegenerateInputError):
            quat_mul(p1, p2)
        with pytest.raises(DegenerateInputError):
            compose_in("quat", p1, p2)


def test_quat_mul_in_range_bit_identical(rng):
    # in range the product is divided by sqrt(w^2 + x^2 + y^2 + z^2) of
    # the Hamilton product, as before the rescaling branch
    for k in (1e-70, 0.01, 1.0, 3.0, 1e70):
        for _ in range(50):
            p = UnitQuaternion(*(c * k for c in haar_quat(rng)))
            q = haar_quat(rng)
            w, x, y, z = _hamilton(p, q)
            n = math.sqrt(w * w + x * x + y * y + z * z)
            assert repr(quat_mul(p, q)) == repr(UnitQuaternion(w / n, x / n, y / n, z / n))


def test_quat_mul_matches_matrix_route(rng):
    for _ in range(200):
        p, q = haar_quat(rng), haar_quat(rng)
        lhs = quat_to_matrix(quat_mul(p, q))
        rhs = matrix_mul(quat_to_matrix(p), quat_to_matrix(q))
        assert frobenius(lhs, rhs) < 1e-13


def test_quat_mul_associative(rng):
    for _ in range(100):
        a, b, c = haar_quat(rng), haar_quat(rng), haar_quat(rng)
        lhs = quat_mul(quat_mul(a, b), c)
        rhs = quat_mul(a, quat_mul(b, c))
        assert relative_angle(quat_to_matrix(lhs), quat_to_matrix(rhs)) < 1e-12


def test_quat_conjugate_and_inverse(rng):
    q = UnitQuaternion(SQ2, 0.0, 0.0, SQ2)
    assert quat_conjugate(q) == UnitQuaternion(SQ2, 0.0, 0.0, -SQ2)
    for _ in range(50):
        q = haar_quat(rng)
        prod = quat_mul(q, quat_inverse(q))
        assert prod.as_tuple() == pytest.approx((1, 0, 0, 0), abs=1e-15)
        p = (rng.normal(), rng.normal(), rng.normal())
        back = rotate_vector(quat_conjugate(q), rotate_vector(q, p))
        assert back == pytest.approx(p, abs=1e-12)


# ---------------------------------------------------------------------------
# matrix product


def test_matrix_mul_identity(rng):
    r = haar_matrix(rng)
    assert frobenius(matrix_mul(r, RotationMatrix.identity()), r) == 0.0


def test_matrix_mul_abelian_subgroup():
    def rz(a):
        return axis_angle_to_matrix(AxisAngle((0.0, 0.0, 1.0), a))
    got = matrix_mul(rz(0.7), rz(0.9))
    assert frobenius(got, rz(1.6)) < 1e-13


def test_matrix_mul_chain_drift(rng):
    r = RotationMatrix.identity()
    for _ in range(10000):
        r = matrix_mul(r, haar_matrix(rng))
    assert validate(r).orthogonality_residual < 1e-9


def test_matrix_mul_reprojects_a_drifted_product(rng):
    # an operand 1e-6 off orthonormal puts the product past the 1e-9
    # tolerance: the result is the projection of the raw product
    from rotrepr.core import mat_mul_rows, project_to_so3
    off = RotationMatrix(((1.0 + 1e-6, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
    h = haar_matrix(rng)
    got = matrix_mul(off, h)
    assert validate(got)
    assert got == project_to_so3(mat_mul_rows(off.rows, h.rows))


def test_matrix_mul_rejects_nan_product():
    nan = RotationMatrix(((math.nan, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
    with pytest.raises(InvalidRotationError):
        matrix_mul(nan, RotationMatrix.identity())


# ---------------------------------------------------------------------------
# compose_in


def test_compose_euler_shared_axis():
    e1 = EulerAngles(0.1, 0.0, 0.0)
    e2 = EulerAngles(0.2, 0.0, 0.0)
    out = compose_in("euler-zyx", e1, e2)
    assert out.as_tuple() == pytest.approx((0.3, 0.0, 0.0), abs=1e-12)


def test_compose_rotvec_shared_axis_adds():
    v1 = RotationVector((0.0, 0.0, 1.0))
    out = compose_in("rotvec", v1, v1)
    assert out.v == pytest.approx((0.0, 0.0, 2.0), abs=1e-12)


def test_compose_sixd_matches_matrix_reference(rng):
    for _ in range(50):
        r1, r2 = haar_matrix(rng), haar_matrix(rng)
        s1, s2 = convert(r1, "sixd"), convert(r2, "sixd")
        composed = compose_in("sixd", s1, s2)
        reference = matrix_mul(r1, r2)
        assert relative_angle(convert(composed, "matrix"), reference) < 1e-9


def test_compose_tag_mismatch(rng):
    with pytest.raises(DegenerateInputError):
        compose_in("quat", UnitQuaternion.identity(), RotationMatrix.identity())
    r = haar_matrix(rng)
    values = {tag: convert(r, tag) for tag in REPRESENTATION_TAGS}
    for tag, value in values.items():
        for other_tag, other in values.items():
            if other_tag == tag:
                continue
            with pytest.raises(DegenerateInputError):
                compose_in(tag, value, other)
            with pytest.raises(DegenerateInputError):
                compose_in(tag, other, value)
    xyz = values["euler-xyz"]
    with pytest.raises(DegenerateInputError):
        compose_in("euler-zyx", xyz, xyz)
    # conventions are interned and compared by identity: a raw tuple equal
    # to ZYX is no convention
    raw = values["euler-zyx"]._replace(convention=("ZYX", True))
    for x1, x2 in ((raw, raw), (raw, values["euler-zyx"]), (values["euler-zyx"], raw)):
        with pytest.raises(DegenerateInputError):
            compose_in("euler-zyx", x1, x2)


@pytest.mark.parametrize("tag", ["quat", "matrix", "euler-zyx", "euler-xyz",
                                 "axis-angle", "rotvec", "sixd"])
def test_compose_matches_matrix_route_everywhere(tag, rng):
    for _ in range(50):
        r1, r2 = haar_matrix(rng), haar_matrix(rng)
        x1, x2 = convert(r1, tag), convert(r2, tag)
        composed = compose_in(tag, x1, x2)
        assert tag_of(composed) == tag
        reference = matrix_mul(r1, r2)
        assert relative_angle(convert(composed, "matrix"), reference) < 1e-9


@pytest.mark.parametrize("tag", ["quat", "matrix", "euler-zyx", "euler-xyz",
                                 "axis-angle", "rotvec", "sixd"])
def test_compose_associativity_all_representations(tag, rng):
    # 588 sampled triples spread across the seven representations
    for _ in range(84):
        ms = [haar_matrix(rng) for _ in range(3)]
        a, b, c = (convert(m, tag) for m in ms)
        lhs = compose_in(tag, compose_in(tag, a, b), c)
        rhs = compose_in(tag, a, compose_in(tag, b, c))
        assert relative_angle(convert(lhs, "matrix"),
                              convert(rhs, "matrix")) < 1e-12


def _unit_axis(rng):
    q = haar_quat(rng)
    n = math.sqrt(q.x * q.x + q.y * q.y + q.z * q.z)
    return (q.x / n, q.y / n, q.z / n)


@pytest.mark.parametrize("theta", SMALL_ANGLES)
def test_compose_small_angles_oracle(theta, rng):
    # the composed rotation against a 40-digit product of the exact
    # operand quaternions; the old 2 arccos(w) extraction gave 4e-4
    # relative error composing 1e-7 with 1e-7 rad
    for _ in range(5):
        t1, t2 = theta, theta * (0.5 + rng.random())
        u1, u2 = _unit_axis(rng), _unit_axis(rng)
        v1 = RotationVector(tuple(c * t1 for c in u1))
        v2 = RotationVector(tuple(c * t2 for c in u2))
        exact = exact_rotation_vector(exact_hamilton(exact_quat(v1.v),
                                                     exact_quat(v2.v)))
        got = compose_in("rotvec", v1, v2)
        for g, ref in zip(got.v, exact):
            assert abs(g - ref) <= 2e-15 * (t1 + t2)

        a1, a2 = AxisAngle(u1, t1), AxisAngle(u2, t2)
        exact = exact_rotation_vector(exact_hamilton(
            exact_quat(tuple(c * t1 for c in u1)), exact_quat(tuple(c * t2 for c in u2))))
        angle = math.sqrt(sum(c * c for c in exact))
        got = compose_in("axis-angle", a1, a2)
        assert abs(got.angle - angle) <= 2e-15 * (t1 + t2)
        for g, ref in zip(got.axis, exact):
            assert abs(g * angle - ref) <= 2e-15 * (t1 + t2)


def test_cross_representation_consistency(rng):
    # converting then composing equals composing then converting
    tags = ["quat", "matrix", "euler-zyx", "axis-angle", "rotvec", "sixd"]
    for _ in range(20):
        r1, r2 = haar_matrix(rng), haar_matrix(rng)
        reference = matrix_mul(r1, r2)
        for src in tags:
            composed = compose_in(src, convert(r1, src), convert(r2, src))
            for dst in tags:
                moved = convert(composed, dst)
                assert relative_angle(convert(moved, "matrix"),
                                      reference) < 1e-9


def test_quat_identity_inverse_laws(rng):
    for _ in range(100):
        q = haar_quat(rng)
        e = quat_mul(quat_inverse(q), q)
        assert relative_angle(quat_to_matrix(e),
                              RotationMatrix.identity()) < 1e-12
        r = haar_matrix(rng)
        assert relative_angle(matrix_mul(r.transpose(), r),
                              RotationMatrix.identity()) < 1e-12
