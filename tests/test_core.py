import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotrepr import (
    DegenerateInputError,
    MatrixFisher,
    Rng,
    RotationMatrix,
    UnitQuaternion,
    canonicalize,
    fisher_mode,
    geodesic_distance,
    project_to_so3,
    relative_angle,
    rotate_vector,
    sample_uniform,
    validate,
)
from rotrepr.compose import matrix_mul
from rotrepr.convert import axis_angle_to_matrix, quat_to_matrix
from rotrepr.core import AxisAngle, _project_stack, mat_mul_rows

from conftest import haar_matrix, haar_quat

FINITE = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


# ---------------------------------------------------------------------------
# validate


def test_validate_identity():
    res = validate(RotationMatrix.identity())
    assert res.ok
    assert res.orthogonality_residual == 0.0
    assert res.determinant_residual == 0.0


def test_validate_scaled_row_fails(rng):
    r = haar_matrix(rng)
    rows = [list(row) for row in r.rows]
    rows[0] = [1.001 * v for v in rows[0]]
    res = validate(rows)
    assert not res.ok
    # ||R^T R - I||_F picks up ~2e-3 from the scaled row: the Gram matrix
    # has one diagonal entry 1.001^2 and two off-diagonal smears
    assert res.orthogonality_residual == pytest.approx(2.0e-3, rel=0.3)


def test_validate_reflection_fails():
    res = validate([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    assert not res.ok
    assert res.determinant_residual == pytest.approx(2.0)
    assert res.orthogonality_residual == pytest.approx(0.0)


@pytest.mark.parametrize("m, shape", [
    ([[1, 0, 0], [0, 1, 0]], "(2, 3)"),
    (np.eye(4), "(4, 4)"),
    (np.eye(3).reshape(-1), "(9,)"),
])
def test_validate_reads_through_from_array(m, shape):
    # the one 3x3 reader: the same message as from_array and project_to_so3
    for read in (validate, RotationMatrix.from_array, project_to_so3):
        with pytest.raises(DegenerateInputError,
                           match=rf"^expected shape \(3, 3\), got {re.escape(shape)}$"):
            read(m)


# ---------------------------------------------------------------------------
# project_to_so3


def test_project_idempotent_on_rotations(rng):
    for _ in range(20):
        r = haar_matrix(rng)
        p = project_to_so3(r)
        assert relative_angle(p, r) < 1e-12


def test_project_scale_invariance_against_brute_force(rng):
    # Oracle: the projection of 1.01 R must beat every candidate rotation
    # in Frobenius distance (global Frobenius minimizer).
    r = haar_matrix(rng)
    scaled = 1.01 * r.as_array()
    p = project_to_so3(scaled)
    assert relative_angle(p, r) < 1e-9
    assert validate(p).ok
    best = np.linalg.norm(scaled - p.as_array())
    for _ in range(200):
        q = haar_matrix(rng)
        assert best <= np.linalg.norm(scaled - q.as_array()) + 1e-12
    # local candidates around the answer
    from rotrepr.compose import matrix_mul
    from rotrepr.convert import exp_map
    from rotrepr.core import RotationVector
    for _ in range(200):
        delta = RotationVector((rng.normal() * 0.05, rng.normal() * 0.05,
                                rng.normal() * 0.05))
        q = matrix_mul(p, exp_map(delta))
        assert best <= np.linalg.norm(scaled - q.as_array()) + 1e-12


def test_project_rank_deficient_raises():
    v = np.array([[1.0, 2.0, 3.0]])
    with pytest.raises(DegenerateInputError):
        project_to_so3(v.T @ v)


def _old_so3_factor(a):
    # oracle: the sign from numpy's determinant, the rows via from_array
    u, _, vt = np.linalg.svd(a)
    sign = 1.0 if float(np.linalg.det(u @ vt)) >= 0.0 else -1.0
    return RotationMatrix.from_array((u * np.array([1.0, 1.0, sign])) @ vt)


def test_so3_factor_bit_identical_to_old_formula(rng):
    gen = np.random.default_rng(7)
    reflections = 0
    for k in range(600):
        if k % 2:
            a = gen.normal(size=(3, 3)) * 10.0 ** gen.uniform(-6, 6)
        else:  # near rotations, as matrix_mul hands over after drift
            a = haar_matrix(rng).as_array() + gen.normal(size=(3, 3)) * 1e-9
        u, _, vt = np.linalg.svd(a)
        reflections += np.linalg.det(u @ vt) < 0.0
        expected = _old_so3_factor(a)
        assert project_to_so3(a) == expected
        assert fisher_mode(MatrixFisher(a)) == expected
        assert all(type(v) is float for row in expected.rows for v in row)
    assert reflections > 100


def test_project_stack_bit_identical_to_each_projection(rng):
    gen = np.random.default_rng(11)
    flip = np.diag([1.0, 1.0, -1.0])
    for size in (1, 2, 7, 256):
        stack = [haar_matrix(rng).as_array() + gen.normal(size=(3, 3)) * 1e-6
                 for _ in range(size)]
        stack[-1] = stack[-1] @ flip  # det(UV^T) = -1: the sign fix
        flipped = np.linalg.det(stack[-1]) < 0.0
        out = _project_stack(stack)
        assert flipped and len(out) == size
        assert out == [project_to_so3(a) for a in stack]
        assert all(type(v) is float for r in out for row in r.rows for v in row)
        assert out[-1] == _old_so3_factor(stack[-1])


def test_project_stack_reports_first_rank_deficient_member(rng):
    line = np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    plane = np.diag([1.0, 1.0, 0.0])
    stack = [haar_matrix(rng).as_array(), line, haar_matrix(rng).as_array(), plane]
    with pytest.raises(DegenerateInputError) as first:
        _project_stack(stack)
    with pytest.raises(DegenerateInputError) as alone:
        project_to_so3(line)
    assert str(first.value) == str(alone.value)
    assert "rank-deficient" in str(first.value)


def test_project_to_so3_infinite_entry_raises_in_a_subprocess():
    # numpy's SVD never returned on an infinite diagonal entry (and gave
    # NaNs for an off-diagonal one): a child process with a timeout turns
    # a regression into a failure, not a hung suite
    code = """
import numpy as np
from rotrepr import DegenerateInputError, project_to_so3
from rotrepr.core import _project_stack
stack = np.tile(np.eye(3), (256, 1, 1))
stack[200, 0, 0] = np.inf
stack[201, 1, 2] = -np.inf
for call, arg in ((project_to_so3, stack[200]), (_project_stack, stack),
                  (project_to_so3, stack[201])):
    try:
        call(arg)
    except DegenerateInputError as exc:
        print(exc)
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), *sys.path])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, env=env)
    assert out.returncode == 0, out.stderr
    alone, stacked, off_diagonal = out.stdout.splitlines()
    assert alone == stacked
    assert alone.startswith("matrix is not finite") and "inf" in alone
    assert off_diagonal.startswith("matrix is not finite") and "-inf" in off_diagonal


@pytest.mark.parametrize("cell", [(0, 0), (1, 2), (2, 1)])
def test_project_to_so3_nan_entry_raises(cell):
    m = np.eye(3)
    m[cell] = np.nan
    with pytest.raises(DegenerateInputError, match="not finite"):
        project_to_so3(m)


def test_project_stack_reports_first_non_finite_member(rng):
    stack = np.array([haar_matrix(rng).as_array() for _ in range(256)])
    stack[30] = np.diag([1.0, 1.0, 0.0])  # rank-deficient, but finite
    stack[100, 2, 0] = np.nan
    stack[101, 0, 0] = np.nan
    stack[200, 1, 1] = np.nan
    with pytest.raises(DegenerateInputError) as first:
        _project_stack(stack)
    with pytest.raises(DegenerateInputError) as alone:
        project_to_so3(stack[100])
    assert str(first.value) == str(alone.value)
    assert str(first.value).startswith("matrix is not finite")
    stack[100:] = np.eye(3)
    with pytest.raises(DegenerateInputError, match="rank-deficient"):
        _project_stack(stack)


# ---------------------------------------------------------------------------
# geodesic distance


def test_geodesic_zero_on_equal(rng):
    r = haar_matrix(rng)
    assert geodesic_distance(r, r) == 0.0


def test_geodesic_elementary_rotation():
    rz = axis_angle_to_matrix(AxisAngle((0.0, 0.0, 1.0), math.pi / 2))
    assert geodesic_distance(RotationMatrix.identity(), rz) == pytest.approx(
        math.pi / 2, abs=1e-12)


def test_geodesic_constructed_angle(rng):
    for _ in range(20):
        axis = _unit(rng)
        r = axis_angle_to_matrix(AxisAngle(axis, 2.5))
        assert abs(geodesic_distance(RotationMatrix.identity(), r) - 2.5) < 1e-12


def _unit(rng):
    while True:
        v = (rng.normal(), rng.normal(), rng.normal())
        n = math.sqrt(sum(x * x for x in v))
        if n > 1e-6:
            return (v[0] / n, v[1] / n, v[2] / n)


def test_geodesic_is_a_metric(rng):
    rots = [haar_matrix(rng) for _ in range(40)]
    for r in rots:
        assert geodesic_distance(r, r) < 1e-12
    for _ in range(1000):
        i = int(rng.random() * len(rots))
        j = int(rng.random() * len(rots))
        k = int(rng.random() * len(rots))
        a, b, c = rots[i], rots[j], rots[k]
        assert geodesic_distance(a, b) == pytest.approx(
            geodesic_distance(b, a), abs=1e-12)
        assert (geodesic_distance(a, c)
                <= geodesic_distance(a, b) + geodesic_distance(b, c) + 1e-9)
        assert geodesic_distance(a, b) >= 0.0


def test_relative_angle_matches_geodesic_midrange(rng):
    for _ in range(50):
        a, b = haar_matrix(rng), haar_matrix(rng)
        assert relative_angle(a, b) == pytest.approx(
            geodesic_distance(a, b), abs=1e-9)


def _old_relative_angle(r1, r2):
    a = r1.rows
    q = mat_mul_rows(((a[0][0], a[1][0], a[2][0]),
                      (a[0][1], a[1][1], a[2][1]),
                      (a[0][2], a[1][2], a[2][2])), r2.rows)
    c = (q[0][0] + q[1][1] + q[2][2] - 1.0) * 0.5
    sx = (q[2][1] - q[1][2]) * 0.5
    sy = (q[0][2] - q[2][0]) * 0.5
    sz = (q[1][0] - q[0][1]) * 0.5
    return math.atan2(math.sqrt(sx * sx + sy * sy + sz * sz), c)


def test_relative_angle_bit_identical_to_transposed_product(rng):
    from rotrepr.convert import exp_map
    from rotrepr.core import RotationVector
    for k in range(400):
        a = haar_matrix(rng)
        if k % 4 == 0:
            b = a
        elif k % 4 == 1:  # tiny relative rotation
            b = matrix_mul(a, exp_map(RotationVector(
                (rng.normal() * 1e-9, rng.normal() * 1e-9, rng.normal() * 1e-9))))
        elif k % 4 == 2:  # relative rotation just short of pi
            axis = [rng.normal() for _ in range(3)]
            scale = (math.pi - 1e-9) / math.sqrt(sum(c * c for c in axis))
            b = matrix_mul(a, exp_map(RotationVector(tuple(c * scale for c in axis))))
        else:
            b = haar_matrix(rng)
        assert relative_angle(a, b) == _old_relative_angle(a, b)
        assert relative_angle(b, a) == _old_relative_angle(b, a)
    flip = RotationMatrix(((1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0)))
    assert relative_angle(RotationMatrix.identity(), flip) == math.pi


def test_relative_angle_resolves_tiny_angles():
    from rotrepr.core import RotationVector
    from rotrepr.convert import exp_map
    tiny = exp_map(RotationVector((1e-10, 0.0, 0.0)))
    assert relative_angle(RotationMatrix.identity(), tiny) == pytest.approx(
        1e-10, rel=1e-6)


# ---------------------------------------------------------------------------
# sample_uniform


def test_sample_uniform_norm_and_determinism():
    a = Rng(42)
    b = Rng(42)
    q1, q2 = sample_uniform(a), sample_uniform(a)
    assert q1 != q2
    assert abs(q1.norm() - 1.0) < 1e-12
    assert abs(q2.norm() - 1.0) < 1e-12
    assert sample_uniform(b) == q1  # bit-identical stream


def test_sampled_rotations_are_valid(rng):
    for _ in range(200):
        assert validate(quat_to_matrix(sample_uniform(rng))).ok


def test_haar_trace_statistic(rng):
    # Oracle: E[(tr R - 1)/2] = E[cos theta] under the Haar angle density
    # p(theta) = (1 - cos theta)/pi, computed here by quadrature.
    import scipy.integrate as integrate
    expected, _ = integrate.quad(
        lambda t: math.cos(t) * (1.0 - math.cos(t)) / math.pi, 0.0, math.pi)
    assert expected == pytest.approx(-0.5, abs=1e-12)
    n = 10000
    mean = sum((quat_to_matrix(sample_uniform(rng)).trace() - 1.0) / 2.0
               for _ in range(n)) / n
    assert abs(mean - expected) < 0.03


def test_haar_angle_cdf(rng):
    # Oracle: Haar CDF F(t) = (t - sin t)/pi, checked by quadrature, then
    # the empirical fraction of angles <= pi/2 against it.
    import scipy.integrate as integrate
    cdf_half, _ = integrate.quad(
        lambda t: (1.0 - math.cos(t)) / math.pi, 0.0, math.pi / 2)
    assert cdf_half == pytest.approx(
        (math.pi / 2 - math.sin(math.pi / 2)) / math.pi, abs=1e-12)
    n = 10000
    hits = 0
    for _ in range(n):
        r = quat_to_matrix(sample_uniform(rng))
        if relative_angle(RotationMatrix.identity(), r) <= math.pi / 2:
            hits += 1
    assert abs(hits / n - cdf_half) < 0.02


# ---------------------------------------------------------------------------
# UnitQuaternion value type


def test_unit_quaternion_fields_are_read_only():
    q = UnitQuaternion(0.6, 0.0, 0.8, 0.0)
    for name in ("w", "x", "y", "z"):
        with pytest.raises(AttributeError):
            setattr(q, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(q, name)
    with pytest.raises(AttributeError):
        q.extra = 1.0
    assert q == UnitQuaternion(0.6, 0.0, 0.8, 0.0)


def test_unit_quaternion_equality_and_hash():
    a = UnitQuaternion(0.6, 0.0, 0.8, 0.0)
    b = UnitQuaternion(0.6, 0.0, 0.8, 0.0)
    assert a == b
    assert hash(a) == hash(b)
    assert a != UnitQuaternion(0.6, 0.0, 0.0, 0.8)
    assert len({a, b, -a}) == 2
    # declared semantics: a quaternion is the 4-tuple (w, x, y, z)
    assert a == (0.6, 0.0, 0.8, 0.0)
    assert hash(a) == hash((0.6, 0.0, 0.8, 0.0))


def test_unit_quaternion_field_order():
    q = UnitQuaternion(1.0, 2.0, 3.0, 4.0)
    assert (q.w, q.x, q.y, q.z) == (1.0, 2.0, 3.0, 4.0)
    w, x, y, z = q
    assert (w, x, y, z) == (1.0, 2.0, 3.0, 4.0)
    assert UnitQuaternion(z=4.0, y=3.0, x=2.0, w=1.0) == q


def test_unit_quaternion_methods():
    q = UnitQuaternion(1.0, -2.0, 2.0, 4.0)  # norm 5
    neg = -q
    assert type(neg) is UnitQuaternion
    assert neg == UnitQuaternion(-1.0, 2.0, -2.0, -4.0)
    assert q.norm() == 5.0
    unit = q.normalized()
    assert type(unit) is UnitQuaternion
    assert unit == UnitQuaternion(0.2, -0.4, 0.4, 0.8)
    assert q.dot(UnitQuaternion(1.0, 1.0, 1.0, 1.0)) == 5.0
    assert type(q.as_tuple()) is tuple
    assert q.as_tuple() == (1.0, -2.0, 2.0, 4.0)
    assert q.vector() == (-2.0, 2.0, 4.0)
    ident = UnitQuaternion.identity()
    assert type(ident) is UnitQuaternion
    assert ident == UnitQuaternion(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(DegenerateInputError):
        UnitQuaternion(0.0, 0.0, 0.0, 0.0).normalized()


@pytest.mark.parametrize("q, unit", [
    ((1e200, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
    ((1e-170, 0.0, 0.0, 1e-170), (math.sqrt(0.5), 0.0, 0.0, math.sqrt(0.5))),
    ((1e308, -1e308, 1e308, 1e308), (0.5, -0.5, 0.5, 0.5)),
    ((0.0, -5e-324, 0.0, 0.0), (0.0, -1.0, 0.0, 0.0)),
])
def test_normalized_huge_and_tiny_quaternions(q, unit):
    # the squared norm overflows to inf or underflows below 1e-300
    out = UnitQuaternion(*q).normalized()
    assert type(out) is UnitQuaternion
    assert out == pytest.approx(unit, abs=2.3e-16)
    assert out.norm() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_normalized_non_finite_raises(bad):
    for q in ((bad, 0.0, 0.0, 0.0), (0.5, 0.5, bad, 0.5)):
        with pytest.raises(DegenerateInputError, match="not finite"):
            UnitQuaternion(*q).normalized()


def test_normalized_in_range_bit_identical(rng):
    # the common path divides by sqrt(w^2 + x^2 + y^2 + z^2), as before
    for k in (1e-140, 1e-3, 1.0, 7.0, 1e150):
        for _ in range(50):
            w, x, y, z = (c * k * rng.uniform(0.5, 2.0) for c in sample_uniform(rng))
            n = math.sqrt(w * w + x * x + y * y + z * z)
            assert repr(UnitQuaternion(w, x, y, z).normalized()) == repr(
                UnitQuaternion(w / n, x / n, y / n, z / n))


def test_quaternion_kernels_return_the_value_type(rng):
    from rotrepr.compose import quat_mul
    from rotrepr.convert import matrix_to_quat
    from rotrepr.interp import nlerp, slerp
    q1, q2 = haar_quat(rng), haar_quat(rng)
    for out in (quat_mul(q1, q2), matrix_to_quat(quat_to_matrix(q1)),
                slerp(q1, q2, 0.3), nlerp(q1, q2, 0.3), sample_uniform(rng)):
        assert type(out) is UnitQuaternion
        assert out.norm() == pytest.approx(1.0, abs=1e-15)


def test_kernels_build_exact_value_types(rng):
    # kernels build their results with tuple.__new__; each must equal the
    # class-built value and have exactly its type
    from rotrepr.compose import quat_conjugate
    from rotrepr.convert import (axis_angle_to_rotation_vector,
                                 canonicalize_rotation_vector,
                                 rotation_vector_to_axis_angle)
    from rotrepr.core import RotationVector
    from rotrepr.interp import linear_rotation_vector, matrix_geodesic
    q, r = haar_quat(rng), haar_matrix(rng)
    v = RotationVector((0.3, -2.0, 4.0))
    cases = [
        (quat_conjugate(q), UnitQuaternion(q.w, -q.x, -q.y, -q.z)),
        (r.transpose(), RotationMatrix(tuple(zip(*r.rows)))),
        (axis_angle_to_rotation_vector(AxisAngle((0.0, 0.6, 0.8), 2.0)),
         RotationVector((0.0, 1.2, 1.6))),
        (rotation_vector_to_axis_angle(RotationVector((0.0, 0.0, 0.0))),
         AxisAngle((0.0, 0.0, 1.0), 0.0)),
        (rotation_vector_to_axis_angle(RotationVector((0.0, 3.0, 4.0))),
         AxisAngle((0.0, 0.6, 0.8), 5.0)),
        (canonicalize_rotation_vector(v), RotationVector(tuple(
            c * ((math.fmod(v.norm(), 2.0 * math.pi) - 2.0 * math.pi) / v.norm())
            for c in v.v))),
    ]
    for got, want in cases:
        assert type(got) is type(want)
        assert got == want
    for got in (matrix_geodesic(r, r.transpose(), 0.5),
                linear_rotation_vector(v, RotationVector((0.0, 0.0, 0.0)), 0.5)):
        assert type(got) is RotationMatrix
        assert validate(got).ok


# ---------------------------------------------------------------------------
# rotate_vector


def test_rotate_vector_identity():
    q = UnitQuaternion.identity()
    assert rotate_vector(q, (1.0, 2.0, 3.0)) == (1.0, 2.0, 3.0)


def test_rotate_vector_elementary():
    q = UnitQuaternion(math.sqrt(0.5), 0.0, 0.0, math.sqrt(0.5))
    out = rotate_vector(q, (1.0, 0.0, 0.0))
    assert out == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)


def test_rotate_vector_matches_matrix_route(rng):
    for _ in range(100):
        q = haar_quat(rng)
        p = (rng.normal(), rng.normal(), rng.normal())
        via_matrix = quat_to_matrix(q).apply(p)
        direct = rotate_vector(q, p)
        assert direct == pytest.approx(via_matrix, abs=1e-12)


def test_rotate_vector_preserves_norm_and_dot(rng):
    for _ in range(100):
        q = haar_quat(rng)
        p1 = (rng.normal(), rng.normal(), rng.normal())
        p2 = (rng.normal(), rng.normal(), rng.normal())
        r1, r2 = rotate_vector(q, p1), rotate_vector(q, p2)
        assert math.sqrt(sum(x * x for x in r1)) == pytest.approx(
            math.sqrt(sum(x * x for x in p1)), abs=1e-12)
        dot_before = sum(a * b for a, b in zip(p1, p2))
        dot_after = sum(a * b for a, b in zip(r1, r2))
        assert dot_after == pytest.approx(dot_before, abs=1e-11)


# ---------------------------------------------------------------------------
# canonicalize


def test_canonicalize_examples():
    s = math.sqrt(0.5)
    assert canonicalize(UnitQuaternion(-s, 0, 0, -s)) == UnitQuaternion(s, 0, 0, s)
    q = UnitQuaternion(0.6, 0.0, 0.8, 0.0)
    assert canonicalize(q) == q
    assert canonicalize(UnitQuaternion(0.0, -1.0, 0.0, 0.0)) == \
        UnitQuaternion(0.0, 1.0, 0.0, 0.0)


@given(a=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
@settings(max_examples=200)
def test_wrap_angle_range_and_equivalence(a):
    from rotrepr.core import wrap_angle
    w = wrap_angle(a)
    assert -math.pi < w <= math.pi
    assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)
    assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)


@given(w=FINITE, x=FINITE, y=FINITE, z=FINITE)
@settings(max_examples=200)
def test_canonicalize_idempotent_and_sign(w, x, y, z):
    q = UnitQuaternion(w, x, y, z)
    c = canonicalize(q)
    assert canonicalize(c) == c
    assert canonicalize(-q) == c or (w == 0 and x == 0 and y == 0 and z == 0)
    if c.w == 0.0:
        first = next((v for v in (c.x, c.y, c.z) if v != 0.0), 0.0)
        assert first >= 0.0
    else:
        assert c.w > 0.0


# ---------------------------------------------------------------------------
# the value types are named tuples


def _value_types():
    from rotrepr import (AxisAngle, EulerAngles, EulerConvention, IcpResult,
                         RigidTransform, RotationVector, SixD, ValidationResult)
    from rotrepr.core import XYZ
    m = RotationMatrix.identity()
    return [
        UnitQuaternion(0.6, 0.0, 0.8, 0.0),
        m,
        EulerAngles(0.1, 0.2, 0.3, XYZ),
        EulerConvention("ZXZ", False),
        AxisAngle((0.0, 1.0, 0.0), 0.5),
        RotationVector((0.1, 0.2, 0.3)),
        SixD((1.0, 0.0, 0.0), (0.5, 1.0, 0.0)),
        ValidationResult(True, 0.0, 1e-16),
        RigidTransform(m, (1.0, 2.0, 3.0)),
        IcpResult(RigidTransform(m, (1.0, 2.0, 3.0)), 4, 1e-3),
    ]


@pytest.mark.parametrize("value", _value_types(), ids=lambda v: type(v).__name__)
def test_value_type_is_the_tuple_of_its_fields(value):
    import pickle
    fields = tuple(getattr(value, name) for name in value._fields)
    assert value == fields and hash(value) == hash(fields)
    assert tuple(value) == fields
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 0.0)
    with pytest.raises(AttributeError):
        value.extra = 1.0
    back = pickle.loads(pickle.dumps(value))
    assert back == value and type(back) is type(value)


def test_euler_value_types():
    import copy
    import pickle
    from rotrepr import EulerAngles, EulerConvention
    from rotrepr.core import XYZ, ZYX
    assert EulerAngles(0.1, 0.2, 0.3).convention is ZYX
    assert EulerConvention("ZYX") == ZYX == ("ZYX", True)
    assert EulerConvention("XYX", intrinsic=False).tag == "xyx-extrinsic"
    for axes in ("ABC", "zyx", "ZY"):
        with pytest.raises(DegenerateInputError):
            EulerConvention(axes)
    with pytest.raises(DegenerateInputError):
        ZYX._replace(axes="ABC")
    assert ZYX._replace(intrinsic=False) == EulerConvention("ZYX", False)
    # one interned object per (axes, intrinsic): 24 distinct singletons,
    # which every way of building or copying a convention returns
    conventions = [EulerConvention(axes, intrinsic)
                   for axes in ("XYZ", "XZY", "YXZ", "YZX", "ZXY", "ZYX",
                                "XYX", "XZX", "YXY", "YZY", "ZXZ", "ZYZ")
                   for intrinsic in (True, False)]
    assert len(set(map(id, conventions))) == len(set(conventions)) == 24
    for conv in conventions:
        assert EulerConvention(*conv) is conv
        assert EulerConvention(conv.axes, intrinsic=conv.intrinsic) is conv
        assert conv._make(tuple(conv)) is conv and conv._replace() is conv
        assert copy.copy(conv) is conv and copy.deepcopy(conv) is conv
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(conv, protocol)) is conv
    assert ZYX._replace(axes="XYZ") is XYZ
    assert EulerConvention("ZYX", 1) is ZYX and EulerConvention("XYZ", 0).intrinsic is False
    e = EulerAngles(0.1, 0.2, 0.3, EulerConvention("XYZ"))
    assert copy.deepcopy(e).convention is XYZ
    assert pickle.loads(pickle.dumps(e, 0)).convention is XYZ
    # intrinsic is True or False (1 and 0 select the same objects)
    for intrinsic in (None, "yes", 2):
        with pytest.raises(DegenerateInputError, match="intrinsic True or False"):
            EulerConvention("ZYX", intrinsic)


def test_validation_result_truth_is_ok():
    from rotrepr import ValidationResult
    assert not ValidationResult(False, 1.0, 0.0)
    assert ValidationResult(True, 0.0, 0.0)
    assert not validate(RotationMatrix(((2.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                        (0.0, 0.0, 1.0))))
