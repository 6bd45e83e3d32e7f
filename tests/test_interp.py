import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotrepr import (
    AxisAngle,
    EulerAngles,
    MatrixFisher,
    RotationMatrix,
    RotationVector,
    UnitQuaternion,
    fisher_blend,
    fisher_mode,
    linear_rotation_vector,
    linear_sixd,
    make_interpolator,
    matrix_geodesic,
    nlerp,
    relative_angle,
    slerp,
)
from rotrepr.convert import (
    axis_angle_to_matrix,
    euler_to_matrix,
    log_map,
    matrix_to_quat,
    matrix_to_sixd,
    quat_to_matrix,
)
from rotrepr.core import validate
from rotrepr.errors import DegenerateInputError, RotationError
from rotrepr.compose import matrix_mul
from rotrepr.interp import _METHODS, INTERPOLATION_METHODS, linear_euler

from conftest import frobenius, haar_matrix, haar_quat

SQ2 = math.sqrt(0.5)
QZ90 = UnitQuaternion(SQ2, 0.0, 0.0, SQ2)


def _quat_angle(a, b):
    return relative_angle(quat_to_matrix(a), quat_to_matrix(b))


# ---------------------------------------------------------------------------
# slerp


def test_slerp_endpoints(rng):
    for _ in range(20):
        q1, q2 = haar_quat(rng), haar_quat(rng)
        assert _quat_angle(slerp(q1, q2, 0.0), q1) < 1e-12
        assert _quat_angle(slerp(q1, q2, 1.0), q2) < 1e-12


def test_slerp_bisects_quarter_turn():
    mid = slerp(UnitQuaternion.identity(), QZ90, 0.5)
    expected = UnitQuaternion(math.cos(math.pi / 8), 0.0, 0.0,
                              math.sin(math.pi / 8))
    assert mid.as_tuple() == pytest.approx(expected.as_tuple(), abs=1e-15)


def test_slerp_antipodal_correction_pointwise(rng):
    for _ in range(20):
        q1, q2 = haar_quat(rng), haar_quat(rng)
        for t in (0.0, 0.1, 0.33, 0.5, 0.77, 1.0):
            a = slerp(q1, q2, t)
            b = slerp(q1, -q2, t)
            c = slerp(-q1, q2, t)
            assert _quat_angle(a, b) < 1e-12
            assert _quat_angle(a, c) < 1e-12


def test_slerp_unit_output(rng):
    for _ in range(50):
        q1, q2 = haar_quat(rng), haar_quat(rng)
        assert abs(slerp(q1, q2, 0.37).norm() - 1.0) < 1e-12


def test_slerp_constant_speed(rng):
    # normalized std of angular speed over 50 interior samples
    for _ in range(10):
        q1, q2 = haar_quat(rng), haar_quat(rng)
        speeds = []
        for i in range(50):
            t = 0.01 + (0.98) * i / 49
            a = slerp(q1, q2, t - 5e-4)
            b = slerp(q1, q2, t + 5e-4)
            speeds.append(_quat_angle(a, b) / 1e-3)
        mean = sum(speeds) / len(speeds)
        std = math.sqrt(sum((s - mean) ** 2 for s in speeds) / len(speeds))
        assert std / (mean + 1e-8) < 1e-6


# ---------------------------------------------------------------------------
# nlerp


def test_nlerp_endpoints(rng):
    q1, q2 = haar_quat(rng), haar_quat(rng)
    assert _quat_angle(nlerp(q1, q2, 0.0), q1) < 1e-12
    assert _quat_angle(nlerp(q1, q2, 1.0), q2) < 1e-12


def test_nlerp_small_angle_agreement_at_midpoint():
    # upsilon = 0.005 pair; t = 0.5 agrees with slerp exactly by symmetry
    q1 = UnitQuaternion.identity()
    q2 = UnitQuaternion(math.cos(0.005), 0.0, 0.0, math.sin(0.005))
    assert _quat_angle(nlerp(q1, q2, 0.5), slerp(q1, q2, 0.5)) < 1e-9


def test_nlerp_slerp_deviation_bound():
    # worst-case deviation is ~0.032 upsilon^3 in rotation space
    upsilon = 0.005
    q1 = UnitQuaternion.identity()
    q2 = UnitQuaternion(math.cos(upsilon), 0.0, 0.0, math.sin(upsilon))
    worst = max(_quat_angle(nlerp(q1, q2, t), slerp(q1, q2, t))
                for t in np.linspace(0.0, 1.0, 101))
    assert worst < 0.05 * upsilon ** 3 + 1e-12


def test_nlerp_exactly_antipodal_is_constant(rng):
    q1 = haar_quat(rng)
    out = nlerp(q1, -q1, 0.5)
    assert _quat_angle(out, q1) < 1e-12


def test_slerp_fallback_below_threshold_is_nlerp():
    q1 = UnitQuaternion.identity()
    q2 = UnitQuaternion(math.cos(4e-4), 0.0, 0.0, math.sin(4e-4))
    for t in (0.25, 0.5, 0.8):
        assert slerp(q1, q2, t) == nlerp(q1, q2, t)


# ---------------------------------------------------------------------------
# slerp and nlerp on huge, tiny and non-unit endpoints

_MAGNITUDE = st.one_of(st.just(0.0),
                       st.floats(min_value=5e-324, max_value=2.2250738585072e-308),
                       st.floats(min_value=1e-300, max_value=1.7e308))
_COMPONENT = st.builds(lambda m, negative: -m if negative else m,
                       _MAGNITUDE, st.booleans())
_QUAT = st.builds(UnitQuaternion, _COMPONENT, _COMPONENT, _COMPONENT, _COMPONENT)


@settings(max_examples=400, deadline=None)
@given(_QUAT, _QUAT, st.floats(min_value=0.0, max_value=1.0))
def test_slerp_nlerp_finite_endpoints_give_rotation_or_rotation_error(q1, q2, t):
    for interpolate in (slerp, nlerp):
        try:
            out = interpolate(q1, q2, t)
        except RotationError:
            continue
        assert validate(quat_to_matrix(out)).ok, (interpolate.__name__, out)


@pytest.mark.parametrize("scale", [1e200, 1e-170, 5e-324, 1.7e308])
def test_slerp_nlerp_rescale_huge_and_tiny_endpoints(scale):
    q1 = UnitQuaternion(scale, 0.0, 0.0, 0.0)
    q2 = UnitQuaternion(0.0, 0.0, 0.0, scale)
    u1, u2 = UnitQuaternion.identity(), UnitQuaternion(0.0, 0.0, 0.0, 1.0)
    for t in (0.0, 0.5, 0.8):
        for f in (slerp, nlerp):
            assert f(q1, q2, t) == pytest.approx(f(u1, u2, t), abs=1e-15)
    for f in (slerp, nlerp):  # equal endpoints come back normalized
        assert f(q1, q1, 0.3) == UnitQuaternion.identity()


def test_slerp_nlerp_equal_non_unit_endpoints_normalized(rng):
    q = UnitQuaternion(3.0, 0.0, 0.0, -4.0)
    for f in (slerp, nlerp):
        assert f(q, q, 0.4) == pytest.approx((0.6, 0.0, 0.0, -0.8), abs=1e-16)
        with pytest.raises(DegenerateInputError):
            f(UnitQuaternion(0.0, 0.0, 0.0, 0.0), UnitQuaternion(0.0, 0.0, 0.0, 0.0),
              0.5)
    q = haar_quat(rng)  # a unit endpoint still comes back as itself
    assert slerp(q, q, 0.4) is q and nlerp(q, q, 0.4) is q


# ---------------------------------------------------------------------------
# matrix geodesic


def test_matrix_geodesic_bisection():
    rz = axis_angle_to_matrix(AxisAngle((0.0, 0.0, 1.0), math.pi / 2))
    mid = matrix_geodesic(RotationMatrix.identity(), rz, 0.5)
    expected = axis_angle_to_matrix(AxisAngle((0.0, 0.0, 1.0), math.pi / 4))
    assert frobenius(mid, expected) < 1e-12


def test_matrix_geodesic_endpoints_and_slerp_equivalence(rng):
    for _ in range(20):
        r1, r2 = haar_matrix(rng), haar_matrix(rng)
        q1, q2 = matrix_to_quat(r1), matrix_to_quat(r2)
        assert frobenius(matrix_geodesic(r1, r2, 0.0), r1) < 1e-12
        assert frobenius(matrix_geodesic(r1, r2, 1.0), r2) < 1e-12
        for i in range(11):
            t = i / 10
            a = matrix_geodesic(r1, r2, t)
            b = quat_to_matrix(slerp(q1, q2, t))
            assert relative_angle(a, b) < 1e-9


def test_matrix_geodesic_path_length(rng):
    from rotrepr import geodesic_distance
    r1, r2 = haar_matrix(rng), haar_matrix(rng)
    geo = geodesic_distance(r1, r2)
    pts = [matrix_geodesic(r1, r2, k / 99) for k in range(100)]
    length = sum(relative_angle(pts[i], pts[i + 1]) for i in range(99))
    assert length == pytest.approx(geo, rel=1e-6)


# ---------------------------------------------------------------------------
# linear rotation vector


def test_linear_rotation_vector_aligned_is_geodesic():
    v2 = RotationVector((0.0, 0.0, 2.2))
    pts = [linear_rotation_vector(RotationVector((0.0, 0.0, 0.0)), v2, k / 99)
           for k in range(100)]
    length = sum(relative_angle(pts[i], pts[i + 1]) for i in range(99))
    assert length == pytest.approx(2.2, abs=1e-9)


def test_linear_rotation_vector_endpoints(rng):
    r1, r2 = haar_matrix(rng), haar_matrix(rng)
    v1, v2 = log_map(r1), log_map(r2)
    assert frobenius(linear_rotation_vector(v1, v2, 0.0), r1) < 1e-12
    assert frobenius(linear_rotation_vector(v1, v2, 1.0), r2) < 1e-12


def test_every_interpolator_path_at_least_geodesic(rng):
    for method in ("slerp", "nlerp", "matrix-geodesic",
                   "linear-rotation-vector", "linear-sixd", "linear-euler"):
        for _ in range(10):
            r1, r2 = haar_matrix(rng), haar_matrix(rng)
            interp = make_interpolator(method, r1, r2)
            pts = [interp.eval(k / 99) for k in range(100)]
            length = sum(relative_angle(pts[i], pts[i + 1]) for i in range(99))
            assert length >= relative_angle(r1, r2) - 1e-9


# ---------------------------------------------------------------------------
# linear sixd


def test_linear_sixd_endpoints_exact(rng):
    r1, r2 = haar_matrix(rng), haar_matrix(rng)
    s1, s2 = matrix_to_sixd(r1), matrix_to_sixd(r2)
    assert frobenius(linear_sixd(s1, s2, 0.0), r1) < 1e-12
    assert frobenius(linear_sixd(s1, s2, 1.0), r2) < 1e-12


def test_linear_sixd_midpoint_off_geodesic():
    rz = axis_angle_to_matrix(AxisAngle((0.0, 0.0, 1.0), math.pi / 2))
    s1 = matrix_to_sixd(RotationMatrix.identity())
    s2 = matrix_to_sixd(rz)
    mid = linear_sixd(s1, s2, 0.5)
    from rotrepr import validate
    assert validate(mid).ok
    geodesic_mid = axis_angle_to_matrix(AxisAngle((0.0, 0.0, 1.0), math.pi / 4))
    # valid rotation, generally off the geodesic; record the deviation
    deviation = relative_angle(mid, geodesic_mid)
    assert deviation < 0.3


def test_linear_sixd_constant_for_equal_endpoints(rng):
    r = haar_matrix(rng)
    s = matrix_to_sixd(r)
    for t in (0.0, 0.3, 0.7, 1.0):
        assert frobenius(linear_sixd(s, s, t), r) < 1e-12


def test_linear_sixd_degenerate_blend_reports_t():
    from rotrepr import SixD
    s1 = SixD((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    s2 = SixD((-1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    with pytest.raises(DegenerateInputError, match="t="):
        linear_sixd(s1, s2, 0.5)


# ---------------------------------------------------------------------------
# fisher blend


def test_fisher_blend_parameter_endpoints(rng):
    f1 = MatrixFisher(5.0 * haar_matrix(rng).as_array())
    f2 = MatrixFisher(10.0 * haar_matrix(rng).as_array())
    assert np.array_equal(fisher_blend(f1, f2, 0.0).f, f1.f)
    assert np.array_equal(fisher_blend(f1, f2, 1.0).f, f2.f)
    same = fisher_blend(f1, f1, 0.37)
    assert np.allclose(same.f, f1.f, atol=1e-15)


def test_fisher_blend_mode_svd_oracle():
    rz = axis_angle_to_matrix(AxisAngle((0.0, 0.0, 1.0), math.pi / 2))
    f1 = MatrixFisher(10.0 * np.eye(3))
    f2 = MatrixFisher(10.0 * rz.as_array())
    blended = fisher_blend(f1, f2, 0.5)
    # oracle: SVD of the averaged parameter matrix, det-corrected
    avg = 0.5 * (f1.f + f2.f)
    u, _, vt = np.linalg.svd(avg)
    d = np.sign(np.linalg.det(u @ vt))
    expected = (u * np.array([1.0, 1.0, d])) @ vt
    assert np.allclose(fisher_mode(blended).as_array(), expected, atol=1e-12)


# ---------------------------------------------------------------------------
# Interpolator front-end


def test_interpolator_endpoint_contract(rng):
    r1, r2 = haar_matrix(rng), haar_matrix(rng)
    for method in ("slerp", "nlerp", "matrix-geodesic",
                   "linear-rotation-vector", "linear-sixd", "linear-euler"):
        interp = make_interpolator(method, r1, r2)
        assert relative_angle(interp.eval(0.0), r1) < 1e-12
        assert relative_angle(interp.eval(1.0), r2) < 1e-12


def test_interpolator_geodesic_bit_identical_to_matrix_geodesic(rng):
    from rotrepr.convert import exp_map
    ts = [0.0, 1.0, 0.5, 1e-9, 0.25, 0.999, -0.5, 1.5]
    for k in range(40):
        r1 = haar_matrix(rng)
        if k % 4 == 0:  # relative angles at the log map's near-pi branch
            axis = [rng.normal() for _ in range(3)]
            scale = (math.pi - 1e-8) / math.sqrt(sum(c * c for c in axis))
            r2 = matrix_mul(r1, exp_map(RotationVector(tuple(c * scale for c in axis))))
        elif k % 4 == 1:
            r2 = r1
        else:
            r2 = haar_matrix(rng)
        interp = make_interpolator("matrix-geodesic", r1, r2)
        for t in ts + [rng.random() for _ in range(5)]:
            assert interp.eval(t) == matrix_geodesic(r1, r2, t)
            assert interp.eval_native(t) == matrix_geodesic(r1, r2, t)


def test_interpolator_matches_native_functions(rng):
    r1, r2 = haar_matrix(rng), haar_matrix(rng)
    for method in INTERPOLATION_METHODS:
        if method in ("matrix-geodesic", "fisher-blend"):
            continue
        interp = make_interpolator(method, r1, r2)
        _, native, to_matrix = _METHODS[method]
        for t in (0.0, 0.3, 1.0):
            value = native(interp.start, interp.end, t)
            assert interp.eval_native(t) == value
            assert interp.eval(t) == (value if to_matrix is None else to_matrix(value))
    assert make_interpolator("slerp", r1, r2) == make_interpolator("slerp", r1, r2)


def test_interpolator_fisher_blend(rng):
    f1 = MatrixFisher(5.0 * np.eye(3))
    f2 = MatrixFisher(5.0 * haar_matrix(rng).as_array())
    interp = make_interpolator("fisher-blend", f1, f2)
    assert np.array_equal(interp.eval_native(0.0).f, f1.f)
    assert np.array_equal(interp.eval_native(1.0).f, f2.f)
    assert relative_angle(interp.eval(0.0), RotationMatrix.identity()) < 1e-12


def test_interpolator_rejects_unknown_method(rng):
    r = haar_matrix(rng)
    with pytest.raises(DegenerateInputError):
        make_interpolator("squad", r, r)


@pytest.mark.parametrize("method, endpoint, message", [
    ("slerp", UnitQuaternion(1.0, 0.0, 0.0, 0.0),
     "slerp endpoints must be RotationMatrix values"),
    ("fisher-blend", RotationMatrix.identity(),
     "fisher-blend endpoints must be MatrixFisher parameters"),
])
def test_interpolator_rejects_endpoints_of_the_wrong_type(method, endpoint, message):
    with pytest.raises(DegenerateInputError, match=message):
        make_interpolator(method, endpoint, endpoint)


def test_linear_euler_rejects_mixed_conventions():
    from rotrepr import EulerAngles
    from rotrepr.core import XYZ
    with pytest.raises(DegenerateInputError,
                       match="euler endpoints use different conventions"):
        linear_euler(EulerAngles(0.1, 0.2, 0.3), EulerAngles(0.1, 0.2, 0.3, XYZ), 0.5)
    with pytest.raises(DegenerateInputError,
                       match="euler endpoints use different conventions"):
        linear_euler(EulerAngles(0.1, 0.2, 0.3),
                     EulerAngles(0.1, 0.2, 0.3, ("ZYX", True)), 0.5)


def test_linear_euler_wraps_shortest_arc():
    from rotrepr import EulerAngles
    e1 = EulerAngles(3.0, 0.0, 0.0)
    e2 = EulerAngles(-3.0, 0.0, 0.0)
    mid = linear_euler(e1, e2, 0.5)
    # crossing pi the short way: midpoint near +-pi, not 0
    assert abs(abs(mid.alpha) - math.pi) < 1e-9


@pytest.mark.parametrize("method", INTERPOLATION_METHODS)
@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("evaluate", ["eval_native", "eval"])
def test_interpolators_reject_non_finite_t(method, t, evaluate, rng):
    # distinct endpoints and a constant path, with every warning an error
    if method == "fisher-blend":
        a, b = (MatrixFisher(5.0 * haar_matrix(rng).as_array()) for _ in range(2))
    else:
        a, b = haar_matrix(rng), haar_matrix(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for end in (b, a):
            interp = make_interpolator(method, a, end)
            with pytest.raises(DegenerateInputError):
                getattr(interp, evaluate)(t)


@pytest.mark.parametrize("method", INTERPOLATION_METHODS)
@pytest.mark.parametrize("t", [1e300, 1e308, -1e308])
@pytest.mark.parametrize("evaluate", ["eval_native", "eval"])
def test_interpolators_at_huge_finite_t(method, t, evaluate, rng):
    # a finite t whose blend may leave the float range: a rotation (for
    # fisher-blend, finite parameters) or a RotationError, with every
    # warning an error; distinct endpoints, a constant path, and a pair
    # 3.1 rad apart in gamma (1, 2 on F's diagonal) that overflows
    if method == "fisher-blend":
        a, b = (MatrixFisher(5.0 * haar_matrix(rng).as_array()) for _ in range(2))
        far = MatrixFisher(np.eye(3)), MatrixFisher(np.diag([2.0, 1.0, 1.0]))
    else:
        a, b = haar_matrix(rng), haar_matrix(rng)
        far = RotationMatrix.identity(), euler_to_matrix(EulerAngles(0.0, 0.0, 3.1))
    to_matrix = _METHODS[method][2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for start, end in ((a, b), (a, a), far):
            try:
                value = getattr(make_interpolator(method, start, end), evaluate)(t)
            except RotationError:
                continue
            if evaluate == "eval":
                assert validate(value)
            elif method == "fisher-blend":
                assert np.isfinite(value.f).all()
            else:
                assert validate(value if to_matrix is None else to_matrix(value))


@pytest.mark.parametrize("method", INTERPOLATION_METHODS)
def test_constant_paths_stay_constant_at_every_finite_t(method, rng):
    # (1 - t) a + t a cancels once 1 - t rounds to -t; equal endpoints
    # give the endpoint's exact value at every finite t instead
    for _ in range(3):
        if method == "fisher-blend":
            a = MatrixFisher(5.0 * haar_matrix(rng).as_array())
        else:
            a = haar_matrix(rng)
        interp = make_interpolator(method, a, a)
        start, native = interp.eval(0.0), interp.eval_native(0.0)
        for t in (0.3, 1.0, -2.5, 1e154, 1e300, -1e308, 1.7e308):
            assert interp.eval(t) == start, t
            if method == "fisher-blend":
                assert np.array_equal(interp.eval_native(t).f, a.f), t
            else:
                assert interp.eval_native(t) == native, t


@pytest.mark.parametrize("t", [1e154, 1e200, 1e300, -1e300])
def test_nlerp_rescales_a_blend_whose_squares_overflow(t, rng):
    # between distinct unit endpoints the blend, about t (q2 - q1), is
    # finite and only its squared norm overflows; once 1 - t rounds to -t
    # slerp's blend is sin(t u) / sin(u) (q2 - q1), so both agree up to sign
    for _ in range(20):
        q1, q2 = haar_quat(rng), haar_quat(rng)
        q = nlerp(q1, q2, t)
        assert abs(q.norm() - 1.0) < 1e-15
        s = slerp(q1, q2, t)
        sign = 1.0 if q.dot(s) >= 0.0 else -1.0
        assert max(abs(a - sign * b) for a, b in zip(q, s)) < 1e-14, (q1, q2)


def test_nlerp_keeps_its_error_for_a_blend_beyond_the_float_range():
    # x = (1 - t)(-0.6) + t (0.6) overflows at t = 1.7e308
    q1, q2 = UnitQuaternion(0.8, -0.6, 0.0, 0.0), UnitQuaternion(0.8, 0.6, 0.0, 0.0)
    with pytest.raises(DegenerateInputError,
                       match=r"^nlerp blend is not finite at t=1\.7e\+308$"):
        nlerp(q1, q2, 1.7e308)


def test_linear_euler_rejects_an_angle_difference_beyond_the_float_range():
    with pytest.raises(DegenerateInputError, match="not finite at t=0.5"):
        linear_euler(EulerAngles(1e308, 0.0, 0.0), EulerAngles(-1e308, 0.0, 0.0), 0.5)


def test_method_tag_list():
    assert set(INTERPOLATION_METHODS) == {
        "slerp", "nlerp", "matrix-geodesic", "linear-rotation-vector",
        "linear-sixd", "linear-euler", "fisher-blend"}


# ---------------------------------------------------------------------------
# slerp and nlerp against copies of their helper-frame form, bit for bit


def _old_hemisphere(q1, q2):
    d = q1.dot(q2)
    if d < 0.0:
        return -q2, -d
    return q2, d


def _old_nlerp_pair(q1, q2, t, unit=False):
    if q1 == q2:
        return q1 if abs(q1.dot(q1) - 1.0) <= 1e-15 else q1.normalized()
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    w = (1.0 - t) * w1 + t * w2
    x = (1.0 - t) * x1 + t * x2
    y = (1.0 - t) * y1 + t * y2
    z = (1.0 - t) * z1 + t * z2
    n2 = w * w + x * x + y * y + z * z
    if not 1e-300 <= n2 < math.inf:
        if unit:
            raise DegenerateInputError(f"nlerp blend is not finite at t={t!r}")
        p1 = q1.normalized()
        return _old_nlerp_pair(p1, _old_hemisphere(p1, q2.normalized())[0], t, True)
    n = math.sqrt(n2)
    return UnitQuaternion(w / n, x / n, y / n, z / n)


def _old_slerp(q1, q2, t):
    q2c, d = _old_hemisphere(q1, q2)
    d = -1.0 if d < -1.0 else 1.0 if d > 1.0 else d
    upsilon = math.acos(d)
    if upsilon < 0.001:
        return _old_nlerp_pair(q1, q2c, t)
    s = math.sin(upsilon)
    k1 = math.sin((1.0 - t) * upsilon) / s
    k2 = math.sin(t * upsilon) / s
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2c
    w = k1 * w1 + k2 * w2
    x = k1 * x1 + k2 * x2
    y = k1 * y1 + k2 * y2
    z = k1 * z1 + k2 * z2
    n2 = w * w + x * x + y * y + z * z
    if not 1e-300 <= n2 < math.inf and math.isfinite(t):
        return _old_slerp(q1.normalized(), q2.normalized(), t)
    n = math.sqrt(n2)
    return UnitQuaternion(w / n, x / n, y / n, z / n)


def _old_nlerp(q1, q2, t):
    return _old_nlerp_pair(q1, _old_hemisphere(q1, q2)[0], t)


def _bits(f, *args):
    """float.hex of f's output components (and whether it is the first
    argument itself), or the exception's type and message."""
    try:
        out = f(*args)
    except Exception as exc:  # noqa: BLE001 - the oracle compares any exception
        return type(exc), str(exc)
    return type(out), out is args[0], tuple(c.hex() for c in out)


def _seam_pair(upsilon):
    # q1.q2 = cos(upsilon) on the quaternion sphere
    return UnitQuaternion.identity(), UnitQuaternion(math.cos(upsilon), 0.0,
                                                     math.sin(upsilon), 0.0)


def _oracle_pairs(rng):
    for _ in range(60):
        q1, q2 = haar_quat(rng), haar_quat(rng)
        yield q1, q2
        yield q1, -q1  # antipodal
        yield q1, UnitQuaternion(*(-c + 1e-9 for c in q1))  # nearly antipodal
        yield q1, q1  # equal, and equal but not the same object
        yield q1, UnitQuaternion(*q1)
    for u in (0.0, 1e-9, 1e-4, 0.000999, 0.001, 0.0010001, 0.5, math.pi / 2, 3.0):
        for v in (math.nextafter(u, 0.0), u, math.nextafter(u, 1.0)):
            q1, q2 = _seam_pair(v)
            yield q1, q2
            yield q1, -q2
    odd = (0.0, -0.0, 5e-324, -1e-310, 1e-170, 1e200, -1.7e308, math.nan,
           math.inf)
    for a in odd:
        for b in odd:
            yield UnitQuaternion(a, 0.0, b, 0.0), UnitQuaternion(b, a, 0.0, 1.0)
            yield UnitQuaternion(a, a, a, a), UnitQuaternion(b, -b, b, -b)
    nan = UnitQuaternion(math.nan, 0.0, 0.0, 0.0)
    yield nan, nan  # one NaN object: the pair compares equal


def test_slerp_nlerp_match_helper_frame_form_bit_for_bit(rng):
    # a non-finite t, which the helper-frame form met with a bare
    # ValueError, a NaN quaternion or a constant path, raises instead
    ts = (0.0, 0.5, 1.0, -0.3, 1.7, math.nan, math.inf, -math.inf, 0.37)
    count = 0
    for q1, q2 in _oracle_pairs(rng):
        for t in ts:
            count += 1
            if not math.isfinite(t):
                for f in (slerp, nlerp):
                    with pytest.raises(DegenerateInputError):
                        f(q1, q2, t)
                continue
            assert _bits(slerp, q1, q2, t) == _bits(_old_slerp, q1, q2, t), (q1, q2, t)
            assert _bits(nlerp, q1, q2, t) == _bits(_old_nlerp, q1, q2, t), (q1, q2, t)
    assert count > 4500
