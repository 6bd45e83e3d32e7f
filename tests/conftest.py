import math

import pytest

from rotrepr import RotationMatrix, Rng, sample_uniform
from rotrepr.convert import quat_to_matrix


@pytest.fixture
def rng():
    return Rng(42)


def haar_quat(rng):
    return sample_uniform(rng)


def haar_matrix(rng):
    return quat_to_matrix(sample_uniform(rng))


def frobenius(r1, r2) -> float:
    s = 0.0
    for i in range(3):
        for j in range(3):
            d = r1.rows[i][j] - r2.rows[i][j]
            s += d * d
    return math.sqrt(s)


def broken_quat_to_matrix(q) -> RotationMatrix:
    """Mutation fixture for bench.double_cover_check: quat_to_matrix with
    1e-9 * sign(w) added to one entry, so R(q) and R(-q) differ for every
    quaternion with w != 0 and the double-cover metric must read 1.0."""
    (a, b, c), row1, row2 = quat_to_matrix(q).rows
    bump = 1e-9 if q.w >= 0.0 else -1e-9
    return RotationMatrix(((a + bump, b, c), row1, row2))


# 1e-2 down to 1e-12 rad in half decades: the small-angle oracle grid
SMALL_ANGLES = [10.0 ** (-k / 2) for k in range(4, 25)]


def exact_quat(v):
    """(w, x, y, z) of rotation vector v, in 40-digit mpmath."""
    import mpmath as mp
    with mp.workdps(40):
        v = [mp.mpf(c) for c in v]
        theta = mp.sqrt(sum(c * c for c in v))
        scale = mp.sin(theta / 2) / theta
        return [mp.cos(theta / 2)] + [c * scale for c in v]


def exact_hamilton(p, q):
    import mpmath as mp
    with mp.workdps(40):
        pw, px, py, pz = (mp.mpf(c) for c in p)
        qw, qx, qy, qz = (mp.mpf(c) for c in q)
        return [pw * qw - px * qx - py * qy - pz * qz,
                pw * qx + px * qw + py * qz - pz * qy,
                pw * qy - px * qz + py * qw + pz * qx,
                pw * qz + px * qy - py * qx + pz * qw]


def exact_rotation_vector(q) -> list[float]:
    """Canonical rotation vector of the (w, x, y, z) components, computed
    in 40-digit mpmath and rounded once."""
    import mpmath as mp
    with mp.workdps(40):
        w, x, y, z = (mp.mpf(c) for c in q)
        if w < 0:
            w, x, y, z = -w, -x, -y, -z
        k = 2 * mp.atan2(mp.sqrt(x * x + y * y + z * z), w) / mp.sqrt(
            x * x + y * y + z * z)
        return [float(k * x), float(k * y), float(k * z)]


def exact_euler_quat(axes: str, angles) -> list:
    """(w, x, y, z) of the intrinsic product q_a(alpha) q_b(beta)
    q_c(gamma) for axes "abc", in 40-digit mpmath (angles may be mpf)."""
    import mpmath as mp
    with mp.workdps(40):
        q = [mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(0)]
        for axis, angle in zip(axes, angles):
            half = mp.mpf(angle) / 2
            e = [mp.cos(half), mp.mpf(0), mp.mpf(0), mp.mpf(0)]
            e["XYZ".index(axis) + 1] = mp.sin(half)
            q = exact_hamilton(q, e)
        return q


def exact_quat_matrix(q) -> list:
    """Rows of the rotation carried by the (w, x, y, z) components,
    normalized and evaluated in 40-digit mpmath, as mpf."""
    import mpmath as mp
    with mp.workdps(40):
        w, x, y, z = (mp.mpf(c) for c in q)
        n = mp.sqrt(w * w + x * x + y * y + z * z)
        w, x, y, z = w / n, x / n, y / n, z / n
        return [[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]]


def max_entry_error(r, exact) -> float:
    """Largest |r_ij - exact_ij| of a RotationMatrix against mpf rows."""
    return max(abs(float(r.rows[i][j] - exact[i][j]))
               for i in range(3) for j in range(3))
