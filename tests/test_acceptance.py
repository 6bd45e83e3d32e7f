"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run `pytest tests/test_acceptance.py -v -s` to see one [PASS]/[FAIL] line
per criterion alongside the pytest verdicts.
"""

import contextlib
import json
import math
import time

import numpy as np

from rotrepr import (
    AxisAngle,
    MatrixFisher,
    PointSet,
    Rng,
    bingham_log_density_unnorm,
    fisher_log_density_unnorm,
    fisher_mode,
    horn_align,
    icp,
    relative_angle,
    sample_uniform,
)
from rotrepr.bench import (
    A_MEM_CASES,
    C_ML,
    H_OPT,
    REPRESENTATIONS,
    STORAGE_BYTES,
    BenchConfig,
    batch_times,
    composition_times,
    derivative_continuity,
    double_cover_check,
    edge_cases,
    gimbal_susceptibility,
    haar_matrix,
    heuristic_scores,
    interpolation_metrics,
    path_metrics,
    robustness_suite,
    stability_suite,
)
from rotrepr.cli import main
from rotrepr.convert import axis_angle_to_matrix
from rotrepr.interp import make_interpolator
from rotrepr.probdist import Bingham
from rotrepr.registration import _nearest_neighbors

from conftest import broken_quat_to_matrix


@contextlib.contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {num:2d}: {description}")
        raise
    print(f"\n[PASS] criterion {num:2d}: {description}")


CFG = BenchConfig(seed=42)


def test_criterion_01_round_trip_stability():
    with criterion(1, "round-trip stability eps_stab < 1e-10, runtime < 5 s"):
        start = time.perf_counter()
        for tag in ("quaternion", "matrix", "axis-angle", "exp-map", "sixd",
                    "euler"):
            result = stability_suite(tag, CFG)
            assert result.eps_stab < 1e-10, (tag, result.eps_stab)
            assert result.failures == 0
        assert time.perf_counter() - start < 5.0


def test_criterion_02_double_cover():
    with criterion(2, "S_double = 0 shipped; mutation fixture = 1.0"):
        assert double_cover_check(CFG) == 0.0
        assert double_cover_check(CFG, broken_quat_to_matrix) == 1.0


def test_criterion_03_gimbal_lock():
    with criterion(3, "Euler S_gimbal > 0.1; quaternion/matrix < 1e-3"):
        assert gimbal_susceptibility("euler", CFG) > 0.1
        assert gimbal_susceptibility("quaternion", CFG) < 1e-3
        assert gimbal_susceptibility("matrix", CFG) < 1e-3


def test_criterion_04_geodesic_interpolation():
    with criterion(4, "slerp/matrix-geodesic: eps_geo, sigma_deriv < 1e-6; "
                      "paths agree within 1e-9"):
        rng = Rng(42).derive("acceptance/haar-pairs")
        pairs = [(haar_matrix(rng), haar_matrix(rng)) for _ in range(100)]
        for r1, r2 in pairs:
            s = make_interpolator("slerp", r1, r2)
            g = make_interpolator("matrix-geodesic", r1, r2)
            _, eps_s = path_metrics(s, r1, r2)
            _, eps_g = path_metrics(g, r1, r2)
            assert eps_s < 1e-6 and eps_g < 1e-6
            assert derivative_continuity(s, r1, r2) < 1e-6
            assert derivative_continuity(g, r1, r2) < 1e-6
            for i in range(11):
                t = i / 10
                assert relative_angle(s.eval(t), g.eval(t)) < 1e-9


def test_criterion_05_interpolation_ordering():
    with criterion(5, "path length sixd > rotvec >= geodesic; "
                      "sigma ordering slerp < rotvec < sixd, sixd > 0.5"):
        metrics = interpolation_metrics(CFG)
        slerp_m = metrics["slerp"]
        lrv = metrics["linear-rotation-vector"]
        sixd = metrics["linear-sixd"]
        assert sixd.path_length > lrv.path_length
        assert lrv.path_length >= slerp_m.path_length - 1e-9  # slerp = geodesic
        assert slerp_m.sigma_deriv < lrv.sigma_deriv < sixd.sigma_deriv
        assert sixd.sigma_deriv > 0.5


def test_criterion_06_timing_ordering():
    with criterion(6, "t_comp quat < matrix, t_batch quat < matrix, "
                      "sixd slowest; 3 of 3 runs"):
        for _ in range(3):
            comp = composition_times(CFG)
            batch = batch_times(CFG)
            assert comp["quaternion"].micros < comp["matrix"].micros
            assert batch["quaternion"].micros < batch["matrix"].micros
            slowest = max(comp, key=lambda tag: comp[tag].micros)
            assert slowest == "sixd"


def test_criterion_07_robustness():
    with criterion(7, "F_rate = 0 and eps_max < 1e-9 for quaternion and "
                      "rotation vector over the 200-case taxonomy"):
        assert len(edge_cases(CFG)) == 200
        for tag in ("quaternion", "exp-map"):
            result = robustness_suite(tag, CFG)
            assert result.f_rate == 0.0
            assert result.eps_max < 1e-9, (tag, result.eps_max)


def test_criterion_08_registration():
    with criterion(8, "horn exact on 100 synthetic transforms; ICP <= 20 "
                      "iterations to 1e-6 with monotone RMS"):
        rng = Rng(42).derive("acceptance/registration")
        for _ in range(100):
            src = np.array([[rng.normal(), rng.normal(), rng.normal()]
                            for _ in range(50)])
            r0 = haar_matrix(rng)
            t0 = np.array([rng.normal(), rng.normal(), rng.normal()])
            tgt = src @ r0.as_array().T + t0
            transform, rms = horn_align(PointSet(src), PointSet(tgt))
            assert relative_angle(transform.rotation, r0) < 1e-9
            assert np.linalg.norm(np.array(transform.translation) - t0) < 1e-9
            assert rms < 1e-12

        src = np.array([[rng.normal(), rng.normal(), rng.normal()]
                        for _ in range(200)])
        axis = np.array([rng.normal() for _ in range(3)])
        axis /= np.linalg.norm(axis)
        r0 = axis_angle_to_matrix(AxisAngle(tuple(axis), math.radians(5.0)))
        t0 = np.array([0.05, -0.03, 0.02])
        tgt = src @ r0.as_array().T + t0
        perm = list(range(200))
        for i in range(199, 0, -1):
            j = int(rng.random() * (i + 1))
            perm[i], perm[j] = perm[j], perm[i]
        shuffled = tgt[perm]

        result = icp(PointSet(src), PointSet(shuffled), max_iter=100,
                     tol=1e-10)
        assert result.iterations <= 20
        assert relative_angle(result.transform.rotation, r0) < 1e-6

        # monotone RMS along the same schedule
        moved = src
        rms_seq = []
        for _ in range(result.iterations):
            matches = _nearest_neighbors(moved, shuffled)
            transform, rms = horn_align(PointSet(src),
                                        PointSet(shuffled[matches]))
            rms_seq.append(rms)
            moved = transform.apply(src)
        for a, b in zip(rms_seq, rms_seq[1:]):
            assert b <= a + 1e-12


def test_criterion_09_probabilistic():
    with criterion(9, "Bingham antipodal identity exact; fisher_mode "
                      "recovery 1e-12; Monte-Carlo mode dominance"):
        rng = Rng(42).derive("acceptance/probdist")
        a = np.array([[rng.normal() for _ in range(4)] for _ in range(4)])
        m, _ = np.linalg.qr(a)
        b = Bingham(m, (0.0, -0.7, -1.9, -4.2))
        for _ in range(10000):
            q = sample_uniform(rng)
            assert bingham_log_density_unnorm(b, q) == \
                bingham_log_density_unnorm(b, -q)

        for _ in range(100):
            r0 = haar_matrix(rng)
            assert relative_angle(
                fisher_mode(MatrixFisher(5.0 * r0.as_array())), r0) < 1e-12

        f = np.array([[rng.normal() * 2.0 for _ in range(3)]
                      for _ in range(3)])
        d = MatrixFisher(f)
        best = fisher_log_density_unnorm(d, fisher_mode(d))
        for _ in range(10000):
            assert fisher_log_density_unnorm(d, haar_matrix(rng)) <= best + 1e-9


def test_criterion_10_heuristic_tables():
    with criterion(10, "storage (24,24,32,72,24,48,72); A_mem case table; "
                       "H_opt and C_ML assignments"):
        assert tuple(STORAGE_BYTES[tag] for tag in REPRESENTATIONS) == \
            (24, 24, 32, 72, 24, 48, 72)
        assert A_MEM_CASES == {32: 1.0, 24: 0.9, 48: 0.7, 72: 0.3}
        assert H_OPT == {"euler": 0.6, "axis-angle": 0.8, "quaternion": 0.9,
                         "matrix": 0.7, "exp-map": 0.6, "sixd": 0.5}
        assert C_ML == {"euler": 0.3, "axis-angle": 0.7, "quaternion": 0.8,
                        "matrix": 0.6, "exp-map": 0.7, "sixd": 0.9}
        for tag in REPRESENTATIONS:
            scores = heuristic_scores(tag)
            assert scores.a_mem == A_MEM_CASES.get(STORAGE_BYTES[tag], 0.5)


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "bench --suite all --seed 42 twice: byte-identical "
                       "non-timing report fields"):
        out1 = tmp_path / "run1.json"
        out2 = tmp_path / "run2.json"
        for out in (out1, out2):
            code = main(["bench", "--suite", "all", "--seed", "42",
                         "--format", "json", "--out", str(out)])
            assert code == 0

        def non_timing_fields(path):
            rows = json.loads(path.read_text())["rows"]
            for row in rows:
                for field in ("t_comp", "t_interp", "t_batch"):
                    row.pop(field)
            return json.dumps(rows, sort_keys=True).encode()

        assert non_timing_fields(out1) == non_timing_fields(out2)
