"""register: the numpy layer, which no other workload touches.

op1 is Horn on corresponded 50- and 200-point clouds (ms per alignment,
over a block holding both sizes), where the Python Jacobi in eig_sym4
dominates. op2 is a full ICP run (ms, mean over a block of eight
problems) on 2000-point clouds with shuffled correspondences and a
1-4.5 degree perturbation, where the brute-force nearest-neighbour
search dominates. A Jacobi change and a nearest-neighbour change
therefore each move one of the two.

Checks, independent of the seed: the recovered transform matches the
ground truth within 1e-9 (Horn) and 1e-6 (ICP) in angle and translation.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np
from rotrepr import (AxisAngle, PointSet, Rng, axis_angle_to_matrix, quat_to_matrix,
                     relative_angle, sample_uniform)

from common import (Outcome, Sample, SpeedTrack, import_breakdown, median_ms,
                    overhead_pct, self_peak_rss_mb, timed_setup)
from tracer import Tracer, per_layer_metrics

HORN_SIZES = (50, 200)
HORN_PER_SIZE = 32
ICP_POINTS = 2000
# one ICP block: one problem per perturbation angle. ICP stops after 3-4
# iterations on these clouds, so a block of several fixed angles keeps
# the work per block nearly independent of the seed.
ICP_DEGREES = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5)
HORN_TOL = 1e-9
ICP_TOL = 1e-6


def numpy_reference_loop():
    """Brute-force nearest neighbours on fixed arrays, about 8 ms: the
    speed reference for ICP, whose time is numpy work, not Python."""
    gen = np.random.default_rng(0)
    a, b = gen.normal(size=(640, 3)), gen.normal(size=(2000, 3))
    b_sq = np.sum(b * b, axis=1)

    def loop():
        for start in range(0, a.shape[0], 256):
            d2 = a[start:start + 256] @ b.T
            d2 *= -2.0
            d2 += b_sq
            np.argmin(d2, axis=1)

    return loop


def small_array_reference_loop():
    """Jacobi-style 4x4 rotations with numpy scalar indexing, about 1.2 ms:
    the speed reference for Horn, whose time is small-array numpy calls."""
    start = np.eye(4) + 0.1

    def loop():
        a = start.copy()
        for _ in range(150):
            rot = np.eye(4)
            rot[1, 2] = 0.01
            rot[2, 1] = -0.01
            a = rot.T @ a @ rot
            _ = a[0, 1] * a[1, 1] + math.sqrt(abs(a[2, 2]))

    return loop


def _cloud(rng, n):
    return np.array([[rng.normal(), rng.normal(), rng.normal()] for _ in range(n)])


def generate(seed: int) -> dict:
    rng = Rng(seed).derive("register")
    horn = []
    for n in HORN_SIZES:
        for _ in range(HORN_PER_SIZE):
            src = _cloud(rng, n)
            r0 = quat_to_matrix(sample_uniform(rng))
            t0 = np.array([rng.normal(), rng.normal(), rng.normal()])
            horn.append((PointSet(src), PointSet(src @ r0.as_array().T + t0), r0, t0))
    icp = []
    for degrees in ICP_DEGREES:
        src = _cloud(rng, ICP_POINTS)
        axis = (rng.normal(), rng.normal(), rng.normal())
        norm = math.sqrt(sum(a * a for a in axis))
        r0 = axis_angle_to_matrix(AxisAngle(tuple(a / norm for a in axis),
                                            math.radians(degrees)))
        t0 = np.array([rng.uniform(-0.05, 0.05) for _ in range(3)])
        tgt = src @ r0.as_array().T + t0
        perm = list(range(ICP_POINTS))
        for i in range(ICP_POINTS - 1, 0, -1):
            j = int(rng.random() * (i + 1))
            perm[i], perm[j] = perm[j], perm[i]
        icp.append((PointSet(src), PointSet(tgt[perm]), r0, t0))
    return {"horn": horn, "icp": icp}


def horn_block(problems):
    horn_align = sys.modules["rotrepr.registration"].horn_align
    return [horn_align(src, tgt)[0] for src, tgt, _, _ in problems]


def icp_block(problems):
    icp = sys.modules["rotrepr.registration"].icp
    return [icp(src, tgt, max_iter=100, tol=1e-10) for src, tgt, _, _ in problems]


def check(problems, transforms, tol, what, outcome) -> None:
    for i, (transform, (_, _, r0, t0)) in enumerate(zip(transforms, problems)):
        offset = float(np.linalg.norm(np.asarray(transform.translation) - t0))
        if relative_angle(transform.rotation, r0) < tol and offset < tol:
            outcome.ok((what, i))
        else:
            outcome.fail((what, i), f"{what}: transform off the ground truth by > {tol}",
                         False)


def run(seed: int, seconds: int, trace: bool):
    track = SpeedTrack()
    horn_track = SpeedTrack(small_array_reference_loop(), nominal_ms=1.2)
    np_track = SpeedTrack(numpy_reference_loop(), nominal_ms=8.0)
    setup_s, inputs = timed_setup(track, "rotrepr.registration", lambda: generate(seed))
    horn_p, icp_p = inputs["horn"], inputs["icp"]
    outcome = Outcome()
    horn, icp = [], []
    budget = seconds / 2 if trace else seconds
    start = time.perf_counter()
    while not icp or time.perf_counter() - start < budget:
        horn.append(Sample(horn_track, horn_block, horn_p))
        icp.append(Sample(np_track, icp_block, icp_p))
        check(horn_p, horn[-1].result, HORN_TOL, "horn", outcome)
        check(icp_p, [r.transform for r in icp[-1].result], ICP_TOL, "icp", outcome)
    rss = self_peak_rss_mb()
    horn_ms, icp_ms = median_ms(horn, len(horn_p)), median_ms(icp, len(icp_p))
    info = {"horn_per_s": 1e3 / horn_ms, "icp_per_s": 1e3 / icp_ms,
            "wall_horn_per_s": 1e3 / median_ms(horn, len(horn_p), scaled=False),
            "wall_icp_per_s": 1e3 / median_ms(icp, len(icp_p), scaled=False),
            "rounds": len(horn)}
    if not trace:
        metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss, "MB"),
                   "op1_ms": (horn_ms, "ms"), "op2_ms": (icp_ms, "ms")}
        return outcome, metrics, info
    tracer = Tracer().install()
    try:
        with tracer.span("block.horn"):
            traced_horn = Sample(horn_track, horn_block, horn_p)
        with tracer.span("block.icp"):
            traced_icp = Sample(np_track, icp_block, icp_p)
    finally:
        tracer.uninstall()
    check(horn_p, traced_horn.result, HORN_TOL, "horn", outcome)
    check(icp_p, [r.transform for r in traced_icp.result], ICP_TOL, "icp", outcome)
    iterations = [r.iterations for r in traced_icp.result]
    info["spans"] = tracer.span_summary()
    metrics = per_layer_metrics(
        tracer, icp_iterations=sum(iterations) / len(iterations),
        imports=import_breakdown(track)[0],
        overhead_pct=(overhead_pct(horn_ms, median_ms([traced_horn], len(horn_p))),
                      overhead_pct(icp_ms, median_ms([traced_icp], len(icp_p)))))
    return outcome, metrics, info
