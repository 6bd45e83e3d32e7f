"""pose-stream: the library as a user's per-frame pipeline.

Each frame arrives as raw components in one of the seven tags,
round-robin. It is built into its value type, composed with compose_in
against a per-tag calibration, converted to quat, slerp-smoothed against
the previous frame, emitted in another tag, and its relative_angle to
the previous output is taken. Inputs are generated before timing, so
rng does nothing in the timed region.

The raw frame is the calibration's inverse applied to a target
rotation, so the composed frame lands on the target. In the Haar block
targets are Haar-uniform; in the seam block they sit on the numerical
branch seams (identity, 1e-12..1e-3 rad, near pi, the Euler gimbal band,
antipodal quaternion signs), so a change that slows the Taylor,
Shoemake, gimbal-fold or hemisphere branches splits op2 from op1.

Every stage of the first pass of each block is checked against
scipy.spatial.transform.Rotation, one stage at a time (the reference is
built from the stage's own inputs), within ATOL + RTOL * angle radians.
Later passes must reproduce the first pass exactly. Each block is one
operation of the result line: it fails if any of its frames fails, and
the failing frames are listed under frame_failures.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np
from rotrepr import (AxisAngle, EulerAngles, EulerConvention, RotationMatrix,
                     RotationVector, Rng, SixD, UnitQuaternion, axis_angle_to_quat,
                     convert, euler_to_matrix, matrix_to_quat, quat_to_matrix,
                     sample_uniform)
from rotrepr.cli import components
from rotrepr.compose import quat_conjugate, quat_mul

from common import (Outcome, Sample, SpeedTrack, import_breakdown, median_ms,
                    overhead_pct, self_peak_rss_mb, timed_setup)
from tracer import TAGS, Tracer, per_layer_metrics

BLOCK = 700            # frames per timed block (100 per tag)
SEAM_RUN = 14          # consecutive frames per seam class (2 per tag)
SEAM_CLASSES = ("identity", "small", "near-pi", "gimbal", "antipodal")
EMIT_SHIFT = 3         # a frame of tag TAGS[i] is emitted as TAGS[i + 3]

# angular error budget, radians: ATOL + RTOL * angle of the reference
ATOL = 1e-13
RTOL = 1e-10
# matrix_to_euler documents an O(|cos beta|) fold error in its gimbal band
GIMBAL_BAND = 1e-6
GIMBAL_FOLD_FACTOR = 4.0
# Known defects, counted as failed operations:
# - the 2*acos(w) angle extraction in quat_to_axis_angle and in the
#   axis-angle / rotvec branches of compose_in loses small angles;
ACOS_DEFECT_TAGS = ("axis-angle", "rotvec")
ACOS_DEFECT_BELOW = 0.1
# - matrix_to_euler outside its fold band reads alpha and gamma from
#   entries of size |cos beta|, so the rotation it returns is off by
#   about 2.5e-16 / |cos beta| rad (2e-10 at 1e-6), not the documented
#   1e-12. An error within EULER_COND / |cos beta| is this defect.
EULER_TAGS = ("euler-zyx", "euler-xyz")
EULER_COND = 1e-14


class _Quat:
    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w, x, y, z):
        self.w, self.x, self.y, self.z = w, x, y, z

    def mul(self, o):
        return _Quat(self.w * o.w - self.x * o.x - self.y * o.y - self.z * o.z,
                     self.w * o.x + self.x * o.w + self.y * o.z - self.z * o.y,
                     self.w * o.y - self.x * o.z + self.y * o.w + self.z * o.x,
                     self.w * o.z + self.x * o.y - self.y * o.x + self.z * o.w)


def object_reference():
    """Small-object products, method calls and math calls, about 2 ms:
    the speed reference for the pipeline, whose time is spent building
    and combining small value objects. On a shared 2-vCPU VM it followed
    the pipeline's speed closer than the float/tuple loop (over five
    minutes in which raw speed swung twofold, per-block time over this
    loop varied by 2.6%, over the float/tuple loop by 4.2%)."""
    p = _Quat(1.0, 0.0, 0.0, 0.0)
    r = _Quat(math.cos(0.01), math.sin(0.01), 0.0, 0.0)
    out = []
    for _ in range(2000):
        p = p.mul(r)
        n = math.sqrt(p.w * p.w + p.x * p.x + p.y * p.y + p.z * p.z)
        out.append((p.w / n, math.atan2(p.x, p.w)))
        if len(out) > 64:
            out = []
    return out


# ---------------------------------------------------------------------------
# input generation (outside the timed region)


def _raw(tag, q, rng, negate: bool = False) -> tuple:
    """Components of rotation q (a UnitQuaternion) in `tag`."""
    if tag == "quat":
        return tuple(-c for c in q.as_tuple()) if negate else q.as_tuple()
    if tag == "sixd":
        r = quat_to_matrix(q)
        c0, c1 = r.column(0), r.column(1)
        s1, s2, k = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5)
        return tuple(s1 * v for v in c0) + tuple(s2 * b + k * a for a, b in zip(c0, c1))
    return tuple(components(convert(q, tag)))


def _unit3(rng):
    while True:
        v = (rng.normal(), rng.normal(), rng.normal())
        n = math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
        if n > 0.0:
            return (v[0] / n, v[1] / n, v[2] / n)


def _seam_target(cls, tag, rng, anchor):
    if cls == "identity":
        return axis_angle_to_quat(AxisAngle((0.0, 0.0, 1.0), 0.0))
    if cls == "small":
        return axis_angle_to_quat(AxisAngle(_unit3(rng), 10.0 ** rng.uniform(-12, -3)))
    if cls == "near-pi":
        theta = math.pi - 10.0 ** rng.uniform(-10, -4)
        return axis_angle_to_quat(AxisAngle(_unit3(rng), theta))
    if cls == "gimbal":
        sign = 1.0 if rng.random() < 0.5 else -1.0
        beta = sign * (math.pi / 2 - 10.0 ** rng.uniform(-10, -5))
        conv = EulerConvention("XYZ" if tag == "euler-xyz" else "ZYX")
        e = EulerAngles(rng.uniform(-math.pi, math.pi), beta,
                        rng.uniform(-math.pi, math.pi), conv)
        return matrix_to_quat(euler_to_matrix(e))
    # antipodal: a fixed rotation with a 1e-6..1e-2 rad jitter per frame;
    # quat frames arrive with the sign flipped
    jitter = axis_angle_to_quat(AxisAngle(_unit3(rng), 10.0 ** rng.uniform(-6, -2)))
    return quat_mul(anchor, jitter)


def generate(seed: int) -> dict:
    rng = Rng(seed).derive("pose-stream")
    calib_q = {tag: sample_uniform(rng) for tag in TAGS}
    calib = {tag: _raw(tag, calib_q[tag], rng) for tag in TAGS}

    def frame(i, target, negate=False):
        tag = TAGS[i % len(TAGS)]
        pre = quat_mul(quat_conjugate(calib_q[tag]), target)
        return _raw(tag, pre, rng, negate)

    haar = [frame(i, sample_uniform(rng)) for i in range(BLOCK)]
    seam, classes = [], []
    anchor = sample_uniform(rng)
    for i in range(BLOCK):
        cls = SEAM_CLASSES[(i // SEAM_RUN) % len(SEAM_CLASSES)]
        tag = TAGS[i % len(TAGS)]
        if cls == "antipodal" and i % SEAM_RUN == 0:
            anchor = sample_uniform(rng)
        target = _seam_target(cls, tag, rng, anchor)
        seam.append(frame(i, target, negate=(cls == "antipodal" and tag == "quat")))
        classes.append(cls)
    return {"calib": calib, "haar": haar, "seam": seam, "seam_classes": classes}


# ---------------------------------------------------------------------------
# the pipeline


def _builders():
    zyx, xyz = EulerConvention("ZYX"), EulerConvention("XYZ")
    return {
        "quat": lambda c: UnitQuaternion(c[0], c[1], c[2], c[3]),
        "matrix": lambda c: RotationMatrix((c[0:3], c[3:6], c[6:9])),
        "euler-zyx": lambda c: EulerAngles(c[0], c[1], c[2], zyx),
        "euler-xyz": lambda c: EulerAngles(c[0], c[1], c[2], xyz),
        "axis-angle": lambda c: AxisAngle((c[0], c[1], c[2]), c[3]),
        "rotvec": lambda c: RotationVector((c[0], c[1], c[2])),
        "sixd": lambda c: SixD((c[0], c[1], c[2]), (c[3], c[4], c[5])),
    }


def run_block(frames, calib) -> list:
    """One closed-loop pass over a block; returns (y, q, s, out, angle) per
    frame. Library functions are looked up per pass so a tracer installed
    in between is seen."""
    mods = sys.modules
    compose_in = mods["rotrepr.compose"].compose_in
    convert_to = mods["rotrepr.convert"].convert
    slerp = mods["rotrepr.interp"].slerp
    relative_angle = mods["rotrepr.core"].relative_angle
    build = _builders()
    n_tags = len(TAGS)
    steps = [(TAGS[i], build[TAGS[i]], build[TAGS[i]](calib[TAGS[i]]),
              TAGS[(i + EMIT_SHIFT) % n_tags]) for i in range(n_tags)]
    prev_q = UnitQuaternion(1.0, 0.0, 0.0, 0.0)
    prev_m = RotationMatrix.identity()
    out = []
    for i, raw in enumerate(frames):
        tag, builder, cal, emit_tag = steps[i % n_tags]
        y = compose_in(tag, cal, builder(raw))
        q = convert_to(y, "quat")
        s = slerp(prev_q, q, 0.5)
        o = convert_to(s, emit_tag)
        m = convert_to(o, "matrix")
        a = relative_angle(prev_m, m)
        out.append((y, q, s, o, a))
        prev_q, prev_m = q, m
    return out


# ---------------------------------------------------------------------------
# checks


def _scipy_rotation(tag, comps):
    from scipy.spatial.transform import Rotation
    c = np.asarray(comps, dtype=float)
    if tag == "quat":
        return Rotation.from_quat([c[1], c[2], c[3], c[0]])
    if tag == "matrix":
        return Rotation.from_matrix(c.reshape(3, 3))
    if tag == "euler-zyx":
        return Rotation.from_euler("ZYX", c)
    if tag == "euler-xyz":
        return Rotation.from_euler("XYZ", c)
    if tag == "axis-angle":
        return Rotation.from_rotvec(c[:3] * c[3])
    if tag == "rotvec":
        return Rotation.from_rotvec(c)
    b1 = c[:3] / np.linalg.norm(c[:3])
    b2 = c[3:] - np.dot(b1, c[3:]) * b1
    b2 /= np.linalg.norm(b2)
    return Rotation.from_matrix(np.column_stack([b1, b2, np.cross(b1, b2)]))


def _cos_beta(tag, ref) -> float:
    m = ref.as_matrix()
    return math.hypot(m[0, 0], m[1, 0] if tag == "euler-zyx" else m[0, 1])


def _budget(tag, ref) -> float:
    budget = ATOL + RTOL * ref.magnitude()
    if tag in EULER_TAGS and _cos_beta(tag, ref) < GIMBAL_BAND:
        budget += GIMBAL_FOLD_FACTOR * _cos_beta(tag, ref)
    return budget


def _known_defect(stage, tag, ref, err) -> str | None:
    if stage not in ("compose_in", "convert->emit"):
        return None
    if tag in ACOS_DEFECT_TAGS and ref.magnitude() < ACOS_DEFECT_BELOW:
        return "2*acos(w) small-angle loss"
    if tag in EULER_TAGS and err * _cos_beta(tag, ref) < EULER_COND:
        return "Euler extraction ill-conditioned near the gimbal band"
    return None


def check_block(name, frames, calib, results, classes, worst: dict) -> list:
    """Stage-by-stage scipy check of one pass. Returns one verdict per
    frame: None, or (failure name, is-a-known-defect)."""
    # scipy is imported only here, after peak RSS has been read
    from scipy.spatial.transform import Rotation
    sp = _scipy_rotation
    prev_q = Rotation.identity()
    prev_o = Rotation.identity()
    verdicts = []
    for i, (raw, (y, q, s, o, a)) in enumerate(zip(frames, results)):
        tag = TAGS[i % len(TAGS)]
        emit_tag = TAGS[(i + EMIT_SHIFT) % len(TAGS)]
        cls = classes[i] if classes else "haar"
        got_q = sp("quat", tuple(components(q)))
        got_y = sp(tag, tuple(components(y)))
        got_o = sp(emit_tag, tuple(components(o)))
        half = Rotation.from_rotvec(0.5 * (prev_q.inv() * got_q).as_rotvec())
        stages = (
            ("compose_in", tag, got_y, sp(tag, calib[tag]) * sp(tag, raw)),
            ("convert->quat", "quat", got_q, got_y),
            ("slerp", "quat", sp("quat", tuple(components(s))), prev_q * half),
            ("convert->emit", emit_tag, got_o, sp("quat", tuple(components(s)))),
        )
        verdict = None
        for stage, stage_tag, got, ref in stages:
            err = (ref.inv() * got).magnitude()
            ratio = err / _budget(stage_tag, ref)
            key = f"{name}/{cls}: {stage} in {stage_tag}"
            worst[key] = max(worst.get(key, 0.0), ratio)
            if not ratio <= 1.0:
                defect = _known_defect(stage, stage_tag, ref, err)
                verdict = (key + (f" ({defect})" if defect else ""), defect is not None)
                break
        if verdict is None:
            a_ref = (prev_o.inv() * got_o).magnitude()
            if not abs(a - a_ref) <= ATOL + RTOL * a_ref:
                verdict = (f"{name}/{cls}: relative_angle", False)
        verdicts.append(verdict)
        prev_q, prev_o = got_q, got_o
    return verdicts


# ---------------------------------------------------------------------------


def _measure(track, inputs, budget_s, tally):
    """Alternate Haar and seam passes for budget_s (at least one each).
    Returns per-frame ms samples; `tally` keeps the first pass of each
    block and counts, per frame, the later passes that reproduced it."""
    samples = {"haar": [], "seam": []}
    start = time.perf_counter()
    while not samples["seam"] or time.perf_counter() - start < budget_s:
        for name in ("haar", "seam"):
            sample = Sample(track, run_block, inputs[name], inputs["calib"])
            samples[name].append(sample)
            tally.add(name, sample.result)
            sample.result = None  # keep memory flat across passes
    return samples


class Tally:
    """The first pass of each block, and how many passes reproduced it
    exactly (the first included) or did not."""

    def __init__(self):
        self.first = {}
        self.same = {}
        self.differ = {}

    def add(self, name, res):
        if name not in self.first:
            self.first[name] = res
            self.same[name], self.differ[name] = 1, 0
        elif res == self.first[name]:
            self.same[name] += 1
        else:
            self.differ[name] += 1


def _check(inputs, tally, outcome, info):
    """Check the first pass of each block against scipy, frame by frame.
    A block is one operation: it fails if any of its frames fails, and a
    later pass that reproduced the first inherits its verdict. The frame
    failures and the worst error-to-budget ratios go into `info`."""
    worst: dict = {}
    frames: dict = {}
    for name in ("haar", "seam"):
        classes = inputs["seam_classes"] if name == "seam" else None
        failing = [v for v in check_block(name, inputs[name], inputs["calib"],
                                          tally.first[name], classes, worst) if v]
        for what, known in failing:
            what += "" if known else " [unexpected]"
            frames[what] = frames.get(what, 0) + 1
        verdict = None
        if failing:
            verdict = (f"{name} block: {len(failing)} of {BLOCK} frames fail "
                       "(frame_failures)", all(known for _, known in failing))
        for _ in range(tally.same[name]):
            outcome.record(name, verdict)
        for _ in range(tally.differ[name]):
            outcome.fail(name, f"{name} block: a repeated pass differs from the first",
                         False)
    info["frame_failures"] = frames
    info["worst_error_over_budget"] = {k: float(f"{v:.3g}")
                                       for k, v in sorted(worst.items()) if v > 0.01}


def run(seed: int, seconds: int, trace: bool):
    track = SpeedTrack(object_reference, nominal_ms=2.0)
    setup_s, inputs = timed_setup(track, "rotrepr", lambda: generate(seed))
    outcome = Outcome()
    budget = seconds / 2 if trace else seconds
    tally = Tally()
    samples = _measure(track, inputs, budget, tally)
    rss = self_peak_rss_mb()
    haar_ms = median_ms(samples["haar"], BLOCK)
    seam_ms = median_ms(samples["seam"], BLOCK)
    info = {"pose_haar_fps": 1e3 / haar_ms, "pose_seam_fps": 1e3 / seam_ms,
            "wall_pose_haar_fps": 1e3 / median_ms(samples["haar"], BLOCK, scaled=False),
            "wall_pose_seam_fps": 1e3 / median_ms(samples["seam"], BLOCK, scaled=False),
            "blocks_per_kind": len(samples["haar"]), "frames_per_block": BLOCK}
    if not trace:
        _check(inputs, tally, outcome, info)
        metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss, "MB"),
                   "op1_ms": (haar_ms, "ms"), "op2_ms": (seam_ms, "ms")}
        return outcome, metrics, info
    tracer = Tracer().install()
    try:
        traced = {}
        for name in ("haar", "seam"):
            with tracer.span(f"block.{name}"):
                sample = Sample(track, run_block, inputs[name], inputs["calib"])
            traced[name] = median_ms([sample], BLOCK)
            tally.add(name, sample.result)
    finally:
        tracer.uninstall()
    _check(inputs, tally, outcome, info)
    info["spans"] = tracer.span_summary()
    metrics = per_layer_metrics(
        tracer, imports=import_breakdown(track)[0],
        overhead_pct=(overhead_pct(haar_ms, traced["haar"]),
                      overhead_pct(seam_ms, traced["seam"])))
    return outcome, metrics, info
