import dataclasses
import math
from functools import reduce
from operator import add
from types import SimpleNamespace

import pytest

from rotrepr import RotationVector, project_to_so3, relative_angle
from rotrepr import bench as bench_mod
from rotrepr.bench import (
    A_MEM_CASES,
    REPORT_FIELDS,
    REPRESENTATIONS,
    ROTATION_REPRESENTATIONS,
    BenchConfig,
    batch_times,
    composition_times,
    derivative_continuity,
    double_cover_check,
    edge_cases,
    full_table,
    gimbal_susceptibility,
    heuristic_scores,
    interpolation_metrics,
    interpolation_times,
    path_metrics,
    robustness_suite,
    round_trip,
    stability_suite,
)
from rotrepr.compose import matrix_mul
from rotrepr.convert import exp_map
from rotrepr.errors import RotationError
from rotrepr.interp import make_interpolator

from conftest import broken_quat_to_matrix, haar_matrix

FAST = BenchConfig(n_stability=200, m_singularity=400, n_pairs=20,
                   trials=50, warmup=10, batch=20)


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    # tau finite and > 0, every size an int >= 1
    for kwargs in ({"trials": 0}, {"tau": 0.0}, {"tau": math.nan}, {"tau": math.inf},
                   {"n_stability": 2.5}, {"m_singularity": 600.0}, {"batch": None}):
        with pytest.raises(RotationError):
            BenchConfig(**kwargs)


def test_config_fields_and_protocol_constants():
    # the report meta records these nine fields; the paper fixes the rest
    assert [f.name for f in dataclasses.fields(BenchConfig)] == [
        "seed", "n_stability", "m_singularity", "n_edge", "n_pairs", "tau",
        "warmup", "trials", "batch"]
    assert (bench_mod.PERTURBATION_NORM, bench_mod.K_PATH, bench_mod.K_DERIV,
            bench_mod.DT, bench_mod.DELTA_REG, bench_mod.FAILURE_THRESHOLD) == (
        1e-6, 100, 50, 0.001, 1e-8, 0.1)


def test_report_field_order():
    assert REPORT_FIELDS == (
        "representation", "storage_bytes", "eps_stab", "s_gimbal", "s_double",
        "path_length", "eps_geo", "sigma_deriv", "f_rate", "eps_avg",
        "eps_max", "t_comp", "t_interp", "t_batch", "a_mem", "h_opt", "c_ml")


# ---------------------------------------------------------------------------
# stability


def test_stability_quaternion_and_matrix():
    cfg = BenchConfig(n_stability=1000)
    assert stability_suite("quaternion", cfg).eps_stab < 1e-12
    assert stability_suite("matrix", cfg).eps_stab < 1e-15


def test_stability_euler_band_excluded():
    cfg = BenchConfig(n_stability=1000)
    res = stability_suite("euler", cfg)
    assert res.eps_stab < 1e-10
    assert res.failures == 0


def test_stability_deterministic():
    a = stability_suite("exp-map", FAST)
    b = stability_suite("exp-map", FAST)
    assert a.eps_stab == b.eps_stab


# ---------------------------------------------------------------------------
# singularity


def test_gimbal_euler_fires():
    cfg = BenchConfig(m_singularity=2000)
    assert gimbal_susceptibility("euler", cfg) > 0.1


def test_gimbal_matrix_chunks_match_per_matrix_projection():
    # 600 draws cross two 256-draw SVD stacks; at this tau about half hit
    cfg = BenchConfig(m_singularity=600, tau=5e-7)
    rng = bench_mod._suite_rng(cfg, "gimbal/matrix")
    hits = 0
    for _ in range(cfg.m_singularity):
        ref = bench_mod.haar_matrix(rng).as_flat()
        d = bench_mod._direction(rng, 9, bench_mod.PERTURBATION_NORM)
        pert = [ref[i] + d[i] for i in range(9)]
        fixed = project_to_so3([pert[0:3], pert[3:6], pert[6:9]])
        hits += bench_mod._tuple_dist(fixed.as_flat(), ref) > cfg.tau
    assert 100 < hits < 500
    assert gimbal_susceptibility("matrix", cfg) == hits / cfg.m_singularity


def test_gimbal_quaternion_and_matrix_quiet():
    cfg = BenchConfig(m_singularity=2000)
    assert gimbal_susceptibility("quaternion", cfg) < 1e-3
    assert gimbal_susceptibility("matrix", cfg) < 1e-3


def test_double_cover_zero_for_shipped_conversion():
    assert double_cover_check(BenchConfig(m_singularity=2000)) == 0.0


def test_double_cover_single_sample():
    assert double_cover_check(BenchConfig(m_singularity=1)) == 0.0


def test_double_cover_mutation_fixture_fires_fully():
    assert double_cover_check(BenchConfig(m_singularity=2000),
                              broken_quat_to_matrix) == 1.0


def test_double_cover_w_scaled_mutation_misses_small_w():
    # a defect of 1e-9*w falls under the 1e-10 Frobenius threshold when
    # |w| < 0.05 (~6% of Haar samples), which is why the shipped fixture
    # scales by sign(w) instead
    from rotrepr import RotationMatrix
    from rotrepr.convert import quat_to_matrix

    def w_scaled(q):
        rows = quat_to_matrix(q).rows
        return RotationMatrix(((rows[0][0] + 1e-9 * q.w, rows[0][1],
                                rows[0][2]), rows[1], rows[2]))

    fraction = double_cover_check(BenchConfig(m_singularity=5000), w_scaled)
    assert 0.9 < fraction < 1.0


# ---------------------------------------------------------------------------
# interpolation metrics


def test_path_metrics_constant_path(rng):
    r = haar_matrix(rng)
    interp = make_interpolator("slerp", r, r)
    length, eps_geo = path_metrics(interp, r, r)
    assert length == 0.0
    assert eps_geo == 0.0


def test_path_metrics_slerp_geodesic(rng):
    for _ in range(5):
        r1, r2 = haar_matrix(rng), haar_matrix(rng)
        interp = make_interpolator("slerp", r1, r2)
        _, eps_geo = path_metrics(interp, r1, r2)
        assert eps_geo < 1e-6


def test_derivative_continuity_slerp(rng):
    r1, r2 = haar_matrix(rng), haar_matrix(rng)
    interp = make_interpolator("slerp", r1, r2)
    assert derivative_continuity(interp, r1, r2) < 1e-6


def test_interpolation_metric_orderings():
    m = interpolation_metrics(BenchConfig(n_pairs=40))
    assert m["linear-sixd"].path_length > m["linear-rotation-vector"].path_length
    assert (m["linear-rotation-vector"].path_length
            >= m["slerp"].path_length - 1e-9)
    assert (m["slerp"].sigma_deriv
            < m["linear-rotation-vector"].sigma_deriv
            < m["linear-sixd"].sigma_deriv)
    assert m["linear-sixd"].sigma_deriv > 0.5
    assert m["matrix-geodesic"].eps_geo < 1e-6
    # the slerp reference on the same endpoint pairs is the shortest
    for method, metrics in m.items():
        assert m["slerp"].path_length <= metrics.path_length + 1e-9, method
    # 6D blending measurably exceeds the geodesic (factor ~1.15 for
    # Gram-Schmidt-projected linear blends, under any endpoint sampling)
    assert m["linear-sixd"].path_length > 1.1 * m["slerp"].path_length


# ---------------------------------------------------------------------------
# robustness


def test_edge_case_family_split():
    cases = edge_cases(BenchConfig())
    assert len(cases) == 200
    counts = {}
    for family, _ in cases:
        counts[family] = counts.get(family, 0) + 1
    assert counts == {"identity": 34, "small-angle": 34, "near-pi": 33,
                      "near-gimbal": 33, "antipodal": 33, "haar": 33}


def test_robustness_quaternion_and_rotvec():
    cfg = BenchConfig()
    for tag in ("quaternion", "exp-map"):
        res = robustness_suite(tag, cfg)
        assert res.f_rate == 0.0
        assert res.eps_max < 1e-9


def test_robustness_branchless_log_fixture_fails_near_pi():
    # Mutation fixture: a log map without the small/near-pi branches must
    # blow up on the near-pi family (theta = pi has a vanishing skew part).
    def branchless_log(r):
        m = r.rows
        c = max(-1.0, min(1.0, (m[0][0] + m[1][1] + m[2][2] - 1.0) / 2.0))
        theta = math.acos(c)
        k = theta / (2.0 * math.sin(theta))  # singular at 0 and pi
        return RotationVector((k * (m[2][1] - m[1][2]),
                               k * (m[0][2] - m[2][0]),
                               k * (m[1][0] - m[0][1])))

    cfg = BenchConfig()
    failures = 0
    for family, r in edge_cases(cfg):
        if family != "near-pi":
            continue
        try:
            err = relative_angle(exp_map(branchless_log(r)), r)
        except (ZeroDivisionError, ValueError):
            failures += 1
            continue
        if err > bench_mod.FAILURE_THRESHOLD:
            failures += 1
    assert failures > 0
    # and the shipped branched log map handles the same family
    res = robustness_suite("exp-map", cfg)
    assert res.f_rate == 0.0


def _fake_row(monkeypatch, tag, to_matrix):
    # the row's round trip: the matrix itself in, to_matrix out
    monkeypatch.setitem(bench_mod._ROWS, tag,
                        SimpleNamespace(from_matrix=lambda r: r, to_matrix=to_matrix))


def test_stability_counts_a_raising_round_trip_as_pi(monkeypatch):
    calls = []

    def every_fourth_raises(r):
        calls.append(r)
        if len(calls) % 4 == 0:
            raise RotationError("injected failure")
        return r  # relative_angle(r, r) is exactly 0

    _fake_row(monkeypatch, "quaternion", every_fourth_raises)
    res = stability_suite("quaternion", BenchConfig(n_stability=200))
    assert res.failures == 50
    assert res.eps_stab == reduce(add, [math.pi] * 50, 0.0) / 200


def test_robustness_counts_raising_and_far_round_trips(monkeypatch):
    near = exp_map(RotationVector((0.05, 0.0, 0.0)))
    far = exp_map(RotationVector((0.5, 0.0, 0.0)))  # past FAILURE_THRESHOLD
    calls = []

    def raise_far_near(r):
        calls.append(r)
        if len(calls) % 3 == 1:
            raise RotationError("injected failure")
        return matrix_mul(r, far if len(calls) % 3 == 2 else near)

    _fake_row(monkeypatch, "quaternion", raise_far_near)
    res = robustness_suite("quaternion", BenchConfig(n_edge=12))
    assert len(calls) == 12
    assert res.f_rate == 8 / 12
    assert res.eps_avg == pytest.approx(0.05, abs=1e-15)
    assert res.eps_max == pytest.approx(0.05, abs=1e-15)


def test_robustness_statistics_are_nan_when_every_case_fails(monkeypatch):
    def raises(r):
        raise RotationError("injected failure")

    _fake_row(monkeypatch, "quaternion", raises)
    res = robustness_suite("quaternion", BenchConfig(n_edge=12))
    assert res.f_rate == 1.0
    assert math.isnan(res.eps_avg) and math.isnan(res.eps_max)


# ---------------------------------------------------------------------------
# timing


def test_time_composition_smoke():
    res = composition_times(FAST, ("quaternion",))["quaternion"]
    assert res.micros > 0.0


def test_single_trial_flagged_low_confidence():
    cfg = BenchConfig(trials=1, warmup=1)
    assert composition_times(cfg, ("quaternion",))["quaternion"].low_confidence


def test_batch_ingestion_rejects_nan():
    from rotrepr import RotationMatrix
    from rotrepr.convert import _checked_matrix
    with pytest.raises(RotationError):
        _checked_matrix(RotationMatrix(((math.nan, 0.0, 0.0), (0.0, 1.0, 0.0),
                                        (0.0, 0.0, 1.0))))


@pytest.mark.parametrize("tag", ROTATION_REPRESENTATIONS)
@pytest.mark.parametrize("rows", [
    ((math.nan, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
    ((2.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 2.0)),
], ids=["nan", "2I"])
def test_batch_ingestion_rejects_invalid_every_row(tag, rows):
    # a quaternion-hub row counts matrix_to_quat's check as its own; the
    # matrix-hub rows validate explicitly
    from rotrepr import RotationMatrix
    from rotrepr.bench import _ingest
    with pytest.raises(RotationError):
        _ingest(tag)(RotationMatrix(rows))


def test_batch_close_to_scalar():
    cfg = BenchConfig(trials=200, warmup=20, batch=50)
    scalar = composition_times(cfg, ("quaternion",))["quaternion"].micros
    batch = batch_times(cfg, ("quaternion",))["quaternion"].micros
    assert batch < 2.0 * scalar + 2.0  # amortization: below scalar or within 2x


def test_batch_of_one_matches_scalar_path():
    cfg = BenchConfig(trials=100, warmup=10, batch=1)
    res = batch_times(cfg, ("quaternion",))["quaternion"]
    assert res.micros > 0.0
    assert res.low_confidence  # B = 1 is a degenerate batch


def test_composition_ordering_quat_matrix_sixd():
    times = composition_times(BenchConfig(trials=300, warmup=50))
    for fast in ("quaternion", "axis-angle", "exp-map"):
        assert times[fast].micros < times["matrix"].micros
    assert times["matrix"].micros < times["sixd"].micros
    ranked = sorted(times, key=lambda tag: times[tag].micros)
    assert "exp-map" in ranked[:3]


def _op_calls(monkeypatch, family, cfg, tag):
    """The operands of every op call one timing family makes for one row,
    warmups included, by the loop's part."""
    calls = {}

    def counted(part, op):
        def call(*args):
            calls.setdefault(part, []).append(args)
            return op(*args)
        return call

    with monkeypatch.context() as m:
        m.setattr(bench_mod, "compose_in", counted("compose", bench_mod.compose_in))
        ingest = bench_mod._ingest
        m.setattr(bench_mod, "_ingest", lambda row: counted("convert", ingest(row)))
        for name, (endpoint, op, to_matrix) in bench_mod._METHODS.items():
            m.setitem(bench_mod._METHODS, name, (endpoint, counted("interp", op), to_matrix))
        family(cfg, (tag,))
    return calls


@pytest.mark.parametrize("tag", ROTATION_REPRESENTATIONS)
@pytest.mark.parametrize("family, parts", [
    (composition_times, ("compose",)),
    (interpolation_times, ("interp",)),
    (batch_times, ("convert", "compose")),
], ids=["compose", "interp", "batch"])
def test_timing_protocol_call_counts_and_operands(monkeypatch, family, parts, tag):
    # the warmup cycles through the pre-generated operands, then every
    # repeat round runs over the same operands again: reps batches of b
    # for the batch family, the trials once for the other two
    cfg = BenchConfig(seed=7, trials=23, warmup=5, batch=4)
    if family is batch_times:
        b = cfg.batch
        warmup, items, reps = max(1, cfg.warmup // b + 1) * b, b, max(1, cfg.trials // b)
    else:
        warmup, items, reps = cfg.warmup, cfg.trials, 1
    calls = _op_calls(monkeypatch, family, cfg, tag)
    assert sorted(calls) == sorted(parts)
    for part in parts:
        ids = [tuple(map(id, args)) for args in calls[part]]
        assert len(ids) == warmup + bench_mod._TIMING_REPEATS * reps * items
        operands = ids[warmup:warmup + items]
        assert ids == ([operands[i % items] for i in range(warmup)]
                       + operands * (bench_mod._TIMING_REPEATS * reps))
    # one BenchConfig feeds the same operand sequence, bit for bit
    assert repr(_op_calls(monkeypatch, family, cfg, tag)) == repr(calls)


def test_full_table_field_ranges():
    rows = full_table(BenchConfig(n_stability=100, m_singularity=100,
                                  n_pairs=5, n_edge=30, trials=30,
                                  warmup=5, batch=10))
    for row in rows:
        for name in ("s_gimbal", "s_double", "f_rate", "eps_geo"):
            value = getattr(row, name)
            if value is not None:
                assert 0.0 <= value
        for name in ("s_gimbal", "s_double", "f_rate"):
            value = getattr(row, name)
            if value is not None:
                assert value <= 1.0
        for name in ("eps_stab", "path_length", "eps_avg", "eps_max"):
            value = getattr(row, name)
            if value is not None:
                assert value >= 0.0
        for name in ("t_comp", "t_interp", "t_batch"):
            value = getattr(row, name)
            if row.representation == "fisher":
                assert value is None
            else:
                assert value > 0.0


def test_full_table_row_error_completes_other_rows(monkeypatch):
    import rotrepr.bench as bench_mod
    from rotrepr.bench import BenchSuiteError

    real = bench_mod.stability_suite

    def broken(tag, cfg):
        if tag == "sixd":
            raise RotationError("injected failure")
        return real(tag, cfg)

    monkeypatch.setattr(bench_mod, "stability_suite", broken)
    with pytest.raises(BenchSuiteError) as exc:
        full_table(FAST, suites=("stability",))
    assert [(tag, suite) for tag, suite, _ in exc.value.failures] == \
        [("sixd", "stability")]
    finished = {r.representation: r for r in exc.value.reports}
    assert finished["quaternion"].eps_stab is not None
    assert finished["sixd"].eps_stab is None


def test_full_table_table_wide_failures_keep_the_other_cells(monkeypatch):
    from rotrepr.bench import BenchSuiteError

    def broken(*args):
        raise RotationError("injected failure")

    monkeypatch.setattr(bench_mod, "interpolation_metrics", broken)
    monkeypatch.setattr(bench_mod, "composition_times", broken)
    cfg = BenchConfig(n_edge=30)
    with pytest.raises(BenchSuiteError) as exc:
        full_table(cfg, suites=("robustness", "interp", "timing"))
    assert [(tag, suite, str(err)) for tag, suite, err in exc.value.failures] == [
        ("*", "interp", "injected failure"), ("*", "timing", "injected failure")]
    rows = exc.value.reports
    assert [row.representation for row in rows] == list(REPRESENTATIONS)
    for row in rows:
        for name in ("path_length", "eps_geo", "sigma_deriv",
                     "t_comp", "t_interp", "t_batch"):
            assert getattr(row, name) is None, (row.representation, name)
    robustness_only = full_table(cfg, suites=("robustness",))
    assert [(r.storage_bytes, r.a_mem, r.f_rate, r.eps_avg, r.eps_max) for r in rows] \
        == [(r.storage_bytes, r.a_mem, r.f_rate, r.eps_avg, r.eps_max)
            for r in robustness_only]
    assert all(row.f_rate is not None for row in rows[:-1])


# ---------------------------------------------------------------------------
# heuristic scores


def test_heuristic_scores_exact():
    def scores(tag):
        s = heuristic_scores(tag)
        return (s.a_mem, s.h_opt, s.c_ml)

    assert scores("quaternion") == (1.0, 0.9, 0.8)
    assert scores("sixd") == (0.7, 0.5, 0.9)
    assert scores("euler") == (0.9, 0.6, 0.3)
    assert scores("axis-angle") == (0.9, 0.8, 0.7)
    assert scores("matrix") == (0.3, 0.7, 0.6)
    assert scores("exp-map") == (0.9, 0.6, 0.7)
    fisher = heuristic_scores("fisher")
    assert fisher.a_mem == 0.3
    assert fisher.h_opt is None and fisher.c_ml is None


def test_heuristic_scores_unknown_tag():
    with pytest.raises(RotationError):
        heuristic_scores("octonion")


def test_a_mem_case_table():
    assert A_MEM_CASES == {32: 1.0, 24: 0.9, 48: 0.7, 72: 0.3}


# ---------------------------------------------------------------------------
# full table


def test_full_table_storage_column():
    rows = full_table(FAST, suites=("stability",))
    assert [r.storage_bytes for r in rows] == [24, 24, 32, 72, 24, 48, 72]
    assert [r.representation for r in rows] == list(REPRESENTATIONS)


def test_full_table_fisher_row_absent_metrics():
    rows = full_table(FAST, suites=("stability", "robustness"))
    fisher = rows[-1]
    assert fisher.representation == "fisher"
    for field in ("eps_stab", "s_gimbal", "s_double", "path_length",
                  "t_comp", "t_interp", "t_batch", "f_rate"):
        assert getattr(fisher, field) is None
    assert fisher.a_mem == 0.3


def test_full_table_s_double_only_on_quaternion():
    rows = full_table(FAST, suites=("singularity",))
    for row in rows:
        if row.representation == "quaternion":
            assert row.s_double == 0.0
        else:
            assert row.s_double is None


def test_full_table_quaternion_path_matches_geodesic_mean():
    from rotrepr.bench import interpolation_pairs
    cfg = BenchConfig(n_pairs=30)
    rows = {r.representation: r for r in full_table(cfg, suites=("interp",))}
    pairs = interpolation_pairs(cfg)
    mean_geo = sum(relative_angle(a, b) for a, b in pairs) / len(pairs)
    assert rows["quaternion"].path_length == pytest.approx(mean_geo, rel=1e-6)


def test_full_table_deterministic_non_timing():
    suites = ("stability", "singularity", "interp", "robustness")
    a = full_table(FAST, suites=suites)
    b = full_table(FAST, suites=suites)
    for ra, rb in zip(a, b):
        for field in REPORT_FIELDS:
            va, vb = getattr(ra, field), getattr(rb, field)
            if field.startswith("t_"):
                continue
            assert va == vb or (va != va and vb != vb)  # NaN-safe equality


def test_full_table_unknown_suite():
    with pytest.raises(RotationError):
        full_table(FAST, suites=("stability", "nope"))


def test_round_trip_helper_covers_all_rotation_tags(rng):
    r = haar_matrix(rng)
    for tag in ROTATION_REPRESENTATIONS:
        assert relative_angle(round_trip(tag, r), r) < 1e-9


# ---------------------------------------------------------------------------
# the one-loop gimbal suite against the per-row code it replaced


def _old_gimbal_susceptibility(tag, cfg):
    from rotrepr import (AxisAngle, EulerAngles, RotationVector, SixD,
                         UnitQuaternion, canonicalize, sample_uniform)
    from rotrepr.convert import matrix_to_sixd

    rng = bench_mod._suite_rng(cfg, f"gimbal/{tag}")
    if tag == "matrix":
        return _old_matrix_gimbal_hits(rng, cfg) / cfg.m_singularity
    rep = bench_mod._row_rep(tag)
    eta = bench_mod.PERTURBATION_NORM
    band = bench_mod.GIMBAL_BAND_HALFWIDTH
    direction = bench_mod._direction
    hits = 0
    for _ in range(cfg.m_singularity):
        dist_of = bench_mod._tuple_dist
        if tag == "euler":
            ref = (rng.uniform(-math.pi, math.pi),
                   math.pi / 2 + rng.uniform(-band, band),
                   rng.uniform(-math.pi, math.pi))
            d = direction(rng, 3, eta)
            pert = EulerAngles(ref[0] + d[0], ref[1] + d[1], ref[2] + d[2])
            dist_of = bench_mod._euler_param_dist
        elif tag == "quaternion":
            q = canonicalize(sample_uniform(rng))
            d = direction(rng, 4, eta)
            pert = UnitQuaternion(q.w + d[0], q.x + d[1],
                                  q.y + d[2], q.z + d[3]).normalized()
            ref = q.as_tuple()
            dist_of = bench_mod._quat_param_dist
        elif tag == "axis-angle":
            axis = direction(rng, 3, 1.0)
            theta = rng.uniform(0.0, band)
            d = direction(rng, 4, eta)
            ax = (axis[0] + d[0], axis[1] + d[1], axis[2] + d[2])
            n = math.sqrt(ax[0] ** 2 + ax[1] ** 2 + ax[2] ** 2)
            pert = AxisAngle((ax[0] / n, ax[1] / n, ax[2] / n), theta + d[3])
            ref = axis + (theta,)
        elif tag == "exp-map":
            axis = direction(rng, 3, 1.0)
            theta = rng.uniform(math.pi - band, math.pi)
            ref = (axis[0] * theta, axis[1] * theta, axis[2] * theta)
            d = direction(rng, 3, eta)
            pert = RotationVector((ref[0] + d[0], ref[1] + d[1], ref[2] + d[2]))
        else:
            ref = matrix_to_sixd(bench_mod.haar_matrix(rng)).as_tuple()
            d = direction(rng, 6, eta)
            pert = SixD(tuple(ref[i] + d[i] for i in range(3)),
                        tuple(ref[i] + d[i] for i in range(3, 6)))
        extracted = rep.components(rep.from_matrix(rep.to_matrix(pert)))
        if dist_of(extracted, ref) > cfg.tau:
            hits += 1
    return hits / cfg.m_singularity


def _old_matrix_gimbal_hits(rng, cfg):
    from rotrepr.core import _project_stack

    hits = 0
    for start in range(0, cfg.m_singularity, 256):
        draws = [(bench_mod.haar_matrix(rng).as_flat(),
                  bench_mod._direction(rng, 9, bench_mod.PERTURBATION_NORM))
                 for _ in range(min(256, cfg.m_singularity - start))]
        perts = [[[ref[i] + d[i] for i in range(r, r + 3)] for r in (0, 3, 6)]
                 for ref, d in draws]
        for (ref, _), fixed in zip(draws, _project_stack(perts)):
            hits += bench_mod._tuple_dist(fixed.as_flat(), ref) > cfg.tau
    return hits


@pytest.mark.parametrize("seed", [1, 42, 1911])
@pytest.mark.parametrize("tag", ROTATION_REPRESENTATIONS)
def test_gimbal_bit_identical_to_per_row_code(tag, seed):
    # sizes around one 256-draw chunk; at one of the taus each row's
    # fraction lies strictly between 0 and 1 (exp-map's at 1e-6 only)
    for m in (1, 255, 256, 257, 600):
        for tau in (1e-3, 1e-6, 5e-7):
            cfg = BenchConfig(seed=seed, m_singularity=m, tau=tau)
            assert float.hex(gimbal_susceptibility(tag, cfg)) == \
                float.hex(_old_gimbal_susceptibility(tag, cfg)), (m, tau)
