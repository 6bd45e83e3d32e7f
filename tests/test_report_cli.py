import json
import math

import pytest

from rotrepr.bench import REPORT_FIELDS, BenchConfig, BenchReport, full_table
from rotrepr.cli import main
from rotrepr.report import NA, ReportDocument, fmt17, parse_report_csv

FAST = ("--trials", "20", "--batch", "10", "--edge-cases", "30")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# report rendering


def _tiny_rows():
    return [BenchReport(representation="quaternion", storage_bytes=32,
                        eps_stab=1.25e-16, a_mem=1.0, h_opt=0.9, c_ml=0.8),
            BenchReport(representation="fisher", storage_bytes=72, a_mem=0.3)]


def test_csv_header_and_round_trip():
    doc = ReportDocument("csv", _tiny_rows(), {"seed": 42})
    text = doc.render()
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0] == ",".join(REPORT_FIELDS)
    rows = parse_report_csv(text)
    assert rows[0]["representation"] == "quaternion"
    assert rows[0]["eps_stab"] == 1.25e-16  # 17 sig digits round-trips
    assert rows[0]["storage_bytes"] == 32
    assert rows[1]["t_comp"] is None


def test_json_structure():
    doc = ReportDocument("json", _tiny_rows(), {"seed": 42, "suite": "all"})
    data = json.loads(doc.render())
    assert set(data.keys()) == {"meta", "rows"}
    assert data["meta"]["seed"] == 42
    assert data["rows"][1]["eps_stab"] is None
    assert list(data["rows"][0].keys()) == list(REPORT_FIELDS)


def test_markdown_contains_table():
    text = ReportDocument("md", _tiny_rows(), {"seed": 1}).render()
    assert "| representation |" in text.replace("representation |", "representation |")
    assert NA in text


def test_fmt17_round_trips():
    for x in (math.pi, 1e-300, 0.1, -2.5e17, 123456.789):
        assert float(fmt17(x)) == x


def test_unknown_format_rejected():
    with pytest.raises(Exception):
        ReportDocument("xml", [], {})


# ---------------------------------------------------------------------------
# cmd_convert


def test_convert_axis_angle_to_quat(capsys):
    code, out, err = run_cli(capsys, "convert", "--from", "axis-angle",
                             "--to", "quat",
                             "--value", "0,0,1,1.5707963267948966")
    assert code == 0 and err == ""
    vals = [float(v) for v in out.strip().split(",")]
    assert vals == pytest.approx([math.sqrt(0.5), 0.0, 0.0, math.sqrt(0.5)])


def test_convert_quat_to_matrix_identity(capsys):
    code, out, _ = run_cli(capsys, "convert", "--from", "quat", "--to",
                           "matrix", "--value", "1,0,0,0")
    assert code == 0
    assert [float(v) for v in out.strip().split(",")] == [
        1, 0, 0, 0, 1, 0, 0, 0, 1]


def test_convert_zero_quaternion_exit_2(capsys):
    code, out, err = run_cli(capsys, "convert", "--from", "quat", "--to",
                             "quat", "--value", "0,0,0,0")
    assert code == 2
    assert out == ""
    assert "zero quaternion" in err


def test_convert_non_unit_quaternion_exit_2(capsys):
    code, _, err = run_cli(capsys, "convert", "--from", "quat", "--to",
                           "matrix", "--value", "1.1,0,0,0")
    assert code == 2
    assert "unit-norm" in err


def test_convert_arity_mismatch_exit_2(capsys):
    code, _, err = run_cli(capsys, "convert", "--from", "quat", "--to",
                           "matrix", "--value", "1,0,0")
    assert code == 2
    assert "4" in err


def test_convert_invalid_matrix_exit_2(capsys):
    code, _, err = run_cli(capsys, "convert", "--from", "matrix", "--to",
                           "quat", "--value", "1,0,0,0,1,0,0,0,-1")
    assert code == 2
    assert "invariant" in err


def test_convert_rotvec_overflow_exit_2(capsys):
    code, out, err = run_cli(capsys, "convert", "--from", "rotvec", "--to",
                             "quat", "--value=1e200,0,0")
    assert code == 2
    assert out == ""
    assert "finite-norm invariant" in err


def test_convert_euler_round_trip_via_cli(capsys):
    code, out, _ = run_cli(capsys, "convert", "--from", "euler-zyx", "--to",
                           "sixd", "--value", "0.1,0.2,0.3")
    assert code == 0
    code, out2, _ = run_cli(capsys, "convert", "--from", "sixd", "--to",
                            "euler-zyx", "--value", out.strip())
    assert code == 0
    angles = [float(v) for v in out2.strip().split(",")]
    assert angles == pytest.approx([0.1, 0.2, 0.3], abs=1e-12)


# ---------------------------------------------------------------------------
# cmd_interp


def test_interp_slerp_midpoint(capsys):
    code, out, _ = run_cli(capsys, "interp", "--method", "slerp",
                           "--a", "1,0,0,0",
                           "--b", "0.7071067811865476,0,0,0.7071067811865476",
                           "--t", "0.5")
    assert code == 0
    row = [float(v) for v in out.strip().split(",")]
    assert row[0] == 0.5
    assert row[1:5] == pytest.approx(
        [math.cos(math.pi / 8), 0.0, 0.0, math.sin(math.pi / 8)])


def test_interp_two_samples_are_endpoints(capsys):
    code, out, _ = run_cli(capsys, "interp", "--method", "matrix-geodesic",
                           "--a", "1,0,0,0,1,0,0,0,1",
                           "--b", "0,-1,0,1,0,0,0,0,1",
                           "--samples", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    first = [float(v) for v in lines[0].split(",")]
    last = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0 and last[0] == 1.0
    assert first[1:10] == pytest.approx([1, 0, 0, 0, 1, 0, 0, 0, 1], abs=1e-12)
    assert last[-1] == pytest.approx(math.pi / 2, abs=1e-9)  # cumulative length


def test_interp_degenerate_sixd_blend_exit_1(capsys):
    code, out, err = run_cli(capsys, "interp", "--method", "linear-sixd",
                             "--a", "1,0,0,0,1,0",
                             "--b=-1,0,0,0,1,0",
                             "--t", "0.5")
    assert code == 1
    assert "t=" in err


def test_interp_bad_method_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["interp", "--method", "squad", "--a", "1,0,0,0", "--b", "1,0,0,0"])
    assert exc.value.code == 2


def test_interp_fisher_blend(capsys):
    code, out, _ = run_cli(capsys, "interp", "--method", "fisher-blend",
                           "--a", "5,0,0,0,5,0,0,0,5",
                           "--b", "0,-5,0,5,0,0,0,0,5",
                           "--samples", "3")
    assert code == 0
    assert len(out.strip().splitlines()) == 3


# ---------------------------------------------------------------------------
# cmd_register


@pytest.fixture
def cloud_files(tmp_path, rng):
    import numpy as np
    from conftest import haar_matrix
    src = np.array([[rng.normal(), rng.normal(), rng.normal()]
                    for _ in range(40)])
    r0 = haar_matrix(rng)
    t0 = np.array([0.2, -0.1, 0.4])
    tgt = src @ r0.as_array().T + t0
    s = tmp_path / "src.xyz"
    t = tmp_path / "tgt.xyz"
    s.write_text("# source cloud\n" + "\n".join(
        " ".join(repr(float(v)) for v in row) for row in src) + "\n")
    t.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in tgt) + "\n")
    return s, t, r0, t0


def test_register_identity(capsys, tmp_path):
    f = tmp_path / "pts.xyz"
    f.write_text("0 0 0\n1 0 0\n0 1 0\n0 0 1\n")
    code, out, _ = run_cli(capsys, "register", "--source", str(f),
                           "--target", str(f), "--method", "horn")
    assert code == 0
    fields = dict(line.split(": ") for line in out.strip().splitlines())
    assert float(fields["rms"]) < 1e-12
    quat = [float(v) for v in fields["quaternion"].split(",")]
    assert quat == pytest.approx([1, 0, 0, 0], abs=1e-9)


def test_register_recovers_transform(capsys, cloud_files):
    src, tgt, r0, t0 = cloud_files
    code, out, _ = run_cli(capsys, "register", "--source", str(src),
                           "--target", str(tgt), "--method", "horn")
    assert code == 0
    fields = dict(line.split(": ") for line in out.strip().splitlines())
    matrix = [float(v) for v in fields["matrix"].split(",")]
    assert matrix == pytest.approx(list(r0.as_flat()), abs=1e-9)
    translation = [float(v) for v in fields["translation"].split(",")]
    assert translation == pytest.approx(list(t0), abs=1e-9)


def test_register_shipped_fixture_pair(capsys):
    # static constructive-oracle fixture: target = R0 source + t0
    from pathlib import Path
    fixtures = Path(__file__).parent / "fixtures"
    expected = json.loads((fixtures / "register_expected.json").read_text())
    code, out, _ = run_cli(capsys, "register",
                           "--source", str(fixtures / "register_source.xyz"),
                           "--target", str(fixtures / "register_target.xyz"),
                           "--method", "horn")
    assert code == 0
    fields = dict(line.split(": ") for line in out.strip().splitlines())
    matrix = [float(v) for v in fields["matrix"].split(",")]
    translation = [float(v) for v in fields["translation"].split(",")]
    assert matrix == pytest.approx(expected["matrix"], abs=1e-9)
    assert translation == pytest.approx(expected["translation"], abs=1e-9)
    assert float(fields["rms"]) < 1e-12


def test_register_icp_reports_iterations(capsys, tmp_path, rng):
    import numpy as np
    src = np.array([[rng.normal(), rng.normal(), rng.normal()]
                    for _ in range(60)])
    tgt = src + np.array([0.02, 0.01, -0.015])
    s = tmp_path / "a.xyz"
    t = tmp_path / "b.xyz"
    s.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in src))
    t.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in tgt))
    code, out, _ = run_cli(capsys, "register", "--source", str(s),
                           "--target", str(t), "--method", "icp")
    assert code == 0
    fields = dict(line.split(": ") for line in out.strip().splitlines())
    assert int(fields["iterations"]) >= 1
    assert float(fields["rms"]) < 1e-9


def test_register_bad_line_reports_number(capsys, tmp_path):
    bad = tmp_path / "bad.xyz"
    bad.write_text("0 0 0\n1 2\n3 4 5\n")
    good = tmp_path / "good.xyz"
    good.write_text("0 0 0\n1 0 0\n0 1 0\n")
    code, _, err = run_cli(capsys, "register", "--source", str(bad),
                           "--target", str(good))
    assert code == 2
    assert ":2:" in err


def test_register_missing_file_exit_2(capsys, tmp_path):
    good = tmp_path / "good.xyz"
    good.write_text("0 0 0\n1 0 0\n0 1 0\n")
    code, _, err = run_cli(capsys, "register", "--source",
                           str(tmp_path / "absent.xyz"), "--target", str(good))
    assert code == 2
    assert "cannot read" in err


def test_register_degenerate_cloud_exit_1(capsys, tmp_path):
    line = tmp_path / "line.xyz"
    line.write_text("\n".join(f"{i} 0 0" for i in range(10)))
    code, _, err = run_cli(capsys, "register", "--source", str(line),
                           "--target", str(line), "--method", "horn")
    assert code == 1
    assert "collinear" in err


@pytest.mark.parametrize("value", ["nan", "1e400", "-inf"])
def test_register_non_finite_value_reports_line(capsys, tmp_path, value):
    bad = tmp_path / "bad.xyz"
    bad.write_text(f"0 0 0\n1 0 0\n0 {value} 0\n")
    good = tmp_path / "good.xyz"
    good.write_text("0 0 0\n1 0 0\n0 1 0\n")
    code, _, err = run_cli(capsys, "register", "--source", str(bad),
                           "--target", str(good))
    assert code == 2
    assert f"{bad}:3: coordinates must be finite" in err


@pytest.mark.parametrize("method", ["horn", "icp"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_register_overflowing_cloud_exit_2(capsys, tmp_path, rng, method):
    huge = tmp_path / "huge.xyz"
    huge.write_text("\n".join(
        " ".join(repr(rng.normal() * 1e200) for _ in range(3)) for _ in range(10)))
    code, out, err = run_cli(capsys, "register", "--source", str(huge),
                             "--target", str(huge), "--method", method)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "too large" in err


@pytest.mark.parametrize("method", ["horn", "icp"])
def test_register_overflow_prints_no_numpy_warnings(tmp_path, rng, method):
    # a separate interpreter, so stderr is what a user sees
    import os
    import subprocess
    import sys
    from pathlib import Path

    import rotrepr
    huge = tmp_path / "huge.xyz"
    huge.write_text("\n".join(
        " ".join(repr(rng.normal() * 1e200) for _ in range(3)) for _ in range(10)))
    env = dict(os.environ, PYTHONWARNINGS="default",
               PYTHONPATH=str(Path(rotrepr.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "rotrepr.cli", "register", "--source", str(huge),
         "--target", str(huge), "--method", method],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith("error: ") and "too large" in proc.stderr


def test_register_tiny_cloud_is_not_collinear(capsys, tmp_path, rng):
    tiny = tmp_path / "tiny.xyz"
    tiny.write_text("\n".join(
        " ".join(repr(rng.normal() * 1e-7) for _ in range(3)) for _ in range(10)))
    code, out, _ = run_cli(capsys, "register", "--source", str(tiny),
                           "--target", str(tiny), "--method", "horn")
    assert code == 0
    fields = dict(line.split(": ") for line in out.strip().splitlines())
    quat = [float(v) for v in fields["quaternion"].split(",")]
    assert quat == pytest.approx([1, 0, 0, 0], abs=1e-9)


# ---------------------------------------------------------------------------
# cmd_sample


def test_sample_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "sample", "--n", "3", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "sample", "--n", "3", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    for line in out1.strip().splitlines():
        w, x, y, z = (float(v) for v in line.split(","))
        assert abs(math.sqrt(w * w + x * x + y * y + z * z) - 1.0) < 1e-12
        assert w >= 0.0  # canonicalized


def test_sample_zero_count_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--n", "0"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# cmd_bench


def test_bench_trials_zero_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--trials", "0"])
    assert exc.value.code == 2


def test_bench_csv_header(capsys):
    code, out, _ = run_cli(capsys, "bench", "--suite", "stability",
                           "--format", "csv", *FAST)
    assert code == 0
    header = next(l for l in out.splitlines() if not l.startswith("#"))
    assert header == ",".join(REPORT_FIELDS)


def test_bench_stability_json_deterministic(capsys):
    args = ("bench", "--suite", "stability", "--seed", "42",
            "--format", "json", *FAST)
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    assert a["rows"] == b["rows"]  # non-timing suite: fully identical


def test_bench_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "bench", "--suite", "robustness",
                           "--out", str(out_path), *FAST)
    assert code == 0
    assert out == ""
    rows = parse_report_csv(out_path.read_text())
    assert len(rows) == 7


def test_bench_csv_parse_matches_values(capsys):
    code, out, _ = run_cli(capsys, "bench", "--suite", "stability",
                           "--format", "csv", "--seed", "11", *FAST)
    assert code == 0
    rows = parse_report_csv(out)
    cfg = BenchConfig(seed=11, trials=20, batch=10, n_edge=30)
    direct = full_table(cfg, suites=("stability",))
    for parsed, row in zip(rows, direct):
        assert parsed["eps_stab"] == row.eps_stab or (
            parsed["eps_stab"] is None and row.eps_stab is None)


@pytest.mark.parametrize("to_file", [False, True])
def test_bench_row_error_keeps_completed_rows(monkeypatch, tmp_path, capsys,
                                              to_file):
    import rotrepr.bench as bench_mod
    from rotrepr.errors import RotationError

    real = bench_mod.stability_suite

    def broken(tag, cfg):
        if tag == "sixd":
            raise RotationError("injected failure")
        return real(tag, cfg)

    monkeypatch.setattr(bench_mod, "stability_suite", broken)
    out_path = tmp_path / "report.csv"
    argv = ["bench", "--suite", "stability", "--format", "csv", *FAST]
    if to_file:
        argv += ["--out", str(out_path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    text = out_path.read_text() if to_file else out
    assert (out == "") == to_file
    rows = {r["representation"]: r for r in parse_report_csv(text)}
    assert len(rows) == 7
    assert rows["quaternion"]["eps_stab"] is not None
    assert rows["sixd"]["eps_stab"] is None
    sixd_line = next(l for l in text.splitlines() if l.startswith("sixd,"))
    assert sixd_line.split(",")[REPORT_FIELDS.index("eps_stab")] == NA
    assert err.splitlines() == [
        "error: row sixd/stability failed (cells NA): injected failure"]
