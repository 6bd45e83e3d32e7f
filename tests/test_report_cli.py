import json
import math

import pytest

from rotrepr.bench import REPORT_FIELDS, BenchConfig, BenchReport, full_table
from rotrepr.cli import components, main
from rotrepr.convert import convert
from rotrepr.core import RotationMatrix
from rotrepr.interp import _METHODS, INTERPOLATION_METHODS
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


# every cell kind of each format (str, int, float, 0.0, NaN and None),
# its text pinned byte for byte
_FIXED_ROWS = [
    BenchReport("quaternion", 32, eps_stab=1.25e-16, s_gimbal=0.0, s_double=0.0,
                path_length=1.0 / 3.0, eps_geo=2e-300, sigma_deriv=123456.789,
                f_rate=0.5, eps_avg=math.nan, eps_max=math.nan, t_comp=-2.5e17,
                t_interp=1e22, t_batch=0.1, a_mem=1.0, h_opt=0.9, c_ml=0.8),
    BenchReport("fisher", 72, a_mem=0.3)]
_FIXED_RENDERS = {
    "csv": """\
# seed: 7
# suite: all
representation,storage_bytes,eps_stab,s_gimbal,s_double,path_length,eps_geo,sigma_deriv,f_rate,eps_avg,eps_max,t_comp,t_interp,t_batch,a_mem,h_opt,c_ml
quaternion,32,1.2500000000000001e-16,0,0,0.33333333333333331,2.0000000000000001e-300,123456.789,0.5,nan,nan,-2.5e+17,1e+22,0.10000000000000001,1,0.90000000000000002,0.80000000000000004
fisher,72,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,0.29999999999999999,NA,NA
""",
    "json": """\
{
  "meta": {
    "seed": 7,
    "suite": "all"
  },
  "rows": [
    {
      "representation": "quaternion",
      "storage_bytes": 32,
      "eps_stab": 1.25e-16,
      "s_gimbal": 0.0,
      "s_double": 0.0,
      "path_length": 0.3333333333333333,
      "eps_geo": 2e-300,
      "sigma_deriv": 123456.789,
      "f_rate": 0.5,
      "eps_avg": NaN,
      "eps_max": NaN,
      "t_comp": -2.5e+17,
      "t_interp": 1e+22,
      "t_batch": 0.1,
      "a_mem": 1.0,
      "h_opt": 0.9,
      "c_ml": 0.8
    },
    {
      "representation": "fisher",
      "storage_bytes": 72,
      "eps_stab": null,
      "s_gimbal": null,
      "s_double": null,
      "path_length": null,
      "eps_geo": null,
      "sigma_deriv": null,
      "f_rate": null,
      "eps_avg": null,
      "eps_max": null,
      "t_comp": null,
      "t_interp": null,
      "t_batch": null,
      "a_mem": 0.3,
      "h_opt": null,
      "c_ml": null
    }
  ]
}
""",
    "md": """\
- seed: 7
- suite: all

| representation | storage_bytes | eps_stab | s_gimbal | s_double | path_length | eps_geo | sigma_deriv | f_rate | eps_avg | eps_max | t_comp | t_interp | t_batch | a_mem | h_opt | c_ml |
|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|
| quaternion | 32 | 1.25e-16 | 0 | 0 | 0.333333 | 2e-300 | 123457 | 0.5 | nan | nan | -2.5e+17 | 1e+22 | 0.1 | 1 | 0.9 | 0.8 |
| fisher | 72 | NA | NA | NA | NA | NA | NA | NA | NA | NA | NA | NA | NA | 0.3 | NA | NA |
""",
}


@pytest.mark.parametrize("fmt", sorted(_FIXED_RENDERS))
def test_fixed_rows_render_byte_identical(fmt):
    doc = ReportDocument(fmt, _FIXED_ROWS, {"seed": 7, "suite": "all"})
    assert doc.render() == _FIXED_RENDERS[fmt]


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


@pytest.mark.parametrize("tag, value, message", [
    ("quat", "0,0,0,0", "zero quaternion violates the unit-norm invariant"),
    ("quat", "1.1,0,0,0",
     "quaternion norm 1.1 deviates from 1 beyond 1e-6 (unit-norm invariant)"),
    ("matrix", "1,0,0,0,1,0,0,0,-1",
     "matrix violates the rotation invariants (orthogonality residual 0.000e+00, "
     "determinant residual 2.000e+00)"),
    ("axis-angle", "0,0,1,4", "axis-angle angle 4.0 violates the [0, pi] invariant"),
    ("axis-angle", "0,0,1,-0.1", "axis-angle angle -0.1 violates the [0, pi] invariant"),
    ("axis-angle", "2,0,0,1",
     "axis norm 2.0 deviates from 1 beyond 1e-6 (unit-axis invariant)"),
    ("axis-angle", "0,0,0,1",
     "axis norm 0.0 deviates from 1 beyond 1e-6 (unit-axis invariant)"),
    ("rotvec", "1e200,0,0",
     "rotvec value: rotation vector norm is inf (finite-norm invariant)"),
    ("sixd", "1,0,0,2,0,0",
     "sixd value is degenerate: 6D columns are parallel; Gram-Schmidt is ill-posed"),
    ("sixd", "0,0,0,0,1,0",
     "sixd value is degenerate: 6D first column is numerically zero"),
])
def test_convert_rejection_text_and_exit_code(capsys, tag, value, message):
    # each tag's registry check, byte for byte as the CLI printed it
    # before the checks moved into the registry
    code, out, err = run_cli(capsys, "convert", "--from", tag, "--to", "quat",
                             f"--value={value}")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("value, message", [
    ("nan,0,0,0", "--from quat must be finite"),
    ("1,0,inf,0", "--from quat must be finite"),
    ("1,0,x,0", "--from quat: could not convert string to float: 'x'"),
])
def test_convert_rejects_non_finite_or_non_numeric_value(capsys, value, message):
    code, out, err = run_cli(capsys, "convert", "--from", "quat", "--to", "matrix",
                             f"--value={value}")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_convert_keeps_the_axis_of_a_tiny_rotation(capsys):
    code, out, err = run_cli(capsys, "convert", "--from", "axis-angle", "--to", "quat",
                             "--value=1,0,0,1e-13")
    assert (code, out, err) == (0, "1,5.0000000000000002e-14,0,0\n", "")


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


def _identity_endpoint(method):
    tag = _METHODS[method][0]
    if tag is None:  # fisher-blend: MatrixFisher parameters
        return "5,0,0,0,5,0,0,0,5"
    return ",".join(map(repr, components(convert(RotationMatrix.identity(), tag))))


@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("method", INTERPOLATION_METHODS)
def test_interp_non_finite_t_exit_2(capsys, method, t):
    endpoint = _identity_endpoint(method)
    code, out, err = run_cli(capsys, "interp", "--method", method,
                             f"--a={endpoint}", f"--b={endpoint}", f"--t={t}")
    assert (code, out, err) == (2, "", f"error: --t must be finite, got {float(t)}\n")


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


@pytest.mark.parametrize("flag, message", [
    ("--tol=nan", "--tol must be > 0, got nan"),
    ("--tol=0", "--tol must be > 0, got 0.0"),
    ("--max-iter=-1", "--max-iter must be >= 0, got -1"),
])
def test_register_rejects_bad_icp_flags(capsys, tmp_path, flag, message):
    good = tmp_path / "good.xyz"
    good.write_text("0 0 0\n1 0 0\n0 1 0\n")
    code, out, err = run_cli(capsys, "register", "--source", str(good),
                             "--target", str(good), "--method", "icp", flag)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("text, message", [
    ("# only a comment\n\n", " no points found"),
    ("0 0 0\n1 x 0\n", "2: could not convert string to float: 'x'"),
])
def test_register_rejects_empty_or_unparsable_file(capsys, tmp_path, text, message):
    bad = tmp_path / "bad.xyz"
    bad.write_text(text)
    good = tmp_path / "good.xyz"
    good.write_text("0 0 0\n1 0 0\n0 1 0\n")
    code, out, err = run_cli(capsys, "register", "--source", str(bad),
                             "--target", str(good))
    assert (code, out, err) == (2, "", f"error: {bad}:{message}\n")


def _overflowing_pair(tmp_path, rng):
    # a source near -1.5e308 and its copy near +1.5e308: the clouds align,
    # but the translation between them is beyond the float range
    shape = [[rng.normal() * 1e300 for _ in range(3)] for _ in range(10)]
    paths = []
    for name, offset in (("neg.xyz", -1.5e308), ("pos.xyz", 1.5e308)):
        path = tmp_path / name
        path.write_text("\n".join(" ".join(repr(c + offset) for c in row) for row in shape))
        paths.append(str(path))
    return paths


def _fresh_register(source, target, method):
    # a separate interpreter, so stderr is what a user sees
    import os
    import subprocess
    import sys
    from pathlib import Path

    import rotrepr
    env = dict(os.environ, PYTHONWARNINGS="default",
               PYTHONPATH=str(Path(rotrepr.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "rotrepr.cli", "register", "--source", source,
         "--target", target, "--method", method],
        capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("method", ["horn", "icp"])
def test_register_overflowing_cloud_exit_2(capsys, tmp_path, rng, method):
    source, target = _overflowing_pair(tmp_path, rng)
    code, out, err = run_cli(capsys, "register", "--source", source,
                             "--target", target, "--method", method)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "too large" in err


@pytest.mark.parametrize("method", ["horn", "icp"])
def test_register_overflow_prints_no_numpy_warnings(tmp_path, rng, method):
    proc = _fresh_register(*_overflowing_pair(tmp_path, rng), method)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith("error: ") and "too large" in proc.stderr


@pytest.mark.parametrize("method", ["horn", "icp"])
def test_register_huge_cloud_aligns_silently(tmp_path, rng, method):
    # a 1e200 cloud aligned to itself, which exited 2 before the
    # power-of-two frame
    huge = tmp_path / "huge.xyz"
    huge.write_text("\n".join(
        " ".join(repr(rng.normal() * 1e200) for _ in range(3)) for _ in range(10)))
    proc = _fresh_register(str(huge), str(huge), method)
    assert (proc.returncode, proc.stderr) == (0, "")
    fields = dict(line.split(": ") for line in proc.stdout.strip().splitlines())
    quat = [float(v) for v in fields["quaternion"].split(",")]
    assert quat == pytest.approx([1, 0, 0, 0], abs=1e-12)
    assert float(fields["rms"]) < 1e-12 * 1e200


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
