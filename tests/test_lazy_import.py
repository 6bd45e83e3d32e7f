"""The lazy package namespace and the numpy-free rotation paths.

`rotrepr/__init__` resolves each public name from its submodule on first
access (PEP 562). These tests pin the exports it had as eager imports,
and check in fresh interpreters that the plain-Python kernels (every
convert route, every compose_in tag, the six rotation interpolators and
relative_angle) load neither numpy nor the numpy-backed modules.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rotrepr

SRC = str(Path(rotrepr.__file__).resolve().parents[1])

# the package's exports, by the submodule that defines each
EXPORTS = {
    "core": ["AxisAngle", "EulerAngles", "EulerConvention", "RotationMatrix",
             "RotationVector", "SixD", "UnitQuaternion", "ValidationResult",
             "canonicalize", "geodesic_distance", "project_to_so3", "relative_angle",
             "rotate_vector", "sample_uniform", "validate"],
    "rng": ["Rng"],
    "convert": ["axis_angle_to_matrix", "axis_angle_to_quat",
                "canonicalize_rotation_vector", "convert", "euler_to_matrix",
                "euler_to_quat", "exp_map", "log_map", "matrix_to_euler",
                "matrix_to_quat", "matrix_to_sixd", "quat_to_axis_angle",
                "quat_to_euler", "quat_to_matrix", "quat_to_rotation_vector",
                "rotation_vector_to_quat", "sixd_to_matrix"],
    "compose": ["compose_in", "matrix_mul", "quat_conjugate", "quat_inverse", "quat_mul"],
    "interp": ["Interpolator", "fisher_blend", "linear_euler", "linear_rotation_vector",
               "linear_sixd", "make_interpolator", "matrix_geodesic", "nlerp", "slerp"],
    "probdist": ["Bingham", "MatrixFisher", "bingham_log_density_unnorm", "bingham_mode",
                 "fisher_concentration", "fisher_log_density_unnorm", "fisher_mode"],
    "registration": ["IcpResult", "PointSet", "RigidTransform", "eig_sym4",
                     "horn_align", "icp"],
    "bench": ["BenchConfig", "BenchReport", "full_table", "heuristic_scores"],
    "errors": ["ContractViolationError", "DegeneracyError", "DegenerateInputError",
               "InvalidRotationError", "NonUniqueModeError", "RotationError"],
}
ALL_NAMES = {name for names in EXPORTS.values() for name in names}


def _fresh(script: str) -> dict:
    """The JSON a script prints in a fresh interpreter on these sources."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items()
                                          for n in names])
def test_every_export_is_its_submodules_object(module, name):
    home = importlib.import_module(f"rotrepr.{module}")
    assert getattr(rotrepr, name) is getattr(home, name)


def test_convert_stays_the_function_after_importing_its_submodule():
    import rotrepr.convert  # noqa: F401
    from rotrepr import convert

    assert convert is sys.modules["rotrepr.convert"].convert
    # the same when the submodule is the first import of the process
    assert _fresh("import json, rotrepr.convert; from rotrepr import convert; "
                  "print(json.dumps(convert.__module__))") == "rotrepr.convert"


def test_dir_and_star_import_cover_every_export():
    assert ALL_NAMES <= set(dir(rotrepr))
    assert set(rotrepr.__all__) == ALL_NAMES
    namespace = {}
    exec("from rotrepr import *", namespace)
    assert ALL_NAMES <= set(namespace)
    assert namespace["convert"] is sys.modules["rotrepr.convert"].convert


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rotrepr.no_such_name
    assert not hasattr(rotrepr, "no_such_name")
    with pytest.raises(ImportError):
        exec("from rotrepr import no_such_name", {})


# every route, compose_in tag, rotation interpolator and relative_angle on
# hand-built values; then the modules loaded so far; then the numpy-backed
# calls, which must still work
PLAIN_PATHS = """
import json, sys
from rotrepr import (UnitQuaternion, compose_in, convert, make_interpolator,
                     quat_to_matrix, relative_angle)
from rotrepr.convert import _BY_TAG, REPRESENTATION_TAGS
from rotrepr.interp import INTERPOLATION_METHODS, _METHODS

r1 = quat_to_matrix(UnitQuaternion(0.5, 0.5, 0.5, 0.5))
r2 = quat_to_matrix(UnitQuaternion(0.8, 0.0, 0.6, 0.0))
for src in REPRESENTATION_TAGS:
    a, b = _BY_TAG[src].from_matrix(r1), _BY_TAG[src].from_matrix(r2)
    compose_in(src, a, b)
    for dst in REPRESENTATION_TAGS:
        convert(a, dst)
rotation_methods = [m for m in INTERPOLATION_METHODS if _METHODS[m][0] is not None]
for method in rotation_methods:
    start, end = (_BY_TAG[_METHODS[method][0]].from_matrix(r) for r in (r1, r2))
    _METHODS[method][1](start, end, 0.3)
    make_interpolator(method, r1, r2).eval(0.3)
relative_angle(r1, r2)
loaded = sorted(name for name in ("numpy", "rotrepr.registration", "rotrepr.probdist",
                                  "rotrepr.bench", "rotrepr.report", "rotrepr.cli")
                if name in sys.modules)

import numpy as np
from rotrepr import MatrixFisher, Rng, project_to_so3, sample_uniform, validate
after = {
    "validate": bool(validate(np.eye(3))) and not validate(2.0 * np.eye(3)),
    "as_array": r1.as_array().tolist() == [list(row) for row in r1.rows],
    "project": relative_angle(project_to_so3(2.0 * r1.as_array()), r1) < 1e-15,
    "fisher": relative_angle(make_interpolator(
        "fisher-blend", MatrixFisher(np.eye(3)), MatrixFisher(2.0 * r2.as_array())
    ).eval(1.0), r2) < 1e-15,
    "rng": bool(validate(quat_to_matrix(sample_uniform(Rng(42))))),
}
print(json.dumps({"methods": len(rotation_methods), "loaded": loaded, "after": after}))
"""


def test_rotation_paths_load_no_numpy():
    out = _fresh(PLAIN_PATHS)
    assert out["methods"] == 6
    assert out["loaded"] == []
    assert out["after"] == dict.fromkeys(out["after"], True)
