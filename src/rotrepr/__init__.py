"""rotrepr: SO(3) rotation representations, conversions, interpolation,
rigid registration, and a reproducible benchmark suite.

The package namespace is lazy (PEP 562): each public name below is
imported from its submodule on first access and then cached here, so a
caller loads only the modules it uses. convert is bound at import,
because importing the submodule rotrepr.convert would otherwise shadow
the function of that name.
"""

import importlib

from .convert import convert

__version__ = "0.1.0"

# submodule -> the public names it exports here
_EXPORTS = {
    "core": "AxisAngle EulerAngles EulerConvention RotationMatrix RotationVector SixD "
            "UnitQuaternion ValidationResult canonicalize geodesic_distance "
            "project_to_so3 relative_angle rotate_vector sample_uniform validate",
    "rng": "Rng",
    "convert": "axis_angle_to_matrix axis_angle_to_quat canonicalize_rotation_vector "
               "convert euler_to_matrix euler_to_quat exp_map log_map matrix_to_euler "
               "matrix_to_quat matrix_to_sixd quat_to_axis_angle quat_to_euler "
               "quat_to_matrix quat_to_rotation_vector rotation_vector_to_quat "
               "sixd_to_matrix",
    "compose": "compose_in matrix_mul quat_conjugate quat_inverse quat_mul",
    "interp": "Interpolator fisher_blend linear_euler linear_rotation_vector linear_sixd "
              "make_interpolator matrix_geodesic nlerp slerp",
    "probdist": "Bingham MatrixFisher bingham_log_density_unnorm bingham_mode "
                "fisher_concentration fisher_log_density_unnorm fisher_mode",
    "registration": "IcpResult PointSet RigidTransform eig_sym4 horn_align icp",
    "bench": "BenchConfig BenchReport full_table heuristic_scores",
    "errors": "ContractViolationError DegeneracyError DegenerateInputError "
              "InvalidRotationError NonUniqueModeError RotationError",
}
# public name -> its submodule
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
