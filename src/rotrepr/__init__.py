"""rotrepr: SO(3) rotation representations, conversions, interpolation,
rigid registration, and a reproducible benchmark suite."""

from .core import (
    AxisAngle,
    EulerAngles,
    EulerConvention,
    RotationMatrix,
    RotationVector,
    SixD,
    UnitQuaternion,
    ValidationResult,
    canonicalize,
    geodesic_distance,
    project_to_so3,
    relative_angle,
    rotate_vector,
    sample_uniform,
    validate,
)
from .rng import Rng
from .convert import (
    axis_angle_to_matrix,
    axis_angle_to_quat,
    canonicalize_rotation_vector,
    convert,
    euler_to_matrix,
    euler_to_quat,
    exp_map,
    log_map,
    matrix_to_euler,
    matrix_to_quat,
    matrix_to_sixd,
    quat_to_axis_angle,
    quat_to_euler,
    quat_to_matrix,
    quat_to_rotation_vector,
    rotation_vector_to_quat,
    sixd_to_matrix,
)
from .compose import compose_in, matrix_mul, quat_conjugate, quat_inverse, quat_mul
from .interp import (
    Interpolator,
    fisher_blend,
    linear_euler,
    linear_rotation_vector,
    linear_sixd,
    make_interpolator,
    matrix_geodesic,
    nlerp,
    slerp,
)
from .probdist import (
    Bingham,
    MatrixFisher,
    bingham_log_density_unnorm,
    bingham_mode,
    fisher_concentration,
    fisher_log_density_unnorm,
    fisher_mode,
)
from .registration import (
    IcpResult,
    PointSet,
    RigidTransform,
    eig_sym4,
    horn_align,
    icp,
)
from .bench import BenchConfig, BenchReport, full_table, heuristic_scores
from .errors import (
    ContractViolationError,
    DegeneracyError,
    DegenerateInputError,
    InvalidRotationError,
    NonUniqueModeError,
    RotationError,
)

__version__ = "0.1.0"
