"""Exception hierarchy shared by all rotrepr modules."""


class RotationError(ValueError):
    """Base class for every error raised by this package."""


class DegenerateInputError(RotationError):
    """Input is structurally unusable (zero quaternion, rank-deficient
    matrix, parallel 6D columns, vanishing interpolation blend)."""


class InvalidRotationError(RotationError):
    """A value claimed to be a rotation broke its representation's
    constraints (orthonormal det +1 matrix, unit norm, angle range)."""


class DegeneracyError(RotationError):
    """A well-formed input turned out to be geometrically degenerate
    (collinear point cloud, rank-deficient Fisher parameter, ...)."""


class NonUniqueModeError(DegeneracyError):
    """A distribution mode is not unique (tied concentrations)."""


class ContractViolationError(RotationError):
    """A caller violated a documented precondition (e.g. a non-symmetric
    matrix passed to the symmetric eigensolver)."""
