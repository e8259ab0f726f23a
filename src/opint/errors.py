"""Exception and warning types shared across the package."""


class OpintError(Exception):
    """Base class for all errors raised by this package.

    `exit_code` is the command line's exit status for the error: 2 for
    invalid input (the default), 3 for a violated mathematical
    precondition, 4 for non-convergence."""

    exit_code = 2


class InvalidProblemError(OpintError):
    """A problem file or problem object is malformed (bad JSON, missing
    matrices, non-finite entries, inconsistent shapes)."""


class ShapeMismatchError(OpintError):
    """Operand shapes are incompatible for the requested operation."""


class NotNormalError(OpintError):
    """The matrix fails the normality test; spectral-measure machinery
    does not apply to it."""

    exit_code = 3


class SingularResolventError(OpintError):
    """M - zI is numerically singular: z sits on (or too close to) the
    spectrum, which signals a spectral-gap violation."""

    exit_code = 4


class GapViolationError(OpintError):
    """The spectral gap between the two coefficient matrices is below the
    clustering tolerance, so the solution formulas are not applicable."""

    exit_code = 3


class SingularSystemError(OpintError):
    """The vectorized linear system is singular, i.e. the spectra overlap."""

    exit_code = 3


class InsufficientMemoryError(OpintError):
    """A dense system would need more memory than the OS reports
    available, so it is refused before anything is allocated."""


class ContourConstructionError(OpintError):
    """No admissible family of circles separating the two spectra was
    found."""

    exit_code = 3


class NoConvergenceError(OpintError):
    """An adaptive refinement exhausted its budget without meeting the
    requested tolerance.  Carries the partial result when available."""

    exit_code = 4

    def __init__(self, message, value=None, report=None):
        super().__init__(message)
        self.value = value
        self.report = report


class MaxIterationsError(OpintError):
    """The fixed-point iteration hit its iteration cap before the step
    size dropped below tolerance."""

    exit_code = 4

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ZeroQuadraticTermError(OpintError):
    """The quadratic coefficient B is zero: the equation is linear and
    should be solved with the Sylvester routines instead."""

    exit_code = 3


class CertificateViolationError(OpintError):
    """The contraction certificate failed and no override was requested."""

    exit_code = 3

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class BoundViolationError(OpintError):
    """A norm inequality guaranteed by the theory failed numerically,
    which points at a broken measure rather than a borderline instance."""

    exit_code = 3


class BoundaryEigenvalueError(OpintError):
    """An eigenvalue lies within the clustering tolerance of the rectangle
    boundary, so half-open membership is numerically fragile."""

    exit_code = 3


class BoundaryEigenvalueWarning(UserWarning):
    """Warning-grade version of the boundary-proximity condition: the
    half-open comparison still decides membership, but the result is
    flagged as fragile."""
