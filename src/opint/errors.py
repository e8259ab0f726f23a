"""Exception and warning types shared across the package."""


class OpintError(Exception):
    """Base class for all errors raised by this package."""


class InvalidProblemError(OpintError):
    """A problem file or problem object is malformed (bad JSON, missing
    matrices, non-finite entries, inconsistent shapes)."""


class ShapeMismatchError(OpintError):
    """Operand shapes are incompatible for the requested operation."""


class NotNormalError(OpintError):
    """The matrix fails the normality test; spectral-measure machinery
    does not apply to it."""


class SingularResolventError(OpintError):
    """M - zI is numerically singular: z sits on (or too close to) the
    spectrum, which signals a spectral-gap violation."""


class GapViolationError(OpintError):
    """The spectral gap between the two coefficient matrices is below the
    clustering tolerance, so the solution formulas are not applicable."""


class SingularSystemError(OpintError):
    """The vectorized linear system is singular, i.e. the spectra overlap."""


class InsufficientMemoryError(OpintError):
    """A dense system would need more memory than the OS reports
    available, so it is refused before anything is allocated."""


class ContourConstructionError(OpintError):
    """No admissible family of circles separating the two spectra was
    found."""


class NoConvergenceError(OpintError):
    """An adaptive refinement exhausted its budget without meeting the
    requested tolerance.  Carries the partial result when available."""

    def __init__(self, message, value=None, report=None):
        super().__init__(message)
        self.value = value
        self.report = report


class MaxIterationsError(OpintError):
    """The fixed-point iteration hit its iteration cap before the step
    size dropped below tolerance."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ZeroQuadraticTermError(OpintError):
    """The quadratic coefficient B is zero: the equation is linear and
    should be solved with the Sylvester routines instead."""


class CertificateViolationError(OpintError):
    """The contraction certificate failed and no override was requested."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class BoundViolationError(OpintError):
    """A norm inequality guaranteed by the theory failed numerically,
    which points at a broken measure rather than a borderline instance."""


class BoundaryEigenvalueError(OpintError):
    """An eigenvalue lies within the clustering tolerance of the rectangle
    boundary, so half-open membership is numerically fragile."""


class BoundaryEigenvalueWarning(UserWarning):
    """Warning-grade version of the boundary-proximity condition: the
    half-open comparison still decides membership, but the result is
    flagged as fragile."""
