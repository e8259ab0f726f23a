"""Operator Stieltjes integrals with respect to the spectral measure of
a normal matrix, the E-norm, and spectral-integral solvers with
existence certificates for Sylvester and Riccati matrix equations."""

__version__ = "0.1.0"


def _seed_thread_env():
    """Seed OMP_NUM_THREADS and friends from OPINT_THREADS, keeping any
    value already set.  OpenBLAS reads them once, when numpy loads, so
    this runs before the package's first numpy import; unset means the
    implementation default."""
    import os

    threads = os.environ.get("OPINT_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, threads)


_seed_thread_env()

from .errors import (
    BoundaryEigenvalueError,
    BoundaryEigenvalueWarning,
    BoundViolationError,
    CertificateViolationError,
    ContourConstructionError,
    GapViolationError,
    InsufficientMemoryError,
    InvalidProblemError,
    MaxIterationsError,
    NoConvergenceError,
    NotNormalError,
    OpintError,
    ShapeMismatchError,
    SingularResolventError,
    SingularSystemError,
    ZeroQuadraticTermError,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    adjoint,
    hs_norm,
    is_normal,
    operator_norm,
    resolvent,
)
from .spectral import (
    Rect,
    SpectralMeasure,
    apply_function,
    decompose_normal,
    measure_of_rect,
    spectral_function,
    spectral_invariant_residuals,
)
from .stieltjes import (
    ConvergenceReport,
    GridPartition,
    OperatorFunction,
    czero_check,
    dyadic_level_sum,
    estimate_lipschitz,
    exact_left_integral,
    exact_right_integral,
    integrate_right,
    left_sum,
    lnest_bound,
    right_sum,
)
from .enorm import bounded_integral_bound_check, check_enorm_sandwich, e_norm
from .sylvester import (
    BoundCheck,
    SylvesterProblem,
    SylvesterReport,
    contour_quadrature,
    dual_solution,
    solve_contour,
    solve_double_spectral,
    solve_kronecker,
    solve_spectral,
    spectral_gap,
    sylvester_residual,
    verify_bounds,
)
from .riccati import (
    ContractionCertificate,
    RiccatiProblem,
    RiccatiReport,
    certify,
    posterior_check,
    riccati_residual,
    solve_fixed_point,
)
