"""Certified fixed-point solution of the Riccati equation XA - CX + XBX = D.

The equation is solved through the integral map
F(X) = sum_k P_k D (A + BX - zeta_k)^{-1} over the atoms of the
spectral measure of C.  When sqrt(||B|| ||D||_E) < d/2 (d a lower bound
on min_k sigma_min(A - zeta_k) from the spectrum or the numerical range
of A), F is a strict contraction on an explicit ball, so the iteration
converges to the unique solution in that ball and the certificate
records every quantitative ingredient.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .enorm import BoundCheck, e_norm
from .errors import (
    CertificateViolationError,
    MaxIterationsError,
    ShapeMismatchError,
    SingularResolventError,
    ZeroQuadraticTermError,
)
from .linalg import (DEFAULT_TOLERANCES, Tolerances, _norm_test, _per_block, as_matrix,
                     operator_norm)
from .sylvester import _Prepared, _separation, _spectral_solve

__all__ = [
    "RiccatiProblem",
    "ContractionCertificate",
    "RiccatiReport",
    "certify",
    "solve_fixed_point",
    "riccati_residual",
    "posterior_check",
]


@dataclass(frozen=True, eq=False)
class RiccatiProblem(_Prepared):
    """Data (A, B, C, D) of the equation XA - CX + XBX = D; C normal.
    Frozen, with read-only copies of the matrices; see `_Prepared`."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    tolerances: Tolerances = field(default=DEFAULT_TOLERANCES, repr=False)


@dataclass(frozen=True)
class ContractionCertificate:
    """Quantitative record certifying solvability by contraction.

    d is the larger bound of `linalg.separation`, which mode names:
    "normal_a" (the spectral one, also on ties) or "numerical_range" (on
    dist(W(A), spec(C))).  condition_ok
    holds exactly when sqrt(||B|| ||D||_E) < d/2; then [r_min, r_max) is
    the admissible radius interval, q_at_rmin the contraction factor on
    the smallest admissible ball, and the a-priori bounds cap both the
    operator and the E-norm of the solution by r_min.
    """

    mode: str
    d: float
    norm_b: float
    enorm_d: float
    condition_ok: bool
    r_min: float
    r_max: float
    q_at_rmin: float
    apriori_norm_x: float
    apriori_enorm_x: float
    strict_contraction_predicted: bool


@dataclass
class RiccatiReport:
    """Solution record of a fixed-point run."""

    X: np.ndarray
    iterations: int
    residual: float
    enorm_x: float
    certificate: ContractionCertificate
    converged: bool
    step_norms: list = field(default_factory=list)


def riccati_residual(prob, X):
    """||XA - CX + XBX - D|| recomputed from scratch; inf when it overflows."""
    X = np.asarray(X, dtype=np.complex128)
    with np.errstate(all="ignore"):
        R = X @ prob.A - prob.C @ X + X @ prob.B @ X - prob.D
    return operator_norm(R) if np.isfinite(R).all() else math.inf


def certify(prob):
    """Contraction certificate for the fixed-point map of the problem.

    Computed once and kept on the problem.  Raises
    ZeroQuadraticTermError when B = 0: the equation is then a plain
    Sylvester equation and should be solved as such.
    """
    return prob._cached("certify", lambda: _certify(prob))


def _certify(prob):
    norm_b = operator_norm(prob.B)
    if norm_b == 0.0:
        raise ZeroQuadraticTermError(
            "B = 0 turns the equation into a Sylvester equation; "
            "use the sylvester solvers instead")
    sm = prob.measure()
    spectral, numrange = _separation(prob)
    d = max(spectral, numrange)
    mode = "normal_a" if spectral >= numrange else "numerical_range"
    enorm_d = e_norm(prob.D, sm)
    # sqrt(||B||) sqrt(||D||_E), h + disc = d - ||B|| r_min and r_min without
    # its cancellation: no product of mismatched scales leaves the float range
    g, h = math.sqrt(norm_b) * math.sqrt(enorm_d), d / 2.0
    condition_ok = g < h
    if condition_ok:
        disc = math.sqrt(h - g) * math.sqrt(h + g)
        r_min = enorm_d / (h + disc)
        r_max = (d - g) / norm_b
        q_at_rmin = (g / (h + disc)) ** 2
    else:
        r_min = r_max = q_at_rmin = math.nan
    # ||D||_E < d^2 / (4 ||B||) is the condition itself
    strict_predicted = ((norm_b < h and norm_b + enorm_d < d)
                        or (norm_b >= h and condition_ok))
    return ContractionCertificate(
        mode=mode, d=d, norm_b=norm_b, enorm_d=enorm_d,
        condition_ok=condition_ok, r_min=r_min, r_max=r_max,
        q_at_rmin=q_at_rmin,
        apriori_norm_x=r_min, apriori_enorm_x=r_min,
        strict_contraction_predicted=strict_predicted)


def _apply_map(prob, sm, X):
    """One application of F(X) = sum_k P_k D (A + BX - zeta_k)^{-1}: at
    X = 0 on the upper triangle of A's kept form, else on a Hessenberg
    form of A + BX, whose eigenvalues are never read; None when A + BX is
    not finite."""
    if not X.any():
        T, U = prob.schur()
        return _spectral_solve((np.triu(T), U), sm, prob.D)
    import scipy.linalg
    with np.errstate(all="ignore"):
        M = prob.A + prob.B @ X
    return (_spectral_solve(scipy.linalg.hessenberg(M, calc_q=True), sm, prob.D)
            if np.isfinite(M).all() else None)


def solve_fixed_point(prob, x0=None, tol=1e-10, max_iter=100,
                      override_certificate=False):
    """Iterate the integral map to a fixed point.

    Starts from x0 (default zero, which lies in every admissible ball)
    and stops when ||X_{n+1} - X_n|| <= tol * max(1, ||X_n||).  When the
    certificate fails, the solve proceeds only with
    override_certificate=True; the theorem is sufficient rather than
    necessary, so best-effort iteration is still offered, with honest
    reporting.

    Raises ValueError for a tol that is not a finite nonnegative number,
    MaxIterationsError (with the partial report attached) when max_iter
    is exhausted or A + BX overflows, and propagates SingularResolventError
    when an iterate drives A + BX onto the spectrum of C.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    cert = certify(prob)
    if not cert.condition_ok and not override_certificate:
        raise CertificateViolationError(
            "contraction certificate failed: sqrt(||B|| ||D||_E) = "
            f"{math.sqrt(cert.norm_b) * math.sqrt(cert.enorm_d):.6g} is not below d/2 = "
            f"{cert.d / 2.0:.6g}; pass override_certificate=True to iterate "
            "without a guarantee", certificate=cert)
    sm = prob.measure()
    if x0 is None:
        X = np.zeros((prob.k, prob.h), dtype=np.complex128)
    else:
        X = as_matrix(x0, "x0")
        if X.shape != (prob.k, prob.h):
            raise ShapeMismatchError(
                f"x0 must be ({prob.k} x {prob.h}), got {X.shape}")
    step_norms = []
    converged = False
    why = f"did not converge in {max_iter} steps"
    for iterations in range(1, max_iter + 1):
        X_next = _apply_map(prob, sm, X)
        if X_next is None:
            why = f"diverged: A + BX is not finite at step {iterations}"
            break
        step = operator_norm(X_next - X)
        step_norms.append(step)
        X = X_next
        if _norm_test(lambda norm: step <= tol * max(1.0, norm), (X,)):
            converged = True
            break
    report = RiccatiReport(X=X, iterations=len(step_norms),
                           residual=riccati_residual(prob, X),
                           enorm_x=e_norm(X, sm), certificate=cert,
                           converged=converged, step_norms=step_norms)
    if not converged:
        last = f" (last step {step_norms[-1]:.3e})" if step_norms else ""
        raise MaxIterationsError(f"fixed-point iteration {why}{last}", report=report)
    return report


def _sup_resolvent_norm(M, zetas, tol):
    """sup_k ||(M - zeta_k)^{-1}|| = max_k 1 / sigma_min(M - zeta_k), from
    batched SVDs of the shifted matrices, as many at once as `_per_block` fits.

    Forming M - zeta errs by about eps (||M|| + |zeta|), the SVD adds
    about eps sigma_max, and ||M|| <= sigma_max + |zeta|.  So a shift
    counts as numerically singular, and raises SingularResolventError,
    unless sigma_min > tol_solve (sigma_max + |zeta|); a failed or
    non-finite SVD raises the same way.
    """
    step = _per_block(M.size)
    try:
        sigma = np.concatenate([
            np.linalg.svd(M - zetas[i:i + step, None, None] * np.eye(len(M)),
                          compute_uv=False)
            for i in range(0, len(zetas), step)])
    except np.linalg.LinAlgError as exc:
        raise SingularResolventError("SVD of a shifted A + BX failed") from exc
    smin, smax = sigma[:, -1], sigma[:, 0]
    singular = ~(smin > tol.tol_solve * (smax + np.abs(zetas)))
    if singular.any():
        k = int(np.argmax(singular))
        raise SingularResolventError(
            f"A + BX - zI is numerically singular at z = {complex(zetas[k])} "
            f"(sigma_min {smin[k]:.3e}, sigma_max {smax[k]:.3e})")
    return float(np.max(1.0 / smin))


def posterior_check(prob, report):
    """A-posteriori bounds evaluated on a converged solution.

    Returns named BoundCheck entries:

      aposteriori_sup_resolvent  ||X||_E <= ||D||_E *
                                 sup_k ||(A + BX - zeta_k)^{-1}||
      aposteriori_gap            ||X||_E <= ||D||_E / (d - ||B|| ||X||),
                                 present when the denominator is positive
      strict_enorm_lt_1          ||X||_E < 1, and
      strict_norm_order          ||X|| <= ||X||_E,
                                 both present when the certificate
                                 predicted a strict contraction
    """
    cert = report.certificate
    sm = prob.measure()
    X = report.X
    enorm_x = e_norm(X, sm)
    enorm_d = cert.enorm_d
    sup_res = _sup_resolvent_norm(prob.A + prob.B @ X, sm.eigenvalues,
                                  prob.tolerances)
    checks = {"aposteriori_sup_resolvent": BoundCheck(enorm_d * sup_res, enorm_x)}
    norm_x = operator_norm(X)
    denom = cert.d - cert.norm_b * norm_x
    if denom > 0:
        checks["aposteriori_gap"] = BoundCheck(enorm_d / denom, enorm_x)
    if cert.strict_contraction_predicted:
        checks["strict_enorm_lt_1"] = BoundCheck(1.0, enorm_x)
        checks["strict_norm_order"] = BoundCheck(enorm_x, norm_x)
    return checks
